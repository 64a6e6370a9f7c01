import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pfguide import (cli, load_scenario, realistic_scenario, run_scenario,
                     scenario_from_config, transient_scenario)
from pfguide.exceptions import ConfigError
from pfguide.sim import TRACE_COLUMNS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = {
    "path": {"name": "case_study"},
    "initial": {"x": 10.0, "y": 10.0, "psi": None, "omega": 2.5},
    "u_r": 0.15,
    "T_m": 1.0,
    "T_p": 1.0,
    "duration": 20.0,
    "law": "sglos",
    "disturbance": {"kind": "sinusoid", "amplitude": 0.15, "period": 60.0},
    "filter_enabled": False,
}


class TestScenarioFromConfig:
    def test_base_document(self):
        sc = scenario_from_config(dict(BASE))
        assert sc.law == "sglos"
        assert sc.disturbance.kind == "sinusoid"
        assert sc.path.name == "case_study"

    def test_unknown_top_level_key(self):
        doc = dict(BASE, extra=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            scenario_from_config(doc)

    def test_unknown_nested_key(self):
        doc = dict(BASE, disturbance={"kind": "sinusoid", "amplitude": 0.1,
                                      "period": 60.0, "spin": 2})
        with pytest.raises(ConfigError, match="unknown disturbance"):
            scenario_from_config(doc)
        doc = dict(BASE, initial={"x": 0, "y": 0, "omega": 0, "heading": 1})
        with pytest.raises(ConfigError, match="unknown initial"):
            scenario_from_config(doc)

    def test_missing_required(self):
        doc = dict(BASE)
        del doc["duration"]
        with pytest.raises(ConfigError, match="duration"):
            scenario_from_config(doc)
        doc = dict(BASE, initial={"x": 10.0, "y": 10.0})
        with pytest.raises(ConfigError, match="initial.omega"):
            scenario_from_config(doc)

    @pytest.mark.parametrize("doc, match", [
        (dict(BASE, initial={"x": 10.0, "y": 10.0, "omega": -0.5}),
         "initial omega must be >= 0"),
        (dict(BASE, law="nmpc", law_params={"Q": [1.0, 1.0]}),
         "Q must be a list of 3"),
        (dict(BASE, law="nmpc", law_params={"R": 10.0}),
         "R must be a list of 3"),
        (dict(BASE, converge_band=-1.0), "converge_band must be positive"),
    ], ids=["omega-negative", "Q-length-2", "R-scalar",
            "converge_band-negative"])
    def test_out_of_range_values_rejected(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            scenario_from_config(doc)

    def test_type_checks(self):
        with pytest.raises(ConfigError):
            scenario_from_config(dict(BASE, duration="long"))
        with pytest.raises(ConfigError):
            scenario_from_config(dict(BASE, filter_enabled="yes"))

    def test_law_params_nmpc(self):
        doc = dict(BASE, law="nmpc", law_params={
            "N": 4, "Q": [1.0, 1.0, 0.0], "R": [10.0, 1e-5, 1e-5],
            "lambda": 1.2, "sglos": {"k1": 0.3, "k2": 0.8, "delta": 0.5}})
        sc = scenario_from_config(doc)
        cfg = sc.guidance_config()
        assert cfg.N == 4 and cfg.lam == 1.2
        assert np.array_equal(cfg.Q, [1.0, 1.0, 0.0])

    def test_horizon_must_be_an_integer_not_a_boolean(self):
        for N in (True, False, 0, 2.0, "3"):
            doc = dict(BASE, law="nmpc", law_params={"N": N})
            with pytest.raises(ConfigError, match="N must be a positive"):
                scenario_from_config(doc)

    @pytest.mark.parametrize("doc", [
        dict(BASE, law="nmpc", law_params={"lambda": math.nan}),
        dict(BASE, law="nmpc", law_params={"Q": [1.0, math.inf, 0.0]}),
        dict(BASE, constraints={"du_max": math.nan}),
        dict(BASE, converge_band=math.nan),
        dict(BASE, duration=math.nan),
        dict(BASE, duration=math.inf),
        dict(BASE, T_p=-math.inf),
        dict(BASE, initial={"x": math.inf, "y": 0.0, "omega": 0.0}),
        dict(BASE, disturbance={"kind": "sinusoid", "amplitude": math.nan,
                                "period": 60.0}),
        dict(BASE, path={"name": "line",
                         "params": {"direction": [math.nan, 0.0]}}),
        dict(BASE, path={"name": "polynomial",
                         "params": {"x_coeffs": [0.0, math.inf],
                                    "y_coeffs": [0.0, 1.0]}}),
    ], ids=["lambda", "Q", "du_max", "converge_band", "duration_nan",
            "duration_inf", "T_p", "initial_x", "amplitude", "line",
            "polynomial"])
    def test_non_finite_numbers_rejected(self, doc):
        with pytest.raises(ConfigError, match="finite"):
            scenario_from_config(doc)

    def test_law_params_rejects_unknown(self):
        doc = dict(BASE, law="nmpc", law_params={"horizon": 4})
        with pytest.raises(ConfigError, match="unknown law_params"):
            scenario_from_config(doc)

    def test_pnmpc_linearization_choice(self):
        doc = dict(BASE, law="pnmpc", law_params={"linearization": "frozen"})
        assert scenario_from_config(doc).linearization == "frozen"
        doc = dict(BASE, law="pnmpc", law_params={"linearization": "magic"})
        with pytest.raises(ConfigError):
            scenario_from_config(doc)

    def test_constraints_and_initial_input(self):
        doc = dict(BASE,
                   constraints={"eps": 0.02, "u_max": 0.3, "u_tar_max": 0.8,
                                "du_max": 0.1, "dpsi_max": 0.5},
                   initial_input={"u": 0.1, "psi": 0.0, "u_tar": 0.1})
        sc = scenario_from_config(doc)
        assert sc.constraints.u_max == 0.3
        assert sc.initial_input.u == 0.1


MALFORMED = {
    "disturbance-string": dict(BASE, disturbance="sinusoid"),
    "disturbance-list": dict(BASE, disturbance=["sinusoid"]),
    "constraints-string": dict(BASE, constraints="tight"),
    "constraints-list": dict(BASE, constraints=[0.01, 0.2]),
    "constraints-pairs": dict(BASE, constraints=[["u_max", 0.3]]),
    "initial_input-string": dict(BASE, initial_input="hold"),
    "initial_input-list": dict(BASE, initial_input=[0.1, 0.0, 0.1]),
    "initial_input-pairs": dict(BASE, initial_input=[
        ["u", 0.1], ["psi", 0.0], ["u_tar", 0.1]]),
    "sglos-string": dict(BASE, law="nmpc", law_params={"sglos": "default"}),
    "sglos-list": dict(BASE, law="nmpc", law_params={"sglos": [0.3, 0.8]}),
    "disturbance-kind-list": dict(BASE, disturbance={
        "kind": ["sinusoid"], "amplitude": 0.1, "period": 60.0}),
}


class TestCLI:
    def write_config(self, tmp_path, doc):
        f = tmp_path / "scenario.json"
        f.write_text(json.dumps(doc))
        return str(f)

    def test_simulate(self, tmp_path, capsys):
        cfgfile = self.write_config(tmp_path, BASE)
        out = tmp_path / "trace.csv"
        rc = cli.main(["simulate", "--config", cfgfile, "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("t,x,y,psi_cmd")
        assert len(text.splitlines()) == 22  # header + duration/T_p + 1

    def test_simulate_matches_library(self, tmp_path):
        cfgfile = self.write_config(tmp_path, BASE)
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfgfile, "--out", str(out)]) == 0
        tr = run_scenario(load_scenario(cfgfile))
        rows = out.read_text().strip().splitlines()[1:]
        assert float(rows[-1].split(",")[11]) == pytest.approx(tr["x_e"][-1],
                                                               abs=1e-8)

    def test_compare(self, tmp_path):
        doc = dict(BASE, duration=15.0)
        cfgfile = self.write_config(tmp_path, doc)
        outdir = tmp_path / "cmp"
        rc = cli.main(["compare", "--config", cfgfile,
                       "--laws", "pnmpc,sglos", "--out", str(outdir)])
        assert rc == 0
        assert (outdir / "pnmpc.csv").exists()
        assert (outdir / "sglos.csv").exists()
        report = json.loads((outdir / "report.json").read_text())
        assert set(report) == {"pnmpc", "sglos"}
        assert report["pnmpc"]["violations"] == 0

    @pytest.mark.parametrize("laws", ["", " , ", "sglos,sglos",
                                      "pnmpc, sglos,pnmpc", "nmpc,bogus"])
    def test_compare_needs_distinct_laws(self, tmp_path, laws):
        cfgfile = self.write_config(tmp_path, dict(BASE, duration=5.0))
        outdir = tmp_path / "cmp"
        assert cli.main(["compare", "--config", cfgfile, "--laws", laws,
                         "--out", str(outdir)]) == 2
        assert not outdir.exists()

    def test_config_error_exit_code(self, tmp_path):
        cfgfile = self.write_config(tmp_path, dict(BASE, bogus=1))
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert cli.main(["simulate", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "x.csv")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"path": ')
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_scenario(bad)
        assert cli.main(["simulate", "--config", str(bad),
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_non_numeric_terminal_weight_exit_code(self, tmp_path, capsys):
        for P in ({"a": 1}, [[1.0, 0.0, 0.0], [0.0, {}, 0.0], [0.0, 0.0, 1]]):
            doc = dict(BASE, law="nmpc", law_params={"terminal_weight": P})
            cfgfile = self.write_config(tmp_path, doc)
            assert cli.main(["simulate", "--config", cfgfile,
                             "--out", str(tmp_path / "x.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("P", [
        [[math.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]],
        [[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
        ids=["infinite", "nan", "sum-overflows", "two-rows"])
    def test_non_finite_terminal_weight_exit_code(self, tmp_path, capsys,
                                                  monkeypatch, P):
        """A terminal weight that is not 3 rows of finite numbers, or whose
        symmetric part overflows, is refused before the run: one config
        error line, no traceback and no RuntimeWarning."""
        doc = json.loads((CONFIGS / "transient.json").read_text())
        doc["law_params"]["terminal_weight"] = P
        self.no_simulation(monkeypatch)
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config",
                         self.write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "terminal_weight" in err[0] or "P " in err[0]
        assert not out.exists()

    def test_non_finite_number_exit_code(self, tmp_path, capsys):
        # json.dumps writes NaN, which Python's json reads back
        cfgfile = self.write_config(tmp_path, dict(BASE, duration=math.nan))
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("doc", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_section_exit_code(self, tmp_path, capsys, doc):
        """Each section must be a JSON object: strings, lists and arrays of
        [key, value] pairs are configuration errors, not crashes."""
        with pytest.raises(ConfigError):
            scenario_from_config(doc)
        out = tmp_path / "x.csv"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_exit_code(self, tmp_path):
        doc = dict(BASE, law="nmpc",
                   initial_input={"u": 0.9, "psi": 0.0, "u_tar": 0.1})
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize("law", ["sglos", "pnmpc"])
    def test_diverged_state_exit_code(self, tmp_path, capsys, law):
        """A start far out makes the commands (SGLOS) or the QP data
        (PNMPC) non-finite: a diverged state, not a crash."""
        doc = json.loads((CONFIGS / "realistic.json").read_text())
        doc.update(law=law, duration=2.0)
        doc["initial"]["x"] = 1.7e308
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config",
                         self.write_config(tmp_path, doc),
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invariant violation: ")
        assert not out.exists()

    @pytest.mark.parametrize("law", ["nmpc", "pnmpc"])
    def test_overflowing_qp_exit_code(self, tmp_path, capsys, law):
        """A huge surge weight, R = (1e300, 1e-5, 1e-5), makes the QP's
        arithmetic overflow: a solver failure, not a diverged state."""
        doc = json.loads((CONFIGS / "transient.json").read_text())
        doc.update(law=law, duration=5.0)
        doc["law_params"]["R"] = [1e300, 1e-5, 1e-5]
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config",
                         self.write_config(tmp_path, doc),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure: ")
        assert "QP linear algebra failed: " in err[0]
        assert "overflow" in err[0]
        assert not out.exists()

    @staticmethod
    def no_simulation(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before checking --out")
        monkeypatch.setattr(cli, "run_scenario", fail)

    def test_simulate_into_missing_directory(self, tmp_path, capsys,
                                             monkeypatch):
        self.no_simulation(monkeypatch)
        cfgfile = self.write_config(tmp_path, BASE)
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert cli.main(["simulate", "--config", cfgfile,
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: ")
        assert not (tmp_path / "missing").exists()

    def test_compare_below_a_regular_file(self, tmp_path, capsys,
                                          monkeypatch):
        self.no_simulation(monkeypatch)
        cfgfile = self.write_config(tmp_path, BASE)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker / "cmp", blocker):
            assert cli.main(["compare", "--config", cfgfile,
                             "--laws", "sglos", "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: ")
        assert blocker.read_text() == ""

    def test_simulate_into_unwritable_file(self, tmp_path, capsys):
        cfgfile = self.write_config(tmp_path, BASE)
        out = tmp_path / ("x" * 300 + ".csv")  # longer than a file name
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    @pytest.mark.parametrize("case", ["long-name", "read-only-file",
                                      "read-only-directory"])
    def test_simulate_refuses_an_unwritable_out_before_the_run(
            self, tmp_path, capsys, monkeypatch, case):
        if case != "long-name" and os.geteuid() == 0:
            pytest.skip("root may write through any permission bits")
        cfgfile = self.write_config(tmp_path, BASE)
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir / "trace.csv"
        if case == "long-name":
            out = outdir / ("x" * 300 + ".csv")
        elif case == "read-only-file":
            out.write_text("kept")
            out.chmod(0o444)
        else:
            outdir.chmod(0o555)
        self.no_simulation(monkeypatch)
        try:
            assert cli.main(["simulate", "--config", cfgfile,
                             "--out", str(out)]) == 2
        finally:
            outdir.chmod(0o755)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        if case == "read-only-file":
            assert out.read_text() == "kept"
        else:
            assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("blocked", ["sglos.csv", "report.json"])
    def test_compare_into_unwritable_file(self, tmp_path, capsys, blocked):
        cfgfile = self.write_config(tmp_path, BASE)
        outdir = tmp_path / "cmp"
        (outdir / blocked).mkdir(parents=True)
        assert cli.main(["compare", "--config", cfgfile,
                         "--laws", "sglos", "--out", str(outdir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not (outdir / "report.json").is_file()

    def test_compare_checks_every_output_before_the_first_run(
            self, tmp_path, capsys, monkeypatch):
        """An output of a later law that cannot be written stops compare
        before any law runs, and no earlier law's CSV is written."""
        self.no_simulation(monkeypatch)
        cfgfile = self.write_config(tmp_path, BASE)
        outdir = tmp_path / "cmp"
        (outdir / "pnmpc.csv").mkdir(parents=True)
        assert cli.main(["compare", "--config", cfgfile,
                         "--laws", "sglos,pnmpc", "--out", str(outdir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert "pnmpc.csv" in err[0]
        assert sorted(p.name for p in outdir.iterdir()) == ["pnmpc.csv"]

    def test_check_derivatives(self, capsys):
        assert cli.main(["check-derivatives", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "all derivative checks passed" in out

    def test_check_derivatives_reports_a_wrong_derivative(self, capsys,
                                                         monkeypatch):
        line = cli.line_path()
        monkeypatch.setattr(cli, "line_path", lambda: replace(
            line, deriv3=lambda w: (1.0, 0.0)))
        assert cli.main(["check-derivatives", "--samples", "2"]) == 4
        captured = capsys.readouterr()
        assert "path derivative check FAILED" in captured.out
        assert "passed" not in captured.out
        assert captured.err.startswith("invariant violation: ")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_check_derivatives_needs_a_sample(self, samples, capsys):
        assert cli.main(["check-derivatives", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert "passed" not in captured.out


@pytest.mark.parametrize("name, preset", [("transient.json", transient_scenario),
                                          ("realistic.json", realistic_scenario)])
def test_shipped_config_reproduces_preset(name, preset):
    """configs/ holds the presets: a 30 s zero-clock NMPC trace from the
    file is bit-identical to the preset's."""
    sc = load_scenario(CONFIGS / name)
    assert (sc.law, sc.duration) == ("nmpc", 400.0)

    def zero():
        return 0.0

    got = run_scenario(replace(sc, duration=30.0), timer=zero)
    ref = run_scenario(preset("nmpc", duration=30.0), timer=zero)
    for col in TRACE_COLUMNS:
        assert got[col].tobytes() == ref[col].tobytes(), col
