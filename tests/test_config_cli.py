import json

import numpy as np
import pytest

from pfguide import cli, load_scenario, run_scenario, scenario_from_config
from pfguide.exceptions import ConfigError

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

    def test_config_error_exit_code(self, tmp_path):
        cfgfile = self.write_config(tmp_path, dict(BASE, bogus=1))
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert cli.main(["simulate", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_non_numeric_terminal_weight_exit_code(self, tmp_path, capsys):
        for P in ({"a": 1}, [[1.0, 0.0, 0.0], [0.0, {}, 0.0], [0.0, 0.0, 1]]):
            doc = dict(BASE, law="nmpc", law_params={"terminal_weight": P})
            cfgfile = self.write_config(tmp_path, doc)
            assert cli.main(["simulate", "--config", cfgfile,
                             "--out", str(tmp_path / "x.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path):
        doc = dict(BASE, law="nmpc",
                   initial_input={"u": 0.9, "psi": 0.0, "u_tar": 0.1})
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfgfile,
                         "--out", str(tmp_path / "x.csv")]) == 3

    def test_check_derivatives(self, capsys):
        assert cli.main(["check-derivatives", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "all derivative checks passed" in out
