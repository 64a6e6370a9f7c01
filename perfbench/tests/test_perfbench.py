"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import inspect
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import pfguide as pf
from perfbench import measure, scenarios
from perfbench.tracer import NAMES, Tracer

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def short_nmpc():
    """Two starts of the nmpc workload, cut to 20 s."""
    built, _ = scenarios.build_scenarios(pf, "nmpc", seed=3)
    return [dataclasses.replace(sc, duration=20.0) for sc in built[-2:]]


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 1001))[::-1]
        assert measure.percentile(values, 50) == 500.0
        assert measure.percentile(values, 99) == 990.0

    def test_needs_ten_samples_beyond(self):
        measure.percentile(list(range(1000)), 99)  # exactly ten beyond
        with pytest.raises(ValueError, match="need 10"):
            measure.percentile(list(range(999)), 99)


class TestConvergence:
    def test_nmpc_against_kkt_tol(self):
        tol = pf.nmpc.KKT_TOL
        kkt = [0.0, tol, math.nextafter(tol, 1.0), 8.1]
        assert measure.failed_solves("nmpc", kkt, tol) == 2

    @pytest.mark.parametrize("law", ["pnmpc", "sglos"])
    def test_other_laws_fail_only_by_raising(self, law):
        assert measure.failed_solves(law, [1.0, math.nan], 1e-6) == 0

    @pytest.mark.parametrize("message, failed", [
        ("guidance step failed at t=30 (plant step 300): QP stalled", 370),
        ("plant step 25 failed: non-regular path", 397),
        ("no step index", 400),
    ])
    def test_failed_from_the_failing_step_on(self, message, failed):
        assert measure.failed_after_error(message, 10, 400) == failed

    def test_raised_run_counts(self, monkeypatch, short_nmpc):
        def boom(sc, timer=None):
            raise pf.QPFailure("guidance step failed at t=5 (plant step 50): x")

        monkeypatch.setattr(pf, "run_scenario", boom)
        state = measure.RunState([measure.ScenarioRecord()])
        measure.serve_checked(pf, state, 0, short_nmpc[0])
        rec = state.records[0]
        assert (state.attempted, state.failed) == (1, 1)
        assert (rec.instants, rec.failed_instants) == (20, 15)


class TestScenarios:
    def test_same_seed_same_inputs(self):
        a, starts_a = scenarios.build_scenarios(pf, "sglos", seed=11)
        b, starts_b = scenarios.build_scenarios(pf, "sglos", seed=11)
        assert starts_a == starts_b
        for sa, sb in zip(a, b):
            assert (sa.x0, sa.y0, sa.omega0) == (sb.x0, sb.y0, sb.omega0)
            assert np.array_equal(sa.nmpc.P, sb.nmpc.P)
        _, starts_c = scenarios.build_scenarios(pf, "sglos", seed=12)
        assert starts_c != starts_a

    def test_far_off_path_starts_stay_in_range(self):
        path = pf.case_study_path()
        for seed in range(1, 11):
            starts = scenarios.draw_starts(seed, (10.0, 10.0, 2.5))
            assert len(starts) == scenarios.K
            far = max(math.hypot(x - p.x_p, y - p.y_p)
                      for x, y, w in starts
                      for p in [pf.sample_path(path, w)])
            assert far > 10.0


class TestChecks:
    def test_clean_requests_pass(self, short_nmpc):
        sc = short_nmpc[0]
        trace, csv_text, report = measure.serve(pf, sc)
        cols = pf.sim.TRACE_COLUMNS
        assert measure.check_request("nmpc", trace, csv_text, report, cols) == []
        sg = dataclasses.replace(sc, law="sglos")
        trace, csv_text, report = measure.serve(pf, sg)
        assert np.isnan(trace["J_opt"]).all()
        assert measure.check_request("sglos", trace, csv_text, report, cols) == []

    def test_breaches_are_reported(self, short_nmpc):
        trace, csv_text, report = measure.serve(pf, short_nmpc[0])
        cols = pf.sim.TRACE_COLUMNS
        trace["y_e"][3] = math.nan
        bad = dataclasses.replace(report, violations=2)
        found = measure.check_request("nmpc", trace, csv_text[:-1] + ",",
                                      bad, cols)
        assert len(found) == 3

    def test_timing_columns_are_not_compared(self):
        assert measure.timing_columns(pf.sim.TRACE_COLUMNS) == ("solve_time_s",)


def _bindings():
    """Every (owner, attribute) -> object of the pfguide modules and classes."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pfguide" or name.startswith("pfguide.")):
            continue
        for attr, value in vars(mod).items():
            seen[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("pfguide"):
                for cattr, cvalue in vars(value).items():
                    seen[(value.__qualname__, cattr)] = cvalue
    return seen


class TestTracer:
    def test_wraps_every_binding_site_and_restores(self):
        before = _bindings()
        original = pf.paths.sample_path
        tracer = Tracer()
        tracer.install()
        try:
            for mod in (pf, pf.paths, pf.errdyn, pf.los, pf.pnmpc, pf.sim):
                assert mod.sample_path is not original
                assert mod.sample_path.__perfbench_layer__ == "paths.sample_path"
            assert pf.NMPCSolver.solve.__perfbench_layer__ == \
                "nmpc.NMPCSolver.solve"
        finally:
            tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)

    def _traced(self, scs):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.recording = True
            outputs = []
            for i, sc in enumerate(scs):
                tracer.scenario = i
                outputs.append(measure.serve(pf, sc))
        finally:
            tracer.uninstall()
        return tracer, outputs

    def test_traced_matches_untraced(self, short_nmpc):
        cols = pf.sim.TRACE_COLUMNS
        tracer, outputs = self._traced(short_nmpc)
        for sc, (trace, _, _) in zip(short_nmpc, outputs):
            plain = measure.serve(pf, sc)[0]
            assert measure.same_columns(measure.deterministic(plain, cols),
                                        measure.deterministic(trace, cols))

    def test_spans_counts_and_self_time(self, short_nmpc):
        tracer, _ = self._traced(short_nmpc)
        a = tracer.arrays()
        m = tracer.layer_metrics()
        assert m["nmpc.NMPCSolver.solve.calls"] == 2 * 20
        assert m["sim.run_scenario.calls"] == 2
        # Guidance steps number 0..19 within each scenario's run.
        solve = a["name"] == NAMES.index("nmpc.NMPCSolver.solve")
        assert sorted(set(a["step"][solve])) == list(range(20))
        assert set(a["scenario"][solve]) == {0, 1}
        # Self times partition the root spans' wall time.
        roots = a["parent"] < 0
        total = float(np.sum((a["end"] - a["start"])[roots]))
        selfs = sum(m[f"{n}.self_s"] for n in NAMES)
        assert selfs == pytest.approx(total, rel=1e-9)
        assert m["nmpc.qp_per_solve"] == (m["qp.solve_qp.calls"]
                                          / m["nmpc.NMPCSolver.solve.calls"])

    def test_counts_repeat_exactly(self, short_nmpc):
        def counts(tracer):
            return {k: v for k, v in tracer.layer_metrics().items()
                    if not k.endswith("self_s")}
        first, _ = self._traced(short_nmpc)
        second, _ = self._traced(short_nmpc)
        assert counts(first) == counts(second)

    def test_write_round_trips(self, short_nmpc):
        tracer, _ = self._traced(short_nmpc[:1])
        buf = io.BytesIO()
        tracer.write(buf)
        buf.seek(0)
        with np.load(buf) as z:
            assert list(z["layers"]) == list(NAMES)
            assert np.array_equal(z["parent"], tracer.arrays()["parent"])


class TestBenchmarkFile:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_fields_within_limits(self, spec):
        name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
        assert len(names) == len(set(names))
        assert all(name.fullmatch(n) for n in names)
        assert all(unit.fullmatch(m["unit"]) for m in metrics)
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
        assert set(w["name"] for w in spec["workloads"]) == set(scenarios.WORKLOADS)

    def test_per_layer_names_are_measured_and_mapped(self, spec):
        measured = set(Tracer().layer_metrics()) | {"trace.overhead", "src_lines"}
        declared = {m["name"] for m in spec["per_layer"]}
        assert declared == measured
        groups = json.loads((ROOT / "perfbench" / "layers.json").read_text())
        prefixes = [p for g in groups["groups"] for p in g["metrics"]]
        for metric in declared:
            assert any(metric == p or metric.startswith(p + ".") for p in prefixes)
        e2e = {m["name"] for m in spec["end_to_end"]}
        for g in groups["groups"]:
            assert set(g["moves"]) == set(scenarios.WORKLOADS)
            for moved in g["moves"].values():
                for entry in moved:
                    assert entry.startswith("none") or entry.split()[0] in e2e
