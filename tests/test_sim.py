import inspect
import io
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dataclasses import replace

from pfguide import (DisturbanceSpec, DomainError, EmptyTrace, GuidanceState,
                     InputCmd, InputConstraints, LowLevelFilter, NMPCConfig,
                     NonRegularPath, PathDef, PNMPCSolver, Scenario,
                     SGLOSParams, StateEscape, Trace, case_study_path,
                     compute_metrics, disturbance_sample, equilibrium_scenario,
                     make_config, realistic_scenario, rollout, run_scenario,
                     synthesize_terminal_weight, transient_scenario)
from pfguide import sim
from pfguide.angles import unwrap_near, wrap_angle
from pfguide.exceptions import ConfigError
from pfguide.los import clamp_inputs, sglos
from pfguide.paths import (line_path, polynomial_path, sample_path,
                           z_of_omega)
from pfguide.sim import CSV_CHUNK, TRACE_COLUMNS


class TestDisturbance:
    def test_sinusoid_values(self):
        spec = DisturbanceSpec(kind="sinusoid", amplitude=0.15, period=60.0)
        assert disturbance_sample(spec, 0.0) == 0.0
        assert disturbance_sample(spec, 15.0) == pytest.approx(0.15, rel=1e-12)

    def test_none_is_zero(self):
        assert disturbance_sample(DisturbanceSpec(), 123.0) == 0.0

    def test_chirp_instantaneous_frequency(self):
        spec = DisturbanceSpec(kind="chirp_mirror", amplitude=0.15,
                               f0=1.0 / 60.0, f1=1.0 / 30.0, switch_time=200.0)

        def phase(t):
            return (spec.f0 * t + (spec.f1 - spec.f0) * t * t / (2.0 * 200.0))

        h = 1e-6
        f_start = (phase(h) - phase(0.0)) / h
        f_switch = (phase(200.0) - phase(200.0 - h)) / h
        assert f_start == pytest.approx(1.0 / 60.0, rel=1e-4)
        assert f_switch == pytest.approx(1.0 / 30.0, rel=1e-4)

    def test_chirp_mirror_symmetry(self):
        spec = DisturbanceSpec(kind="chirp_mirror", amplitude=0.15,
                               f0=1.0 / 60.0, f1=1.0 / 30.0, switch_time=200.0)
        for t in (0.0, 13.7, 99.0, 180.0):
            assert disturbance_sample(spec, 400.0 - t) \
                == pytest.approx(disturbance_sample(spec, t), abs=1e-12)

    def test_amplitude_bound(self):
        for spec in (DisturbanceSpec(kind="sinusoid", amplitude=0.15,
                                     period=60.0, phase=0.3),
                     DisturbanceSpec(kind="chirp_mirror", amplitude=0.15,
                                     f0=1 / 60, f1=1 / 30, switch_time=200.0)):
            for t in np.linspace(0.0, 400.0, 4001):
                assert abs(disturbance_sample(spec, t)) <= 0.15 + 1e-15

    def test_validation(self):
        with pytest.raises(ConfigError):
            DisturbanceSpec(kind="square", amplitude=1.0)
        with pytest.raises(ConfigError):
            DisturbanceSpec(kind="sinusoid", amplitude=0.1, period=0.0)
        with pytest.raises(ConfigError):
            disturbance_sample(DisturbanceSpec(), -1.0)

    def test_signed_zero_amplitude_keeps_its_sign_in_the_csv(self):
        """Specs with amplitude 0.0 and -0.0 compare and hash equal, yet
        one sway prints 0 where the other prints -0.  Each run, whatever
        ran before it, writes its own spec's signs."""
        column = TRACE_COLUMNS.index("v")
        for amplitude in (0.0, -0.0, 0.0):
            spec = DisturbanceSpec(kind="sinusoid", amplitude=amplitude,
                                   period=7.0)
            assert spec == DisturbanceSpec(kind="sinusoid", amplitude=0.0,
                                           period=7.0)
            sc = replace(realistic_scenario("sglos", duration=10.0),
                         disturbance=spec)
            out = io.StringIO()
            run_scenario(sc).to_csv(out)
            got = [row.split(",")[column]
                   for row in out.getvalue().splitlines()[1:]]
            assert got == [f"{disturbance_sample(spec, i * 0.1):.9g}"
                           for i in range(101)]
            assert {"0", "-0"} <= set(got)


class TestLowLevelFilter:
    A = 7.6923
    DELAY = 0.13

    def closed_form(self, t):
        s = t - self.DELAY
        if s < 0:
            return 0.0
        return 1.0 - math.exp(-self.A * s) * (1.0 + self.A * s)

    def test_spec_spot_value_of_oracle(self):
        # the second-order delayed step response at s = 0.13 past the delay
        assert self.closed_form(2 * self.DELAY) == pytest.approx(0.264, abs=1e-3)

    def test_zero_before_delay_and_tracks_closed_form(self):
        """The heading channel, driven by twice the surge command, reads
        twice the surge output bit for bit: the recursion is linear and
        the channels do not mix."""
        f = LowLevelFilter(0.1)
        for i in range(1, 41):
            out, psi = f.step(1.0, 2.0)
            assert psi == 2.0 * out
            t = i * 0.1
            if t < self.DELAY:
                assert out == 0.0
            else:
                tol = 0.025 if t < 0.4 else 0.01
                assert out == pytest.approx(self.closed_form(t), abs=tol)

    def test_unit_dc_gain(self):
        f = LowLevelFilter(0.1)
        out = (0.0, 0.0)
        for i in range(1, 26):
            out = f.step(0.7, -0.7)
            if abs(i * 0.1 - 2.0) < 1e-9:
                assert out == pytest.approx((0.7, -0.7), abs=1e-5)
        assert out == pytest.approx((0.7, -0.7), abs=1e-6)  # t = 2.5 s

    @staticmethod
    def matrices(f):
        """The discrete state matrix and input column behind f's update."""
        return np.reshape(f._coef[:4], (2, 2)), np.array(f._coef[4:])

    def test_discrete_dc_gain_exact(self):
        Ad, Bd = self.matrices(LowLevelFilter(0.05))
        gain = np.linalg.solve(np.eye(2) - Ad, Bd)[0]
        assert gain == pytest.approx(1.0, rel=1e-12)

    def test_nonzero_initial_state_is_steady(self):
        f = LowLevelFilter(0.1, initial=(0.56, -2.5))
        for _ in range(20):
            assert f.step(0.56, -2.5) == pytest.approx((0.56, -2.5), rel=1e-12)

    def test_float_update_matches_matrix_form(self):
        """The float update rounds differently from the numpy product of
        the same matrices, and the difference does not build up."""
        f = LowLevelFilter(0.1, initial=(1.0, -1.0))
        Ad, Bd = self.matrices(f)
        hist = [np.array([1.0, -1.0])] * (f._lag + 2)
        x = np.array([[1.0, -1.0], [0.0, 0.0]])  # a column per channel
        worst = 0.0
        cmds = np.random.default_rng(6).uniform(0.5, 1.5, (8000, 2))
        cmds[:, 1] *= -1.0
        for cmd in cmds:
            hist = hist[1:] + [cmd]
            u_d = ((1.0 - f._frac) * hist[-1 - f._lag]
                   + f._frac * hist[-2 - f._lag])
            x = Ad @ x + np.outer(Bd, u_d)
            out = np.array(f.step(*cmd.tolist()))
            worst = max(worst, np.max(np.abs(out - x[0]) / np.abs(x[0])))
        assert worst <= 1e-14


class TestFilterHold:
    """hold(u, psi, m) gives the outputs and leaves the state of m step
    calls with the command held, bit for bit."""

    @staticmethod
    def bits(outputs):
        return [tuple(map(float.hex, out)) for out in outputs]

    @staticmethod
    def state(f):
        return ([tuple(map(float.hex, pair)) for pair in f._hist],
                tuple(map(float.hex, f.output)),
                tuple(map(float.hex, f._rate)))

    # T_p and the input delay in whole plant steps it gives: 2.6, 1.3,
    # exactly 1, 0.65 and 0.13 steps.
    @pytest.mark.parametrize("T_p, lag", [(0.05, 2), (0.1, 1), (0.13, 1),
                                          (0.2, 0), (1.0, 0)])
    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_hold_equals_successive_steps(self, T_p, lag, m):
        initial = (0.4, -2.9)
        held, stepped = LowLevelFilter(T_p, initial), \
            LowLevelFilter(T_p, initial)
        assert held._lag == lag
        assert (held._frac == 0.0) == (T_p == 0.13)
        rng = np.random.default_rng(11)
        for period in range(8):
            u, psi = rng.uniform(0.0, 1.5), rng.uniform(-4.0, 4.0)
            if period % 3 == 2:  # a step call between two periods
                assert self.bits([held.step(u, psi)]) == \
                    self.bits([stepped.step(u, psi)])
            got = held.hold(u, psi, m)
            want = [stepped.step(u, psi) for _ in range(m)]
            assert len(got) == m
            assert self.bits(got) == self.bits(want)
            assert self.state(held) == self.state(stepped)


class ScalarFilter:
    """One actuator channel: LowLevelFilter's recursion on plain floats,
    one command at a time."""

    def __init__(self, T_p, initial):
        f = LowLevelFilter(T_p)
        self.coef, self.lag, self.frac = f._coef, f._lag, f._frac
        self.hist = [initial] * (self.lag + 2)
        self.out, self.rate = initial, 0.0

    def step(self, command):
        self.hist = self.hist[1:] + [command]
        u_d = ((1.0 - self.frac) * self.hist[-1 - self.lag]
               + self.frac * self.hist[-2 - self.lag])
        a00, a01, a10, a11, b0, b1 = self.coef
        self.out, self.rate = (a00 * self.out + a01 * self.rate + b0 * u_d,
                               a10 * self.out + a11 * self.rate + b1 * u_d)
        return self.out


class TestScenarioValidation:
    def test_multirate_must_divide(self):
        with pytest.raises(ConfigError):
            Scenario(path=line_path(), x0=0, y0=0, omega0=0.0, T_m=1.0,
                     T_p=0.3, duration=10.0)

    def test_unknown_law(self):
        with pytest.raises(ConfigError):
            Scenario(path=line_path(), x0=0, y0=0, omega0=0.0, law="pid",
                     duration=10.0)

    def test_duration_must_be_whole_plant_steps(self):
        sc = Scenario(path=line_path(), x0=0, y0=0, omega0=0.0, law="sglos",
                      duration=10.5)
        with pytest.raises(ConfigError, match="whole number of plant steps"):
            run_scenario(sc)


class TestScenarioAgreesWithConfig:
    """The solver reads T_m, u_r, the constraints and the terminal law from
    the nmpc config, the plant loop and the SGLOS law from the scenario."""

    GAINS = SGLOSParams(k1=0.4, k2=0.6, delta=0.8)

    @pytest.mark.parametrize("field, value", [
        ("T_m", 2.0),
        ("constraints", InputConstraints(du_max=0.02)),
        ("sglos", SGLOSParams(k1=0.4)),
        ("u_r", 0.3),
    ])
    def test_mismatch_rejected(self, field, value):
        sc = transient_scenario("nmpc", duration=20.0)
        cfg = make_config(sc.path)
        with pytest.raises(ConfigError, match="disagrees"):
            replace(sc, nmpc=cfg, **{field: value})

    def test_unknown_linearization_rejected(self):
        with pytest.raises(ConfigError, match="linearization"):
            replace(transient_scenario("pnmpc"), linearization="exactly")

    def test_terminal_weight_from_the_config_terminal_law(self):
        sc = replace(transient_scenario("nmpc"), sglos=self.GAINS)
        cfg = NMPCConfig(terminal_law=self.GAINS)
        got = replace(sc, nmpc=cfg).guidance_config().P
        assert got.tobytes() == synthesize_terminal_weight(sc.path, cfg).tobytes()
        assert not np.allclose(
            got, synthesize_terminal_weight(sc.path, NMPCConfig()))
        assert got.tobytes() == sc.guidance_config().P.tobytes()


NAN, INF = math.nan, math.inf


def _scenario(**kw):
    return Scenario(**{"path": line_path(), "x0": 0.0, "y0": 0.0,
                       "omega0": 0.0, **kw})


@pytest.mark.parametrize("build, error", [
    (lambda: InputConstraints(du_max=NAN), ValueError),
    (lambda: InputConstraints(u_max=INF), ValueError),
    (lambda: InputConstraints(eps=-INF), ValueError),
    (lambda: SGLOSParams(k1=NAN), ValueError),
    (lambda: SGLOSParams(delta=INF), ValueError),
    (lambda: DisturbanceSpec(kind="sinusoid", amplitude=NAN, period=60.0),
     ConfigError),
    (lambda: DisturbanceSpec(kind="chirp_mirror", amplitude=0.1, f0=0.01,
                             f1=0.02, switch_time=INF), ConfigError),
    (lambda: NMPCConfig(lam=NAN), ValueError),
    (lambda: NMPCConfig(T_m=INF), ValueError),
    (lambda: NMPCConfig(Q=np.array([1.0, 1.0, NAN])), ValueError),
    (lambda: _scenario(converge_band=NAN), ConfigError),
    (lambda: _scenario(x0=NAN), ConfigError),
    (lambda: _scenario(psi0=INF), ConfigError),
    (lambda: transient_scenario(duration=NAN), ConfigError),
], ids=["du_max-nan", "u_max-inf", "eps-minus-inf", "k1-nan", "delta-inf",
        "amplitude-nan", "switch_time-inf", "lam-nan", "T_m-inf", "Q-nan",
        "converge_band-nan", "x0-nan", "psi0-inf", "duration-nan"])
def test_library_types_reject_non_finite_numbers(build, error):
    with pytest.raises(error, match="finite"):
        build()


@pytest.mark.parametrize("build, error, match", [
    (lambda: DisturbanceSpec(kind="sinusoid", amplitude=-0.1, period=60.0),
     ConfigError, "amplitude must be >= 0"),
    (lambda: DisturbanceSpec(kind="chirp_mirror", amplitude=0.1, f0=0.0,
                             f1=0.02, switch_time=200.0),
     ConfigError, "positive f0, f1"),
    (lambda: DisturbanceSpec(kind="chirp_mirror", amplitude=0.1, f0=0.01,
                             f1=0.02, switch_time=-1.0),
     ConfigError, "positive f0, f1"),
    (lambda: LowLevelFilter(0.0), ConfigError, "plant step must be positive"),
    (lambda: LowLevelFilter(-1.0), ConfigError, "plant step must be positive"),
    (lambda: LowLevelFilter(NAN), ConfigError, "plant step must be positive"),
    (lambda: LowLevelFilter(INF), ConfigError, "plant step must be positive"),
    (lambda: NMPCConfig(Q=np.array([1.0, 1.0])), ValueError,
     "length-3 diagonals"),
    (lambda: NMPCConfig(R=np.ones(4)), ValueError, "length-3 diagonals"),
    (lambda: NMPCConfig(T_m=0.0), ValueError,
     "guidance period must be positive"),
    (lambda: _scenario(duration=0.0), ConfigError,
     "duration must be positive"),
    (lambda: _scenario(T_m=-1.0), ConfigError, "T_m and T_p must be positive"),
    (lambda: _scenario(T_p=0.0), ConfigError, "T_m and T_p must be positive"),
    (lambda: _scenario(converge_band=0.0), ConfigError,
     "converge_band must be positive"),
], ids=["amplitude-negative", "f0-zero", "switch_time-negative",
        "filter-T_p-zero", "filter-T_p-negative", "filter-T_p-nan",
        "filter-T_p-inf", "Q-length-2", "R-length-4", "nmpc-T_m-zero",
        "duration-zero", "T_m-negative", "T_p-zero", "converge_band-zero"])
def test_library_types_reject_out_of_range_numbers(build, error, match):
    with pytest.raises(error, match=match):
        build()


class TestRunScenario:
    def test_sglos_line_equilibrium_is_exact(self):
        sc = equilibrium_scenario("sglos", duration=60.0)
        tr = run_scenario(sc)
        assert np.abs(tr["x_e"]).max() <= 1e-9
        assert np.abs(tr["y_e"]).max() <= 1e-9

    def test_record_count_and_columns(self):
        sc = equilibrium_scenario("sglos", duration=12.0)
        tr = run_scenario(sc)
        assert len(tr) == 13  # duration / T_p + 1
        assert set(TRACE_COLUMNS) == set(tr.columns)

    def test_bit_identical_with_injected_timer(self):
        def fake_timer(state=[0.0]):
            state[0] += 1.0
            return state[0]

        sc = transient_scenario("pnmpc", duration=30.0)
        a, b = io.StringIO(), io.StringIO()
        run_scenario(sc, timer=fake_timer).to_csv(a)
        run_scenario(sc, timer=fake_timer).to_csv(b)
        assert a.getvalue() == b.getvalue()

    def test_real_clock_rerun_identical_but_for_timing(self):
        sc = transient_scenario("sglos", duration=40.0)
        t1 = run_scenario(sc)
        t2 = run_scenario(sc)
        for col in TRACE_COLUMNS:
            if col == "solve_time_s":
                continue
            assert np.array_equal(t1[col], t2[col], equal_nan=True), col

    def test_guidance_columns_repeat_between_instants(self):
        sc = transient_scenario("pnmpc", duration=20.0)
        from dataclasses import replace
        sc = replace(sc, T_p=0.5)
        tr = run_scenario(sc)
        J = tr["J_opt"]
        for k in range(0, len(tr) - 1, 2):
            if k + 1 < len(tr):
                assert J[k + 1] == J[k]  # held until the next guidance instant

    def test_csv_format(self, tmp_path):
        sc = equilibrium_scenario("sglos", duration=5.0)
        tr = run_scenario(sc)
        out = tmp_path / "trace.csv"
        tr.write_csv(out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(tr) + 1
        first = lines[1].split(",")
        assert len(first) == len(TRACE_COLUMNS)
        # 9 significant digits
        x_col = TRACE_COLUMNS.index("x")
        assert first[x_col] == f"{tr['x'][0]:.9g}"

    def test_multirate_consistency_with_prediction(self, demo_path, demo_config):
        """With filter off and T_p = T_m the harness step matches the law's
        one-step prediction at matched held sway within Euler order."""
        sc = transient_scenario("nmpc", amplitude=0.15, duration=40.0)
        tr = run_scenario(sc)
        cfg = sc.guidance_config()
        worst = 0.0
        for k in range(0, len(tr) - 1):
            x = GuidanceState(tr["x_e"][k], tr["y_e"][k], tr["z"][k])
            u = InputCmd(tr["u_cmd"][k], tr["psi_cmd"][k], tr["u_tar"][k])
            pred = rollout(x, [u] * cfg.N, tr["v"][k], cfg.T_m, sc.path)[1]
            worst = max(worst,
                        math.hypot(pred.x_e - tr["x_e"][k + 1],
                                   pred.y_e - tr["y_e"][k + 1]))
        assert worst < 5e-3  # one-step model mismatch is O(T_m^2)

    def test_filtered_run_tracks_commands(self):
        sc = transient_scenario("sglos", amplitude=0.0, duration=30.0)
        from dataclasses import replace
        sc = replace(sc, T_p=0.1, filter_enabled=True)
        tr = run_scenario(sc)
        # actuation lags command during the initial ramp
        assert tr["u_act"][0] == 0.0
        assert tr["u_act"][-1] == pytest.approx(tr["u_cmd"][-1], abs=1e-3)

    @staticmethod
    def broken_line(stall_at=math.inf, nan_at=math.inf):
        """The x-axis line, with speed factor 0 from omega = stall_at on and
        a NaN position from omega = nan_at on."""
        return PathDef(lambda w: (w if w < nan_at else math.nan, 0.0),
                       lambda w: (1.0 if w < stall_at else 0.0, 0.0),
                       lambda w: (0.0, 0.0), lambda w: (0.0, 0.0),
                       name="broken")

    def test_path_error_carries_plant_step(self):
        sc = Scenario(path=line_path(), x0=0.0, y0=1.0, omega0=0.0,
                      T_p=0.5, duration=60.0, law="sglos")
        omega = run_scenario(sc)["omega"]
        first = int(np.argmax(omega >= 3.0))
        assert first > 0
        with pytest.raises(NonRegularPath,
                           match=rf"^plant step {first} failed: ") as info:
            run_scenario(replace(sc, path=self.broken_line(stall_at=3.0)))
        assert isinstance(info.value.__cause__, NonRegularPath)

    def test_every_instant_rejects_bad_measurements(self):
        sc = Scenario(path=self.broken_line(nan_at=3.0), x0=0.0, y0=1.0,
                      omega0=0.0, T_p=0.5, duration=60.0, law="sglos")
        with pytest.raises(StateEscape,
                           match=r"^plant step \d+ failed: non-finite PF errors"):
            run_scenario(sc)
        with pytest.raises(DomainError, match="plant step 0 failed"):
            run_scenario(replace(sc, path=line_path(), omega0=-1.0))

    @pytest.mark.parametrize("law", sim.LAWS)
    def test_diverging_start_is_a_state_escape(self, law):
        """A start far out overflows the commands (SGLOS) or the QP data
        (NMPC, PNMPC) at the first guidance step.  The run reports the
        diverged state without a warning (the suite turns warnings into
        errors) and keeps the step context."""
        sc = replace(realistic_scenario(law, duration=2.0), x0=1.7e308)
        with pytest.raises(StateEscape, match=r"\(plant step 0\): ") as info:
            run_scenario(sc)
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("law", ["sglos", "pnmpc"])
    def test_one_path_evaluation_per_plant_instant(self, monkeypatch, law):
        """Outside the law, a run evaluates the path tangent once per plant
        instant plus the start sample, and the second derivative only for
        the start sample.  SGLOS reads the tangent alone."""
        base = case_study_path()
        calls = {(name, owner): 0 for name in ("deriv", "deriv2")
                 for owner in ("sim", "law")}
        owner = ["sim"]

        def counting(name, fn):
            def wrapped(w):
                calls[name, owner[0]] += 1
                return fn(w)
            return wrapped

        def in_law(fn):
            def wrapped(*args, **kwargs):
                owner[0] = "law"
                try:
                    return fn(*args, **kwargs)
                finally:
                    owner[0] = "sim"
            return wrapped

        monkeypatch.setattr(sim, "sglos", in_law(sim.sglos))
        monkeypatch.setattr(PNMPCSolver, "solve", in_law(PNMPCSolver.solve))
        path = PathDef(base.eval, counting("deriv", base.deriv),
                       counting("deriv2", base.deriv2), base.deriv3)
        sc = replace(realistic_scenario(law, duration=20.0), path=path)
        sc = replace(sc, nmpc=sc.guidance_config())
        calls.update(dict.fromkeys(calls, 0))
        tr = run_scenario(sc)
        steps = len(tr) - 1
        assert steps == 200
        assert calls["deriv", "sim"] == steps + 1 + 1
        assert calls["deriv2", "sim"] == 1
        assert calls["deriv", "law"] > 0
        if law == "sglos":
            assert calls["deriv2", "law"] == 0
        else:
            assert calls["deriv2", "law"] > 0

    def test_sglos_evaluates_no_path_position(self, monkeypatch):
        """SGLOS reads only the tangent angle, so the law itself never
        evaluates the path position."""
        base = case_study_path()
        law = sim.sglos
        calls = {"eval": 0, "law": 0}

        def counting_eval(w):
            calls["eval"] += 1
            return base.eval(w)

        def counting_sglos(*args, **kwargs):
            before = calls["eval"]
            out = law(*args, **kwargs)
            calls["law"] += calls["eval"] - before
            return out

        monkeypatch.setattr(sim, "sglos", counting_sglos)
        path = PathDef(counting_eval, base.deriv, base.deriv2, base.deriv3)
        tr = run_scenario(replace(realistic_scenario("sglos", duration=20.0),
                                  path=path))
        assert len(tr) - 1 == 200
        assert calls["eval"] > 0
        assert calls["law"] == 0

    GUIDANCE_COLUMNS = ("psi_cmd", "u_cmd", "u_tar", "J_opt",
                        "kkt_residual", "iterations", "solve_time_s")

    def test_guidance_columns_equal_per_row_reference(self, monkeypatch):
        """Each row holds the record of the last guidance instant at or
        before it, the final row included, when the step count is not a
        multiple of the guidance stride."""
        solve = PNMPCSolver.solve
        records = []

        def recording(self, *args, **kwargs):
            out = solve(self, *args, **kwargs)
            u = out.u_seq[0]
            records.append((wrap_angle(u.psi), u.u, u.u_tar, out.J_opt,
                            out.kkt_residual, float(out.iterations),
                            out.solve_time))
            return out

        monkeypatch.setattr(PNMPCSolver, "solve", recording)
        sc = realistic_scenario("pnmpc", duration=20.7)
        tr = run_scenario(sc)
        m = 10
        steps = len(tr) - 1
        assert steps == 207 and steps % m and len(records) == 21
        for j, name in enumerate(self.GUIDANCE_COLUMNS):
            ref = np.array([records[min(i // m, len(records) - 1)][j]
                            for i in range(steps + 1)])
            assert tr[name].dtype == np.float64
            assert tr[name].tobytes() == ref.tobytes(), name
        assert list(tr.columns) == list(TRACE_COLUMNS)

    def test_zero_step_run_records_the_start_command(self):
        start = InputCmd(0.1, 0.5, 0.2)
        sc = Scenario(path=line_path(), x0=0.0, y0=1.0, omega0=0.0,
                      T_p=0.5, duration=1e-7, law="sglos",
                      initial_input=start)
        tr = run_scenario(sc)
        assert len(tr) == 1
        assert (tr["u_cmd"][0], tr["psi_cmd"][0], tr["u_tar"][0]) == \
            (start.u, start.psi, start.u_tar)
        assert np.isnan(tr["J_opt"][0]) and tr["iterations"][0] == 0.0
        assert compute_metrics(tr).guidance_steps == 0

    def test_guidance_record_takes_its_columns_by_name(self):
        """Both guidance records come from one helper: the held command
        gives the first three columns, the rest go in by column name."""
        params = list(inspect.signature(sim._guidance_record).parameters)
        assert params == ["cmd", *sim._GUIDANCE_COLUMNS[3:]]
        assert sim._GUIDANCE_COLUMNS[:3] == ("psi_cmd", "u_cmd", "u_tar")
        record = sim._guidance_record(
            InputCmd(0.2, 7.0, 0.1), J_opt=1.5, kkt_residual=2.5,
            iterations=3.0, solve_time_s=4.5)
        assert record == (wrap_angle(7.0), 0.2, 0.1, 1.5, 2.5, 3.0, 4.5)

    def test_step_error_context(self):
        from pfguide.exceptions import PFGuideError
        bad = Scenario(path=line_path(), x0=0.0, y0=0.0, omega0=0.0,
                       duration=10.0, law="sglos",
                       initial_input=InputCmd(0.9, 0.0, 0.1))
        with pytest.raises(PFGuideError, match="outside the box"):
            run_scenario(bad)


def reference_plant_columns(sc: Scenario, law) -> dict:
    """run_scenario's 10 plant-rate columns from a plain per-instant loop.

    Every plant instant calls sample_path and disturbance_sample, and the
    actuators are two ScalarFilter channels stepped one at a time.  At
    each guidance instant law(state, v, prev) returns the command.  The
    scenario starts aligned (psi0 None) from the default previous input.
    """
    T_p = sc.T_p
    steps = int(round(sc.duration / T_p))
    m = int(round(sc.T_m / T_p))
    psi0 = sample_path(sc.path, sc.omega0).phi_p
    cmd = InputCmd(0.0, psi0, sc.constraints.eps)
    surge, heading = ScalarFilter(T_p, 0.0), ScalarFilter(T_p, psi0)
    x, y, omega = sc.x0, sc.y0, sc.omega0
    u_act, psi_act, psi_cont = 0.0, psi0, psi0
    rows = []
    for i in range(steps + 1):
        t = i * T_p
        pt = sample_path(sc.path, omega)
        z = z_of_omega(omega)
        dx, dy = x - pt.x_p, y - pt.y_p
        c, s = math.cos(pt.phi_p), math.sin(pt.phi_p)
        x_e, y_e = c * dx + s * dy, -s * dx + c * dy
        v = disturbance_sample(sc.disturbance, t)
        if i % m == 0 and i < steps:
            cmd = law(GuidanceState(x_e, y_e, z), v, cmd)
            psi_cont = unwrap_near(cmd.psi, psi_cont)
            if not sc.filter_enabled:
                u_act, psi_act = cmd.u, psi_cont
        rows.append((t, x, y, wrap_angle(psi_act), u_act, v, omega, z,
                     x_e, y_e))
        if i == steps:
            break
        x += T_p * (u_act * math.cos(psi_act) - v * math.sin(psi_act))
        y += T_p * (u_act * math.sin(psi_act) + v * math.cos(psi_act))
        omega += T_p * cmd.u_tar / pt.F
        if sc.filter_enabled:
            u_act, psi_act = surge.step(cmd.u), heading.step(psi_cont)
    return dict(zip(sim._PLANT_COLUMNS, np.array(rows).T))


def sglos_law(sc: Scenario):
    def law(state, v, prev):
        return clamp_inputs(sglos(state, sc.path, sc.sglos), prev,
                            sc.constraints)
    return law


def pnmpc_law(sc: Scenario):
    solver = PNMPCSolver(sc.guidance_config(), sc.path, sc.linearization)
    warm = [None]

    def law(state, v, prev):
        warm[0] = solver.solve(state, v, prev, warm[0], timer=lambda: 0.0)
        return warm[0].u_seq[0]
    return law


SWAYS = {
    "none": DisturbanceSpec(),
    "sinusoid": DisturbanceSpec(kind="sinusoid", amplitude=0.1, period=7.0,
                                phase=0.3),
    "chirp_mirror": DisturbanceSpec(kind="chirp_mirror", amplitude=0.15,
                                    f0=0.1, f1=0.3, switch_time=8.0),
}
# (path, x0, y0, omega0) per path kind.
STARTS = {
    "case_study": (case_study_path(), 10.0, 10.0, 2.5),
    "line": (line_path((1.0, -2.0), (0.6, 0.8)), -1.0, 1.5, 0.5),
    "polynomial": (polynomial_path([0.0, 1.0, 0.0, 0.002], [1.0, 0.3, -0.02]),
                   3.0, -2.0, 1.0),
}


class TestPlantLoopReference:
    """The plant-rate columns equal a per-instant reference loop bit for
    bit: the tangent-only measurement, the two-channel filter step and
    the precomputed sway change no value."""

    @staticmethod
    def scenario(path, sway, stride, filtered, law="sglos", duration=20.0):
        p, x0, y0, omega0 = STARTS[path]
        return Scenario(path=p, x0=x0, y0=y0, omega0=omega0, T_p=0.1,
                        T_m=0.1 * stride, duration=duration, law=law,
                        disturbance=SWAYS[sway], filter_enabled=filtered)

    @staticmethod
    def assert_plant_columns_equal(sc, law):
        tr = run_scenario(sc)
        ref = reference_plant_columns(sc, law)
        for name in sim._PLANT_COLUMNS:
            assert tr[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("sway", sorted(SWAYS))
    @pytest.mark.parametrize("stride", [1, 10])
    @pytest.mark.parametrize("path", sorted(STARTS))
    def test_sglos(self, path, stride, sway, filtered):
        sc = self.scenario(path, sway, stride, filtered)
        self.assert_plant_columns_equal(sc, sglos_law(sc))

    def test_pnmpc(self):
        sc = self.scenario("case_study", "chirp_mirror", 10, True,
                           law="pnmpc", duration=30.0)
        self.assert_plant_columns_equal(sc, pnmpc_law(sc))


def reference_csv(trace: Trace) -> str:
    """Per-value row loop: the format every chunked write must reproduce."""
    out = io.StringIO()
    out.write(",".join(TRACE_COLUMNS) + "\n")
    cols = [trace.columns[c] for c in TRACE_COLUMNS]
    for i in range(len(trace)):
        out.write(",".join(f"{col[i]:.9g}" for col in cols) + "\n")
    return out.getvalue()


def csv_text(trace: Trace) -> str:
    out = io.StringIO()
    trace.to_csv(out)
    return out.getvalue()


class TestCsvWriter:
    def test_sglos_trace_with_nan_columns(self):
        tr = run_scenario(realistic_scenario("sglos", duration=60.0))
        assert np.isnan(tr["J_opt"]).all() and np.isnan(tr["kkt_residual"]).all()
        assert len(tr) > 2 * CSV_CHUNK
        assert csv_text(tr) == reference_csv(tr)

    @pytest.mark.parametrize("n", [1, CSV_CHUNK, CSV_CHUNK + 1])
    def test_special_values_and_chunk_edges(self, n):
        rng = np.random.default_rng(n)
        block = rng.standard_normal((n, len(TRACE_COLUMNS)))
        block *= 10.0 ** rng.integers(-300, 300, block.shape)
        specials = [math.inf, -math.inf, -0.0, 5e-324, math.nan, -5e-324]
        flat = block.ravel()
        flat[rng.choice(flat.size, min(len(specials), flat.size),
                        replace=False)] = specials[:flat.size]
        tr = Trace(dict(zip(TRACE_COLUMNS, block.T)), {})
        assert csv_text(tr) == reference_csv(tr)
        assert csv_text(tr).count("\n") == n + 1

    @staticmethod
    def held_trace(n, run_ends, values, seed=0):
        """n rows of distinct values; the guidance columns hold values[k]
        over the k-th run of rows, the runs ending at run_ends."""
        rng = np.random.default_rng(seed)
        cols = {c: rng.standard_normal(n) * 100.0 for c in TRACE_COLUMNS}
        bounds = [0] + list(run_ends) + [n]
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            for j, c in enumerate(("psi_cmd", "u_cmd", "u_tar", "J_opt",
                                   "kkt_residual", "iterations",
                                   "solve_time_s")):
                cols[c][a:b] = values[(k + j) % len(values)]
        return Trace(cols, {})

    def test_runs_cross_chunk_windows(self):
        n = 3 * CSV_CHUNK + 5
        ends = range(7, n, 10)  # every run straddling a window edge included
        values = [0.1 * k + 1e-7 for k in range(50)]
        tr = self.held_trace(n, ends, values)
        assert any(e < k * CSV_CHUNK < e + 10 for k in (1, 2, 3)
                   for e in ends)
        assert csv_text(tr) == reference_csv(tr)

    def test_signed_zeros_nan_and_inf_runs(self):
        values = [-0.0, 0.0, -0.0, math.nan, math.nan, math.inf, -math.inf,
                  0.0, 5e-324, -5e-324]
        tr = self.held_trace(CSV_CHUNK + 40, range(4, CSV_CHUNK + 40, 4),
                             values)
        text = csv_text(tr)
        assert text == reference_csv(tr)
        u_cmd = [line.split(",")[TRACE_COLUMNS.index("u_cmd")]
                 for line in text.splitlines()[1:]]
        assert {"-0", "0", "nan", "inf", "-inf"} <= set(u_cmd)

    def test_column_constant_over_the_whole_trace(self):
        tr = self.held_trace(2 * CSV_CHUNK + 3, range(9, 2 * CSV_CHUNK, 9),
                             [0.25, -1.5, 3e10])
        tr.columns["v"] = np.zeros(len(tr))
        tr.columns["J_opt"] = np.full(len(tr), math.nan)
        assert csv_text(tr) == reference_csv(tr)

    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan, 1.0 / 3.0])
    def test_every_column_constant(self, value):
        n = CSV_CHUNK + 7
        tr = Trace({c: np.full(n, value) for c in TRACE_COLUMNS}, {})
        assert csv_text(tr) == reference_csv(tr)

    def test_runs_change_at_rows_aligned_to_no_stride(self):
        rng = np.random.default_rng(4)
        n = 2 * CSV_CHUNK + 11
        ends = np.unique(rng.integers(1, n, 90))
        tr = self.held_trace(n, ends.tolist(), rng.standard_normal(37))
        assert np.diff(ends).min() == 1 and len(set(np.diff(ends))) > 5
        assert csv_text(tr) == reference_csv(tr)

    def test_held_columns_changing_at_different_rows(self):
        """Two held columns out of step give runs of one row; half the
        columns repeat only on every other row."""
        n = CSV_CHUNK + 9
        tr = self.held_trace(n, range(2, n, 2), [1.0, 2.0, 3.0])
        tr.columns["u_cmd"] = np.repeat(np.arange(n // 2 + 2.0), 2)[1:n + 1]
        assert csv_text(tr) == reference_csv(tr)

    @pytest.mark.parametrize("n", [0, 1, CSV_CHUNK + 1])
    def test_trace_lengths(self, n):
        tr = self.held_trace(n, range(10, n, 10), [0.5, -0.0, math.nan])
        assert csv_text(tr) == reference_csv(tr)
        assert csv_text(tr).count("\n") == n + 1

    @pytest.mark.parametrize("law", ["nmpc", "pnmpc", "sglos"])
    def test_guidance_rate_trace(self, law):
        tr = run_scenario(realistic_scenario(law, duration=30.3))
        assert len(tr) == 304
        assert csv_text(tr) == reference_csv(tr)


def reference_scan(trace: Trace) -> dict:
    """The guidance-instant fields of the Report, from one InputCmd and one
    clamp_inputs call per instant."""
    stride = trace.meta["guidance_stride"]
    c = trace.meta["constraints"]
    prev = trace.meta["initial_input"]
    violations = 0
    solve_times = []
    for i in range(0, len(trace) - 1, stride):
        cmd = InputCmd(float(trace["u_cmd"][i]), float(trace["psi_cmd"][i]),
                       float(trace["u_tar"][i]))
        if clamp_inputs(cmd, prev, c) != cmd:
            violations += 1
        prev = cmd
        solve_times.append(float(trace["solve_time_s"][i]))
    st = np.asarray(solve_times) if solve_times else np.array([math.nan])
    return dict(violations=violations,
                solve_time_min=float(np.min(st)),
                solve_time_median=float(np.median(st)),
                solve_time_mean=float(np.mean(st)),
                solve_time_max=float(np.max(st)),
                guidance_steps=len(solve_times))


def assert_scan_matches_reference(trace: Trace) -> None:
    got = compute_metrics(trace).to_dict()
    ref = reference_scan(trace)
    assert repr({k: got[k] for k in ref}) == repr(ref)


class TestMetrics:
    def make_trace(self, y_e, T_p=0.1, law="sglos"):
        n = len(y_e)
        cols = {name: np.zeros(n) for name in TRACE_COLUMNS}
        cols["t"] = np.arange(n) * T_p
        cols["y_e"] = np.asarray(y_e, dtype=float)
        cols["u_cmd"] = np.full(n, 0.15)
        cols["u_tar"] = np.full(n, 0.15)
        cols["solve_time_s"] = np.full(n, 1e-3)
        meta = dict(law=law, T_m=T_p, T_p=T_p, duration=(n - 1) * T_p,
                    guidance_stride=1,
                    constraints=__import__("pfguide").InputConstraints(),
                    initial_input=InputCmd(0.15, 0.0, 0.15),
                    converge_band=0.1, disturbance=DisturbanceSpec(),
                    filter_enabled=False)
        return Trace(cols, meta)

    def test_median_matches_numpy(self):
        rng = np.random.default_rng(21)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324])
        cases = 0
        for n in [*range(1, 42), 400, 401]:
            for draw in range(24):
                if draw % 4 == 0:
                    v = rng.normal(size=n)
                elif draw % 4 == 1:  # ties, signed zeros and infinities
                    v = rng.choice(specials, size=n)
                elif draw % 4 == 2:
                    v = rng.choice(specials[:2], size=n)
                else:
                    v = rng.choice(specials, size=n)
                    v[rng.integers(n)] = np.nan
                with np.errstate(invalid="ignore"), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    ref = float(np.median(v))
                got = sim._median(v.tolist())
                assert struct.pack("d", got) == struct.pack("d", ref), v
                cases += 1
        assert cases == 43 * 24

    def test_run_and_metrics_leave_numpy_ma_unimported(self):
        # np.median imports numpy.ma on its first call: about 15 ms and
        # 1.2 MB of memory per process, which nothing else in a run needs.
        # Older NumPy releases import numpy.ma with numpy itself.
        code = ("import io, sys\n"
                "import numpy\n"
                "print('numpy.ma' in sys.modules)\n"
                "from pfguide import compute_metrics, run_scenario, "
                "transient_scenario\n"
                "trace = run_scenario(transient_scenario('pnmpc', "
                "duration=5.0))\n"
                "trace.to_csv(io.StringIO())\n"
                "compute_metrics(trace)\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        with_numpy, after_run = out.stdout.split()
        assert after_run == with_numpy

    def test_zero_trace(self):
        rep = compute_metrics(self.make_trace(np.zeros(11)))
        assert rep.iae_y_e == 0.0 and rep.rms_y_e == 0.0
        assert rep.time_to_converge == 0.0
        assert rep.violations == 0

    def test_rectangle_rule(self):
        # constant y_e = 1 for 10 s at T_p = 0.1 -> IAE = 10.0
        rep = compute_metrics(self.make_trace(np.ones(101)))
        assert rep.iae_y_e == pytest.approx(10.0, rel=1e-12)
        assert rep.rms_y_e == pytest.approx(1.0, rel=1e-12)
        assert rep.time_to_converge is None  # never inside the band

    def test_time_to_converge(self):
        y = np.concatenate([np.full(20, 0.5), np.full(81, 0.01)])
        rep = compute_metrics(self.make_trace(y))
        assert rep.time_to_converge == pytest.approx(2.0, rel=1e-12)

    def test_violations_counted(self):
        tr = self.make_trace(np.zeros(5))
        tr.columns["u_cmd"][2] = 0.5  # outside the box
        rep = compute_metrics(tr)
        # step 2 breaks the box; step 3's increment from 0.5 breaks the rate
        assert rep.violations == 2

    @pytest.mark.parametrize("law", ["nmpc", "pnmpc", "sglos"])
    def test_scan_matches_reference_on_runs(self, law):
        for sc in (transient_scenario(law, duration=40.0),
                   realistic_scenario(law, duration=40.5)):
            tr = run_scenario(sc)
            assert_scan_matches_reference(tr)
            # Bounds tighter than the run's: some commands now break them.
            tr.meta["constraints"] = InputConstraints(
                u_max=0.15, du_max=0.01, dpsi_max=0.05)
            assert reference_scan(tr)["violations"] > 0
            assert_scan_matches_reference(tr)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_scan_matches_reference_across_the_wrap(self, stride):
        """Box and rate breaks, with headings either side of +-pi."""
        rng = np.random.default_rng(stride)
        n = 241
        tr = self.make_trace(np.zeros(n))
        tr.meta.update(guidance_stride=stride,
                       initial_input=InputCmd(0.15, math.pi - 0.01, 0.15))
        psi = math.pi + rng.choice([-1.0, 1.0], n) * rng.uniform(0.0, 1.2, n)
        psi[::7] = rng.choice([math.pi, -math.pi, 3.0, -3.0], len(psi[::7]))
        tr.columns["psi_cmd"] = (psi + math.pi) % (2.0 * math.pi) - math.pi
        tr.columns["u_cmd"] = rng.uniform(-0.05, 0.3, n)
        tr.columns["u_tar"] = rng.uniform(0.0, 0.8, n)
        tr.columns["solve_time_s"] = rng.uniform(0.0, 1e-3, n)
        ref = reference_scan(tr)
        assert 0 < ref["violations"] < ref["guidance_steps"]
        assert_scan_matches_reference(tr)
        # one rate break across the wrap, one clean crossing
        for psis, count in (((3.0, -2.4), 1), ((3.1, -3.1), 0)):
            tr = self.make_trace(np.zeros(3))
            tr.meta["initial_input"] = InputCmd(0.15, psis[0], 0.15)
            tr.columns["psi_cmd"] = np.array([psis[0], psis[1], 0.0])
            assert compute_metrics(tr).violations == count
            assert_scan_matches_reference(tr)

    @pytest.mark.parametrize("name", ["u_cmd", "psi_cmd", "u_tar"])
    def test_non_finite_command_raises(self, name):
        tr = self.make_trace(np.zeros(11))
        tr.columns[name][4] = math.nan
        with pytest.raises(ValueError, match="non-finite input command"):
            reference_scan(tr)
        with pytest.raises(ValueError, match="non-finite input command"):
            compute_metrics(tr)
        tr.columns[name][4] = 0.1
        tr.columns[name][-1] = math.inf  # the final row is no instant
        assert_scan_matches_reference(tr)

    def test_empty_trace(self):
        tr = self.make_trace(np.zeros(1))
        tr.columns = {k: v[:0] for k, v in tr.columns.items()}
        with pytest.raises(EmptyTrace):
            compute_metrics(tr)

    def test_report_json_roundtrip(self, tmp_path):
        import json
        rep = compute_metrics(self.make_trace(np.zeros(11)))
        f = tmp_path / "report.json"
        with open(f, "w") as fh:
            json.dump(rep.to_dict(), fh)
        loaded = json.loads(f.read_text())
        assert loaded["violations"] == 0
        assert loaded["time_to_converge"] == 0.0
