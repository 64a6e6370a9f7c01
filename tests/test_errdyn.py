import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pfguide import (GuidanceState, InputCmd, Scenario, StateEscape, Z_MIN,
                     dynamics, euler_step, rollout, run_scenario, sample_path,
                     transient_scenario, z_of_omega)
from pfguide.paths import line_path

coords = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


class TestTypes:
    def test_state_invariants(self):
        with pytest.raises(ValueError):
            GuidanceState(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GuidanceState(0.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            GuidanceState(math.nan, 0.0, 0.5)

    def test_input_invariants(self):
        with pytest.raises(ValueError):
            InputCmd(math.inf, 0.0, 0.1)


def one_step(path, x, y, omega):
    """Trace of a one-step SGLOS run from the pose (x, y) with the target
    at omega: rows 0 and 1 are the plant loop's measurements."""
    return run_scenario(Scenario(path=path, x0=x, y0=y, omega0=omega,
                                 duration=1.0, law="sglos"))


class TestComputeErrors:
    """The plant loop measures (x_e, y_e) = R2(phi_p)' (x - x_p, y - y_p)."""

    def test_on_path_zero(self, demo_path):
        pt = sample_path(demo_path, 7.3)
        tr = one_step(demo_path, pt.x_p, pt.y_p, 7.3)
        assert tr["x_e"][0] == 0.0 and tr["y_e"][0] == 0.0

    def test_line_identity_rotation(self, xaxis_path):
        tr = one_step(xaxis_path, 3.0, 2.0, 1.0)
        assert tr["x_e"][0] == pytest.approx(2.0, abs=1e-15)
        assert tr["y_e"][0] == pytest.approx(2.0, abs=1e-15)

    def test_demo_path_scalar_oracle(self, demo_path):
        # independent scalar evaluation of the rotation at omega = 2.5
        w = 2.5
        xp = 1.25 * w + 10.0 * math.sin(math.pi * w / 20.0) + 5.0
        yp = 1.75 * w - 0.01 * w * w
        dx = 1.25 + (math.pi / 2.0) * math.cos(math.pi * w / 20.0)
        dy = 1.75 - 0.02 * w
        phi = math.atan2(dy, dx)
        c, s = math.cos(phi), math.sin(phi)
        ex_ref = c * (10.0 - xp) + s * (10.0 - yp)
        ey_ref = -s * (10.0 - xp) + c * (10.0 - yp)
        tr = run_scenario(transient_scenario("sglos", duration=20.0))
        assert tr["x_e"][0] == pytest.approx(ex_ref, rel=1e-12)
        assert tr["y_e"][0] == pytest.approx(ey_ref, rel=1e-12)
        assert (tr["x_e"][0], tr["y_e"][0]) == pytest.approx((1.378, 5.853),
                                                             abs=1e-3)
        # every row: the pose rotated into the frame at the row's omega
        for x, y, om, ex, ey in zip(tr["x"], tr["y"], tr["omega"],
                                    tr["x_e"], tr["y_e"]):
            pt = sample_path(demo_path, om)
            c, s = math.cos(pt.phi_p), math.sin(pt.phi_p)
            assert ex == pytest.approx(c * (x - pt.x_p) + s * (y - pt.y_p),
                                       rel=1e-12, abs=1e-12)
            assert ey == pytest.approx(-s * (x - pt.x_p) + c * (y - pt.y_p),
                                       rel=1e-12, abs=1e-12)

    @given(coords, coords, st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_rotation_preserves_distance(self, x, y, w):
        path = line_path(origin=(2.0, -1.0), direction=(0.6, 0.8))
        tr = one_step(path, x, y, w)
        for px, py, om, ex, ey in zip(tr["x"], tr["y"], tr["omega"],
                                      tr["x_e"], tr["y_e"]):
            x_p, y_p = path.eval(om)
            assert math.hypot(ex, ey) == pytest.approx(
                math.hypot(px - x_p, py - y_p), rel=1e-12, abs=1e-12)


class TestDynamics:
    def test_on_path_equilibrium(self, demo_path):
        z = z_of_omega(4.0)
        pt = sample_path(demo_path, 4.0)
        x = GuidanceState(0.0, 0.0, z)
        dxe, dye, dz = dynamics(x, InputCmd(0.15, pt.phi_p, 0.15), 0.0, demo_path)
        assert dxe == 0.0 and dye == 0.0
        assert dz == pytest.approx(-z * z * 0.15 / pt.F, rel=1e-12)

    def test_quarter_turn_heading(self, demo_path):
        z = z_of_omega(4.0)
        pt = sample_path(demo_path, 4.0)
        u = InputCmd(0.2, pt.phi_p + math.pi / 2.0, 0.1)
        dxe, dye, _ = dynamics(GuidanceState(0.0, 0.0, z), u, 0.0, demo_path)
        assert dxe == pytest.approx(-u.u_tar, rel=1e-12)  # cos term vanishes
        assert dye == pytest.approx(u.u, rel=1e-12)

    def test_line_z_rate(self, xaxis_path):
        _, _, dz = dynamics(GuidanceState(0.0, 0.0, 1.0),
                            InputCmd(0.0, 0.0, 1.0), 0.0, xaxis_path)
        assert dz == -1.0  # z^2 = F = 1


class TestEulerStep:
    def test_fixed_point_at_equilibrium(self, xaxis_path):
        x = GuidanceState(0.0, 0.0, 0.5)
        nxt = euler_step(x, InputCmd(0.15, 0.0, 0.15), 0.0, 1.0, xaxis_path)
        assert nxt.x_e == 0.0 and nxt.y_e == 0.0

    def test_unit_step_is_plain_addition(self, demo_path):
        x = GuidanceState(1.0, -2.0, 0.4)
        u = InputCmd(0.2, 0.3, 0.1)
        d = dynamics(x, u, 0.05, demo_path)
        nxt = euler_step(x, u, 0.05, 1.0, demo_path)
        assert nxt.x_e == x.x_e + d[0]
        assert nxt.y_e == x.y_e + d[1]
        assert nxt.z == x.z + d[2]

    def test_richardson_halving(self, demo_path):
        # halving dt must shrink the defect vs a fine-step oracle ~linearly
        x0 = GuidanceState(1.5, -0.8, 0.3)
        u = InputCmd(0.2, 0.4, 0.25)

        def fine(dt_f, total):
            x = x0
            for _ in range(int(round(total / dt_f))):
                x = euler_step(x, u, 0.0, dt_f, demo_path)
            return x

        ref = fine(1e-4, 1.0)

        def defect(dt):
            x = fine(dt, 1.0)
            return math.hypot(x.x_e - ref.x_e, x.y_e - ref.y_e)

        ratio = defect(1.0) / defect(0.5)
        assert 1.5 < ratio < 3.0  # first-order global error halves with dt

    def test_z_clamped_into_domain(self, xaxis_path):
        x = GuidanceState(0.0, 0.0, 0.1)
        nxt = euler_step(x, InputCmd(0.0, 0.0, 0.75), 0.0, 1000.0, xaxis_path)
        assert nxt.z == Z_MIN  # raw Euler step would go far negative

    def test_state_escape_raised(self, xaxis_path):
        with pytest.raises(StateEscape):
            euler_step(GuidanceState(0.0, 0.0, 0.5),
                       InputCmd(1e308, 0.0, 0.01), 0.0, 1e308, xaxis_path)

    def test_dt_must_be_positive(self, xaxis_path):
        with pytest.raises(ValueError):
            euler_step(GuidanceState(0, 0, 0.5), InputCmd(0, 0, 0.1),
                       0.0, 0.0, xaxis_path)


class TestMonotoneProgress:
    def test_z_strictly_decreases_with_forward_target(self, demo_path):
        x = GuidanceState(2.0, 1.0, 0.9)
        for _ in range(50):
            nxt = euler_step(x, InputCmd(0.1, 0.2, 0.3), 0.0, 1.0, demo_path)
            assert nxt.z < x.z
            x = nxt


class TestWorldFrameAgreement:
    def test_pose_propagation_matches_error_frame(self):
        """The plant loop's world-frame kinematics, re-measured in the path
        frame, track euler_step from each measured state to O(dt^2) per
        step at the held inputs."""

        def defect(dt):
            sc = transient_scenario("sglos", duration=4.0)
            sc = replace(sc, T_m=dt, T_p=dt)
            tr = run_scenario(sc)
            worst = 0.0
            for k in range(len(tr) - 1):
                x = GuidanceState(tr["x_e"][k], tr["y_e"][k], tr["z"][k])
                u = InputCmd(tr["u_act"][k], tr["psi_act"][k], tr["u_tar"][k])
                nxt = euler_step(x, u, tr["v"][k], dt, sc.path)
                worst = max(worst, math.hypot(nxt.x_e - tr["x_e"][k + 1],
                                              nxt.y_e - tr["y_e"][k + 1]))
            return worst

        d1, d2 = defect(1.0), defect(0.5)
        assert d1 < 5e-3
        assert d1 / d2 > 3.0  # the one-step defect shrinks with dt^2


def test_rollout(demo_path):
    x0 = GuidanceState(1.0, 1.0, 0.5)
    useq = [InputCmd(0.1, 0.2, 0.1), InputCmd(0.15, 0.1, 0.2)]
    states = rollout(x0, useq, 0.0, 1.0, demo_path)
    assert len(states) == 3
    assert states[0] is x0
    assert states[1] == euler_step(x0, useq[0], 0.0, 1.0, demo_path)
