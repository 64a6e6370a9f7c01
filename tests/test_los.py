import math

import pytest
from hypothesis import given, settings, strategies as st

from pfguide import (GuidanceState, InputCmd, InputConstraints, InfeasibleStart,
                     SGLOSParams, clamp_inputs, in_box, in_rate, sample_path,
                     sglos, z_of_omega)
from pfguide.los import require_in_box

P = SGLOSParams(k1=0.3, k2=0.8, delta=0.5)
C = InputConstraints()


def test_param_validation():
    with pytest.raises(ValueError):
        SGLOSParams(k1=0.0)
    with pytest.raises(ValueError):
        InputConstraints(eps=0.8, u_tar_max=0.75)
    with pytest.raises(ValueError):
        InputConstraints(du_max=-0.1)


class TestSGLOS:
    def test_on_path_command(self, demo_path):
        x = GuidanceState(0.0, 0.0, z_of_omega(2.5))
        cmd = sglos(x, demo_path, P)
        phi = sample_path(demo_path, 2.5).phi_p
        assert cmd.u == pytest.approx(0.3 * math.sqrt(0.25), rel=1e-15)  # 0.15
        assert cmd.psi == pytest.approx(phi, abs=1e-15)
        assert cmd.u_tar == pytest.approx(cmd.u, rel=1e-12)  # on-path: k2*0 + u

    def test_lookahead_angle(self, xaxis_path):
        x = GuidanceState(0.0, 0.5, 0.5)
        cmd = sglos(x, xaxis_path, P)
        assert cmd.psi == pytest.approx(-math.pi / 4.0, rel=1e-12)  # atan(1)

    def test_own_command_feeds_target_speed(self, xaxis_path):
        # with the commanded-surge convention the third component collapses
        # to k2*x_e + k1*delta for any cross-track error
        for ye in (0.0, 0.7, -3.0):
            cmd = sglos(GuidanceState(2.0, ye, 0.5), xaxis_path, P)
            assert cmd.u_tar == pytest.approx(0.8 * 2.0 + 0.3 * 0.5, rel=1e-12)


class TestClampInputs:
    def test_rate_binds_before_box(self):
        prev = InputCmd(0.15, 0.0, 0.15)
        out = clamp_inputs(InputCmd(0.25, 0.0, 0.15), prev, C)
        assert out.u == pytest.approx(0.20, rel=1e-12)

    def test_identity_inside_sets(self):
        prev = InputCmd(0.15, 0.3, 0.2)
        assert clamp_inputs(prev, prev, C) == prev

    def test_wrap_aware_heading_increment(self):
        # +3 -> -3 crosses +/-pi; the wrapped difference is ~0.283 < pi/4
        prev = InputCmd(0.1, 3.0, 0.1)
        wrapped_diff = -3.0 - 3.0 + 2.0 * math.pi
        assert wrapped_diff == pytest.approx(0.2832, abs=1e-4)
        out = clamp_inputs(InputCmd(0.1, -3.0, 0.1), prev, C)
        assert out.psi == -3.0  # no clamp applied

    def test_jointly_feasible_output(self):
        prev = InputCmd(0.0, 0.5617, 0.01)
        raw = InputCmd(5.0, -2.0, 9.0)
        out = clamp_inputs(raw, prev, C)
        assert in_box(out, C) and in_rate(out, prev, C)

    @given(st.floats(-1.0, 1.0), st.floats(-math.pi, math.pi),
           st.floats(-1.0, 2.0), st.floats(0.0, 0.225),
           st.floats(-math.pi, math.pi), st.floats(0.01, 0.75))
    @settings(max_examples=150, deadline=None)
    def test_projection_idempotent_and_feasible(self, ru, rp, rt, pu, pp, pt_):
        prev = InputCmd(pu, pp, pt_)
        raw = InputCmd(ru, rp, rt)
        once = clamp_inputs(raw, prev, C)
        assert clamp_inputs(once, prev, C) == once  # bitwise fixed point
        assert in_box(once, C)
        assert in_rate(once, prev, C)


def test_require_in_box():
    require_in_box(InputCmd(0.1, 0.0, 0.1), C)
    with pytest.raises(InfeasibleStart):
        require_in_box(InputCmd(0.5, 0.0, 0.1), C)
    with pytest.raises(InfeasibleStart):
        require_in_box(InputCmd(0.1, 0.0, 0.001), C)
