import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pfguide import (DomainError, NonRegularPath, PathDef,
                     check_path_derivatives, line_path, omega_of_z,
                     path_from_config, polynomial_path, sample_path,
                     z_of_omega)


def demo_geometry_oracle(w):
    """Scalar re-derivation of the demo-path geometry, kept independent of
    the library implementation."""
    k = 2.0 * math.pi / 40.0
    x = 1.25 * w + 10.0 * math.sin(k * w) + 5.0
    y = 1.75 * w - 0.01 * w * w
    dx = 1.25 + 10.0 * k * math.cos(k * w)
    dy = 1.75 - 0.02 * w
    F = math.hypot(dx, dy)
    phi = math.atan2(dy, dx)
    ddx = -10.0 * k * k * math.sin(k * w)
    ddy = -0.02
    dphi = (dx * ddy - dy * ddx) / (F * F)
    return x, y, phi, F, dphi


class TestSamplePath:
    def test_origin_point(self, demo_path):
        pt = sample_path(demo_path, 0.0)
        assert pt.x_p == 5.0 and pt.y_p == 0.0  # all omega terms vanish

    def test_origin_geometry_matches_scalar_oracle(self, demo_path):
        pt = sample_path(demo_path, 0.0)
        _, _, phi, F, dphi = demo_geometry_oracle(0.0)
        assert pt.F == pytest.approx(F, rel=1e-12)
        assert pt.phi_p == pytest.approx(phi, rel=1e-12)
        assert pt.F == pytest.approx(3.3195, abs=1e-4)
        assert pt.phi_p == pytest.approx(0.5553, abs=2e-4)
        assert pt.dphi_dw == pytest.approx(dphi, rel=1e-12)

    @pytest.mark.parametrize("w", [0.7, 2.5, 17.0, 60.3, 95.0, 119.0])
    def test_geometry_matches_scalar_oracle(self, demo_path, w):
        pt = sample_path(demo_path, w)
        x, y, phi, F, dphi = demo_geometry_oracle(w)
        assert pt.x_p == pytest.approx(x, rel=1e-12)
        assert pt.y_p == pytest.approx(y, rel=1e-12)
        assert pt.phi_p == pytest.approx(phi, rel=1e-12)
        assert pt.F == pytest.approx(F, rel=1e-12)
        assert pt.dphi_dw == pytest.approx(dphi, rel=1e-12)

    def test_straight_line_constant_tangent(self, xaxis_path):
        for w in (0.0, 1.0, 42.5):
            pt = sample_path(xaxis_path, w)
            assert pt.phi_p == 0.0
            assert pt.F == 1.0
            assert pt.dphi_dw == 0.0

    def test_non_regular_path_rejected(self):
        stalled = line_path(direction=(1.0, 0.0))
        degenerate = polynomial_path([0.0, 0.0, 1.0], [0.0])  # F(0) = 0
        sample_path(stalled, 3.0)
        with pytest.raises(NonRegularPath):
            sample_path(degenerate, 0.0)


class TestReparameterization:
    def test_examples(self):
        assert z_of_omega(0.0) == 1.0
        assert z_of_omega(2.5) == pytest.approx(1.0 / 3.5, rel=1e-15)
        assert z_of_omega(99.0) == pytest.approx(0.01, rel=1e-15)
        assert omega_of_z(1.0) == 0.0
        assert omega_of_z(0.5) == 1.0
        assert omega_of_z(1.0 / 3.5) == pytest.approx(2.5, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            z_of_omega(-0.1)
        for z in (0.0, -0.5, 1.0001):
            with pytest.raises(DomainError):
                omega_of_z(z)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_round_trip(self, z):
        assert z_of_omega(omega_of_z(z)) == pytest.approx(z, rel=1e-14)

    def test_strictly_decreasing(self):
        omegas = np.linspace(0.0, 500.0, 1000)
        zs = [z_of_omega(w) for w in omegas]
        assert all(a > b for a, b in zip(zs, zs[1:]))


class TestPathInvariants:
    def test_demo_derivatives_match_finite_differences(self, demo_path):
        check_path_derivatives(demo_path, np.linspace(0.0, 120.0, 100))

    def test_manual_finite_difference_bound(self, demo_path):
        # same check as above but asserted directly at the spec tolerance
        h = 1e-5
        for w in np.linspace(0.1, 120.0, 100):
            dx, dy = demo_path.deriv(w)
            for got, fd in zip(
                    (dx, dy),
                    ((demo_path.eval(w + h)[0] - demo_path.eval(w - h)[0]) / (2 * h),
                     (demo_path.eval(w + h)[1] - demo_path.eval(w - h)[1]) / (2 * h))):
                assert abs(fd - got) <= 1e-6 * max(abs(got), 1e-3)

    def test_tangent_angle_continuous_after_unwrap(self, demo_path):
        omegas = np.arange(0.0, 120.0, 0.01)
        phis = np.array([sample_path(demo_path, w).phi_p for w in omegas])
        unwrapped = np.unwrap(phis)
        assert np.max(np.abs(np.diff(unwrapped))) < 0.1


class TestPathFromConfig:
    def test_named_paths(self):
        assert path_from_config("case_study").name == "case_study"
        line = path_from_config("line", {"origin": [1, 2], "direction": [0, 2]})
        assert line.eval(1.0) == (1.0, 4.0)
        poly = path_from_config("polynomial",
                                {"x_coeffs": [0, 1], "y_coeffs": [3.0]})
        assert poly.eval(2.0) == (2.0, 3.0)
        assert poly.deriv2(2.0) == (0.0, 0.0)

    def test_rejects_unknown(self):
        with pytest.raises(DomainError):
            path_from_config("spline")
        with pytest.raises(DomainError):
            path_from_config("line", {"slope": 2})
        with pytest.raises(DomainError):
            path_from_config("case_study", {"scale": 2})
        with pytest.raises(DomainError):
            path_from_config("polynomial", {"x_coeffs": [1]})
        with pytest.raises(DomainError, match="unknown polynomial path"):
            path_from_config("polynomial", {"x_coeffs": [0.0, 1.0],
                                            "y_coeffs": [0.0], "order": 1})

    @pytest.mark.parametrize("name, params", [
        ("line", {"direction": [math.nan, 0.0]}),
        ("line", {"direction": [math.inf, 0.0]}),
        ("line", {"origin": [0.0, -math.inf]}),
        ("polynomial", {"x_coeffs": [0.0, 1.0], "y_coeffs": [math.nan]}),
        ("polynomial", {"x_coeffs": [0.0, math.inf], "y_coeffs": [0.0]}),
    ])
    def test_rejects_non_finite_parameters(self, name, params):
        with pytest.raises(DomainError, match="must be finite"):
            path_from_config(name, params)

    @pytest.mark.parametrize("name, params, match", [
        ("line", {"direction": [0.0, 0.0]}, "direction must be non-zero"),
        ("polynomial", {"x_coeffs": [], "y_coeffs": [0.0]},
         "at least one coefficient"),
    ], ids=["line-zero-direction", "polynomial-empty"])
    def test_rejects_degenerate_parameters(self, name, params, match):
        with pytest.raises(DomainError, match=match):
            path_from_config(name, params)

    def test_polynomial_derivatives_consistent(self):
        poly = polynomial_path([1.0, 0.5, -0.02, 0.001], [0.0, 2.0, 0.03])
        check_path_derivatives(poly, np.linspace(0.5, 20.0, 40))

    def test_polynomial_matches_reference_loops_bit_for_bit(self):
        """Each derivative is Horner's rule over its own coefficient list;
        the reference is the former loops, with the factors inline."""

        def poly(c, w):
            acc = 0.0
            for a in reversed(c):
                acc = acc * w + a
            return acc

        def dpoly(c, w):
            acc = 0.0
            for i in range(len(c) - 1, 0, -1):
                acc = acc * w + i * c[i]
            return acc

        def ddpoly(c, w):
            acc = 0.0
            for i in range(len(c) - 1, 1, -1):
                acc = acc * w + i * (i - 1) * c[i]
            return acc

        def dddpoly(c, w):
            acc = 0.0
            for i in range(len(c) - 1, 2, -1):
                acc = acc * w + i * (i - 1) * (i - 2) * c[i]
            return acc

        rng = np.random.default_rng(12)
        for trial in range(200):
            cx = rng.normal(0.0, 10.0, 1 + trial % 8).tolist()
            cy = rng.normal(0.0, 10.0, 1 + (trial // 8) % 8).tolist()
            path = polynomial_path(cx, cy)
            funcs = (path.eval, path.deriv, path.deriv2, path.deriv3)
            for w in rng.uniform(-50.0, 50.0, 10).tolist():
                for fn, ref in zip(funcs, (poly, dpoly, ddpoly, dddpoly)):
                    got = [v.hex() for v in fn(w)]
                    assert got == [ref(cx, w).hex(), ref(cy, w).hex()]

    def test_third_derivatives_closed_form(self, demo_path):
        k = 2.0 * math.pi / 40.0
        for w in (0.0, 3.3, 47.0):
            assert demo_path.deriv3(w) == pytest.approx(
                (-10.0 * k ** 3 * math.cos(k * w), 0.0), rel=1e-14)
        assert line_path(direction=(2.0, -1.0)).deriv3(5.0) == (0.0, 0.0)
        cubic = polynomial_path([1.0, 0.5, -0.02, 0.001], [0.0, 2.0, 0.03])
        assert cubic.deriv3(7.0) == (0.006, 0.0)


class TestCheckPathDerivatives:
    def test_deriv3_required(self, demo_path):
        with pytest.raises(TypeError):
            PathDef(demo_path.eval, demo_path.deriv, demo_path.deriv2)

    def test_deriv3_checked_when_supplied(self, demo_path):
        check_path_derivatives(demo_path, np.linspace(0.0, 120.0, 100))
        wrong = PathDef(demo_path.eval, demo_path.deriv, demo_path.deriv2,
                        name="bad_deriv3",
                        deriv3=lambda w: (0.0, 0.0))
        with pytest.raises(NonRegularPath, match="bad_deriv3"):
            check_path_derivatives(wrong, np.linspace(0.0, 120.0, 100))
