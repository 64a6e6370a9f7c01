"""Parametric planar paths and the omega <-> z reparameterization.

A path is a smooth map omega -> (x_p, y_p) in meters, omega >= 0
dimensionless.  Guidance consumes the local geometry at the virtual target:
position, tangent angle phi_p, speed factor F = |dP/domega| and the tangent
angle rate dphi_p/domega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from .angles import wrap_angle
from .exceptions import DomainError, NonRegularPath

# Paths with a speed factor below this at a queried omega are rejected as
# non-regular (the Frenet frame is undefined there).
F_MIN = 1e-9
# check_path_derivatives: central-difference step and relative tolerance.
FD_STEP = 1e-5
FD_REL_TOL = 1e-6

Vec2 = Tuple[float, float]


@dataclass(frozen=True)
class PathDef:
    """Planar path with analytic derivatives in omega.

    The predictive laws need deriv3: the z column of their state Jacobian
    carries the curvature rate.
    """

    eval: Callable[[float], Vec2]      # omega -> (x_p, y_p)        [m]
    deriv: Callable[[float], Vec2]     # omega -> (dx_p, dy_p)      [m]
    deriv2: Callable[[float], Vec2]    # omega -> (ddx_p, ddy_p)    [m]
    deriv3: Callable[[float], Vec2]    # omega -> (d3x_p, d3y_p)    [m]
    name: str = "path"


@dataclass(frozen=True)
class PathPoint:
    """Evaluated path geometry at one value of the path variable."""

    omega: float
    x_p: float      # m
    y_p: float      # m
    phi_p: float    # rad, wrapped to (-pi, pi]
    F: float        # m per unit omega, > 0
    dphi_dw: float  # rad per unit omega


# Local geometry on plain floats, the form the prediction core consumes:
# (phi_p, F, dphi_dw, dx, dy, ddx, ddy) with the raw derivatives kept for
# the rates of F and of the curvature.
Frame = Tuple[float, float, float, float, float, float, float]


def path_tangent(path: PathDef, omega: float) -> Tuple[float, float, float, float]:
    """Tangent angle and speed factor from the first derivative alone.

    Returns (phi_p, F, dx, dy): phi_p = atan2(dy, dx) wrapped to
    (-pi, pi], F = |(dx, dy)|, and the derivative they come from.  This
    is what the plant loop and SGLOS read; path_frame adds the second
    derivative on top of it.

    Raises NonRegularPath when F <= F_MIN.
    """
    dx, dy = path.deriv(omega)
    F = math.hypot(dx, dy)
    if F <= F_MIN:
        raise NonRegularPath(
            f"path {path.name!r} has speed factor {F:.3e} <= {F_MIN:.0e} "
            f"at omega={omega!r}")
    return wrap_angle(math.atan2(dy, dx)), F, dx, dy


def path_frame(path: PathDef, omega: float) -> Frame:
    """Tangent angle, speed factor and tangent rate, plus the first and
    second derivatives they come from, without evaluating the position.

    dphi_dw is computed from first and second derivatives,
    (x' y'' - y' x'') / F^2, rather than by differencing the wrapped angle.

    Raises NonRegularPath when F <= F_MIN.
    """
    phi_p, F, dx, dy = path_tangent(path, omega)
    ddx, ddy = path.deriv2(omega)
    return phi_p, F, (dx * ddy - dy * ddx) / (F * F), dx, dy, ddx, ddy


def sample_path(path: PathDef, omega: float) -> PathPoint:
    """Evaluate position, tangent angle, speed factor and tangent rate.

    Raises NonRegularPath when F <= F_MIN.
    """
    x_p, y_p = path.eval(omega)
    phi_p, F, dphi_dw = path_frame(path, omega)[:3]
    return PathPoint(omega, x_p, y_p, phi_p, F, dphi_dw)


def z_of_omega(omega: float) -> float:
    """Bounded reparameterization z = 1/(omega + 1), z in (0, 1]."""
    if omega < 0.0 or not math.isfinite(omega):
        raise DomainError(f"omega must be finite and >= 0, got {omega!r}")
    return 1.0 / (omega + 1.0)


def omega_of_z(z: float) -> float:
    """Inverse reparameterization omega = 1/z - 1 for z in (0, 1]."""
    if not (0.0 < z <= 1.0):
        raise DomainError(f"z must lie in (0, 1], got {z!r}")
    return 1.0 / z - 1.0


def case_study_path() -> PathDef:
    """Sinusoid-plus-drift path used throughout the simulation scenarios.

    x_p = 1.25 w + 10 sin(2 pi w / 40) + 5,  y_p = 1.75 w - 0.01 w^2.
    """
    k = 2.0 * math.pi / 40.0

    def _eval(w: float) -> Vec2:
        return (1.25 * w + 10.0 * math.sin(k * w) + 5.0,
                1.75 * w - 0.01 * w * w)

    def _deriv(w: float) -> Vec2:
        return (1.25 + 10.0 * k * math.cos(k * w),
                1.75 - 0.02 * w)

    def _deriv2(w: float) -> Vec2:
        return (-10.0 * k * k * math.sin(k * w), -0.02)

    def _deriv3(w: float) -> Vec2:
        return (-10.0 * k * k * k * math.cos(k * w), 0.0)

    return PathDef(_eval, _deriv, _deriv2, _deriv3, name="case_study")


def line_path(origin: Vec2 = (0.0, 0.0), direction: Vec2 = (1.0, 0.0)) -> PathDef:
    """Straight line P(w) = origin + w * direction."""
    ox, oy = float(origin[0]), float(origin[1])
    dx, dy = float(direction[0]), float(direction[1])
    if not all(map(math.isfinite, (ox, oy, dx, dy))):
        raise DomainError("line origin and direction must be finite")
    if math.hypot(dx, dy) <= F_MIN:
        raise DomainError("line direction must be non-zero")

    return PathDef(
        eval=lambda w: (ox + w * dx, oy + w * dy),
        deriv=lambda w: (dx, dy),
        deriv2=lambda w: (0.0, 0.0),
        deriv3=lambda w: (0.0, 0.0),
        name="line",
    )


def polynomial_path(x_coeffs: Sequence[float], y_coeffs: Sequence[float]) -> PathDef:
    """Polynomial path with ascending-order coefficient arrays per axis."""
    cx = [float(c) for c in x_coeffs]
    cy = [float(c) for c in y_coeffs]
    if not cx or not cy:
        raise DomainError("polynomial path needs at least one coefficient per axis")
    if not all(map(math.isfinite, cx + cy)):
        raise DomainError("polynomial coefficients must be finite")

    def _poly(c, w):
        acc = 0.0
        for a in reversed(c):
            acc = acc * w + a
        return acc

    def _derivative(c, order):
        # The integer factor i (i - 1) ... is exact, so each coefficient
        # is rounded once.
        return [math.prod(range(i - order + 1, i + 1)) * c[i]
                for i in range(order, len(c))]

    dx = [_derivative(cx, k) for k in (1, 2, 3)]
    dy = [_derivative(cy, k) for k in (1, 2, 3)]
    return PathDef(
        eval=lambda w: (_poly(cx, w), _poly(cy, w)),
        deriv=lambda w: (_poly(dx[0], w), _poly(dy[0], w)),
        deriv2=lambda w: (_poly(dx[1], w), _poly(dy[1], w)),
        deriv3=lambda w: (_poly(dx[2], w), _poly(dy[2], w)),
        name="polynomial",
    )


def path_from_config(name: str, params: dict | None = None) -> PathDef:
    """Build a path from its scenario-config name and parameter dict."""
    params = dict(params or {})
    if name == "case_study":
        if params:
            raise DomainError("case_study path takes no parameters")
        return case_study_path()
    if name == "line":
        origin = tuple(params.pop("origin", (0.0, 0.0)))
        direction = tuple(params.pop("direction", (1.0, 0.0)))
        if params:
            raise DomainError(f"unknown line path parameters: {sorted(params)}")
        return line_path(origin, direction)
    if name == "polynomial":
        try:
            cx = params.pop("x_coeffs")
            cy = params.pop("y_coeffs")
        except KeyError as exc:
            raise DomainError("polynomial path needs x_coeffs and y_coeffs") from exc
        if params:
            raise DomainError(f"unknown polynomial path parameters: {sorted(params)}")
        return polynomial_path(cx, cy)
    raise DomainError(f"unknown path name {name!r}")


def check_path_derivatives(path: PathDef, omegas: Sequence[float]) -> None:
    """Verify deriv, deriv2 and deriv3 against central finite differences
    of eval, deriv and deriv2 with step FD_STEP.

    Raises NonRegularPath on any mismatch beyond FD_REL_TOL (with a small
    absolute floor for near-zero components).
    """
    for w in omegas:
        if w < FD_STEP:
            continue
        pairs = [(path.deriv(w), path.eval), (path.deriv2(w), path.deriv),
                 (path.deriv3(w), path.deriv2)]
        for got, probe in pairs:
            hi = probe(w + FD_STEP)
            lo = probe(w - FD_STEP)
            for g, h, l in zip(got, hi, lo):
                fd = (h - l) / (2.0 * FD_STEP)
                if abs(fd - g) > FD_REL_TOL * max(abs(g), 1e-3):
                    raise NonRegularPath(
                        f"path {path.name!r} derivative mismatch at omega={w}: "
                        f"analytic {g!r} vs finite difference {fd!r}")
