"""Surge-guided line-of-sight guidance and shared input saturation.

SGLOS shapes all three commands from the PF errors:

    u     = k1 sqrt(y_e^2 + delta^2)
    psi   = phi_p - arctan(y_e / delta)
    u_tar = k2 x_e + u cos(psi - phi_p)

It doubles as the terminal control law of the predictive laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .angles import wrap_angle
from .errdyn import GuidanceState, InputCmd
from .exceptions import InfeasibleStart
from .paths import PathDef, omega_of_z, path_tangent
from .paths import sample_path  # noqa: F401 -- perfbench's tracer binds it


@dataclass(frozen=True)
class SGLOSParams:
    k1: float = 0.3     # 1/s, surge shaping gain
    k2: float = 0.8     # 1/s, along-track gain on the target speed
    delta: float = 0.5  # m, lookahead distance

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k1, self.k2, self.delta))):
            raise ValueError(f"SGLOS gains must be finite, got {self!r}")
        if self.k1 <= 0.0 or self.k2 <= 0.0 or self.delta <= 0.0:
            raise ValueError(f"SGLOS gains must be positive, got {self!r}")


@dataclass(frozen=True)
class InputConstraints:
    """Box set on (u, psi, u_tar) and rate set on per-step increments."""

    eps: float = 0.01            # m/s, lower bound on u_tar (forward motion)
    u_max: float = 0.225         # m/s
    u_tar_max: float = 0.75      # m/s
    du_max: float = 0.05         # m/s per guidance step
    dpsi_max: float = math.pi / 4.0  # rad per guidance step

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eps, self.u_max, self.u_tar_max,
                                       self.du_max, self.dpsi_max))):
            raise ValueError(f"bounds must be finite, got {self!r}")
        if not (0.0 < self.eps < self.u_tar_max):
            raise ValueError(f"need 0 < eps < u_tar_max, got {self!r}")
        if self.u_max <= 0.0 or self.du_max <= 0.0 or self.dpsi_max <= 0.0:
            raise ValueError(f"bounds must be positive, got {self!r}")


def sglos(x: GuidanceState, path: PathDef, p: SGLOSParams) -> InputCmd:
    """Raw (unsaturated) SGLOS command at the given state.

    The surge entering the u_tar component is the law's own freshly
    computed surge command.
    """
    phi_p = path_tangent(path, omega_of_z(x.z))[0]
    u_cmd = p.k1 * math.sqrt(x.y_e * x.y_e + p.delta * p.delta)
    los_angle = math.atan(x.y_e / p.delta)
    psi_cmd = wrap_angle(phi_p - los_angle)
    u_tar = p.k2 * x.x_e + u_cmd * math.cos(-los_angle)
    return InputCmd(u_cmd, psi_cmd, u_tar)


def _clip(value: float, lo: float, hi: float) -> float:
    # Selection, not arithmetic: the result is bit-identical to one of the
    # three operands, which keeps the projection idempotent.
    return lo if value < lo else hi if value > hi else value


def _rate_project(u: float, psi: float, prev_u: float, prev_psi: float,
                  c: InputConstraints) -> Tuple[float, float]:
    """Project (u, psi) into the rate set around (prev_u, prev_psi).

    psi must already be wrapped.  Values inside the set pass through
    bit-exactly; clipped values are rebuilt from the same endpoint
    expressions the membership test uses, so projection and test agree
    with no tolerance.
    """
    du = u - prev_u
    if du > c.du_max:
        u = prev_u + c.du_max
    elif du < -c.du_max:
        u = prev_u - c.du_max
    dpsi = wrap_angle(psi - prev_psi)
    if dpsi > c.dpsi_max:
        psi = wrap_angle(prev_psi + c.dpsi_max)
    elif dpsi < -c.dpsi_max:
        psi = wrap_angle(prev_psi - c.dpsi_max)
    return u, psi


def clamp_flat(u: float, psi: float, u_tar: float, prev_u: float,
               prev_psi: float, c: InputConstraints
               ) -> Tuple[float, float, float]:
    """clamp_inputs on plain floats: the projected (u, psi, u_tar) of a raw
    command, given the previous command's surge and heading."""
    u, psi = _rate_project(u, wrap_angle(psi), prev_u, prev_psi, c)
    return _clip(u, 0.0, c.u_max), psi, _clip(u_tar, c.eps, c.u_tar_max)


def clamp_inputs(raw: InputCmd, prev: InputCmd, c: InputConstraints) -> InputCmd:
    """Project a raw command into the box set and the rate set from prev.

    Rate clamp first, then box clamp: prev lies in the box, so pulling a
    rate-feasible value toward the box can only shrink the increment and
    the result is jointly feasible.  Heading increments are measured on
    the wrapped difference so a +pi/-pi crossing is not treated as a full
    turn.  The projection is a bitwise fixed point: clamping an already
    clamped command returns it unchanged.
    """
    return InputCmd(*clamp_flat(raw.u, raw.psi, raw.u_tar, prev.u,
                                prev.psi, c))


def in_box(cmd: InputCmd, c: InputConstraints) -> bool:
    """Membership of the box set, exact float comparisons."""
    return (0.0 <= cmd.u <= c.u_max
            and -math.pi <= cmd.psi <= math.pi
            and c.eps <= cmd.u_tar <= c.u_tar_max)


def in_rate(cmd: InputCmd, prev: InputCmd, c: InputConstraints) -> bool:
    """Membership of the rate set: cmd is a fixed point of the projection."""
    u, psi = _rate_project(cmd.u, wrap_angle(cmd.psi), prev.u,
                           prev.psi, c)
    return u == cmd.u and psi == cmd.psi


def require_in_box(cmd: InputCmd, c: InputConstraints) -> None:
    if not in_box(cmd, c):
        raise InfeasibleStart(f"previous input {cmd!r} outside the box set")
