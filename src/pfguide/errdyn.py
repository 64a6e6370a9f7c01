"""Path-following error state, its continuous dynamics, and the Euler step.

State x = (x_e, y_e, z): along-track error [m], cross-track error [m] and
the bounded path variable z = 1/(omega+1).  Input u = (u, psi, u_tar):
surge reference [m/s], heading reference [rad], virtual-target velocity
[m/s].  The sway velocity v is the only disturbance.  rollout_flat
predicts on plain floats, one path_frame and one dynamics_flat per step.
It is the reference form of the Euler step: the solvers predict with the
two passes of pnmpc, which write the same step out, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from typing import List, Sequence, Tuple

from .angles import wrap_angle
from .exceptions import StateEscape
from .paths import Frame, PathDef, omega_of_z, path_frame
from .paths import sample_path  # noqa: F401 -- perfbench's tracer binds it

# z is kept strictly positive so omega = 1/z - 1 stays defined; omega -> inf
# only asymptotically.
Z_MIN = 1e-6


@dataclass(frozen=True)
class GuidanceState:
    """Controlled state: PF errors plus the bounded path variable."""

    x_e: float  # m
    y_e: float  # m
    z: float    # dimensionless, in (0, 1]

    def __post_init__(self):
        if not (math.isfinite(self.x_e) and math.isfinite(self.y_e)):
            raise ValueError(f"non-finite PF errors ({self.x_e!r}, {self.y_e!r})")
        if not (0.0 < self.z <= 1.0):
            raise ValueError(f"z must lie in (0, 1], got {self.z!r}")


@dataclass(frozen=True)
class InputCmd:
    """Guidance command: surge and heading references plus target speed."""

    u: float      # m/s
    psi: float    # rad, wrapped to (-pi, pi] at module boundaries
    u_tar: float  # m/s

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.psi)
                and math.isfinite(self.u_tar)):
            raise ValueError(f"non-finite input command {self!r}")


def dynamics_flat(xe: float, ye: float, z: float, u: float, psi: float,
                  u_tar: float, v: float,
                  frame: Frame) -> Tuple[float, float, float]:
    """Error dynamics on plain floats, given the path frame at omega(z).

    The heading is consumed only through the wrapped difference psi - phi_p.
    """
    phi_p, F, dphi_dw = frame[:3]
    dpsi = wrap_angle(psi - phi_p)
    c = math.cos(dpsi)
    s = math.sin(dpsi)
    kw = dphi_dw / F  # tangent-angle rate per meter of target travel
    return (u * c - v * s + u_tar * (kw * ye - 1.0),
            u * s + v * c - u_tar * kw * xe,
            -z * z * u_tar / F)


def dynamics(x: GuidanceState, u: InputCmd, v: float,
             path: PathDef) -> Tuple[float, float, float]:
    """Continuous-time error dynamics (dx_e/dt, dy_e/dt, dz/dt)."""
    return dynamics_flat(x.x_e, x.y_e, x.z, u.u, u.psi, u.u_tar, v,
                         path_frame(path, omega_of_z(x.z)))


def rollout_flat(x0: Sequence[float], U: Sequence[float], v: float, dt: float,
                 path: PathDef) -> Tuple[List[float], List[Frame]]:
    """Forward-Euler rollout on plain floats, one path frame per step.

    x0 is (x_e, y_e, z) with z in (0, 1]; U stacks (u, psi, u_tar) per
    step.  Returns the stacked states 0..N as one flat list and the frame
    each step was taken from.  Each step is path_frame at the state's
    omega and dynamics_flat, and every z is clamped into (Z_MIN, 1].
    Raises ValueError on a dt that is not finite and positive, a
    non-finite input or a length of U that is not a multiple of 3, and
    StateEscape if a step produces a non-finite state.  This is the
    reference form of the step that pnmpc's two passes write out.
    """
    if not (isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if len(U) % 3:
        raise ValueError(f"inputs must stack (u, psi, u_tar) per step, got "
                         f"{len(U)} values")
    xe, ye, z = x0
    X = [xe, ye, z]
    frames = []
    for j in range(0, len(U), 3):
        u, psi, u_tar = U[j], U[j + 1], U[j + 2]
        if not (isfinite(u) and isfinite(psi) and isfinite(u_tar)):
            raise ValueError(f"non-finite input command {(u, psi, u_tar)!r}")
        frame = path_frame(path, 1.0 / z - 1.0)
        dxe, dye, dz = dynamics_flat(xe, ye, z, u, psi, u_tar, v, frame)
        nxe, nye, nz = xe + dt * dxe, ye + dt * dye, z + dt * dz
        if not (isfinite(nxe) and isfinite(nye) and isfinite(nz)):
            raise StateEscape(f"non-finite state after Euler step from "
                              f"{(xe, ye, z)!r}")
        xe, ye, z = nxe, nye, min(max(nz, Z_MIN), 1.0)
        X += (xe, ye, z)
        frames.append(frame)
    return X, frames


def flat_inputs(u_seq: Sequence[InputCmd]) -> List[float]:
    """Stack an input sequence as (u, psi, u_tar) per step."""
    return [c for u in u_seq for c in (u.u, u.psi, u.u_tar)]


def euler_step(x: GuidanceState, u: InputCmd, v: float, dt: float,
               path: PathDef) -> GuidanceState:
    """One forward-Euler step of the error dynamics.

    The resulting z is clamped into (Z_MIN, 1].  Raises StateEscape if the
    step produces a non-finite state.
    """
    X = rollout_flat((x.x_e, x.y_e, x.z), (u.u, u.psi, u.u_tar), v, dt,
                     path)[0]
    return GuidanceState(X[3], X[4], X[5])


def rollout(x0: GuidanceState, u_seq, v: float, dt: float, path: PathDef):
    """Chain euler_step over an input sequence; returns len(u_seq)+1 states."""
    X = rollout_flat((x0.x_e, x0.y_e, x0.z), flat_inputs(u_seq), v, dt,
                     path)[0]
    return [x0] + [GuidanceState(X[i], X[i + 1], X[i + 2])
                   for i in range(3, len(X), 3)]

