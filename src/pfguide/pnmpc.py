"""Linearized receding-horizon machinery and the single-QP guidance step.

The fast law linearizes the Euler prediction around the free response
(zero future input increments) so the horizon cost becomes one strictly
convex QP in the input increments:

    y_hat = y_free + G . delta_u

Two linear forced-response operators are available:

* "frozen": the block-Toeplitz matrix with blocks G_i = i * T_m * J, the
  instant-0 input Jacobian shifted down the horizon (assemble_G);
* "exact": the first-order sensitivity of the Euler recursion, with state
  and input Jacobians evaluated along the free response.

The exact operator is the default: its residual against the nonlinear
prediction is genuinely second order in the increments, which the frozen
form is not once state coupling matters.  The solvers and the sequential
outer loop in the nonlinear law both reuse this module's Jacobians.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .angles import unwrap_near, wrap_angle
from .errdyn import (GuidanceState, InputCmd, dynamics_flat, flat_inputs,
                     rollout, rollout_flat)
from .exceptions import QPFailure
from .los import InputConstraints, clamp_inputs, require_in_box
from .paths import Frame, PathDef, omega_of_z, path_frame
# Unused here since the prediction core samples through path_frame; the
# binding stays because perfbench's tracer tests expect pnmpc.sample_path.
from .paths import sample_path  # noqa: F401
from .qp import QPProblem, QPSolution, solve_qp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .nmpc import NMPCConfig

_FD_STEP = 1e-6


@dataclass(frozen=True)
class JacobianBlock:
    """Partials of (dx_e, dy_e, dz) w.r.t. (u, psi, u_tar) at one point."""

    m: np.ndarray  # (3, 3)

    def __post_init__(self):
        if self.m.shape != (3, 3) or not np.all(np.isfinite(self.m)):
            raise ValueError("Jacobian block must be a finite 3x3 matrix")
        if self.m[2, 0] != 0.0 or self.m[2, 1] != 0.0:
            raise ValueError("dz/dt depends only on u_tar; rows must carry "
                             "structural zeros")


@dataclass(frozen=True)
class PredictionMatrix:
    """Lower-block-Toeplitz forced-response matrix with blocks i*T_m*J."""

    G: np.ndarray  # (3N, 3N)
    N: int
    T_m: float
    base: JacobianBlock


@dataclass
class SolveResult:
    """Receding-horizon solve output shared by the predictive laws."""

    u_seq: Tuple[InputCmd, ...]        # N feasible commands
    x_pred: Tuple[GuidanceState, ...]  # N+1 states, first is the measurement
    J_opt: float                       # nonlinear cost of u_seq
    iterations: int
    kkt_residual: float
    solve_time: float                  # s


def _jacobians(xe: float, ye: float, z: float, u: float, psi: float,
               u_tar: float, v: float, frame: Frame, path: PathDef,
               step: float = _FD_STEP) -> Tuple[list, list]:
    """Input and state Jacobian rows (B, A) of the continuous dynamics at
    one frame.

    With kappa = dphi_dw / F (tangent-angle rate per metre) the x_e and y_e
    columns of A are (0, -u_tar kappa, 0) and (u_tar kappa, 0, 0).  The z
    column differentiates phi_p, kappa and F along omega, with
    domega/dz = -1/z^2; the curvature rate needs the path's third
    derivative.  Paths without deriv3 get the z column from central
    differences of the dynamics, second-order one-sided where the central
    stencil would leave (0, 1].
    """
    phi_p, F, dphi_dw, dx, dy, ddx, ddy = frame
    dpsi = wrap_angle(psi - phi_p)
    c = math.cos(dpsi)
    s = math.sin(dpsi)
    kw = dphi_dw / F
    B = [[c, -u * s - v * c, kw * ye - 1.0],
         [s, u * c - v * s, -kw * xe],
         [0.0, 0.0, -z * z / F]]
    if path.deriv3 is not None:
        d3x, d3y = path.deriv3(1.0 / z - 1.0)
        dF = (dx * ddx + dy * ddy) / F
        dkw = (dx * d3y - dy * d3x) / (F * F * F) - 3.0 * kw * dF / F
        dw_dz = -1.0 / (z * z)
        col_z = (dw_dz * (dphi_dw * (u * s + v * c) + u_tar * dkw * ye),
                 -dw_dz * (dphi_dw * (u * c - v * s) + u_tar * dkw * xe),
                 -2.0 * z * u_tar / F - u_tar * dF / (F * F))
    else:
        def f(zz):
            return dynamics_flat(xe, ye, zz, u, psi, u_tar, v,
                                 path_frame(path, 1.0 / zz - 1.0))

        if z + step <= 1.0 and z - step > 0.0:
            hi, lo = f(z + step), f(z - step)
            col_z = [(h - l) / (2.0 * step) for h, l in zip(hi, lo)]
        elif z + step > 1.0:
            f0, f1, f2 = f(z), f(z - step), f(z - 2.0 * step)
            col_z = [(3.0 * a - 4.0 * b + c) / (2.0 * step)
                     for a, b, c in zip(f0, f1, f2)]
        else:
            f0, f1, f2 = f(z), f(z + step), f(z + 2.0 * step)
            col_z = [(-3.0 * a + 4.0 * b - c) / (2.0 * step)
                     for a, b, c in zip(f0, f1, f2)]
    A = [[0.0, u_tar * kw, col_z[0]],
         [-u_tar * kw, 0.0, col_z[1]],
         [0.0, 0.0, col_z[2]]]
    return B, A


def jacobian_block(x0: GuidanceState, u0: InputCmd, v0: float,
                   path: PathDef) -> JacobianBlock:
    """Analytic input Jacobian of the continuous error dynamics."""
    frame = path_frame(path, omega_of_z(x0.z))
    B, _ = _jacobians(x0.x_e, x0.y_e, x0.z, u0.u, u0.psi, u0.u_tar, v0,
                      frame, path)
    return JacobianBlock(np.array(B))


def state_jacobian(x0: GuidanceState, u0: InputCmd, v0: float, path: PathDef,
                   step: float = _FD_STEP) -> np.ndarray:
    """State Jacobian of the continuous dynamics (see _jacobians)."""
    frame = path_frame(path, omega_of_z(x0.z))
    _, A = _jacobians(x0.x_e, x0.y_e, x0.z, u0.u, u0.psi, u0.u_tar, v0,
                      frame, path, step)
    return np.array(A)


def assemble_G(J: JacobianBlock, N: int, T_m: float) -> PredictionMatrix:
    """Block-Toeplitz forced-response matrix: block (i, j) = (i-j+1)*T_m*J."""
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    if T_m <= 0.0:
        raise ValueError(f"sampling time must be positive, got {T_m}")
    G = np.zeros((3 * N, 3 * N))
    for i in range(N):
        for j in range(i + 1):
            G[3 * i:3 * i + 3, 3 * j:3 * j + 3] = (i - j + 1) * T_m * J.m
    return PredictionMatrix(G, N, T_m, J)


def free_response(x_k: GuidanceState, u_prev: InputCmd, v_k: float,
                  cfg: "NMPCConfig", path: PathDef) -> List[GuidanceState]:
    """Prediction under zero future increments (u_prev held for N steps)."""
    require_in_box(u_prev, cfg.constraints)
    return rollout(x_k, [u_prev] * cfg.N, v_k, cfg.T_m, path)


def sensitivity_flat(X: Sequence[float], U: Sequence[float],
                     frames: Sequence[Frame], v: float, T_m: float,
                     path: PathDef) -> np.ndarray:
    """Exact first-order sensitivity of the Euler rollout, on plain floats.

    X stacks states 0..N, U the inputs and frames the path frame of each
    step, as rollout_flat returns them.  Maps per-step absolute input
    perturbations (stacked, 3N) to the stacked predicted-state
    perturbations (states 1..N).
    """
    N = len(frames)
    S = np.zeros((3 * N, 3 * N))
    for i in range(N):
        r = 3 * i
        B, A = _jacobians(X[r], X[r + 1], X[r + 2], U[r], U[r + 1],
                          U[r + 2], v, frames[i], path)
        if i > 0:
            Ad = np.eye(3) + T_m * np.array(A)
            S[r:r + 3, :r] = Ad @ S[r - 3:r, :r]
        S[r:r + 3, r:r + 3] = T_m * np.array(B)
    return S


def sensitivity_along(states: Sequence[GuidanceState],
                      u_seq: Sequence[InputCmd], v: float, T_m: float,
                      path: PathDef) -> np.ndarray:
    """Exact first-order sensitivity of the Euler rollout.

    Maps per-step absolute input perturbations (stacked, 3N) to the stacked
    predicted-state perturbations (states 1..N).  Jacobians are evaluated
    along the supplied trajectory.
    """
    N = len(u_seq)
    X = [c for x in states[:N] for c in (x.x_e, x.y_e, x.z)]
    frames = [path_frame(path, omega_of_z(x.z)) for x in states[:N]]
    return sensitivity_flat(X, flat_inputs(u_seq), frames, v, T_m, path)


@lru_cache(maxsize=8)
def _increment_lower(N: int) -> np.ndarray:
    """Cumulative-sum map from increments to absolute inputs (3N x 3N)."""
    return np.kron(np.tril(np.ones((N, N))), np.eye(3))


@lru_cache(maxsize=8)
def _increment_rows(N: int) -> Tuple[np.ndarray, list]:
    """Constraint rows for the increment decision vector.

    Returns (A, tags); tags name each row so per-solve bounds can be
    filled in: ("rate", j, comp) is an identity row on the increment,
    ("box", j, comp) a cumulative-sum row equal to u(j)[comp] - u_prev[comp].
    Heading has no box row (wrapped output always lies in the box) and the
    target speed has no rate row.
    """
    L = _increment_lower(N)
    rows = []
    tags = []
    for j in range(N):
        for comp in (0, 1):  # rate on u and psi
            e = np.zeros(3 * N)
            e[3 * j + comp] = 1.0
            rows.append(e)
            tags.append(("rate", j, comp))
        for comp in (0, 2):  # box on u and u_tar
            rows.append(L[3 * j + comp])
            tags.append(("box", j, comp))
    return np.vstack(rows), tags


def stack_inputs(u_seq: Sequence[InputCmd]) -> np.ndarray:
    return np.array(flat_inputs(u_seq), dtype=float)


def stack_states(states: Sequence[GuidanceState]) -> np.ndarray:
    out = np.empty(3 * len(states))
    for j, x in enumerate(states):
        out[3 * j:3 * j + 3] = (x.x_e, x.y_e, x.z)
    return out


def horizon_weights(cfg: "NMPCConfig") -> Tuple[np.ndarray, np.ndarray]:
    """State weight matrix W for stacked states 1..N and input weight vector.

    The stage-cost Q applies to predicted states 1..N-1; the terminal block
    carries lambda * P.
    """
    N = cfg.N
    W = np.zeros((3 * N, 3 * N))
    for j in range(N - 1):
        W[3 * j:3 * j + 3, 3 * j:3 * j + 3] = np.diag(cfg.Q)
    W[3 * (N - 1):, 3 * (N - 1):] = cfg.lam * cfg.terminal_weight()
    return W, np.tile(cfg.R, N)


def quadratic_in_decision(W: np.ndarray, r_vec: np.ndarray, M: np.ndarray,
                          T: np.ndarray, X0: np.ndarray,
                          Udev0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hessian and gradient of the horizon cost in a decision vector y,

    with X = X0 + M y and U - Uref = Udev0 + T y.
    """
    WM = W @ M
    RT = r_vec[:, None] * T
    H = 2.0 * (M.T @ WM + T.T @ RT)
    g = 2.0 * (WM.T @ X0 + RT.T @ Udev0)
    return 0.5 * (H + H.T), g


def reference_stack(cfg: "NMPCConfig", psi_branch: float) -> np.ndarray:
    """Stacked input reference with the heading reference moved onto the
    2*pi branch nearest psi_branch."""
    ref = np.array([cfg.u_ref.u, unwrap_near(cfg.u_ref.psi, psi_branch),
                    cfg.u_ref.u_tar])
    return np.tile(ref, cfg.N)


def snap_feasible(U: np.ndarray, u_prev: InputCmd,
                  c: InputConstraints) -> Tuple[InputCmd, ...]:
    """Chain-project a stacked input sequence into U and U_g exactly.

    The QP enforces the constraints to solver tolerance; this final pass
    replays the same projection the membership checks use so the returned
    commands satisfy them bit-exactly.
    """
    cmds = []
    prev = u_prev
    for j in range(U.shape[0] // 3):
        raw = InputCmd(float(U[3 * j]), wrap_angle(float(U[3 * j + 1])),
                       float(U[3 * j + 2]))
        prev = clamp_inputs(raw, prev, c)
        cmds.append(prev)
    return tuple(cmds)


def cost_weights(cfg: "NMPCConfig") -> tuple:
    """The horizon cost's weights as plain floats, for horizon_cost_flat:
    the Q and R diagonals, the input reference, lambda and the terminal
    weight rows."""
    return (tuple(cfg.Q.tolist()), tuple(cfg.R.tolist()),
            (cfg.u_ref.u, cfg.u_ref.psi, cfg.u_ref.u_tar), cfg.lam,
            tuple(tuple(row) for row in cfg.terminal_weight().tolist()))


def horizon_cost_flat(X: Sequence[float], U: Sequence[float],
                      weights: tuple) -> float:
    """Nonlinear horizon cost on plain floats (stacked states 0..N and
    inputs, weights from cost_weights)."""
    (q0, q1, q2), (r0, r1, r2), (ref_u, ref_psi, ref_tar), lam, P = weights
    J = 0.0
    for j in range(0, len(U), 3):
        xe, ye, z = X[j], X[j + 1], X[j + 2]
        du = U[j] - ref_u
        dpsi = wrap_angle(U[j + 1] - ref_psi)
        dtar = U[j + 2] - ref_tar
        J += (q0 * xe * xe + q1 * ye * ye + q2 * z * z
              + r0 * du * du + r1 * dpsi * dpsi + r2 * dtar * dtar)
    n = len(U)
    xe, ye, z = X[n], X[n + 1], X[n + 2]
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = P
    return J + lam * (xe * (p00 * xe + p01 * ye + p02 * z)
                      + ye * (p10 * xe + p11 * ye + p12 * z)
                      + z * (p20 * xe + p21 * ye + p22 * z))


def horizon_cost(x_k: GuidanceState, states: Sequence[GuidanceState],
                 u_seq: Sequence[InputCmd], cfg: "NMPCConfig") -> float:
    """Nonlinear horizon cost: sum of stage costs plus weighted terminal."""
    X = [x_k.x_e, x_k.y_e, x_k.z]
    X += [c for x in states[1:len(u_seq) + 1] for c in (x.x_e, x.y_e, x.z)]
    return horizon_cost_flat(X, flat_inputs(u_seq), cost_weights(cfg))


class PNMPCSolver:
    """One-QP linearized guidance step; owns constraint patterns and warm data.

    Instances are not safe for concurrent use; distinct instances are.
    """

    def __init__(self, cfg: "NMPCConfig", path: PathDef,
                 linearization: str = "exact"):
        if linearization not in ("exact", "frozen"):
            raise ValueError(f"unknown linearization {linearization!r}")
        cfg.terminal_weight()  # fail fast when unset
        self.cfg = cfg
        self.path = path
        self.linearization = linearization
        self._A_rows, self._tags = _increment_rows(cfg.N)
        self._L = _increment_lower(cfg.N)
        self._W, self._r_vec = horizon_weights(cfg)
        self._qp_warm: Optional[QPSolution] = None

    def _bounds(self, U0: np.ndarray, u_prev: InputCmd):
        c = self.cfg.constraints
        m = len(self._tags)
        lb = np.empty(m)
        ub = np.empty(m)
        for i, (kind, j, comp) in enumerate(self._tags):
            if kind == "rate":
                half = c.du_max if comp == 0 else c.dpsi_max
                lb[i], ub[i] = -half, half
            else:
                idx = 3 * j + comp
                base = u_prev.u if comp == 0 else u_prev.u_tar
                lo = 0.0 if comp == 0 else c.eps
                hi = c.u_max if comp == 0 else c.u_tar_max
                lb[i], ub[i] = lo - base, hi - base
        return lb, ub

    def solve(self, x_k: GuidanceState, v_k: float, u_prev: InputCmd,
              warm: Optional[SolveResult] = None,
              timer=time.perf_counter) -> SolveResult:
        t0 = timer()
        cfg = self.cfg
        require_in_box(u_prev, cfg.constraints)
        hold = flat_inputs([u_prev] * cfg.N)
        X, frames = rollout_flat((x_k.x_e, x_k.y_e, x_k.z), hold, v_k,
                                 cfg.T_m, self.path)
        if self.linearization == "exact":
            S = sensitivity_flat(X, hold, frames, v_k, cfg.T_m, self.path)
            G = S @ self._L
        else:
            G = assemble_G(jacobian_block(x_k, u_prev, v_k, self.path),
                           cfg.N, cfg.T_m).G
        X0 = np.array(X[3:])
        U0 = np.array(hold)
        Udev0 = U0 - reference_stack(cfg, u_prev.psi)
        H, g = quadratic_in_decision(self._W, self._r_vec, G, self._L,
                                     X0, Udev0)
        lb, ub = self._bounds(U0, u_prev)
        qsol = solve_qp(QPProblem(H, g, self._A_rows, lb, ub),
                        warm=self._qp_warm)
        if not qsol.converged:
            raise QPFailure(
                f"QP stalled with KKT residual {qsol.kkt_residual:.3e}")
        self._qp_warm = qsol
        u_seq = snap_feasible(U0 + self._L @ qsol.x, u_prev, cfg.constraints)
        x_pred = rollout(x_k, u_seq, v_k, cfg.T_m, self.path)
        J_opt = horizon_cost(x_k, x_pred, u_seq, cfg)
        return SolveResult(u_seq, tuple(x_pred), J_opt, qsol.iterations,
                           qsol.kkt_residual, timer() - t0)


def pnmpc_solve(x_k: GuidanceState, v_k: float, u_prev: InputCmd,
                cfg: "NMPCConfig", path: PathDef,
                warm: Optional[SolveResult] = None,
                linearization: str = "exact") -> SolveResult:
    """One-shot convenience wrapper around PNMPCSolver."""
    return PNMPCSolver(cfg, path, linearization).solve(x_k, v_k, u_prev, warm)
