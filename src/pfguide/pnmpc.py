"""Linearized receding-horizon machinery and the fast guidance step.

Both predictive laws step on the same QP (linearized_qp): the Euler
prediction is linearized around an input sequence U, X(U + delta) ~
X(U) + S . delta, and the horizon cost becomes one strictly convex QP in
the per-step input perturbation delta, started from delta = 0.  The
nonlinear law iterates it with damping and a line search; the fast law
(PNMPCSolver) is the first full step of that SQP from the held previous
input, a real-time iteration.  It has two sources of S:

* "exact": the first-order sensitivity of the Euler recursion, with state
  and input Jacobians evaluated along the held-input prediction;
* "frozen": the paper's block-Toeplitz G (block (i, j) = (i-j+1) T_m J, J
  the instant-0 input Jacobian) mapped from input increments onto
  perturbations, which telescopes to S = T_m J on and below the diagonal.

The exact operator is the default: its residual against the nonlinear
prediction is genuinely second order in the perturbation, which the
frozen form is not once state coupling matters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .angles import unwrap_near, wrap_angle
from .errdyn import GuidanceState, InputCmd, flat_inputs, rollout_flat
from .exceptions import QPFailure
from .los import InputConstraints, clamp_inputs, require_in_box
from .paths import Frame, PathDef, omega_of_z, path_frame
# Unused here since the prediction core samples through path_frame; the
# binding stays because perfbench's tracer tests expect pnmpc.sample_path.
from .paths import sample_path  # noqa: F401
from .qp import QPProblem, QPSolution, solve_qp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .nmpc import NMPCConfig

_ZZ_STEP = 1e-5  # relative z step of the curvature's z-z difference
_EYE3 = np.eye(3)


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


@dataclass
class SolveResult:
    """Receding-horizon solve output shared by the predictive laws."""

    u_seq: Tuple[InputCmd, ...]        # N feasible commands
    x_pred: Tuple[GuidanceState, ...]  # N+1 states, first is the measurement
    J_opt: float                       # nonlinear cost of u_seq
    iterations: int
    kkt_residual: float
    solve_time: float                  # s


def _frame_rates(frame: Frame, path: PathDef, z: float) -> Tuple[float, float]:
    """dF/domega and dkappa/domega at a frame taken at omega = 1/z - 1;
    the curvature rate needs the path's third derivative."""
    _, F, dphi_dw, dx, dy, ddx, ddy = frame
    d3x, d3y = path.deriv3(1.0 / z - 1.0)
    dF = (dx * ddx + dy * ddy) / F
    dkw = (dx * d3y - dy * d3x) / (F * F * F) - 3.0 * (dphi_dw / F) * dF / F
    return dF, dkw


def _z_derivative(fn, z: float, step: float) -> list:
    """Derivative in z of the vector function fn: central differences,
    second-order one-sided where the central stencil would leave (0, 1]."""
    if z + step <= 1.0 and z - step > 0.0:
        hi, lo = fn(z + step), fn(z - step)
        return [(h - l) / (2.0 * step) for h, l in zip(hi, lo)]
    if z + step > 1.0:
        f0, f1, f2 = fn(z), fn(z - step), fn(z - 2.0 * step)
        return [(3.0 * a - 4.0 * b + c) / (2.0 * step)
                for a, b, c in zip(f0, f1, f2)]
    f0, f1, f2 = fn(z), fn(z + step), fn(z + 2.0 * step)
    return [(-3.0 * a + 4.0 * b - c) / (2.0 * step)
            for a, b, c in zip(f0, f1, f2)]


def _jacobians(xe: float, ye: float, z: float, u: float, psi: float,
               u_tar: float, v: float, frame: Frame,
               path: PathDef) -> Tuple[list, list]:
    """Input and state Jacobian rows (B, A) of the continuous dynamics at
    one frame.

    With kappa = dphi_dw / F (tangent-angle rate per metre) the x_e and y_e
    columns of A are (0, -u_tar kappa, 0) and (u_tar kappa, 0, 0).  The z
    column differentiates phi_p, kappa and F along omega, with
    domega/dz = -1/z^2; the curvature rate needs the path's third
    derivative.
    """
    phi_p, F, dphi_dw, dx, dy, ddx, ddy = frame
    dpsi = wrap_angle(psi - phi_p)
    c = math.cos(dpsi)
    s = math.sin(dpsi)
    kw = dphi_dw / F
    B = [[c, -u * s - v * c, kw * ye - 1.0],
         [s, u * c - v * s, -kw * xe],
         [0.0, 0.0, -z * z / F]]
    dF, dkw = _frame_rates(frame, path, z)
    dw_dz = -1.0 / (z * z)
    col_z = (dw_dz * (dphi_dw * (u * s + v * c) + u_tar * dkw * ye),
             -dw_dz * (dphi_dw * (u * c - v * s) + u_tar * dkw * xe),
             -2.0 * z * u_tar / F - u_tar * dF / (F * F))
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


def state_jacobian(x0: GuidanceState, u0: InputCmd, v0: float,
                   path: PathDef) -> np.ndarray:
    """State Jacobian of the continuous dynamics (see _jacobians)."""
    frame = path_frame(path, omega_of_z(x0.z))
    _, A = _jacobians(x0.x_e, x0.y_e, x0.z, u0.u, u0.psi, u0.u_tar, v0,
                      frame, path)
    return np.array(A)


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
            Ad = _EYE3 + T_m * np.array(A)
            S[r:r + 3, :r] = Ad @ S[r - 3:r, :r]
        S[r:r + 3, r:r + 3] = T_m * np.array(B)
    return S


def _weighted_hessian(xe: float, ye: float, z: float, u: float, psi: float,
                      u_tar: float, v: float, frame: Frame, path: PathDef,
                      p: Sequence[float]) -> list:
    """sum_i p_i * (Hessian of the i-th continuous dynamics component) in
    (x_e, y_e, z, u, psi, u_tar) at one frame, as 6 rows.

    f is linear in x_e, y_e, u and u_tar, so the entries are trig terms and
    the path rates of _jacobians.  The z-z entry needs a fourth path
    derivative: it is a central difference of the z column of _jacobians
    in z.
    """
    phi_p, F, dphi_dw = frame[:3]
    dpsi = wrap_angle(psi - phi_p)
    c = math.cos(dpsi)
    s = math.sin(dpsi)
    kw = dphi_dw / F
    dw_dz = -1.0 / (z * z)
    step = _ZZ_STEP * z
    dF, dkw = _frame_rates(frame, path, z)
    kw_z = dkw * dw_dz
    col_zz = _z_derivative(
        lambda zz: [row[2] for row in _jacobians(
            xe, ye, zz, u, psi, u_tar, v, path_frame(path, 1.0 / zz - 1.0),
            path)[1]],
        z, step)
    p1, p2, p3 = p
    phi_z = dphi_dw * dw_dz
    a = u * c - v * s  # df2/dpsi
    b = u * s + v * c  # -df1/dpsi
    xz = -p2 * u_tar * kw_z
    xt = -p2 * kw
    yz = p1 * u_tar * kw_z
    yt = p1 * kw
    zz = p1 * col_zz[0] + p2 * col_zz[1] + p3 * col_zz[2]
    zu = phi_z * (p1 * s - p2 * c)
    zp = phi_z * (p1 * a + p2 * b)
    zt = kw_z * (p1 * ye - p2 * xe) - p3 * (2.0 * z / F + dF / (F * F))
    up = p2 * c - p1 * s
    pp = -(p1 * a + p2 * b)
    return [[0.0, 0.0, xz, 0.0, 0.0, xt],
            [0.0, 0.0, yz, 0.0, 0.0, yt],
            [xz, yz, zz, zu, zp, zt],
            [0.0, 0.0, zu, 0.0, up, 0.0],
            [0.0, 0.0, zp, up, pp, 0.0],
            [xt, yt, zt, 0.0, 0.0, 0.0]]


def curvature_flat(S: np.ndarray, X: Sequence[float], U: Sequence[float],
                   frames: Sequence[Frame], v: float, T_m: float,
                   path: PathDef, W: np.ndarray) -> np.ndarray:
    """Second-order term of the exact Hessian of the horizon cost in U.

    With S, X, U and frames as for sensitivity_flat and W the state weight
    of horizon_weights, returns the 3N x 3N matrix

        M = sum_j G_j' (sum_i p_{j+1,i} T_m Hess f_i(x_j, u_j)) G_j,

    G_j = [Z_j; E_j], where Z_j are the state-sensitivity rows of S
    (Z_0 = 0), E_j picks out u_j and p is the costate of one backward pass: p_N = 2 W_N x_N and
    p_j = 2 W_j x_j + (I + T_m A_j)' p_{j+1}.  The Gauss-Newton Hessian
    2(S'WS + diag r) plus M is the exact Hessian of the cost.
    """
    N = len(frames)
    n = 3 * N
    Wl = W.tolist()

    def weighted_state(r):  # 2 W x for the state at X[r:r+3], r >= 3
        w = Wl[r - 3:r]
        return [2.0 * (w[i][r - 3] * X[r] + w[i][r - 2] * X[r + 1]
                       + w[i][r - 1] * X[r + 2]) for i in range(3)]

    K = []
    p = weighted_state(n)
    for j in range(N - 1, -1, -1):
        r = 3 * j
        args = (X[r], X[r + 1], X[r + 2], U[r], U[r + 1], U[r + 2], v,
                frames[j], path)
        K.append(_weighted_hessian(*args, [T_m * q for q in p]))
        if j:
            A = _jacobians(*args)[1]
            p = [wx + q + T_m * (A[0][i] * p[0] + A[1][i] * p[1]
                                 + A[2][i] * p[2])
                 for i, (wx, q) in enumerate(zip(weighted_state(r), p))]
    G = _stage_selector(N).copy()
    G[1:, :3] = S[:-3].reshape(N - 1, 3, n)
    M = (G.transpose(0, 2, 1) @ (np.array(K[::-1]) @ G)).sum(axis=0)
    return 0.5 * (M + M.T)


@lru_cache(maxsize=8)
def _stage_selector(N: int) -> np.ndarray:
    """[Z_j; E_j] per step j with the sensitivity rows Z_j left zero."""
    G = np.zeros((N, 6, 3 * N))
    for j in range(N):
        G[j, 3:, 3 * j:3 * j + 3] = _EYE3
    return G


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
def _sqp_rows(N: int, c: InputConstraints
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constraint rows for the per-step perturbation vector, with bounds.

    Returns (A, lo, hi) such that lo <= A (U + delta) - s <= hi keeps
    U + delta in the box and rate sets, s being zero except on the first
    two rows, where it is the previous input's surge and heading.  Per
    step j the rows are the rates of u and psi (steps j and j-1
    differenced, step 0 against the previous input), then the boxes of u
    and u_tar (identity rows).  Heading has no box row (wrapped output
    always lies in the box) and the target speed has no rate row.
    """
    rows = []
    lo = []
    hi = []
    for j in range(N):
        for comp, half in ((0, c.du_max), (1, c.dpsi_max)):
            e = np.zeros(3 * N)
            e[3 * j + comp] = 1.0
            if j > 0:
                e[3 * (j - 1) + comp] = -1.0
            rows.append(e)
            lo.append(-half)
            hi.append(half)
        for comp, lower, upper in ((0, 0.0, c.u_max),
                                   (2, c.eps, c.u_tar_max)):
            e = np.zeros(3 * N)
            e[3 * j + comp] = 1.0
            rows.append(e)
            lo.append(lower)
            hi.append(upper)
    return np.vstack(rows), np.array(lo), np.array(hi)


def linearized_qp(S: np.ndarray, X: Sequence[float], U: np.ndarray,
                  u_prev: InputCmd, Uref: np.ndarray,
                  weights: Tuple[np.ndarray, np.ndarray],
                  c: InputConstraints) -> QPProblem:
    """The Gauss-Newton QP in the perturbation delta of the inputs U.

    X stacks the states 0..N predicted under U, S is their sensitivity to
    U, weights is (W, r) from horizon_weights and Uref the input reference:
    H = 2(S'WS + diag r), and the _sqp_rows rows keep U + delta in the box
    and rate sets.
    """
    W, r_vec = weights
    X0 = np.array(X[3:])
    WS = W @ S
    # M + M' + diag(2r) with M = S'WS is exactly symmetric, and equal bit
    # for bit to 0.5(H0 + H0') with H0 = 2(M + diag r): scaling by 2 is exact.
    H = S.T @ WS
    H += H.T
    H.flat[::H.shape[0] + 1] += 2.0 * r_vec
    g = 2.0 * (WS.T @ X0 + r_vec * (U - Uref))
    A, lo, hi = _sqp_rows(U.shape[0] // 3, c)
    cur = A @ U
    cur[0] -= u_prev.u
    cur[1] -= u_prev.psi
    return QPProblem(H, g, A, lo - cur, hi - cur)


def zero_start(N: int) -> QPSolution:
    """QP warm start at delta = 0, feasible whenever U is."""
    return QPSolution(np.zeros(3 * N), (), math.inf, 0)


def stack_inputs(u_seq: Sequence[InputCmd]) -> np.ndarray:
    return np.array(flat_inputs(u_seq), dtype=float)


def predicted_states(x_k: GuidanceState, X: Sequence[float]
                     ) -> Tuple[GuidanceState, ...]:
    """The states 0..N stacked in X (X[:3] being x_k) as GuidanceStates."""
    return (x_k,) + tuple(GuidanceState(X[i], X[i + 1], X[i + 2])
                          for i in range(3, len(X), 3))


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


def reference_stack(cfg: "NMPCConfig", psi_branch: float) -> np.ndarray:
    """Stacked input reference with the heading reference moved onto the
    2*pi branch nearest psi_branch."""
    return np.array([cfg.u_ref.u, unwrap_near(cfg.u_ref.psi, psi_branch),
                     cfg.u_ref.u_tar] * cfg.N)


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


def stage_cost_flat(xe: float, ye: float, z: float, u: float, psi: float,
                    u_tar: float, q: Sequence[float], r: Sequence[float],
                    ref: Sequence[float]) -> float:
    """x'Qx + (u - u_ref)'R(u - u_ref) on plain floats, heading deviation
    wrapped (q, r the diagonals, ref the input reference)."""
    q0, q1, q2 = q
    r0, r1, r2 = r
    du = u - ref[0]
    dpsi = wrap_angle(psi - ref[1])
    dtar = u_tar - ref[2]
    return (q0 * xe * xe + q1 * ye * ye + q2 * z * z
            + r0 * du * du + r1 * dpsi * dpsi + r2 * dtar * dtar)


def quadratic_form(xe: float, ye: float, z: float, P: Sequence) -> float:
    """x'Px on plain floats, P given by its rows."""
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = P
    return (xe * (p00 * xe + p01 * ye + p02 * z)
            + ye * (p10 * xe + p11 * ye + p12 * z)
            + z * (p20 * xe + p21 * ye + p22 * z))


def horizon_cost_flat(X: Sequence[float], U: Sequence[float],
                      weights: tuple) -> float:
    """Nonlinear horizon cost on plain floats (stacked states 0..N and
    inputs, weights from cost_weights)."""
    q, r, ref, lam, P = weights
    J = 0.0
    for j in range(0, len(U), 3):
        J += stage_cost_flat(X[j], X[j + 1], X[j + 2],
                             U[j], U[j + 1], U[j + 2], q, r, ref)
    n = len(U)
    return J + lam * quadratic_form(X[n], X[n + 1], X[n + 2], P)


def horizon_cost(x_k: GuidanceState, states: Sequence[GuidanceState],
                 u_seq: Sequence[InputCmd], cfg: "NMPCConfig") -> float:
    """Nonlinear horizon cost: sum of stage costs plus weighted terminal."""
    X = [x_k.x_e, x_k.y_e, x_k.z]
    X += [c for x in states[1:len(u_seq) + 1] for c in (x.x_e, x.y_e, x.z)]
    return horizon_cost_flat(X, flat_inputs(u_seq), cost_weights(cfg))


class PNMPCSolver:
    """Fast guidance step: one full SQP step from the held previous input.

    Holds only per-configuration constants, so a step depends on its
    arguments alone.
    """

    def __init__(self, cfg: "NMPCConfig", path: PathDef,
                 linearization: str = "exact"):
        if linearization not in ("exact", "frozen"):
            raise ValueError(f"unknown linearization {linearization!r}")
        cfg.terminal_weight()  # fail fast when unset
        self.cfg = cfg
        self.path = path
        self.linearization = linearization
        self._qp_weights = horizon_weights(cfg)
        self._weights = cost_weights(cfg)
        self._zero = zero_start(cfg.N)

    def solve(self, x_k: GuidanceState, v_k: float, u_prev: InputCmd,
              warm: Optional[SolveResult] = None,
              timer=time.perf_counter) -> SolveResult:
        """Linearize at the hold, solve the QP from delta = 0 and return
        the hold plus the full step.  warm is unused; it keeps the call
        signature of NMPCSolver.solve."""
        t0 = timer()
        cfg = self.cfg
        require_in_box(u_prev, cfg.constraints)
        hold = flat_inputs([u_prev] * cfg.N)
        x0 = (x_k.x_e, x_k.y_e, x_k.z)
        X, frames = rollout_flat(x0, hold, v_k, cfg.T_m, self.path)
        if self.linearization == "exact":
            S = sensitivity_flat(X, hold, frames, v_k, cfg.T_m, self.path)
        else:
            J = jacobian_block(x_k, u_prev, v_k, self.path).m
            S = np.kron(np.tril(np.ones((cfg.N, cfg.N))), cfg.T_m * J)
        U = np.array(hold)
        qsol = solve_qp(linearized_qp(S, X, U, u_prev,
                                      reference_stack(cfg, u_prev.psi),
                                      self._qp_weights, cfg.constraints),
                        warm=self._zero)
        if not qsol.converged:
            raise QPFailure(
                f"QP stalled with KKT residual {qsol.kkt_residual:.3e}")
        u_seq = snap_feasible(U + qsol.x, u_prev, cfg.constraints)
        u_flat = flat_inputs(u_seq)
        X, _ = rollout_flat(x0, u_flat, v_k, cfg.T_m, self.path)
        return SolveResult(u_seq, predicted_states(x_k, X),
                           horizon_cost_flat(X, u_flat, self._weights),
                           qsol.iterations, qsol.kkt_residual, timer() - t0)
