"""Linearized receding-horizon machinery and the fast guidance step.

Both predictive laws step on the same QP (HorizonSolver.linearized_qp):
the Euler prediction is linearized around an input sequence U, X(U +
delta) ~ X(U) + S . delta, and the horizon cost becomes one strictly
convex QP in the per-step input perturbation delta, started from delta =
0.  HorizonSolver also holds both laws' constants, with the terminal
weight P derived when the config sets none (synthesize_terminal_weight),
and pass 2, which projects, rolls out and costs the commands a law
applies and returns the states and frames it rolled out, for the
nonlinear law's next pass 1 to reuse; each law runs its own loop over
these steps.  The nonlinear law iterates them with a line search; the
fast law (PNMPCSolver) is the first full step of that SQP from the held
previous input, a real-time iteration.  The fast law has two sources of
S (LINEARIZATIONS):

* "exact": the first-order sensitivity of the Euler recursion, with state
  and input Jacobians evaluated along the held-input prediction;
* "frozen": the paper's block-Toeplitz G (block (i, j) = (i-j+1) T_m J, J
  the instant-0 input Jacobian) mapped from input increments onto
  perturbations, which telescopes to S = T_m J on and below the diagonal.

The exact operator is the default: its residual against the nonlinear
prediction is genuinely second order in the perturbation, which the
frozen form is not once state coupling matters.  The kernels do their
scalar work on plain floats, each step the IEEE operation of the array
form; products, factorizations and solves stay in numpy, in the operand
layouts that fix their bits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from math import atan2, cos, hypot, isfinite, pi, sin
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .angles import unwrap_near, wrap_angle
from .errdyn import Z_MIN, GuidanceState, InputCmd, flat_inputs, rollout_flat
from .exceptions import QPFailure, StateEscape, UnstableTerminalLoop
from .los import InputConstraints, clamp_flat, require_in_box
from .paths import (F_MIN, Frame, PathDef, omega_of_z, path_frame,
                    path_tangent)
# Unused here since the prediction core samples through path_frame; the
# binding stays because perfbench's tracer tests expect pnmpc.sample_path.
from .paths import sample_path  # noqa: F401
from .qp import QPProblem, QPRows, QPSolution, solve_qp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .nmpc import NMPCConfig

LINEARIZATIONS = ("exact", "frozen")
_ZZ_STEP = 1e-5  # relative z step of the curvature's z-z difference
_EYE3 = np.eye(3)
_SYN_Z = 1e-2  # linearization point z for the terminal synthesis


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

    u_seq: Tuple[InputCmd, ...]  # N feasible commands
    x_flat: Sequence[float]      # states 0..N as (x_e, y_e, z), 0 measured
    J_opt: float                 # nonlinear cost of u_seq
    iterations: int
    kkt_residual: float
    solve_time: float            # s


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
    second-order backward where the central stencil would pass z = 1.
    The step stays below z (_ZZ_STEP z), so z - step never leaves (0, 1]."""
    if z + step <= 1.0:
        hi, lo = fn(z + step), fn(z - step)
        return [(h - l) / (2.0 * step) for h, l in zip(hi, lo)]
    f0, f1, f2 = fn(z), fn(z - step), fn(z - 2.0 * step)
    return [(3.0 * a - 4.0 * b + c) / (2.0 * step)
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
    derivative (_frame_rates); wrap_angle is called only outside
    (-pi, pi].
    """
    phi_p, F, dphi_dw = frame[:3]
    dpsi = psi - phi_p
    if not -pi < dpsi <= pi:
        dpsi = wrap_angle(dpsi)
    c = cos(dpsi)
    s = sin(dpsi)
    kw = dphi_dw / F
    dF, dkw = _frame_rates(frame, path, z)
    dw_dz = -1.0 / (z * z)
    return ([[c, -u * s - v * c, kw * ye - 1.0],
             [s, u * c - v * s, -kw * xe],
             [0.0, 0.0, -z * z / F]],
            [[0.0, u_tar * kw,
              dw_dz * (dphi_dw * (u * s + v * c) + u_tar * dkw * ye)],
             [-u_tar * kw, 0.0,
              -dw_dz * (dphi_dw * (u * c - v * s) + u_tar * dkw * xe)],
             [0.0, 0.0, -2.0 * z * u_tar / F - u_tar * dF / (F * F)]])


def discrete_lyapunov(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve A' P A - P = -S for P via the Kronecker linear system."""
    A = np.asarray(A, dtype=float)
    S = np.asarray(S, dtype=float)
    n = A.shape[0]
    M = np.kron(A.T, A.T) - np.eye(n * n)
    P = np.linalg.solve(M, -S.reshape(n * n)).reshape(n, n)
    return 0.5 * (P + P.T)


def synthesize_terminal_weight(path: PathDef, cfg: "NMPCConfig") -> np.ndarray:
    """Terminal weight from the discrete Lyapunov equation.

    Linearizes the discrete model at the far-along equilibrium x = (0, 0,
    1e-2) with input (0.1 u_r, phi_p, 0.1 u_r) through the analytic
    Jacobians of _jacobians at one path frame, A = I + T_m A_c and B =
    T_m B_c, takes the gain K of the terminal controller cfg.terminal_law
    in closed form and solves

        (A + B K)' P (A + B K) - P = -(Q + K' R K).

    At y_e = 0 the SGLOS surge k1 sqrt(y_e^2 + delta^2) is flat, the
    heading phi_p - atan(y_e / delta) moves by -1/delta in y_e and by
    -(dphi_p/domega) / z^2 in z, and the target speed is k2 x_e + k1 delta.

    Raises UnstableTerminalLoop when the closed loop is not a contraction.
    The returned P is symmetric with eigenvalues floored at 1e-12 so the
    terminal cost stays positive definite even when the z mode decouples.
    """
    p = cfg.terminal_law
    z_bar = _SYN_Z
    frame = path_frame(path, omega_of_z(z_bar))
    phi_bar, _, dphi_dw = frame[:3]
    u_bar = 0.1 * cfg.u_r
    B_c, A_c = _jacobians(0.0, 0.0, z_bar, u_bar, phi_bar, u_bar, 0.0, frame,
                          path)
    A = np.eye(3) + cfg.T_m * np.array(A_c)
    B = cfg.T_m * np.array(B_c)
    K = np.array([[0.0, 0.0, 0.0],
                  [0.0, -1.0 / p.delta, -dphi_dw / (z_bar * z_bar)],
                  [p.k2, 0.0, 0.0]])
    A_K = A + B @ K
    rho = float(np.max(np.abs(np.linalg.eigvals(A_K))))
    if rho >= 1.0:
        raise UnstableTerminalLoop(
            f"terminal loop spectral radius {rho:.6f} >= 1")
    S = np.diag(cfg.Q) + K.T @ np.diag(cfg.R) @ K
    P = discrete_lyapunov(A_K, S)
    evmin = float(np.min(np.linalg.eigvalsh(P)))
    if evmin < 1e-12:
        P = P + (1e-12 - min(evmin, 0.0)) * np.eye(3)
    return P


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

    With X, frames and S from linearize_flat along the stacked inputs U
    and W the state weight of horizon_weights, returns the 3N x 3N matrix

        M = sum_j G_j' (sum_i p_{j+1,i} T_m Hess f_i(x_j, u_j)) G_j,

    G_j = [Z_j; E_j], where Z_j are the state-sensitivity rows of S
    (Z_0 = 0), E_j picks out u_j and p is the costate of one backward
    pass: p_N = 2 W_N x_N and p_j = 2 W_j x_j + (I + T_m A_j)' p_{j+1}.
    The Gauss-Newton Hessian 2(S'WS + diag r) plus M is the exact Hessian
    of the cost.
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
    return _read_only(G)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: an lru-cached array is shared by every caller
    with the same key, so an in-place write to it must raise."""
    a.flags.writeable = False
    return a


def sensitivity_along(states: Sequence[GuidanceState],
                      u_seq: Sequence[InputCmd], v: float, T_m: float,
                      path: PathDef) -> np.ndarray:
    """Exact first-order sensitivity of the Euler rollout.

    Maps per-step absolute input perturbations (stacked, 3N) to the stacked
    predicted-state perturbations (states 1..N).  Jacobians are evaluated
    along the supplied trajectory, which must be the rollout of u_seq from
    states[0]: its states 0..N, or 0..N-1.  Raises ValueError otherwise.
    """
    x0 = states[0]
    X, _, S = linearize_flat((x0.x_e, x0.y_e, x0.z), flat_inputs(u_seq), v,
                             T_m, path)
    if [c for x in states for c in (x.x_e, x.y_e, x.z)] not in (X, X[:-3]):
        raise ValueError("states must be the rollout of u_seq from states[0]")
    return S


def _increment_lower(N: int) -> np.ndarray:
    """Cumulative-sum map from increments to absolute inputs (3N x 3N)."""
    return np.kron(np.tril(np.ones((N, N))), np.eye(3))


def _sqp_rows(N: int, c: InputConstraints) -> QPRows:
    """Constraint rows for the per-step perturbation vector, with bounds.

    Returns the QPRows (A, lo, hi) such that lo <= A (U + delta) - s <= hi
    keeps U + delta in the box and rate sets, s being zero except on the
    first two rows, where it is the previous input's surge and heading.
    Per step j the rows are the rates of u and psi (steps j and j-1
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
    return QPRows(np.vstack(rows), lo, hi)


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
    W[3 * (N - 1):, 3 * (N - 1):] = cfg.lam * cfg.P
    return W, np.tile(cfg.R, N)


def reference_stack(cfg: "NMPCConfig", psi_branch: float) -> np.ndarray:
    """Stacked input reference with the heading reference moved onto the
    2*pi branch nearest psi_branch."""
    return np.array([cfg.u_r, unwrap_near(0.0, psi_branch), cfg.u_r] * cfg.N)


def cost_weights(cfg: "NMPCConfig") -> tuple:
    """The horizon cost's weights as plain floats, for horizon_cost_flat:
    the Q and R diagonals, the input reference, lambda and the terminal
    weight rows."""
    return (tuple(cfg.Q.tolist()), tuple(cfg.R.tolist()),
            (cfg.u_r, 0.0, cfg.u_r), cfg.lam,
            tuple(tuple(row) for row in cfg.P.tolist()))


def stage_cost_flat(xe: float, ye: float, z: float, u: float, psi: float,
                    u_tar: float, q: Sequence[float], r: Sequence[float],
                    ref: Sequence[float]) -> float:
    """x'Qx + (u - ref)'R(u - ref) on plain floats, heading deviation
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
    """Nonlinear horizon cost: stage costs plus lambda x'Px; needs cfg.P."""
    if cfg.P is None:
        raise ValueError("horizon_cost needs a config with a terminal "
                         "weight P")
    X = [x_k.x_e, x_k.y_e, x_k.z]
    X += [c for x in states[1:len(u_seq) + 1] for c in (x.x_e, x.y_e, x.z)]
    return horizon_cost_flat(X, flat_inputs(u_seq), cost_weights(cfg))


@lru_cache(maxsize=8)
def _block_index(n: int) -> np.ndarray:
    """Where linearize_flat's T_m B_i go in S.ravel(), zeros skipped."""
    k = np.arange(0, n * n, 3 * n + 3)[:, None]  # entry (0, 0) of each block
    return _read_only((k + (0, 1, 2, n, n + 1, n + 2, 2 * n + 2)).ravel())


def linearize_flat(x0: Sequence[float], U: Sequence[float], v: float,
                   T_m: float, path: PathDef,
                   along: Optional[Tuple[List[float], List[Frame]]] = None
                   ) -> Tuple[List[float], List[Frame], np.ndarray]:
    """Pass 1: rollout_flat of the stacked inputs U from x0 (states and
    frames) and the exact first-order sensitivity S along it, in one loop.

    S maps per-step input perturbations (stacked, 3N) to those of states
    1..N: block (i, i) is T_m B_i and block row i below the diagonal is
    (I + T_m A_i) times block row i-1, B_i and A_i as in _jacobians.  Each
    step is rollout_flat's, with its checks, errors and z clamp.  The
    block products follow the rollout, in the operand layouts of a
    per-block build, so a state that escapes raises StateEscape before
    numpy sees a non-finite A.

    along, when given, is pass 2's (states, frames) of inputs equal to U
    bit for bit: that pass has rolled U out from x0 already, step for
    step as this loop would.  The loop then rolls nothing out; it builds
    S on those states and frames, still reading deriv3 per step, and
    returns them as they are.
    """
    if not (isfinite(T_m) and T_m > 0.0):
        raise ValueError(f"dt must be finite and positive, got {T_m!r}")
    n = len(U)
    if n % 3:
        raise ValueError(f"inputs must stack (u, psi, u_tar) per step, got "
                         f"{n} values")
    deriv, deriv2, deriv3 = path.deriv, path.deriv2, path.deriv3
    fresh = along is None
    if fresh:
        xe, ye, z = x0
        X = [xe, ye, z]
        frames = []
    else:
        X, frames = along
    B = []  # the entries of each T_m B_i, in _block_index(n) order
    Ads = []  # I + T_m A_i for steps 1..N-1
    for r in range(0, n, 3):
        u, psi, u_tar = U[r], U[r + 1], U[r + 2]
        if fresh:
            if not (isfinite(u) and isfinite(psi) and isfinite(u_tar)):
                raise ValueError(
                    f"non-finite input command {(u, psi, u_tar)!r}")
            omega = 1.0 / z - 1.0
            dx, dy = deriv(omega)
            F = hypot(dx, dy)
            if F <= F_MIN:
                path_tangent(path, omega)  # raises NonRegularPath
            phi_p = atan2(dy, dx)
            if not -pi < phi_p <= pi:
                phi_p = wrap_angle(phi_p)
            ddx, ddy = deriv2(omega)
            dphi_dw = (dx * ddy - dy * ddx) / (F * F)
            frames.append((phi_p, F, dphi_dw, dx, dy, ddx, ddy))
        else:
            xe, ye, z = X[r], X[r + 1], X[r + 2]
            omega = 1.0 / z - 1.0
            phi_p, F, dphi_dw, dx, dy, ddx, ddy = frames[r // 3]
        dpsi = psi - phi_p
        if not -pi < dpsi <= pi:
            dpsi = wrap_angle(dpsi)
        c = cos(dpsi)
        s = sin(dpsi)
        kw = dphi_dw / F
        b02 = kw * ye - 1.0
        b11 = u * c - v * s
        B += (T_m * c, T_m * (-u * s - v * c), T_m * b02, T_m * s,
              T_m * b11, T_m * (-kw * xe), T_m * (-z * z / F))
        us_vc = u * s + v * c
        a01 = u_tar * kw
        if r:
            d3x, d3y = deriv3(omega)
            dF = (dx * ddx + dy * ddy) / F
            dkw = (dx * d3y - dy * d3x) / (F * F * F) - 3.0 * kw * dF / F
            dw_dz = -1.0 / (z * z)
            a02 = dw_dz * (dphi_dw * us_vc + u_tar * dkw * ye)
            a12 = -dw_dz * (dphi_dw * b11 + u_tar * dkw * xe)
            a22 = -2.0 * z * u_tar / F - u_tar * dF / (F * F)
            Ads.append(np.array((1.0, 0.0 + T_m * a01, 0.0 + T_m * a02,
                                 0.0 + T_m * -a01, 1.0, 0.0 + T_m * a12,
                                 0.0, 0.0, 1.0 + T_m * a22)).reshape(3, 3))
        if fresh:
            nxe = xe + T_m * (b11 + u_tar * b02)
            nye = ye + T_m * (us_vc - a01 * xe)
            nz = z + T_m * (-z * z * u_tar / F)
            if not (isfinite(nxe) and isfinite(nye) and isfinite(nz)):
                raise StateEscape(f"non-finite state after Euler step from "
                                  f"{(xe, ye, z)!r}")
            xe, ye, z = nxe, nye, min(max(nz, Z_MIN), 1.0)
            X += (xe, ye, z)
    S = np.zeros((n, n))
    S.ravel()[_block_index(n)] = B  # ravel() is a view of S
    for r, Ad in zip(range(3, n, 3), Ads):
        S[r:r + 3, :r] = Ad.dot(S[r - 3:r, :r])
    return X, frames, S


def projected_rollout_flat(U: Sequence[float], u_prev: InputCmd,
                           x0: Sequence[float], frame0: Frame, v: float,
                           T_m: float, path: PathDef, c: InputConstraints,
                           weights: tuple
                           ) -> Tuple[List[float], List[float], float,
                                      List[Frame]]:
    """Pass 2: the stacked inputs U chain-projected into U and U_g, the
    stacked states 0..N under them from x0, their cost and the path frame
    of each step.

    Each step goes through los.clamp_flat, the projection the membership
    checks use, so the projected inputs meet the constraints bit-exactly,
    where the QP meets them to solver tolerance.  It then takes
    rollout_flat's Euler step, with its errors and z clamp, and adds its
    stage cost; step 0 reuses frame0, the path frame at x0.  weights come
    from cost_weights.  Returns the projected inputs stacked as U is, the
    states, the cost and the frames, step 0's being frame0: the states
    and frames are those linearize_flat rolls out along the projected
    inputs, bit for bit.  A non-finite input raises rollout_flat's
    ValueError.
    """
    if not (isfinite(T_m) and T_m > 0.0):
        raise ValueError(f"dt must be finite and positive, got {T_m!r}")
    deriv, deriv2 = path.deriv, path.deriv2
    (q0, q1, q2), (r0, r1, r2), (ref0, ref1, ref2), lam, P = weights
    V = []
    u, psi = u_prev.u, u_prev.psi
    xe, ye, z = x0
    X = [xe, ye, z]
    frames = [frame0]
    J = 0.0
    for j in range(0, len(U), 3):
        u, psi, u_tar = clamp_flat(U[j], U[j + 1], U[j + 2], u, psi, c)
        V += (u, psi, u_tar)
        if j:
            omega = 1.0 / z - 1.0
            dx, dy = deriv(omega)
            F = hypot(dx, dy)
            if F <= F_MIN:
                path_tangent(path, omega)  # raises NonRegularPath
            phi_p = atan2(dy, dx)
            if not -pi < phi_p <= pi:
                phi_p = wrap_angle(phi_p)
            ddx, ddy = deriv2(omega)
            dphi_dw = (dx * ddy - dy * ddx) / (F * F)
            frames.append((phi_p, F, dphi_dw, dx, dy, ddx, ddy))
        else:
            phi_p, F, dphi_dw = frame0[:3]
        du = u - ref0
        dh = psi - ref1
        if not -pi < dh <= pi:
            dh = wrap_angle(dh)
        dtar = u_tar - ref2
        J += (q0 * xe * xe + q1 * ye * ye + q2 * z * z
              + r0 * du * du + r1 * dh * dh + r2 * dtar * dtar)
        dpsi = psi - phi_p
        if not -pi < dpsi <= pi:
            dpsi = wrap_angle(dpsi)
        cs = cos(dpsi)
        sn = sin(dpsi)
        kw = dphi_dw / F
        nxe = xe + T_m * (u * cs - v * sn + u_tar * (kw * ye - 1.0))
        nye = ye + T_m * (u * sn + v * cs - u_tar * kw * xe)
        nz = z + T_m * (-z * z * u_tar / F)
        if not (isfinite(nxe) and isfinite(nye) and isfinite(nz)):
            # A non-finite projected input always leaves a non-finite state.
            if not (isfinite(u) and isfinite(psi) and isfinite(u_tar)):
                raise ValueError(
                    f"non-finite input command {(u, psi, u_tar)!r}")
            raise StateEscape(f"non-finite state after Euler step from "
                              f"{(xe, ye, z)!r}")
        xe, ye, z = nxe, nye, min(max(nz, Z_MIN), 1.0)
        X += (xe, ye, z)
    return V, X, J + lam * quadratic_form(xe, ye, z, P), frames


class HorizonSolver:
    """The steps both predictive laws take alike: linearized_qp (pass 1
    and the QP at U, from _gradient and _hessian) and _pass2 (pass 2 of
    stacked inputs), on per-configuration constants built once; a config
    without P is held with synthesize_terminal_weight's.  NMPC takes
    linearized_qp's parts one at a time: its pass 1 reuses pass 2's states
    and frames where pass 2 applied U itself, and it builds H only for a
    QP it solves.  A solve depends on its arguments alone; each law's
    solve is its own loop over these steps."""

    _linearize = staticmethod(linearize_flat)  # pass 1

    def __init__(self, cfg: "NMPCConfig", path: PathDef):
        if cfg.P is None:
            cfg = replace(cfg, P=synthesize_terminal_weight(path, cfg))
        self.cfg = cfg
        self.path = path
        self._W, self._r = horizon_weights(cfg)
        self._r2 = 2.0 * self._r
        self._rows = _sqp_rows(cfg.N, cfg.constraints)
        self._weights = cost_weights(cfg)
        self._zero = QPSolution(np.zeros(3 * cfg.N), (), math.inf, 0)
        self._Uref0 = _read_only(reference_stack(cfg, 0.0))

    def _reference(self, psi: float) -> np.ndarray:
        """reference_stack(self.cfg, psi) for a heading psi in [-pi, pi]:
        below pi, unwrap_near(0, psi) is psi + (-psi) = +0.0, so the stack
        is the one on branch 0, built once."""
        return self._Uref0 if psi < pi else reference_stack(self.cfg, psi)

    def linearized_qp(self, x0: Sequence[float], U: np.ndarray, v: float,
                      u_prev: InputCmd, Uref: np.ndarray) -> tuple:
        """The Gauss-Newton QP in the perturbation delta of the inputs U,
        with pass 1's states 0..N, frames and sensitivity S along U:
        (qp, X, frames, S).

        Uref is reference_stack's.  H = 2(S'WS + diag r), and the
        _sqp_rows rows keep U + delta in the box and rate sets;
        QPProblem.on_rows skips their checks.  Its shift A U - s stays
        within the sizes of those sets, as the laws' U meet them: the hold
        of the checked u_prev and the projected plans exactly, NMPC's
        line-search iterates (convex combinations of such points) to the
        QP's tolerance.
        """
        X, frames, S = self._linearize(x0, U.tolist(), v, self.cfg.T_m,
                                       self.path)
        WS, g, shift = self._gradient(X, S, U, u_prev, Uref)
        return (QPProblem.on_rows(self._hessian(S, WS), g, self._rows,
                                  shift), X, frames, S)

    def _gradient(self, X: Sequence[float], S: np.ndarray, U: np.ndarray,
                  u_prev: InputCmd, Uref: np.ndarray) -> tuple:
        """The QP's parts that need no H, for pass 1's states X and
        sensitivity S at U: (WS, g, shift), W S for _hessian, the gradient
        g = 2(S'W X + r (U - Uref)) at delta = 0 and the shift A U - s of
        the rows (_sqp_rows).  g is not checked here."""
        WS = self._W.dot(S)
        g = 2.0 * (WS.T.dot(np.array(X[3:])) + self._r * (U - Uref))
        shift = self._rows.A.dot(U)
        shift[0] -= u_prev.u
        shift[1] -= u_prev.psi
        return WS, g, shift

    def _hessian(self, S: np.ndarray, WS: np.ndarray) -> np.ndarray:
        """H = 2(S'WS + diag r) from _gradient's WS, exactly symmetric."""
        # M + M' + diag(2r) with M = S'WS is exactly symmetric, and equal
        # bit for bit to 0.5(H0 + H0') with H0 = 2(M + diag r): scaling by
        # 2 is exact.
        M = S.T.dot(WS)
        H = M + M.T
        H.ravel()[::H.shape[0] + 1] += self._r2  # a view of the diagonal
        return H

    def _pass2(self, U: Sequence[float], u_prev: InputCmd,
               x0: Sequence[float], frame0: Frame, v: float) -> tuple:
        """Pass 2 of the stacked inputs U from x0, frame0 the path frame
        there: (projected inputs, states, cost, frames)."""
        cfg = self.cfg
        return projected_rollout_flat(U, u_prev, x0, frame0, v, cfg.T_m,
                                      self.path, cfg.constraints,
                                      self._weights)


class PNMPCSolver(HorizonSolver):
    """Fast guidance step: one full SQP step from the held previous input.
    The frozen linearization replaces pass 1 with _frozen."""

    def __init__(self, cfg: "NMPCConfig", path: PathDef,
                 linearization: str = "exact"):
        if linearization not in LINEARIZATIONS:
            raise ValueError(f"unknown linearization {linearization!r}")
        super().__init__(cfg, path)
        self.linearization = linearization
        if linearization == "frozen":
            self._linearize = self._frozen

    @staticmethod
    def _frozen(x0: Sequence[float], U: List[float], v: float, T_m: float,
                path: PathDef):
        """Pass 1 under the frozen linearization: the rollout of U and S =
        kron(tril(ones), T_m B), B the input Jacobian of U's first step at
        the step-0 frame."""
        X, frames = rollout_flat(x0, U, v, T_m, path)
        N = len(U) // 3
        B = _jacobians(*x0, *U[:3], v, frames[0], path)[0]
        return X, frames, np.kron(np.tril(np.ones((N, N))), T_m * np.array(B))

    def solve(self, x_k: GuidanceState, v_k: float, u_prev: InputCmd,
              warm: Optional[SolveResult] = None,
              timer=time.perf_counter) -> SolveResult:
        """Linearize at the hold, solve the QP from delta = 0 and return
        pass 2 of the hold plus the full step.  warm is unused; it keeps
        the call signature of NMPCSolver.solve."""
        t0 = timer()
        cfg = self.cfg
        require_in_box(u_prev, cfg.constraints)
        x0 = (x_k.x_e, x_k.y_e, x_k.z)
        U = np.array([u_prev.u, u_prev.psi, u_prev.u_tar] * cfg.N)
        qp, _, frames, _ = self.linearized_qp(
            x0, U, v_k, u_prev, self._reference(u_prev.psi))
        qsol = solve_qp(qp, warm=self._zero)
        if not qsol.converged:
            raise QPFailure(
                f"QP stalled with KKT residual {qsol.kkt_residual:.3e}")
        V, X, J, _ = self._pass2((U + qsol.x).tolist(), u_prev, x0,
                                 frames[0], v_k)
        return SolveResult(tuple(map(InputCmd, V[::3], V[1::3], V[2::3])),
                           X, J, qsol.iterations, qsol.kkt_residual,
                           timer() - t0)
