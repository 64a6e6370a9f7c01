"""Nonlinear receding-horizon guidance: cost, terminal synthesis, SQP solve.

The optimization minimizes

    J_N = sum_{j=0}^{N-1} l(x_hat(j), u(j)) + lambda * V_f(x_hat(N))

over input sequences subject to the box set U and the rate set U_g, with
the prediction chained through the forward-Euler model and the sway held
at its last measured value.  The terminal weight P comes from a discrete
Lyapunov equation around a far-along-the-path equilibrium, closed with the
SGLOS law as terminal controller.

The solver is an SQP: each major iteration linearizes the prediction with
the exact sensitivities and solves the strictly convex QP that
pnmpc.linearized_qp builds for the step, then backtracks on the true
nonlinear cost.  Each QP is handed the working set the previous major
iteration's QP ended on, so that a QP whose optimal set has not changed
is settled by one KKT solve (qp.solve_qp); the first QP of a solve starts
from an empty set.  After a failed line search the same linearization is
re-solved with more damping.  The QP's Hessian starts as Gauss-Newton,
2(S'WS + diag r).  Far from the path the residuals are large and that
Hessian only contracts the stationarity residual linearly, so from the
first major iteration that leaves more than STALL_RATIO of the previous
residual to the end of the solve, the exact second-order term of the
rollout (pnmpc.curvature_flat) is added, with the eigenvalues of the sum
clipped from below at the smallest eigenvalue of the Gauss-Newton
Hessian.  The constant hold of the previous input is always feasible, so
a feasible incumbent exists from the start and only improves.  The fast
law in the pnmpc module is the first full step of this SQP from that
hold.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .angles import wrap_angle
from .errdyn import (GuidanceState, InputCmd, euler_step, flat_inputs,
                     rollout_flat)
from .exceptions import TerminalWeightUnset, UnstableTerminalLoop
from .los import InputConstraints, SGLOSParams, require_in_box, sglos
from .paths import PathDef, omega_of_z, sample_path
from .pnmpc import (SolveResult, cost_weights, curvature_flat,
                    horizon_cost_flat, horizon_weights, linearized_qp,
                    predicted_states, reference_stack, sensitivity_flat,
                    snap_feasible, stack_inputs, stage_cost_flat, zero_start)
from .qp import QPSolution, solve_qp

logger = logging.getLogger(__name__)

KKT_TOL = 1e-6
MAX_MAJOR_ITER = 30
# Gauss-Newton has stalled once a major iteration leaves more than this
# share of the previous stationarity residual; the solve then switches to
# the exact Hessian for its remaining iterations.
STALL_RATIO = 0.25

_COLUMN_SIGNS = np.array([-1.0, 1.0])  # upper-bound, lower-bound column

_SYN_Z = 1e-2    # linearization point z for the terminal synthesis
_SYN_STEP = 1e-6  # central-difference step for the numeric linearization


def _default_Q() -> np.ndarray:
    return np.array([1.0, 1.0, 1e-5])


def _default_R() -> np.ndarray:
    return np.array([10.0, 1e-5, 1e-5])


@dataclass(frozen=True)
class NMPCConfig:
    """Horizon, weights, reference, constraints and guidance period.

    Q and R are the diagonals of the stage weights; P is the full terminal
    weight (symmetric positive definite).  Instances are immutable and
    freely shareable between solvers.
    """

    N: int = 3
    Q: np.ndarray = field(default_factory=_default_Q)
    R: np.ndarray = field(default_factory=_default_R)
    P: Optional[np.ndarray] = None
    lam: float = 1.1
    u_ref: InputCmd = field(default_factory=lambda: InputCmd(0.15, 0.0, 0.15))
    constraints: InputConstraints = field(default_factory=InputConstraints)
    T_m: float = 1.0
    terminal_law: SGLOSParams = field(default_factory=SGLOSParams)

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        if self.N < 1:
            raise ValueError(f"horizon must be >= 1, got {self.N}")
        if not (math.isfinite(self.lam) and math.isfinite(self.T_m)
                and np.all(np.isfinite(self.Q))
                and np.all(np.isfinite(self.R))):
            raise ValueError("lam, T_m, Q and R must be finite")
        if self.Q.shape != (3,) or self.R.shape != (3,):
            raise ValueError("Q and R must be length-3 diagonals")
        if np.any(self.Q < 0.0) or np.any(self.R < 0.0):
            raise ValueError("Q and R must be nonnegative")
        if self.Q[0] <= 0.0 or self.Q[1] <= 0.0:
            raise ValueError("Q must be positive definite on the PF errors")
        if self.lam < 1.0:
            raise ValueError(f"terminal weighting must be >= 1, got {self.lam}")
        if self.T_m <= 0.0:
            raise ValueError(f"guidance period must be positive, got {self.T_m}")
        if self.P is not None:
            P = np.asarray(self.P, dtype=float)
            if P.shape != (3, 3) or not np.allclose(P, P.T, atol=1e-9):
                raise ValueError("P must be a symmetric 3x3 matrix")
            if np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) <= 0.0:
                raise ValueError("P must be positive definite")
            object.__setattr__(self, "P", 0.5 * (P + P.T))

    def terminal_weight(self) -> np.ndarray:
        if self.P is None:
            raise TerminalWeightUnset("terminal weight P has not been set")
        return self.P


def stage_cost(x: GuidanceState, u: InputCmd, cfg: NMPCConfig) -> float:
    """x'Qx + (u - u_ref)'R(u - u_ref), heading deviation wrapped."""
    ref = cfg.u_ref
    return stage_cost_flat(x.x_e, x.y_e, x.z, u.u, u.psi, u.u_tar, cfg.Q,
                           cfg.R, (ref.u, ref.psi, ref.u_tar))


def discrete_lyapunov(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve A' P A - P = -S for P via the Kronecker linear system."""
    A = np.asarray(A, dtype=float)
    S = np.asarray(S, dtype=float)
    n = A.shape[0]
    M = np.kron(A.T, A.T) - np.eye(n * n)
    P = np.linalg.solve(M, -S.reshape(n * n)).reshape(n, n)
    return 0.5 * (P + P.T)


def _state_vec(x: GuidanceState) -> np.ndarray:
    return np.array([x.x_e, x.y_e, x.z])


def _input_vec(u: InputCmd) -> np.ndarray:
    return np.array([u.u, u.psi, u.u_tar])


def synthesize_terminal_weight(path: PathDef, cfg: NMPCConfig,
                               sglos_params: Optional[SGLOSParams] = None
                               ) -> np.ndarray:
    """Terminal weight from the discrete Lyapunov equation.

    Linearizes the discrete model numerically at the far-along equilibrium
    x = (0, 0, 1e-2) with input (0.1 u_r, phi_p, 0.1 u_r), linearizes the
    terminal controller to a gain K, and solves

        (A + B K)' P (A + B K) - P = -(Q + K' R K).

    Raises UnstableTerminalLoop when the closed loop is not a contraction.
    The returned P is symmetric with eigenvalues floored at 1e-12 so the
    terminal cost stays positive definite even when the z mode decouples.
    """
    p = sglos_params if sglos_params is not None else cfg.terminal_law
    h = _SYN_STEP
    z_bar = _SYN_Z
    phi_bar = sample_path(path, omega_of_z(z_bar)).phi_p
    u_bar = InputCmd(0.1 * cfg.u_ref.u, phi_bar, 0.1 * cfg.u_ref.u)
    x_bar = np.array([0.0, 0.0, z_bar])

    def f(xv, uv):
        nxt = euler_step(GuidanceState(*xv), InputCmd(*uv), 0.0, cfg.T_m, path)
        return _state_vec(nxt)

    def kf(xv):
        return _input_vec(sglos(GuidanceState(*xv), path, p))

    A = np.empty((3, 3))
    B = np.empty((3, 3))
    K = np.empty((3, 3))
    ub_vec = _input_vec(u_bar)
    for i in range(3):
        dx = np.zeros(3)
        dx[i] = h
        A[:, i] = (f(x_bar + dx, ub_vec) - f(x_bar - dx, ub_vec)) / (2.0 * h)
        B[:, i] = (f(x_bar, ub_vec + dx) - f(x_bar, ub_vec - dx)) / (2.0 * h)
        hi = kf(x_bar + dx)
        lo = kf(x_bar - dx)
        col = (hi - lo) / (2.0 * h)
        col[1] = wrap_angle(hi[1] - lo[1]) / (2.0 * h)
        K[:, i] = col

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


def make_config(path: PathDef, u_r: float = 0.15,
                sglos_params: Optional[SGLOSParams] = None,
                **overrides) -> NMPCConfig:
    """Config with the default tuning and a synthesized terminal weight."""
    p = sglos_params if sglos_params is not None else SGLOSParams()
    cfg = NMPCConfig(u_ref=InputCmd(u_r, 0.0, u_r), terminal_law=p,
                     **overrides)
    return replace(cfg, P=synthesize_terminal_weight(path, cfg, p))


def _stationarity_residual(g: np.ndarray, A_rows: np.ndarray,
                           lb: np.ndarray, ub: np.ndarray) -> float:
    """KKT stationarity residual at the current point (decision = 0).

    Uses a least-squares multiplier fit over the active rows with wrong
    signs clipped, so a small value certifies a genuine KKT point.  Each
    active row contributes a column in row order, -a_i for an active upper
    bound before a_i for an active lower bound.
    """
    act_tol = 1e-9
    active = np.stack((ub <= act_tol, lb >= -act_tol), axis=1).ravel()
    if not active.any():
        return float(np.max(np.abs(g), initial=0.0))
    rows = np.flatnonzero(active)
    # C order: lstsq's last bits depend on the memory layout of C.
    C = np.ascontiguousarray(A_rows[rows // 2].T) * _COLUMN_SIGNS[rows % 2]
    lam, *_ = np.linalg.lstsq(C, g, rcond=None)
    lam = np.maximum(lam, 0.0)
    return float(np.max(np.abs(g - C @ lam), initial=0.0))


def _convexified(H: np.ndarray, H_gn: np.ndarray) -> np.ndarray:
    """H with its eigenvalues clipped from below at the smallest eigenvalue
    of the Gauss-Newton Hessian H_gn (positive definite)."""
    w, V = np.linalg.eigh(H)
    return (V * np.maximum(w, np.linalg.eigvalsh(H_gn)[0])) @ V.T


class NMPCSolver:
    """SQP nonlinear solver; owns warm-start and scratch data.

    Not safe for concurrent use from several threads; distinct instances
    may run in parallel.
    """

    def __init__(self, cfg: NMPCConfig, path: PathDef,
                 kkt_tol: float = KKT_TOL, max_iterations: int = MAX_MAJOR_ITER):
        cfg.terminal_weight()  # fail fast when unset
        if not (math.isfinite(kkt_tol) and kkt_tol > 0.0):
            raise ValueError(f"kkt_tol must be finite and > 0, got {kkt_tol}")
        if isinstance(max_iterations, bool) \
                or not isinstance(max_iterations, int) or max_iterations < 1:
            raise ValueError(
                f"max_iterations must be an int >= 1, got {max_iterations!r}")
        self.cfg = cfg
        self.path = path
        self.kkt_tol = kkt_tol
        self.max_iterations = max_iterations
        self._qp_weights = horizon_weights(cfg)
        self._zero_warm = zero_start(cfg.N)
        self._weights = cost_weights(cfg)
        self._eye = np.eye(3 * cfg.N)

    def _candidates(self, x0, v_k, u_prev, warm):
        """Best of the held previous input and, given a warm start, its
        sequence and its shifted sequence: (U, states, frames, cost)."""
        cfg = self.cfg
        cands = [stack_inputs([u_prev] * cfg.N)]
        if warm is not None and len(warm.u_seq) == cfg.N:
            cands.append(stack_inputs(snap_feasible(
                stack_inputs(warm.u_seq), u_prev, cfg.constraints)))
            tail = sglos(warm.x_pred[-1], self.path, cfg.terminal_law)
            shifted = tuple(warm.u_seq[1:]) + (tail,)
            cands.append(stack_inputs(snap_feasible(
                stack_inputs(shifted), u_prev, cfg.constraints)))
        best = None
        for U in cands:
            u_flat = U.tolist()
            X, frames = rollout_flat(x0, u_flat, v_k, cfg.T_m, self.path)
            J = horizon_cost_flat(X, u_flat, self._weights)
            if best is None or J < best[3]:
                best = (U, X, frames, J)
        return best

    def solve(self, x_k: GuidanceState, v_k: float, u_prev: InputCmd,
              warm: Optional[SolveResult] = None,
              timer=time.perf_counter) -> SolveResult:
        t0 = timer()
        cfg = self.cfg
        require_in_box(u_prev, cfg.constraints)
        x0 = (x_k.x_e, x_k.y_e, x_k.z)
        U, X, frames, J = self._candidates(x0, v_k, u_prev, warm)
        Uref = reference_stack(cfg, u_prev.psi)

        kkt = math.inf
        iters = 0
        mu = 0.0  # Levenberg damping; grows when full steps overshoot
        exact = False  # Gauss-Newton Hessian until its contraction stalls
        qp_warm = self._zero_warm
        relinearize = True  # False: re-solve the same iterate, more damped
        for it in range(1, self.max_iterations + 1):
            prev_kkt = kkt  # kkt stays as is at a repeated iterate
            if relinearize:
                u_flat = U.tolist()
                S = sensitivity_flat(X, u_flat, frames, v_k, cfg.T_m,
                                     self.path)
                qp = linearized_qp(S, X, U, u_prev, Uref, self._qp_weights,
                                   cfg.constraints)
                kkt = _stationarity_residual(qp.g, qp.A, qp.lb, qp.ub)
                if kkt <= self.kkt_tol:
                    break
                scale = float(np.trace(qp.H)) / qp.H.shape[0]
                H_gn = qp.H
                H_exact = None  # undamped exact Hessian, once needed here
            exact = exact or kkt > STALL_RATIO * prev_kkt
            if exact and H_exact is None:
                H_exact = _convexified(
                    H_gn + curvature_flat(S, X, u_flat, frames, v_k, cfg.T_m,
                                          self.path, self._qp_weights[0]),
                    H_gn)
            qp.H = (H_exact if exact else H_gn) + mu * scale * self._eye
            qsol = solve_qp(qp, warm=qp_warm)
            qp_warm = QPSolution(self._zero_warm.x, qsol.active_set,
                                 math.inf, 0)
            iters = it
            delta = qsol.x
            if qsol.converged and \
                    float(np.max(np.abs(delta), initial=0.0)) <= 1e-12:
                break
            gd = float(qp.g @ delta)
            if not qsol.converged or gd >= 0.0:
                # Not a certified descent step: the Armijo test below could
                # accept a cost increase, so keep the feasible incumbent.
                logger.warning(
                    "SQP iteration %d: QP step rejected (converged=%s, "
                    "KKT residual %.3e, g.d = %.3e); keeping the incumbent",
                    it, qsol.converged, qsol.kkt_residual, gd)
                break
            alpha = 1.0
            accepted = False
            while alpha >= 1e-7:
                U_try = U + alpha * delta
                u_try = U_try.tolist()
                X_try, frames_try = rollout_flat(x0, u_try, v_k, cfg.T_m,
                                                 self.path)
                J_try = horizon_cost_flat(X_try, u_try, self._weights)
                if J_try <= J + 1e-4 * alpha * gd:
                    accepted = True
                    break
                alpha *= 0.5
            relinearize = accepted
            if not accepted:
                if mu >= 1e8:
                    break
                mu = max(4.0 * mu, 1e-3)
                continue
            if alpha >= 1.0:
                mu = 0.0 if mu < 1e-6 else 0.25 * mu
            elif alpha < 0.25:
                mu = max(4.0 * mu, 1e-3)
            U, X, frames, J = U_try, X_try, frames_try, J_try
        else:
            logger.warning(
                "SQP stopped at the iteration cap (%d) with KKT residual "
                "%.3e above the tolerance %.1e", self.max_iterations, kkt,
                self.kkt_tol)

        u_seq = snap_feasible(U, u_prev, cfg.constraints)
        u_flat = flat_inputs(u_seq)
        if u_flat != U.tolist():  # else X and J belong to u_seq already
            X, _ = rollout_flat(x0, u_flat, v_k, cfg.T_m, self.path)
            J = horizon_cost_flat(X, u_flat, self._weights)
        return SolveResult(u_seq, predicted_states(x_k, X), J, iters, kkt,
                           timer() - t0)
