"""Nonlinear receding-horizon guidance: cost, terminal synthesis, SQP solve.

The optimization minimizes

    J_N = sum_{j=0}^{N-1} l(x_hat(j), u(j)) + lambda * V_f(x_hat(N))

over input sequences subject to the box set U and the rate set U_g, with
the prediction chained through the forward-Euler model and the sway held
at its last measured value.  The terminal weight P comes from a discrete
Lyapunov equation around a far-along-the-path equilibrium, closed with the
SGLOS law as terminal controller: the model is linearized with the
analytic Jacobians of the pnmpc module and the SGLOS gain is taken in
closed form.

The solver is an SQP on the steps of pnmpc.HorizonSolver.  Each major
iteration linearizes the prediction along the incumbent, builds the
strictly convex QP there (HorizonSolver.linearized_qp), solves it and
backtracks on the true nonlinear cost (Armijo).  A QP step that is not a
certified descent direction, or a line search with no acceptable trial
down to alpha = 1e-7, keeps the incumbent, logs a warning and ends the
solve at the stationarity residual it has.  Each QP is handed the
working set the previous QP of the solve ended on (the first starts from
an empty set), so a QP whose optimal set has not changed is settled by
one KKT solve (qp.solve_qp).  The QP's Hessian starts as Gauss-Newton,
2(S'WS + diag r).  Far from the path the residuals are large and that
Hessian only contracts the stationarity residual linearly, so from the
first major iteration that leaves more than STALL_RATIO of the previous
residual to the end of the solve, the exact second-order term of the
rollout (pnmpc.curvature_flat) is added.  _convexified makes that sum
positive definite; it keeps the curvature along the constraints active
at the zero step unless the sum couples them strongly to the other
directions.  Near convergence, where the predicted decrease falls below
the rounding of J, the line search also takes a trial whose cost rises
by no more than that rounding, 10 eps |J|.  The constant hold of the
previous input is always feasible, so a feasible incumbent exists from
the start and only improves, up to that rounding; the previous plan, its
shift and the answer are projected onto the constraints by
pnmpc.projected_rollout_flat.  The fast law in the pnmpc module is the
first full step of this SQP from that hold.  Its loop stays apart: it
has none of the candidates, stationarity test, exact Hessian, handed-on
working set or line search above, and fails on an unconverged QP.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errdyn import GuidanceState, InputCmd, flat_inputs, rollout_flat
from .exceptions import TerminalWeightUnset, UnstableTerminalLoop
from .los import InputConstraints, SGLOSParams, require_in_box, sglos
from .paths import PathDef, omega_of_z, path_frame
from .pnmpc import (HorizonSolver, SolveResult, cost_weights,
                    curvature_flat, horizon_cost_flat, jacobian_block,
                    projected_rollout_flat, reference_stack, stage_cost_flat,
                    state_jacobian)
from .qp import QPSolution, solve_qp

logger = logging.getLogger(__name__)

KKT_TOL = 1e-6
MAX_MAJOR_ITER = 30
# Gauss-Newton has stalled once a major iteration leaves more than this
# share of the previous stationarity residual; the solve then switches to
# the exact Hessian for its remaining iterations.
STALL_RATIO = 0.25

_ACT_TOL = 1e-9  # a QP bound within this of the zero step is active there
# The exact Hessian penalizes the rows active at the zero step by this
# multiple of its largest entry before its eigenvalues are clipped.
_PENALTY = 10.0
# The line search also takes a trial whose cost increase and predicted
# decrease both lie within this share of |J|: the rounding of J.
_ROUNDING = 10.0 * float(np.finfo(float).eps)

_SYN_Z = 1e-2  # linearization point z for the terminal synthesis


def _default_Q() -> np.ndarray:
    return np.array([1.0, 1.0, 1e-5])


def _default_R() -> np.ndarray:
    return np.array([10.0, 1e-5, 1e-5])


@dataclass(frozen=True)
class NMPCConfig:
    """Horizon, weights, reference, constraints and guidance period.

    Q and R are the diagonals of the stage weights; P is the full terminal
    weight (symmetric positive definite).  u_r is the reference speed: the
    cost's input reference is (u_r, 0, u_r).  Instances are immutable and
    freely shareable between solvers.
    """

    N: int = 3
    Q: np.ndarray = field(default_factory=_default_Q)
    R: np.ndarray = field(default_factory=_default_R)
    P: Optional[np.ndarray] = None
    lam: float = 1.1
    u_r: float = 0.15
    constraints: InputConstraints = field(default_factory=InputConstraints)
    T_m: float = 1.0
    terminal_law: SGLOSParams = field(default_factory=SGLOSParams)

    def __post_init__(self):
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        if isinstance(self.N, bool) or not isinstance(self.N, int) \
                or self.N < 1:
            raise ValueError(
                f"horizon N must be a positive integer, got {self.N!r}")
        if not (all(map(math.isfinite, (self.lam, self.T_m, self.u_r)))
                and np.all(np.isfinite(self.Q))
                and np.all(np.isfinite(self.R))):
            raise ValueError("lam, T_m, u_r, Q and R must be finite")
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
            if P.shape != (3, 3):
                raise ValueError("P must be a symmetric 3x3 matrix")
            # Huge finite entries may overflow in the sums: tested below.
            with np.errstate(over="ignore", invalid="ignore"):
                P_sym = 0.5 * (P + P.T)
                if not (np.all(np.isfinite(P)) and np.all(np.isfinite(P_sym))):
                    raise ValueError("P and its symmetric part must be finite")
                if not np.allclose(P, P.T, atol=1e-9):
                    raise ValueError("P must be a symmetric 3x3 matrix")
            if np.min(np.linalg.eigvalsh(P_sym)) <= 0.0:
                raise ValueError("P must be positive definite")
            object.__setattr__(self, "P", P_sym)

    def terminal_weight(self) -> np.ndarray:
        if self.P is None:
            raise TerminalWeightUnset("terminal weight P has not been set")
        return self.P


def stage_cost(x: GuidanceState, u: InputCmd, cfg: NMPCConfig) -> float:
    """x'Qx + (u - ref)'R(u - ref), heading deviation wrapped, with the
    input reference ref = (u_r, 0, u_r)."""
    q, r, ref = cost_weights(cfg)[:3]
    return stage_cost_flat(x.x_e, x.y_e, x.z, u.u, u.psi, u.u_tar, q, r, ref)


def discrete_lyapunov(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve A' P A - P = -S for P via the Kronecker linear system."""
    A = np.asarray(A, dtype=float)
    S = np.asarray(S, dtype=float)
    n = A.shape[0]
    M = np.kron(A.T, A.T) - np.eye(n * n)
    P = np.linalg.solve(M, -S.reshape(n * n)).reshape(n, n)
    return 0.5 * (P + P.T)


def synthesize_terminal_weight(path: PathDef, cfg: NMPCConfig) -> np.ndarray:
    """Terminal weight from the discrete Lyapunov equation.

    Linearizes the discrete model at the far-along equilibrium x = (0, 0,
    1e-2) with input (0.1 u_r, phi_p, 0.1 u_r) through the analytic
    Jacobians, A = I + T_m state_jacobian and B = T_m jacobian_block,
    takes the gain K of the terminal controller cfg.terminal_law in closed
    form and solves

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
    phi_bar, _, dphi_dw = path_frame(path, omega_of_z(z_bar))[:3]
    x_bar = GuidanceState(0.0, 0.0, z_bar)
    u_bar = InputCmd(0.1 * cfg.u_r, phi_bar, 0.1 * cfg.u_r)
    A = np.eye(3) + cfg.T_m * state_jacobian(x_bar, u_bar, 0.0, path)
    B = cfg.T_m * jacobian_block(x_bar, u_bar, 0.0, path).m
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


def make_config(path: PathDef, **overrides) -> NMPCConfig:
    """Config with the default tuning and the given field overrides, and a
    terminal weight synthesized for its terminal law."""
    cfg = NMPCConfig(**overrides)
    return replace(cfg, P=synthesize_terminal_weight(path, cfg))


def _active_at_zero(lb: np.ndarray, ub: np.ndarray) -> tuple:
    """The QP rows active at the zero step, as (rows, signs) in row order:
    an active upper bound gives sign -1 before an active lower bound's +1,
    so a row active on both sides appears twice."""
    rows, signs = [], []
    for i, (lo, hi) in enumerate(zip(lb.tolist(), ub.tolist())):
        if hi <= _ACT_TOL:
            rows.append(i)
            signs.append(-1.0)
        if lo >= -_ACT_TOL:
            rows.append(i)
            signs.append(1.0)
    return rows, signs


def _stationarity_residual(g: np.ndarray, A: np.ndarray,
                           active: tuple) -> float:
    """KKT stationarity residual at the current point (decision = 0).

    active is _active_at_zero's (rows, signs).  Uses a least-squares
    multiplier fit over the active rows with wrong signs clipped, so a
    small value certifies a genuine KKT point.  Each active row side
    contributes the column sign * a_row, in the order of active.
    """
    rows, signs = active
    if not rows:
        return float(np.max(np.abs(g), initial=0.0))
    # C order: lstsq's last bits depend on the memory layout of C.
    C = np.ascontiguousarray(A.take(rows, axis=0).T) * np.array(signs)
    lam, *_ = np.linalg.lstsq(C, g, rcond=None)
    lam = np.maximum(lam, 0.0)
    return float(np.max(np.abs(g - C @ lam), initial=0.0))


def _convexified(H: np.ndarray, H_gn: np.ndarray,
                 A_act: np.ndarray) -> np.ndarray:
    """H made positive definite without bending it on the active rows' null
    space.

    The active rows A_act are first penalized, H + rho A_act'A_act with
    rho = _PENALTY * max|H|: on the null space of A_act, where the QP
    steps along its active constraints, the curvature is unchanged, and
    across them it turns large and positive.  The eigenvalues of that sum
    are then clipped from below at the smallest eigenvalue f of the
    Gauss-Newton Hessian H_gn (positive definite).  Clipping H alone bends
    the reduced curvature too: a negative eigenvalue that lies mostly
    across the active rows, where the QP cannot step, is lifted along with
    the part of its eigenvector inside their null space.

    The penalty keeps Z'HZ (Z a null-space basis of A_act, Y its
    complement) only where it leaves nothing to clip, which a fixed rho
    does not guarantee.  A sufficient condition is the Schur-complement
    bound |Z'HY|^2 < (lambda_min(Z'HZ) - f) (lambda_min(Y'(H + rho
    A_act'A_act)Y) - f); where a strong coupling Z'HY breaks it, the clip
    can still bend Z'HZ (by up to 3% relative in 30 of 1846 random draws
    on the QP's rows).
    """
    if A_act.shape[0]:
        H = H + _PENALTY * float(np.max(np.abs(H))) * (A_act.T @ A_act)
    w, V = np.linalg.eigh(H)
    return (V * np.maximum(w, np.linalg.eigvalsh(H_gn)[0])) @ V.T


class NMPCSolver(HorizonSolver):
    """SQP nonlinear solver on HorizonSolver's steps."""

    kkt_tol = KKT_TOL
    max_iterations = MAX_MAJOR_ITER

    def _candidates(self, x0, v_k, u_prev, warm):
        """Best of the held previous input and, given a warm start, its
        plan and shifted plan, both projected: (U, cost, frame at x0)."""
        cfg = self.cfg
        seqs = ()
        if warm is not None and len(warm.u_seq) == cfg.N:
            tail = sglos(GuidanceState(*warm.x_flat[-3:]), self.path,
                         cfg.terminal_law)
            seqs = (warm.u_seq, tuple(warm.u_seq[1:]) + (tail,))
        U = [u_prev.u, u_prev.psi, u_prev.u_tar] * cfg.N
        X, frames = rollout_flat(x0, U, v_k, cfg.T_m, self.path)
        J = horizon_cost_flat(X, U, self._weights)
        for seq in seqs:
            cmds, _, J_seq = projected_rollout_flat(
                flat_inputs(seq), u_prev, x0, frames[0], v_k, cfg.T_m,
                self.path, cfg.constraints, self._weights)
            if J_seq < J:
                U, J = flat_inputs(cmds), J_seq
        return np.array(U), J, frames[0]

    def solve(self, x_k: GuidanceState, v_k: float, u_prev: InputCmd,
              warm: Optional[SolveResult] = None,
              timer=time.perf_counter) -> SolveResult:
        t0 = timer()
        cfg = self.cfg
        require_in_box(u_prev, cfg.constraints)
        T_m, path = cfg.T_m, self.path
        x0 = (x_k.x_e, x_k.y_e, x_k.z)
        U, J, frame0 = self._candidates(x0, v_k, u_prev, warm)
        Uref = reference_stack(cfg, u_prev.psi)

        kkt = math.inf
        iters = 0
        exact = False  # Gauss-Newton Hessian until its contraction stalls
        qp_warm = self._zero
        for it in range(1, self.max_iterations + 1):
            prev_kkt = kkt
            qp, X, frames, S = self.linearized_qp(x0, U, v_k, u_prev, Uref)
            active = _active_at_zero(qp.lb, qp.ub)
            kkt = _stationarity_residual(qp.g, qp.A, active)
            if kkt <= self.kkt_tol:
                break
            exact = exact or kkt > STALL_RATIO * prev_kkt
            if exact:  # a new H, which gets every check of a new QP
                qp = qp.with_hessian(_convexified(
                    qp.H + curvature_flat(S, X, U.tolist(), frames, v_k,
                                          T_m, path, self._W),
                    qp.H, qp.A.take(active[0], axis=0)))
            qsol = solve_qp(qp, warm=qp_warm)
            qp_warm = QPSolution(self._zero.x, qsol.active_set,
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
            rounding = _ROUNDING * abs(J)
            while alpha >= 1e-7:
                U_try = U + alpha * delta
                u_try = U_try.tolist()
                J_try = horizon_cost_flat(
                    rollout_flat(x0, u_try, v_k, T_m, path)[0], u_try,
                    self._weights)
                if J_try <= J + 1e-4 * alpha * gd or (
                        J_try - J <= rounding and -alpha * gd <= rounding):
                    break
                alpha *= 0.5
            else:
                logger.warning(
                    "SQP iteration %d: line search failed (no decrease "
                    "down to alpha 1e-7, KKT residual %.3e, g.d = %.3e); "
                    "keeping the incumbent", it, kkt, gd)
                break
            U, J = U_try, J_try
        else:
            logger.warning(
                "SQP stopped at the iteration cap (%d) with KKT residual "
                "%.3e above the tolerance %.1e", self.max_iterations, kkt,
                self.kkt_tol)

        return self._result(U, u_prev, x0, frame0, v_k, iters, kkt, t0, timer)
