"""Nonlinear receding-horizon guidance: config, stage cost, SQP solve.

The optimization minimizes

    J_N = sum_{j=0}^{N-1} l(x_hat(j), u(j)) + lambda * V_f(x_hat(N))

over input sequences subject to the box set U and the rate set U_g, with
the prediction chained through the forward-Euler model and the sway held
at its last measured value.  The terminal weight P of V_f = x'Px is the
config's when it sets one; otherwise the solver base derives it
(pnmpc.synthesize_terminal_weight, a discrete Lyapunov equation around a
far-along-the-path equilibrium, closed with the SGLOS law as terminal
controller).

The solver is an SQP on the steps of pnmpc.HorizonSolver.  Each major
iteration linearizes the prediction along the incumbent (pass 1,
pnmpc.linearize_flat), tests stationarity on the gradient and the rows
(HorizonSolver._gradient), and only where that test fails builds the
Hessian (HorizonSolver._hessian) and the strictly convex QP, solves it
and backtracks on the true nonlinear cost (Armijo).  The starts and
every trial are costed by pass 2 (pnmpc.projected_rollout_flat), on the
commands they apply, and the accepted trial's pass 2 is the answer.  The
next linearization point stays the unprojected trial: pass 2 wraps
headings, which the QP's rate rows difference unwrapped.  Where pass 2
applied that point byte for byte, as it almost always does, pass 1
takes pass 2's states and frames instead of rolling the point out
again, and builds only the Jacobians and S, bit for bit.  A QP step that
is not a certified descent direction, or a line search with no
acceptable trial down to alpha = 1e-7, keeps the incumbent, logs a
warning and ends the solve at the stationarity residual it has.  Each QP
is handed the working set the previous QP of the solve ended on (the
first starts from an empty set), so a QP whose optimal set has not
changed is settled by one KKT solve (qp.solve_qp).  The QP's Hessian
starts as Gauss-Newton, 2(S'WS + diag r).  Far from the path the
residuals are large and that Hessian only contracts the stationarity
residual linearly, so from the first major iteration that leaves more
than STALL_RATIO of the previous residual to the end of the solve, the
exact second-order term of the rollout (pnmpc.curvature_flat) is added.
_convexified makes that sum positive definite; it keeps the curvature
along the constraints active at the zero step unless the sum couples
them strongly to the other directions.  Near convergence, where the
predicted decrease falls below the rounding of J, the line search also
takes a trial whose cost rises by no more than that rounding, 10 eps
|J|.  The constant hold of the previous input is always feasible, so a
feasible incumbent exists from the start and only improves, up to that
rounding: the answer costs no more than the cheapest of the hold, the
previous plan and its shift, each costed by pass 2.  The fast law in the
pnmpc module is the first full step of this SQP from that hold.  Its
loop stays apart: it has none of the candidates, stationarity test,
exact Hessian, handed-on working set or line search above, and fails on
an unconverged QP.
"""

from __future__ import annotations

import logging
import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errdyn import GuidanceState, InputCmd, flat_inputs
from .los import InputConstraints, SGLOSParams, require_in_box, sglos
from .paths import omega_of_z, path_frame
from .pnmpc import (HorizonSolver, SolveResult, curvature_flat,
                    stage_cost_flat)
# Unused here; perfbench's tracer looks the synthesis up in this module.
from .pnmpc import synthesize_terminal_weight  # noqa: F401
from .qp import QPProblem, QPSolution, _largest, solve_qp

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


def _default_Q() -> np.ndarray:
    return np.array([1.0, 1.0, 1e-5])


def _default_R() -> np.ndarray:
    return np.array([10.0, 1e-5, 1e-5])


@dataclass(frozen=True)
class NMPCConfig:
    """Horizon, weights, reference, constraints and guidance period.

    Q and R are the diagonals of the stage weights.  P, the full terminal
    weight (symmetric positive definite), is an optional override: a
    solver given a config without it derives it for its path
    (pnmpc.synthesize_terminal_weight).  u_r is the reference speed: the
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


def stage_cost(x: GuidanceState, u: InputCmd, cfg: NMPCConfig) -> float:
    """x'Qx + (u - ref)'R(u - ref), heading deviation wrapped, with the
    input reference ref = (u_r, 0, u_r).  Needs no terminal weight."""
    return stage_cost_flat(x.x_e, x.y_e, x.z, u.u, u.psi, u.u_tar,
                           cfg.Q.tolist(), cfg.R.tolist(),
                           (cfg.u_r, 0.0, cfg.u_r))


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
        return _largest(map(abs, g.tolist()))
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


def _along(U: np.ndarray, plan: tuple) -> Optional[tuple]:
    """Pass 2's (states, frames) of plan when the commands it applied are
    the inputs U bit for bit, so that pass 1 at U would roll the same
    states out again; None otherwise.  The bytes are compared, not the
    values, so a 0.0 that pass 2 made of a -0.0 does not pass as equal."""
    V, X, _, frames = plan
    return (X, frames) if array("d", V).tobytes() == U.tobytes() else None


class NMPCSolver(HorizonSolver):
    """SQP nonlinear solver on HorizonSolver's steps."""

    kkt_tol = KKT_TOL
    max_iterations = MAX_MAJOR_ITER

    def _candidates(self, x0, frame0, v_k, u_prev, warm):
        """Cheapest of the held previous input and, given a warm start,
        its plan and shifted plan, by their pass-2 costs: (U, pass 2 of
        U).  U, the point to linearize at, is the hold as held or the
        plan's projected inputs."""
        cfg = self.cfg
        U = [u_prev.u, u_prev.psi, u_prev.u_tar] * cfg.N
        best = self._pass2(U, u_prev, x0, frame0, v_k)
        if warm is not None and len(warm.u_seq) == cfg.N:
            tail = sglos(GuidanceState(*warm.x_flat[-3:]), self.path,
                         cfg.terminal_law)
            for seq in (warm.u_seq, tuple(warm.u_seq[1:]) + (tail,)):
                cand = self._pass2(flat_inputs(seq), u_prev, x0, frame0, v_k)
                if cand[2] < best[2]:
                    U, best = cand[0], cand
        return np.array(U), best

    def solve(self, x_k: GuidanceState, v_k: float, u_prev: InputCmd,
              warm: Optional[SolveResult] = None,
              timer=time.perf_counter) -> SolveResult:
        t0 = timer()
        cfg = self.cfg
        require_in_box(u_prev, cfg.constraints)
        T_m, path = cfg.T_m, self.path
        x0 = (x_k.x_e, x_k.y_e, x_k.z)
        frame0 = path_frame(path, omega_of_z(x_k.z))
        U, plan = self._candidates(x0, frame0, v_k, u_prev, warm)
        J = plan[2]
        Uref = self._reference(u_prev.psi)

        rows = self._rows
        kkt = math.inf
        iters = 0
        exact = False  # Gauss-Newton Hessian until its contraction stalls
        qp_warm = self._zero
        along = _along(U, plan)
        for it in range(1, self.max_iterations + 1):
            prev_kkt = kkt
            U_flat = U.tolist()
            X, frames, S = self._linearize(x0, U_flat, v_k, T_m, path, along)
            WS, g, shift = self._gradient(X, S, U, u_prev, Uref)
            if not all(map(math.isfinite, g.tolist())):
                # QPProblem.on_rows' refusal, as for the QP this g makes.
                raise ValueError("H and g must be finite")
            active = _active_at_zero(rows.lb - shift, rows.ub - shift)
            kkt = _stationarity_residual(g, rows.A, active)
            if kkt <= self.kkt_tol:
                break
            exact = exact or kkt > STALL_RATIO * prev_kkt
            H = self._hessian(S, WS)
            qp = QPProblem.on_rows(H, g, rows, shift)
            if exact:  # a new H, which gets every check of a new QP
                qp = qp.with_hessian(_convexified(
                    H + curvature_flat(S, X, U_flat, frames, v_k, T_m, path,
                                       self._W),
                    H, rows.A.take(active[0], axis=0)))
            qsol = solve_qp(qp, warm=qp_warm)
            qp_warm = QPSolution(self._zero.x, qsol.active_set,
                                 math.inf, 0)
            iters = it
            delta = qsol.x
            if qsol.converged and _largest(map(abs, delta.tolist())) <= 1e-12:
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
                trial = self._pass2(U_try.tolist(), u_prev, x0, frame0, v_k)
                J_try = trial[2]
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
            U, plan, J = U_try, trial, J_try
            along = _along(U, plan)
        else:
            logger.warning(
                "SQP stopped at the iteration cap (%d) with KKT residual "
                "%.3e above the tolerance %.1e", self.max_iterations, kkt,
                self.kkt_tol)

        V, X, J, _ = plan
        return SolveResult(tuple(map(InputCmd, V[::3], V[1::3], V[2::3])), X,
                           J, iters, kkt, timer() - t0)
