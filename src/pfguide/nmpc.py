"""Nonlinear receding-horizon guidance: cost, terminal synthesis, SQP solve.

The optimization minimizes

    J_N = sum_{j=0}^{N-1} l(x_hat(j), u(j)) + lambda * V_f(x_hat(N))

over input sequences subject to the box set U and the rate set U_g, with
the prediction chained through the forward-Euler model and the sway held
at its last measured value.  The terminal weight P comes from a discrete
Lyapunov equation around a far-along-the-path equilibrium, closed with the
SGLOS law as terminal controller.

The solver is an SQP: each major iteration linearizes the prediction with
the exact sensitivities from the pnmpc module, solves one strictly convex
QP for the step, and backtracks on the true nonlinear cost.  The constant
hold of the previous input is always feasible, so a feasible incumbent
exists from the start and only improves.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .angles import wrap_angle
from .errdyn import GuidanceState, InputCmd, euler_step, rollout, rollout_flat
from .exceptions import TerminalWeightUnset, UnstableTerminalLoop
from .los import SGLOSParams, require_in_box, sglos
from .los import InputConstraints
from .paths import PathDef, omega_of_z, sample_path
from .pnmpc import (SolveResult, cost_weights, horizon_cost,
                    horizon_cost_flat, horizon_weights, reference_stack,
                    sensitivity_flat, snap_feasible, stack_inputs)
from .qp import QPProblem, QPSolution, solve_qp

logger = logging.getLogger(__name__)

KKT_TOL = 1e-6
MAX_MAJOR_ITER = 30

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

    def with_terminal(self, P: np.ndarray) -> "NMPCConfig":
        return replace(self, P=P)


def stage_cost(x: GuidanceState, u: InputCmd, cfg: NMPCConfig) -> float:
    """x'Qx + (u - u_ref)'R(u - u_ref), heading deviation wrapped."""
    du = u.u - cfg.u_ref.u
    dpsi = wrap_angle(u.psi - cfg.u_ref.psi)
    dtar = u.u_tar - cfg.u_ref.u_tar
    return (cfg.Q[0] * x.x_e * x.x_e + cfg.Q[1] * x.y_e * x.y_e
            + cfg.Q[2] * x.z * x.z
            + cfg.R[0] * du * du + cfg.R[1] * dpsi * dpsi
            + cfg.R[2] * dtar * dtar)


def terminal_cost(x: GuidanceState, cfg: NMPCConfig) -> float:
    """x'Px, nonnegative and zero only at the origin."""
    P = cfg.terminal_weight()
    v = np.array([x.x_e, x.y_e, x.z])
    return float(v @ P @ v)


def predict(x0: GuidanceState, u_seq: Sequence[InputCmd], v_held: float,
            cfg: NMPCConfig, path: PathDef) -> List[GuidanceState]:
    """N+1 predicted states under the held sway value."""
    if len(u_seq) != cfg.N:
        raise ValueError(f"expected {cfg.N} inputs, got {len(u_seq)}")
    return rollout(x0, u_seq, v_held, cfg.T_m, path)


def discrete_lyapunov(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve A' P A - P = -S for P via the Kronecker linear system."""
    A = np.asarray(A, dtype=float)
    S = np.asarray(S, dtype=float)
    n = A.shape[0]
    M = np.kron(A.T, A.T) - np.eye(n * n)
    P = np.linalg.solve(M, -S.reshape(n * n)).reshape(n, n)
    return 0.5 * (P + P.T)


def terminal_control(x: GuidanceState, path: PathDef,
                     p: SGLOSParams) -> InputCmd:
    """Terminal controller: the SGLOS law with its own commanded surge."""
    return sglos(x, path, p)


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
    return cfg.with_terminal(synthesize_terminal_weight(path, cfg, p))


@lru_cache(maxsize=8)
def _sqp_rows(N: int) -> Tuple[np.ndarray, tuple]:
    """Constraint rows for the absolute per-step perturbation vector."""
    rows = []
    tags = []
    for j in range(N):
        for comp in (0, 1):  # rate on u and psi
            e = np.zeros(3 * N)
            e[3 * j + comp] = 1.0
            if j > 0:
                e[3 * (j - 1) + comp] = -1.0
            rows.append(e)
            tags.append(("rate", j, comp))
        for comp in (0, 2):  # box on u and u_tar
            e = np.zeros(3 * N)
            e[3 * j + comp] = 1.0
            rows.append(e)
            tags.append(("box", j, comp))
    return np.vstack(rows), tuple(tags)


def _stationarity_residual(g: np.ndarray, A_rows: np.ndarray,
                           lb: np.ndarray, ub: np.ndarray) -> float:
    """KKT stationarity residual at the current point (decision = 0).

    Uses a least-squares multiplier fit over the active rows with wrong
    signs clipped, so a small value certifies a genuine KKT point.
    """
    act_tol = 1e-9
    cols = []
    for i in range(lb.shape[0]):
        if ub[i] <= act_tol:
            cols.append(-A_rows[i])
        if lb[i] >= -act_tol:
            cols.append(A_rows[i])
    if not cols:
        return float(np.max(np.abs(g), initial=0.0))
    C = np.stack(cols, axis=1)
    lam, *_ = np.linalg.lstsq(C, g, rcond=None)
    lam = np.maximum(lam, 0.0)
    return float(np.max(np.abs(g - C @ lam), initial=0.0))


class NMPCSolver:
    """SQP nonlinear solver; owns warm-start and scratch data.

    Not safe for concurrent use from several threads; distinct instances
    may run in parallel.
    """

    def __init__(self, cfg: NMPCConfig, path: PathDef,
                 kkt_tol: float = KKT_TOL, max_iterations: int = MAX_MAJOR_ITER):
        cfg.terminal_weight()  # fail fast when unset
        self.cfg = cfg
        self.path = path
        self.kkt_tol = kkt_tol
        self.max_iterations = max_iterations
        self._A_rows, self._tags = _sqp_rows(cfg.N)
        self._W, self._r_vec = horizon_weights(cfg)
        self._zero_warm = QPSolution(np.zeros(3 * cfg.N), (), math.inf, 0)
        self._weights = cost_weights(cfg)

    def _bounds(self, U: np.ndarray, u_prev: InputCmd):
        c = self.cfg.constraints
        m = len(self._tags)
        lb = np.empty(m)
        ub = np.empty(m)
        for i, (kind, j, comp) in enumerate(self._tags):
            idx = 3 * j + comp
            if kind == "rate":
                half = c.du_max if comp == 0 else c.dpsi_max
                prev = (u_prev.u if comp == 0 else u_prev.psi) if j == 0 \
                    else U[3 * (j - 1) + comp]
                cur = U[idx] - prev
                lb[i], ub[i] = -half - cur, half - cur
            else:
                lo = 0.0 if comp == 0 else c.eps
                hi = c.u_max if comp == 0 else c.u_tar_max
                lb[i], ub[i] = lo - U[idx], hi - U[idx]
        return lb, ub

    def _candidates(self, x0, v_k, u_prev, warm):
        """Best of the held previous input and, given a warm start, its
        sequence and its shifted sequence: (U, states, frames, cost)."""
        cfg = self.cfg
        cands = [stack_inputs([u_prev] * cfg.N)]
        if warm is not None and len(warm.u_seq) == cfg.N:
            cands.append(stack_inputs(snap_feasible(
                stack_inputs(warm.u_seq), u_prev, cfg.constraints)))
            tail = terminal_control(warm.x_pred[-1], self.path,
                                    cfg.terminal_law)
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
        eye = np.eye(3 * cfg.N)
        for it in range(1, self.max_iterations + 1):
            S = sensitivity_flat(X, U.tolist(), frames, v_k, cfg.T_m,
                                 self.path)
            X0 = np.array(X[3:])
            WS = self._W @ S
            H = 2.0 * (S.T @ WS + np.diag(self._r_vec))
            H = 0.5 * (H + H.T)
            g = 2.0 * (WS.T @ X0 + self._r_vec * (U - Uref))
            lb, ub = self._bounds(U, u_prev)
            kkt = _stationarity_residual(g, self._A_rows, lb, ub)
            if kkt <= self.kkt_tol:
                break
            scale = float(np.trace(H)) / H.shape[0]
            qsol = solve_qp(QPProblem(H + mu * scale * eye, g,
                                      self._A_rows, lb, ub),
                            warm=self._zero_warm)
            iters = it
            delta = qsol.x
            if qsol.converged and \
                    float(np.max(np.abs(delta), initial=0.0)) <= 1e-12:
                break
            gd = float(g @ delta)
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
                u_flat = U_try.tolist()
                X_try, frames_try = rollout_flat(x0, u_flat, v_k, cfg.T_m,
                                                 self.path)
                J_try = horizon_cost_flat(X_try, u_flat, self._weights)
                if J_try <= J + 1e-4 * alpha * gd:
                    accepted = True
                    break
                alpha *= 0.5
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

        u_seq = snap_feasible(U, u_prev, cfg.constraints)
        x_pred = rollout(x_k, u_seq, v_k, cfg.T_m, self.path)
        J_opt = horizon_cost(x_k, x_pred, u_seq, cfg)
        return SolveResult(u_seq, tuple(x_pred), J_opt, iters, kkt,
                           timer() - t0)


def solve(x_k: GuidanceState, v_k: float, u_prev: InputCmd,
          warm: Optional[SolveResult], cfg: NMPCConfig,
          path: PathDef) -> SolveResult:
    """One-shot convenience wrapper around NMPCSolver."""
    return NMPCSolver(cfg, path).solve(x_k, v_k, u_prev, warm)
