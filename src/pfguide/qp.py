"""Dense strictly convex QP solver with double-sided linear constraints.

Solves   min  1/2 x^T H x + g^T x   s.t.  lb <= A x <= ub

with a primal active-set method.  Problem sizes here are tiny (n <= ~30),
so H is Cholesky-factored and inverted once per solve, and H^-1 A^T and
A H^-1 A^T are formed once: each working-set change slices them into a
small Schur system.  A warm working set (warm.active_set, typically the
set the previous QP of an SQP ended on) is checked first with one KKT
solve of its equality QP, and that point is returned when it satisfies the
KKT conditions.  Otherwise the start is the unconstrained minimizer,
returned as the optimum when it is feasible; then a feasible warm point,
else a Phase-1 point.  After a full, unblocked step the iterate minimizes
on its working set, so the next iteration only checks the multipliers.
Ties in the ratio test break toward the lowest constraint row, making
runs reproducible.

The per-row scans (the working-set detection, the ratio test, the
tiny-step test, the multiplier check and the KKT residual) take one
tolist() of the numpy product they need and loop over plain floats: with
at most a dozen rows, numpy temporaries cost more than the arithmetic.
Each step is the same IEEE operation on the same operands as an array
form, so the results are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError

from .exceptions import Infeasible

# Regularization floor for H and the primal feasibility tolerance.
REG_EPS = 1e-10
FEAS_TOL = 1e-9
KKT_TOL = 1e-8

_ZERO_STEP = 1e-11
_DIR_TOL = 1e-13

# Active-set entries are (row, side): side +1 at the upper bound, -1 at the
# lower bound, 0 for an equality row (lb == ub).
Active = Tuple[Tuple[int, int], ...]


@dataclass
class QPProblem:
    H: np.ndarray   # (n, n) symmetric positive definite (after regularization)
    g: np.ndarray   # (n,)
    A: np.ndarray   # (m, n)
    lb: np.ndarray  # (m,) entries may be -inf, never NaN or +inf
    ub: np.ndarray  # (m,) entries may be +inf, never NaN or -inf

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        n = self.g.shape[0]
        m = self.lb.shape[0]
        if self.H.shape != (n, n):
            raise ValueError(f"H must be ({n},{n}), got {self.H.shape}")
        if self.A.shape != (m, n):
            raise ValueError(f"A must be ({m},{n}), got {self.A.shape}")
        if self.ub.shape != (m,):
            raise ValueError("lb and ub must have matching shapes")
        if not (self.lb <= self.ub).all():  # a NaN bound fails it too
            raise ValueError("lb must not exceed ub, and no bound may be NaN")
        if self.lb.max(initial=-np.inf) == np.inf \
                or self.ub.min(initial=np.inf) == -np.inf:
            raise ValueError("lb must be below +inf and ub above -inf")


@dataclass
class QPSolution:
    x: np.ndarray
    active_set: Active
    kkt_residual: float
    iterations: int
    multipliers: dict = field(default_factory=dict)  # (row, side) -> value

    @property
    def converged(self) -> bool:
        return self.kkt_residual <= KKT_TOL


def _chol_factor(H: np.ndarray) -> np.ndarray:
    """Cholesky of H, adding REG_EPS*I whenever a pivot falls below REG_EPS."""
    Hr = 0.5 * (H + H.T)
    for bump in (0.0, REG_EPS, 1e4 * REG_EPS, 1e8 * REG_EPS):
        try:
            Hb = Hr + bump * np.eye(Hr.shape[0]) if bump else Hr
            L = np.linalg.cholesky(Hb)
            if L.diagonal().min() ** 2 >= REG_EPS * 0.5 or bump:
                return L
        except LinAlgError:
            continue
    raise LinAlgError("Hessian not positive definite after regularization")


def _inverse(H: np.ndarray) -> np.ndarray:
    """(Regularized) H^-1 = L^-T L^-1 from one Cholesky factor."""
    Li = np.linalg.inv(_chol_factor(H))
    return Li.T @ Li


def _violation(A, lb, ub, x) -> float:
    r = A @ x
    return float(max((r - ub).max(initial=0.0), (lb - r).max(initial=0.0)))


def _grad_scale(g) -> float:
    """Scale of the stationarity and complementarity tests: max(1, |g|_inf)."""
    return max(1.0, max(map(abs, g.tolist()), default=0.0))


def _multipliers(work, mu) -> dict:
    """Multipliers by (row, side) from the Schur solution of
    grad + Aw^T mu = 0: an upper bound keeps mu and a lower bound flips its
    sign, so both read >= 0 at an optimum; equality rows keep mu."""
    return {(row, side): mu_k if side >= 0 else -mu_k
            for (row, side), mu_k in zip(work, mu.tolist())}


def _kkt_residual(H, g, A, lb, ub, x, mult, violation=None) -> float:
    """KKT residual; stationarity and complementarity are scaled by the
    gradient magnitude so badly scaled Hessians stay certifiable.
    violation, when given, is the caller's _violation at x."""
    grad = H @ x + g
    scale = _grad_scale(g)
    r = _violation(A, lb, ub, x) if violation is None else violation
    if mult:
        rows = [row for row, _ in mult]
        # Stationarity: grad + sum(lam_ub * a) - sum(lam_lb * a) = 0, lam >= 0.
        Aw = A[rows]
        grad = grad + np.array([lam if side >= 0 else -lam
                                for (_, side), lam in mult.items()]) @ Aw
        worst = 0.0  # sign and complementarity of the inequality rows
        for ((row, side), lam), res in zip(mult.items(), (Aw @ x).tolist()):
            if side:  # equality multipliers are sign-free
                slack = ub.item(row) - res if side > 0 else res - lb.item(row)
                worst = max(worst, -lam, abs(lam * slack))
        r = max(r, worst / scale)
    return max(r, max(map(abs, grad.tolist())) / scale)


def _equality_qp(H, g, A, lb, ub, work):
    """Minimizer of the QP with the rows of work held at their bounds, and
    its multipliers mu (grad + Aw^T mu = 0, as in the Schur solves), from
    one KKT solve with one round of iterative refinement; None when the
    system is singular."""
    n = g.shape[0]
    k = len(work)
    KKT = np.zeros((n + k, n + k))
    KKT[:n, :n] = H
    rhs = np.empty(n + k)
    rhs[:n] = -g
    if k:
        rows = [rs[0] for rs in work]
        Aw = A[rows]
        KKT[:n, n:] = Aw.T
        KKT[n:, :n] = Aw
        rhs[n:] = [ub[r] if s >= 0 else lb[r] for r, s in work]
    try:
        sol = np.linalg.solve(KKT, rhs)
        sol += np.linalg.solve(KKT, rhs - KKT @ sol)
    except LinAlgError:
        return None
    return sol[:n], sol[n:]


def _warm_set_optimum(H, g, A, lb, ub, work) -> Optional[QPSolution]:
    """The equality-QP point of the working set work, with one iteration,
    when it satisfies the KKT conditions (primal feasible, inequality
    multipliers >= -1e-10, KKT residual <= KKT_TOL), which makes it the
    optimum; else None.  A set this QP cannot work on misses at once: more
    than n rows, a repeated or out-of-range row, or a side the row lacks
    (0 only on an equality row, +-1 only on a finite inequality bound)."""
    m = lb.shape[0]
    if len(work) > g.shape[0] or len({row for row, _ in work}) < len(work):
        return None
    for row, side in work:
        if not 0 <= row < m or (side == 0) != (lb[row] == ub[row]) \
                or not np.isfinite(ub[row] if side >= 0 else lb[row]):
            return None
    sol = _equality_qp(H, g, A, lb, ub, work)
    if sol is None:
        return None
    x, mu = sol
    violation = _violation(A, lb, ub, x)
    mult = _multipliers(work, mu)
    if not violation <= FEAS_TOL or any(
            side != 0 and not lam >= -1e-10
            for (_, side), lam in mult.items()):
        return None
    kkt = _kkt_residual(H, g, A, lb, ub, x, mult, violation)
    return QPSolution(x, tuple(work), kkt, 1, mult) if kkt <= KKT_TOL \
        else None


def _active_rows(A, lb, ub, x, n) -> list:
    """Working set of the rows active at x, at most n of them, in row
    order: equality rows, then rows at their upper, else lower bound."""
    work = []
    for i, (res, lo, hi) in enumerate(zip((A @ x).tolist(), lb.tolist(),
                                          ub.tolist())):
        if lo == hi:
            work.append((i, 0))
        elif res >= hi - FEAS_TOL and math.isfinite(hi):
            work.append((i, 1))
        elif res <= lo + FEAS_TOL and math.isfinite(lo):
            work.append((i, -1))
        else:
            continue
        if len(work) == n:
            break
    return work


def _ratio_test(A, lb, ub, x, d, rows) -> Tuple[float, Optional[tuple]]:
    """Longest step alpha <= 1 along d that keeps x feasible, and the
    (row, side) that blocks it (None for the full step); rows in the
    working set are skipped.

    Each row's step is to the bound it moves toward: infinite for an
    infinite bound or a row d leaves parallel.  Rows that can block are
    scanned in ascending order, so ties break toward the lowest row.
    """
    alpha = 1.0
    blocker = None
    for i, (ad, res) in enumerate(zip((A @ d).tolist(), (A @ x).tolist())):
        if ad > _DIR_TOL:
            step, side = (ub.item(i) - res) / ad, 1
        elif ad < -_DIR_TOL:
            step, side = (lb.item(i) - res) / ad, -1
        else:
            continue
        if step < alpha - 1e-15 and i not in rows:
            alpha = max(step, 0.0)
            blocker = (i, side)
    return alpha, blocker


def _active_set(H, Hinv, g, A, lb, ub, x0, objective_trace=None) -> QPSolution:
    """Primal active-set iteration from a feasible start x0, with Hinv the
    (regularized) inverse of H (Nocedal & Wright, Alg. 16.3).

    A full, unblocked step lands on the working-set minimizer, whose
    multipliers are that step's Schur mu, so the next iteration only checks
    them: a fresh solve there returns just a rounding-noise step (1e-11 to
    4e-9 relative), too large for the tiny-step test below.

    objective_trace, when given, collects the objective value after every
    step (debug hook for the monotone-descent invariant).
    """
    n = g.shape[0]
    m = lb.shape[0]
    x = np.array(x0, dtype=float)
    # Every Schur system is a slice of these two products.
    HiAt = Hinv @ A.T
    AHiAt = A @ HiAt

    # Warm sets are re-detected from the point itself, which keeps the set
    # consistent after bound changes.
    work = _active_rows(A, lb, ub, x, n)
    scale = _grad_scale(g)
    at_minimizer = False  # the last step was full and unblocked
    for it in range(1, 50 * (m + 1) + 1):
        grad = H @ x + g
        rows = [rs[0] for rs in work]
        mu_work = list(work)  # the working set that mu belongs to
        if at_minimizer:  # mu are already the multipliers at x
            d = np.zeros(n)
        elif len(work) == n:
            # Full square working set: the equality step is identically
            # zero and the multipliers come from stationarity directly.
            Aw = A[rows]
            try:
                mu = -np.linalg.solve(Aw.T, grad)
            except LinAlgError:
                mu, *_ = np.linalg.lstsq(Aw.T, -grad, rcond=None)
            d = np.zeros(n)
        elif work:
            Hin_g = Hinv @ grad
            Hin_At = HiAt[:, rows]
            S = AHiAt[np.ix_(rows, rows)]
            rhs = -(A[rows] @ Hin_g)
            try:
                mu = np.linalg.solve(S, rhs)
                mu += np.linalg.solve(S, rhs - S @ mu)
            except LinAlgError:
                mu, *_ = np.linalg.lstsq(S, rhs, rcond=None)
            d = -Hin_g - Hin_At @ mu
        else:
            mu = np.zeros(0)
            d = -(Hinv @ grad)

        # A dependent or noisy working set yields phantom steps that do not
        # move the objective; treat those like a stationary point too.
        tiny = _ZERO_STEP * (1.0 + max(map(abs, x.tolist()), default=0.0))
        if all(abs(d_i) <= tiny for d_i in d.tolist()):
            # Stationary on the working set; check multiplier signs and drop
            # the most negative inequality multiplier (lowest row on ties).
            at_minimizer = False
            mult = _multipliers(work, mu)
            worst = None
            worst_val = -1e-10
            for k, ((row, side), lam) in enumerate(mult.items()):
                if side != 0 and (lam < worst_val
                                  or (worst is not None and lam == worst_val
                                      and row < work[worst][0])):
                    worst_val = lam
                    worst = k
            if worst is None:
                # Guard against sign-valid garbage multipliers from a
                # dependent working set: require genuine stationarity.
                stat = (grad + mu @ A[rows]).tolist()
                if all(abs(s_i) <= 1e-6 * scale for s_i in stat):
                    # Polish: re-solve the working set's KKT system and
                    # adopt the result only if it stays feasible.
                    sol = _equality_qp(H, g, A, lb, ub, work)
                    violation = None  # at x, when the polish sets it
                    if sol is not None:
                        v = _violation(A, lb, ub, sol[0])
                        if v <= FEAS_TOL:
                            x, violation = sol[0], v
                    kkt = _kkt_residual(H, g, A, lb, ub, x, mult, violation)
                    return QPSolution(x, tuple(work), kkt, it, mult)
                # Dependent set: discard the lowest-index inequality row.
                for k, (_, side) in enumerate(work):
                    if side != 0:
                        del work[k]
                        break
                else:
                    break
                continue
            del work[worst]
            continue

        alpha, blocker = _ratio_test(A, lb, ub, x, d, rows)
        x = x + alpha * d
        if objective_trace is not None:
            objective_trace.append(0.5 * float(x @ H @ x) + float(g @ x))
        if blocker is None:
            at_minimizer = True
        elif len(work) < n:
            work.append(blocker)

    mult = _multipliers(mu_work, mu)
    return QPSolution(x, tuple(work),
                      _kkt_residual(H, g, A, lb, ub, x, mult), it, mult)


def _phase1(A, lb, ub, x0) -> np.ndarray:
    """Feasible point via the single-artificial-variable auxiliary QP.

    Relaxes every finite bound by t >= 0 and minimizes t (plus a small
    regularizer on x); (x0, violation+1) is feasible by construction, so
    the auxiliary problem needs no phase 1 of its own.
    """
    n = A.shape[1]
    rows = []
    lbs = []
    ubs = []
    inf = np.inf
    for i in range(A.shape[0]):
        if np.isfinite(ub[i]):
            rows.append(np.append(A[i], -1.0))
            lbs.append(-inf)
            ubs.append(ub[i])
        if np.isfinite(lb[i]):
            rows.append(np.append(A[i], 1.0))
            lbs.append(lb[i])
            ubs.append(inf)
    t_row = np.zeros(n + 1)
    t_row[-1] = 1.0
    rows.append(t_row)
    lbs.append(0.0)
    ubs.append(inf)
    Aa = np.vstack(rows)
    Ha = np.diag(np.append(np.full(n, 1e-4), 1.0))
    ga = np.zeros(n + 1)
    ga[-1] = 1.0
    y0 = np.append(x0, _violation(A, lb, ub, x0) + 1.0)
    sol = _active_set(Ha, _inverse(Ha), ga, Aa, np.asarray(lbs),
                      np.asarray(ubs), y0)
    t = float(sol.x[-1])
    if t > 1e2 * FEAS_TOL:
        raise Infeasible(f"no feasible point (best bound relaxation {t:.3e})")
    return sol.x[:n]


def solve_qp(prob: QPProblem, warm: Optional[QPSolution] = None,
             objective_trace: Optional[list] = None) -> QPSolution:
    """Minimize over the polytope; deterministic for fixed inputs.

    A non-empty warm.active_set is tried first: the equality QP on that
    working set is solved once, and its point is returned with one
    iteration when it satisfies the KKT conditions (then it is the
    optimum).  Otherwise H is factored and inverted once.  The
    unconstrained minimizer (with one refinement step) is returned at once,
    with zero iterations, when it is feasible: it is then the optimum.
    Otherwise the active-set iteration starts from warm.x if that is
    feasible, else from a Phase-1 point.  Returns the optimum with KKT
    residual <= 1e-8, or the best feasible iterate with a larger reported
    residual when the iteration cap is hit.  Raises Infeasible when no
    point satisfies the constraints.  objective_trace, when given, records
    the per-iteration objective.
    """
    H, g, A, lb, ub = prob.H, prob.g, prob.A, prob.lb, prob.ub
    n = g.shape[0]
    if warm is not None and warm.active_set:
        sol = _warm_set_optimum(H, g, A, lb, ub, warm.active_set)
        if sol is not None:
            return sol
    Hinv = _inverse(H)
    x = -(Hinv @ g)
    x += Hinv @ (-g - H @ x)
    violation = _violation(A, lb, ub, x)
    if violation <= FEAS_TOL:
        return QPSolution(
            x, (), _kkt_residual(H, g, A, lb, ub, x, {}, violation), 0)
    if (warm is not None and warm.x.shape == (n,)
            and _violation(A, lb, ub, warm.x) <= FEAS_TOL):
        x = np.array(warm.x, dtype=float)
    else:
        x = _phase1(A, lb, ub, x)
    return _active_set(H, Hinv, g, A, lb, ub, x, objective_trace)
