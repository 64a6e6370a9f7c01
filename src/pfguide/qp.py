"""Dense strictly convex QP solver with double-sided linear constraints.

Solves   min  1/2 x^T H x + g^T x   s.t.  lb <= A x <= ub

with a primal active-set method.  Problem sizes here are tiny (n <= ~30),
so H is Cholesky-factored and inverted once per solve, and H^-1 A^T and
A H^-1 A^T are formed once: each working-set change slices them into a
small Schur system.  A warm working set (warm.active_set, typically the
set the previous QP of an SQP ended on) is checked first with one KKT
solve of its equality QP.  Otherwise the start is the unconstrained
minimizer, returned as the optimum when it is feasible; then a feasible
warm point, else a Phase-1 point.  The working set stays linearly
independent, so it holds at most n rows: it starts as the independent
rows active at the start point, and the ratio test adds only a row that
blocks a step the working set leaves unchanged (a.d != 0, A_w d = 0).
After a full, unblocked step the iterate minimizes on its working set,
so the next iteration only checks the multipliers.  Ties in the ratio
test break toward the lowest constraint row, making runs reproducible.

One rule (_certified) certifies both the warm set's answer and the one
the active-set iteration stops on; converged reads its last test.

The per-row scans (the problem's bound checks, the working-set
detection, the ratio test, the tiny-step test, the multiplier check, the
violation and the KKT residual) take one tolist() of the numpy product
they need and loop over plain floats: with at most a dozen rows, numpy
temporaries cost more than the arithmetic.  Each step is the same IEEE
operation on the same operands as an array form, so the results are
bit-identical to it; the maxima keep the first of equal values, as
Python's max does, but return NaN as soon as one value is NaN, so a NaN
point never reads as feasible or converged.

Rows and columns are sliced with ndarray.take, which costs a fraction of
np.ix_ and list indexing, and every slice keeps the memory layout the
indexing form gives (HiAt[:, rows] is F-contiguous, so it is taken as
HiAt.T.take(rows, 0).T): the bits of a BLAS product depend on the layout
of its operands, since it selects the kernel and its summation order.
Products are taken with ndarray.dot, which calls the same BLAS routine
as the @ operator on these operands and returns the same bits, for about
half of matmul's per-call cost on arrays this small.

The Cholesky factor and inverse of H and the solves of _equality_qp and
_active_set call the LAPACK gufuncs behind np.linalg.cholesky, inv and
solve (numpy.linalg._umath_linalg) directly: on these small systems the
public wrappers (argument checks, type promotion, an np.errstate per
call) cost several times the factorization, and the gufuncs return the
same bits.  solve_qp enters the wrappers' error state once
(_lapack_scope), where LAPACK's failure flag raises LinAlgError; outside
it a singular system returns NaN with a RuntimeWarning.  The lstsq
fallbacks for a LinAlgError stay on the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .exceptions import Infeasible, QPFailure

# Regularization floor for H and the primal feasibility tolerance.
REG_EPS = 1e-10
FEAS_TOL = 1e-9
KKT_TOL = 1e-8

_ZERO_STEP = 1e-11
_DIR_TOL = 1e-13
_SIGN_TOL = 1e-10  # an inequality multiplier >= -_SIGN_TOL has a valid sign
_DEP_TOL = 1e-10  # relative pivot below which _active_rows drops a row

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
        if not all(map(math.isfinite, self.g.tolist())) \
                or np.count_nonzero(np.isfinite(self.H)) < self.H.size \
                or np.count_nonzero(np.isfinite(self.A)) < self.A.size:
            raise ValueError("H, g and A must be finite")
        for lo, hi in zip(self.lb.tolist(), self.ub.tolist()):
            # A NaN bound fails lo <= hi too.
            if not lo <= hi or lo == math.inf or hi == -math.inf:
                raise ValueError("need lb <= ub with lb below +inf, ub "
                                 "above -inf and no bound NaN")


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


def _lapack_failed(err, flag):
    raise LinAlgError("singular or not positive definite matrix")


def _lapack_scope() -> np.errstate:
    """The floating-point error state np.linalg enters around each gufunc:
    LAPACK's failure flag (invalid) raises LinAlgError, and overflow,
    division and underflow pass silently.  solve_qp enters it once."""
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a) for a float matrix, inside _lapack_scope."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


def _inv(a: np.ndarray) -> np.ndarray:
    """np.linalg.inv(a) for a float matrix, inside _lapack_scope."""
    return _umath_linalg.inv(a, signature="d->d")


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a float matrix and vector, inside
    _lapack_scope."""
    return _umath_linalg.solve1(a, b, signature="dd->d")


def _chol_factor(H: np.ndarray) -> np.ndarray:
    """Cholesky of H, adding REG_EPS*I whenever a pivot falls below REG_EPS;
    QPFailure when H is not positive definite even after the last bump."""
    Hr = H + H.T
    Hr *= 0.5
    for bump in (0.0, REG_EPS, 1e4 * REG_EPS, 1e8 * REG_EPS):
        try:
            Hb = Hr + bump * np.eye(Hr.shape[0]) if bump else Hr
            L = _cholesky(Hb)
            # A factor that LAPACK returns has a finite, positive diagonal.
            if bump or min(L.diagonal().tolist()) ** 2 >= REG_EPS * 0.5:
                return L
        except LinAlgError:
            continue
    raise QPFailure("Hessian not positive definite after regularization")


def _inverse(H: np.ndarray) -> np.ndarray:
    """(Regularized) H^-1 = L^-T L^-1 from one Cholesky factor."""
    Li = _inv(_chol_factor(H))
    return Li.T.dot(Li)


def _largest(values, start: float = 0.0) -> float:
    """max(start, *values) as Python's max takes it (the first of equal
    values wins, so a +0.0 start beats a -0.0), except that a NaN start or
    value is returned as the result."""
    for v in values:
        if v > start:
            start = v
        elif v != v:
            return v
    return start


def _violation(A, lb, ub, x) -> float:
    """Largest bound violation of A x, 0.0 on a feasible point and NaN when
    a residual is NaN (_largest, unrolled over both sides of each row)."""
    worst = 0.0
    for res, lo, hi in zip(A.dot(x).tolist(), lb.tolist(), ub.tolist()):
        v = res - hi
        if v > worst:
            worst = v
        elif v != v:
            return v
        v = lo - res
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def _multipliers(work, mu) -> dict:
    """Multipliers by (row, side) from the Schur solution of
    grad + Aw^T mu = 0: an upper bound keeps mu and a lower bound flips its
    sign, so both read >= 0 at an optimum; equality rows keep mu."""
    return {(row, side): mu_k if side >= 0 else -mu_k
            for (row, side), mu_k in zip(work, mu.tolist())}


def _kkt_residual(H, g, A, lb, ub, x, mult, violation=None) -> float:
    """KKT residual; stationarity and complementarity are scaled by
    max(1, |g|_inf) so badly scaled Hessians stay certifiable.
    violation, when given, is the caller's _violation at x."""
    grad = H.dot(x) + g
    scale = _largest(map(abs, g.tolist()), 1.0)
    r = _violation(A, lb, ub, x) if violation is None else violation
    if mult:
        rows = [row for row, _ in mult]
        # Stationarity: grad + sum(lam_ub * a) - sum(lam_lb * a) = 0, lam >= 0.
        Aw = A.take(rows, 0)
        grad = grad + np.array([lam if side >= 0 else -lam
                                for (_, side), lam in mult.items()]).dot(Aw)
        terms = []  # sign and complementarity of the inequality rows
        for ((row, side), lam), res in zip(mult.items(), Aw.dot(x).tolist()):
            if side:  # equality multipliers are sign-free
                slack = ub.item(row) - res if side > 0 else res - lb.item(row)
                terms += (-lam, abs(lam * slack))
        r = _largest((_largest(terms) / scale,), r)  # max(r, ...) or NaN
    return _largest((_largest(map(abs, grad.tolist())) / scale,), r)


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
        Aw = A.take([row for row, _ in work], 0)
        KKT[:n, n:] = Aw.T
        KKT[n:, :n] = Aw
        lo, hi = lb.tolist(), ub.tolist()
        rhs[n:] = [hi[row] if side >= 0 else lo[row] for row, side in work]
    try:
        sol = _solve(KKT, rhs)
        sol += _solve(KKT, rhs - KKT.dot(sol))
    except LinAlgError:
        return None
    return sol[:n], sol[n:]


def _usable_warm_set(g, lb, ub, work) -> bool:
    """Whether this QP can work on a working set handed in from outside:
    at most n rows, none repeated or out of range, and each on a side its
    row has (0 only on an equality row, +-1 only on a finite inequality
    bound)."""
    m = lb.shape[0]
    if len(work) > g.shape[0] or len({row for row, _ in work}) < len(work):
        return False
    lo, hi = lb.tolist(), ub.tolist()
    return all(0 <= row < m and (side == 0) == (lo[row] == hi[row])
               and math.isfinite(hi[row] if side >= 0 else lo[row])
               for row, side in work)


def _certified(H, g, A, lb, ub, work, iterations) -> Optional[QPSolution]:
    """The equality-QP point of the working set work with its own
    multipliers, when it satisfies the KKT conditions (primal feasible,
    inequality multipliers >= -_SIGN_TOL, KKT residual <= KKT_TOL): the
    optimum.  Else None.  The one certificate of an optimum, for a warm
    set and for the active-set iteration's stationary exit alike."""
    sol = _equality_qp(H, g, A, lb, ub, work)
    if sol is None:
        return None
    x, mu = sol
    violation = _violation(A, lb, ub, x)
    mult = _multipliers(work, mu)
    if not violation <= FEAS_TOL or any(
            side != 0 and not lam >= -_SIGN_TOL
            for (_, side), lam in mult.items()):
        return None
    kkt = _kkt_residual(H, g, A, lb, ub, x, mult, violation)
    return QPSolution(x, tuple(work), kkt, iterations, mult) \
        if kkt <= KKT_TOL else None


def _active_rows(A, lb, ub, x) -> list:
    """Linearly independent working set of the rows active at x, in row
    order: equality rows, then rows at their upper, else lower bound.
    Equality rows are decided first, then the others in row order; each is
    kept when independent of the rows kept before it (_DEP_TOL): its pivot
    in a greedy elimination of their Gram block is its squared distance
    from their span."""
    eq, ineq = [], []
    for i, (res, lo, hi) in enumerate(zip(A.dot(x).tolist(), lb.tolist(),
                                          ub.tolist())):
        if lo == hi:
            eq.append((i, 0))
        elif res >= hi - FEAS_TOL and math.isfinite(hi):
            ineq.append((i, 1))
        elif res <= lo + FEAS_TOL and math.isfinite(lo):
            ineq.append((i, -1))
    rows = eq + ineq
    Ac = A.take([row for row, _ in rows], 0)
    G = Ac.dot(Ac.T).tolist()  # reduced in place by each kept row
    norms = [Gk[k] for k, Gk in enumerate(G)]
    work = []
    for k, Gk in enumerate(G):
        if Gk[k] > _DEP_TOL * norms[k]:
            work.append(rows[k])
            for Gi in G[k + 1:]:
                f = Gi[k] / Gk[k]
                if f:  # rows orthogonal to row k skip the update
                    for j in range(k + 1, len(Gi)):
                        Gi[j] -= f * Gk[j]
    return sorted(work)


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
    for i, (ad, res) in enumerate(zip(A.dot(d).tolist(), A.dot(x).tolist())):
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


def _active_set(H, Hinv, g, A, lb, ub, x0) -> QPSolution:
    """Primal active-set iteration from a feasible start x0, with Hinv the
    (regularized) inverse of H (Nocedal & Wright, Alg. 16.3).

    The working set starts as _active_rows at x0 and gains only blocking
    rows, so it stays linearly independent.  A full, unblocked step lands
    on the working-set minimizer, whose multipliers are that step's Schur
    mu, so the next iteration only checks them: a fresh solve there
    returns just a rounding-noise step (1e-11 to 4e-9 relative), too
    large for the tiny-step test below.

    The stationary exit (no inequality multiplier below -_SIGN_TOL)
    returns _certified on the final working set, else the iterate with its
    Schur multipliers (computed through Hinv).
    """
    n = g.shape[0]
    m = lb.shape[0]
    x = np.array(x0, dtype=float)
    # Every Schur system is a slice of these two products.
    HiAt = Hinv.dot(A.T)
    AHiAt = A.dot(HiAt)

    # Warm sets are re-detected from the point itself, which keeps the set
    # consistent after bound changes.
    work = _active_rows(A, lb, ub, x)
    at_minimizer = False  # the last step was full and unblocked
    for it in range(1, 50 * (m + 1) + 1):
        grad = H.dot(x) + g
        rows = [rs[0] for rs in work]
        mu_work = list(work)  # the working set that mu belongs to
        if at_minimizer:  # mu are already the multipliers at x
            d = np.zeros(n)
        elif len(work) == n:
            # Full square working set: the equality step is identically
            # zero and the multipliers come from stationarity directly.
            Aw = A.take(rows, 0)
            try:
                mu = -_solve(Aw.T, grad)
            except LinAlgError:
                mu, *_ = np.linalg.lstsq(Aw.T, -grad, rcond=None)
            d = np.zeros(n)
        elif work:
            Hin_g = Hinv.dot(grad)
            Hin_At = HiAt.T.take(rows, 0).T  # F-contiguous, as HiAt[:, rows]
            S = AHiAt.take(rows, 0).take(rows, 1)
            rhs = -A.take(rows, 0).dot(Hin_g)
            try:
                mu = _solve(S, rhs)
                mu += _solve(S, rhs - S.dot(mu))
            except LinAlgError:
                mu, *_ = np.linalg.lstsq(S, rhs, rcond=None)
            d = -Hin_g - Hin_At.dot(mu)
        else:
            mu = np.zeros(0)
            d = -Hinv.dot(grad)

        # A noisy working set yields phantom steps that do not move the
        # objective; treat those like a stationary point too.
        tiny = _ZERO_STEP * (1.0 + max(map(abs, x.tolist()), default=0.0))
        if all(abs(d_i) <= tiny for d_i in d.tolist()):
            # Stationary on the working set; check multiplier signs and drop
            # the most negative inequality multiplier (lowest row on ties).
            at_minimizer = False
            mult = _multipliers(work, mu)
            worst = None
            worst_val = -_SIGN_TOL
            for k, ((row, side), lam) in enumerate(mult.items()):
                if side != 0 and (lam < worst_val
                                  or (worst is not None and lam == worst_val
                                      and row < work[worst][0])):
                    worst_val = lam
                    worst = k
            if worst is None:
                return _certified(H, g, A, lb, ub, work, it) \
                    or QPSolution(x, tuple(work), _kkt_residual(
                        H, g, A, lb, ub, x, mult), it, mult)
            del work[worst]
            continue

        alpha, blocker = _ratio_test(A, lb, ub, x, d, rows)
        x = x + alpha * d
        if blocker is None:
            at_minimizer = True
        else:
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


def solve_qp(prob: QPProblem, warm: Optional[QPSolution] = None) -> QPSolution:
    """Minimize over the polytope; deterministic for fixed inputs.

    A non-empty warm.active_set that this QP can work on is tried first:
    the equality QP on that working set is solved once, and its point is
    returned with one iteration when _certified accepts it.
    Otherwise H is factored and inverted once.  The unconstrained minimizer
    (with one refinement step) is returned at once, with zero iterations,
    when it is feasible: it is then the optimum.  Otherwise the active-set
    iteration starts from warm.x if that is feasible, else from a Phase-1
    point, and its answer passes the same certificate.  converged means
    that the certificate passed (KKT residual <= KKT_TOL); else the result
    is the best feasible iterate with its larger residual.  Raises
    Infeasible when no point satisfies the constraints.
    """
    H, g, A, lb, ub = prob.H, prob.g, prob.A, prob.lb, prob.ub
    n = g.shape[0]
    with _lapack_scope():
        if warm is not None and warm.active_set \
                and _usable_warm_set(g, lb, ub, warm.active_set):
            sol = _certified(H, g, A, lb, ub, warm.active_set, 1)
            if sol is not None:
                return sol
        Hinv = _inverse(H)
        ng = -g  # Hinv.dot(-g) is -Hinv.dot(g) bit for bit
        x = Hinv.dot(ng)
        x += Hinv.dot(ng - H.dot(x))
        violation = _violation(A, lb, ub, x)
        if violation <= FEAS_TOL:
            return QPSolution(
                x, (), _kkt_residual(H, g, A, lb, ub, x, {}, violation), 0)
        if (warm is not None and warm.x.shape == (n,)
                and _violation(A, lb, ub, warm.x) <= FEAS_TOL):
            x = np.array(warm.x, dtype=float)
        else:
            x = _phase1(A, lb, ub, x)
        return _active_set(H, Hinv, g, A, lb, ub, x)
