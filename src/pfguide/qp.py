"""Dense strictly convex QP solver with double-sided linear constraints.

Solves   min  1/2 x^T H x + g^T x   s.t.  lb <= A x <= ub

with a primal active-set method.  Problems here are tiny (n <= ~30), so H
is factored and inverted once per solve, and H^-1 A^T and A H^-1 A^T are
formed once: each working-set change slices them into a small Schur
system.  A warm working set (warm.active_set, typically the set the
previous QP of an SQP ended on) is checked first with one KKT solve of
its equality QP.  Otherwise the start is the unconstrained minimizer,
returned as the optimum when it is feasible; then a feasible warm point,
else a Phase-1 point.  The working set stays linearly independent to
_DEP_TOL in floating point too, so it holds at most n rows: it starts as
the independent rows active at the start, and the ratio test skips a
blocking row in its span, which blocks on rounding alone.  After a full,
unblocked step the iterate minimizes on its working set, so the next
iteration only checks the multipliers.  Ratio-test ties break toward the
lowest row.

One rule (_certified) certifies both the warm set's answer and the one
the active-set iteration stops on; converged reads its last test.  A
singular system makes a warm set miss, and it ends the active-set
iteration as the iteration cap does, unconverged as a rule.

A QPProblem built from arrays checks every field; it refuses an H that
is not symmetric to rounding, as the solver factors its symmetric part
while the certificate's gradient reads H itself.  Rows that many QPs
share are a QPRows, checked once when built.  QPProblem.on_rows builds a
QP on them for an H symmetric by construction, checking only that H and
g are finite; with_hessian checks a new H as a new QP does.

The per-row scans take one tolist() of the numpy product they need and
loop over plain floats (with at most a dozen rows, numpy temporaries cost
more than the arithmetic), each step the IEEE operation an array form
would take, so the results are bit-identical to it.  Their maxima keep
the first of equal values, as Python's max does, but return NaN as soon
as one value is NaN, so a NaN point never reads as feasible or converged.
Slices are taken with ndarray.take and products with ndarray.dot, far
cheaper than np.ix_ and @ here, each slice in the memory layout of the
indexing form (HiAt[:, rows] is F-contiguous, so HiAt.T.take(rows, 0).T):
the layout selects the BLAS kernel, and with it the bits.

The factorizations and solves call the LAPACK gufuncs behind
np.linalg.cholesky, inv and solve (numpy.linalg._umath_linalg) directly,
for the same bits at a fraction of the wrappers' cost.  solve_qp enters
the wrappers' error state once (_lapack_scope), where LAPACK's failure
flag, or any other NaN an operation makes, raises LinAlgError; outside it
a singular system returns NaN.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
_DEP_TOL = 1e-10  # relative Gram pivot below which a row is dependent
_NOISE_GAIN = 1e3  # a blocker this close to rounding gets the Gram test
_SYM_TOL = 1e-13  # largest max|H - H^T| / max|H| that QPProblem accepts

# Active-set entries are (row, side): side +1 at the upper bound, -1 at the
# lower bound, 0 for an equality row (lb == ub).
Active = Tuple[Tuple[int, int], ...]


def _check_hessian(H: np.ndarray, n: int) -> None:
    """H is (n, n), finite and symmetric to rounding."""
    if H.shape != (n, n):
        raise ValueError(f"H must be ({n},{n}), got {H.shape}")
    if np.count_nonzero(np.isfinite(H)) < H.size:
        raise ValueError("H must be finite")
    if H.tobytes() != H.T.tobytes() \
            and np.abs(H - H.T).max() > _SYM_TOL * np.abs(H).max():
        raise ValueError("H must be symmetric")


def _check_rows(A: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                n: int) -> None:
    """A is (m, n) and finite, and lb <= ub with lb below +inf, ub above
    -inf and no bound NaN, m being the length of lb and ub."""
    m = lb.shape[0]
    if A.shape != (m, n):
        raise ValueError(f"A must be ({m},{n}), got {A.shape}")
    if ub.shape != (m,):
        raise ValueError("lb and ub must have matching shapes")
    if np.count_nonzero(np.isfinite(A)) < A.size:
        raise ValueError("A must be finite")
    for lo, hi in zip(lb.tolist(), ub.tolist()):
        # A NaN bound fails lo <= hi too.
        if not lo <= hi or lo == math.inf or hi == -math.inf:
            raise ValueError("need lb <= ub with lb below +inf, ub "
                             "above -inf and no bound NaN")


class QPRows(namedtuple("QPRows", "A lb ub")):
    """Constraint rows lb <= A x <= ub that many QPs share (on_rows),
    checked once, when built, as QPProblem checks its rows.  They hold
    read-only copies of the arrays, so the checks hold for their life."""

    __slots__ = ()

    def __new__(cls, A, lb, ub):
        A, lb, ub = arrays = [np.array(a, dtype=float) for a in (A, lb, ub)]
        _check_rows(A, lb, ub, A.shape[-1] if A.ndim else 0)
        for a in arrays:
            a.flags.writeable = False
        return super().__new__(cls, A, lb, ub)

    @classmethod
    def _make(cls, iterable):  # namedtuple's _make and _replace check too
        return cls(*iterable)


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
        _check_hessian(self.H, n)
        if not all(map(math.isfinite, self.g.tolist())):
            raise ValueError("g must be finite")
        _check_rows(self.A, self.lb, self.ub, n)

    @classmethod
    def on_rows(cls, H: np.ndarray, g: np.ndarray, rows: QPRows,
                shift: np.ndarray) -> "QPProblem":
        """The QP with A = rows.A, the bounds rows.lb - shift and
        rows.ub - shift, and the float arrays H (n, n), symmetric bit for
        bit by construction (as M + M' is), and g (n,).  It checks only
        that H and g are finite.  The shapes and the shift are the
        caller's: a finite shift keeps lb <= ub (rounding is monotone),
        and one within the sizes of the rows' bounds keeps them finite."""
        if np.count_nonzero(np.isfinite(H)) < H.size \
                or not all(map(math.isfinite, g.tolist())):
            raise ValueError("H and g must be finite")
        prob = object.__new__(cls)
        prob.H, prob.g, prob.A = H, g, rows.A
        prob.lb, prob.ub = rows.lb - shift, rows.ub - shift
        return prob

    def with_hessian(self, H) -> "QPProblem":
        """This QP with the Hessian H, which gets every check of a new QP;
        g and the rows were checked when this QP was built."""
        H = np.asarray(H, dtype=float)
        _check_hessian(H, self.g.shape[0])
        prob = object.__new__(type(self))
        prob.__dict__.update(vars(self), H=H)
        return prob


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
    # An invalid operation calls this alike whether it is LAPACK's failure
    # flag or the NaN of an overflow in plain arithmetic, so the message
    # names both.
    raise LinAlgError("singular or not positive definite matrix, or an "
                      "overflow to a non-finite value")


def _lapack_scope() -> np.errstate:
    """np.linalg's error state around each gufunc, which solve_qp enters
    once: an invalid operation (LAPACK's failure flag, or a NaN such as
    inf - inf after an overflow) raises LinAlgError, the rest passes."""
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


# np.linalg.cholesky, inv and solve for float64 operands, inside
# _lapack_scope: the gufuncs behind them pick the d loop that np.linalg
# names by its signature string.
_cholesky = _umath_linalg.cholesky_lo
_inv = _umath_linalg.inv
_solve = _umath_linalg.solve1


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
    """KKT residual, stationarity and complementarity scaled by
    max(1, |g|_inf); violation, when given, is _violation at x."""
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
    """Minimizer of the QP with the rows of work at their bounds and its
    multipliers mu (grad + Aw^T mu = 0, as in the Schur solves), from one
    refined KKT solve; None when the system is singular."""
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
    at most n rows, none repeated or out of range, each on a side its row
    has (0 only on an equality row, +-1 only on a finite bound)."""
    m = lb.shape[0]
    if len(work) > g.shape[0] or len({row for row, _ in work}) < len(work):
        return False
    lo, hi = lb.tolist(), ub.tolist()
    return all(0 <= row < m and (side == 0) == (lo[row] == hi[row])
               and math.isfinite(hi[row] if side >= 0 else lo[row])
               for row, side in work)


def _certified(H, g, A, lb, ub, work, iterations) -> Optional[QPSolution]:
    """The optimum: the equality-QP point of the working set work, with its
    own multipliers, when it is primal feasible, its inequality multipliers
    are >= -_SIGN_TOL and its KKT residual <= KKT_TOL.  Else None."""
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


def _independent(A, rows) -> list:
    """Whether a greedy elimination of the Gram block of A[rows] keeps each
    row: one whose pivot, its squared distance from the span of the rows
    kept before it, exceeds _DEP_TOL times its squared norm."""
    Ac = A.take(rows, 0)
    G = Ac.dot(Ac.T).tolist()  # reduced in place by each kept row
    norms = [Gk[k] for k, Gk in enumerate(G)]
    kept = []
    for k, Gk in enumerate(G):
        kept.append(Gk[k] > _DEP_TOL * norms[k])
        if kept[-1]:
            for Gi in G[k + 1:]:
                f = Gi[k] / Gk[k]
                if f:  # rows orthogonal to row k skip the update
                    for j in range(k + 1, len(Gi)):
                        Gi[j] -= f * Gk[j]
    return kept


def _active_rows(A, lb, ub, x) -> list:
    """Working set, in row order, of the rows active at x (equality rows,
    then rows at their upper, else lower bound) that _independent keeps,
    deciding the equality rows first, then the others in row order."""
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
    kept = _independent(A, [row for row, _ in rows])
    return sorted([rs for rs, keep in zip(rows, kept) if keep])


def _dependent(A, Ad, sq_norms, rows, i) -> bool:
    """Whether row i lies in the span of the rows rows (_independent); Ad
    and sq_norms hold each row's a.d and squared norm.  As A_w d = 0 but
    for rounding, only a row whose |a.d| / |a| is within _NOISE_GAIN of a
    working row's is tested."""
    level = Ad[i] * Ad[i] / sq_norms[i] / _NOISE_GAIN ** 2
    return any(Ad[j] * Ad[j] / sq_norms[j] >= level for j in rows) \
        and not _independent(A, rows + [i])[-1]


def _ratio_test(A, lb, ub, x, d, rows,
                sq_norms) -> Tuple[float, Optional[tuple]]:
    """Longest step alpha <= 1 along d that keeps x feasible, and the
    (row, side) that blocks it (None for the full step).  Each row's step
    is to the bound it moves toward, infinite for an infinite bound or a
    row d leaves parallel; rows are scanned in ascending order, so ties
    break toward the lowest row.  The working set rows is skipped, and so
    is a blocker in its span (_dependent, sq_norms the squared row norms),
    which blocks on rounding alone: the step moves it by about 1e-11."""
    alpha = 1.0
    blocker = None
    Ad = A.dot(d).tolist()
    for i, (ad, res) in enumerate(zip(Ad, A.dot(x).tolist())):
        if ad > _DIR_TOL:
            step, side = (ub.item(i) - res) / ad, 1
        elif ad < -_DIR_TOL:
            step, side = (lb.item(i) - res) / ad, -1
        else:
            continue
        if step < alpha - 1e-15 and i not in rows:
            alpha = max(step, 0.0)
            blocker = (i, side)
    if blocker and _dependent(A, Ad, sq_norms, rows, blocker[0]):
        return _ratio_test(A, lb, ub, x, d, rows + [blocker[0]], sq_norms)
    return alpha, blocker


def _active_set(H, Hinv, g, A, lb, ub, x0) -> QPSolution:
    """Primal active-set iteration from a feasible start x0, with Hinv the
    (regularized) inverse of H (Nocedal & Wright, Alg. 16.3).

    The working set starts as _active_rows at x0 and gains only blocking
    rows that _ratio_test finds independent of it, so it stays independent
    to _DEP_TOL (Gill, Murray & Wright 1981, 5.2).  A full, unblocked step
    lands on the working-set minimizer, whose multipliers are that step's
    Schur mu, so the next iteration only checks them (a fresh solve there
    returns a rounding-noise step, too large for the tiny-step test).

    The stationary exit (no inequality multiplier below -_SIGN_TOL)
    returns _certified on the final working set, else the iterate with its
    Schur multipliers.  The iteration cap and a singular solve return the
    iterate, its working set and the KKT residual of the last multipliers
    solved for, with the working set they belong to.
    """
    n = g.shape[0]
    m = lb.shape[0]
    x = np.array(x0, dtype=float)
    # Every Schur system is a slice of these two products.
    HiAt = Hinv.dot(A.T)
    AHiAt = A.dot(HiAt)
    sq_norms = A.dot(A.T).diagonal().tolist()  # squared row norms

    # Warm sets are re-detected from the point itself, which keeps the set
    # consistent after bound changes.
    work = _active_rows(A, lb, ub, x)
    mu_work, mu = [], np.zeros(0)  # the last multipliers and their set
    at_minimizer = False  # the last step was full and unblocked
    for it in range(1, 50 * (m + 1) + 1):
        rows = [rs[0] for rs in work]
        try:
            if at_minimizer:  # mu are already the multipliers at x
                d = np.zeros(n)
            elif len(work) == n:
                # Full square working set: the equality step is identically
                # zero and the multipliers come from stationarity directly.
                mu = -_solve(A.take(rows, 0).T, H.dot(x) + g)
                d = np.zeros(n)
            elif work:
                Hin_g = Hinv.dot(H.dot(x) + g)
                # F-contiguous, as HiAt[:, rows]
                Hin_At = HiAt.T.take(rows, 0).T
                S = AHiAt.take(rows, 0).take(rows, 1)
                rhs = -A.take(rows, 0).dot(Hin_g)
                mu = _solve(S, rhs)  # S factors: the refinement cannot raise
                mu += _solve(S, rhs - S.dot(mu))
                d = -Hin_g - Hin_At.dot(mu)
            else:
                mu = np.zeros(0)
                d = -Hinv.dot(H.dot(x) + g)
        except LinAlgError:
            break
        mu_work = list(work)

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

        alpha, blocker = _ratio_test(A, lb, ub, x, d, rows, sq_norms)
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
    rows, lbs, ubs = [], [], []
    for a, lo, hi in zip(A.tolist(), lb.tolist(), ub.tolist()):
        if hi < math.inf:
            rows.append(a + [-1.0])
            lbs.append(-math.inf)
            ubs.append(hi)
        if lo > -math.inf:
            rows.append(a + [1.0])
            lbs.append(lo)
            ubs.append(math.inf)
    Ha = np.diag([1e-4] * n + [1.0])
    ga = [0.0] * n + [1.0]  # also the row of t >= 0
    y0 = np.append(x0, _violation(A, lb, ub, x0) + 1.0)
    sol = _active_set(Ha, _inverse(Ha), np.array(ga), np.array(rows + [ga]),
                      np.array(lbs + [0.0]), np.array(ubs + [math.inf]), y0)
    t = float(sol.x[-1])
    if t > 1e2 * FEAS_TOL:
        raise Infeasible(f"no feasible point (best bound relaxation {t:.3e})")
    return sol.x[:n]


def solve_qp(prob: QPProblem, warm: Optional[QPSolution] = None) -> QPSolution:
    """Minimize over the polytope; deterministic for fixed inputs.

    A non-empty warm.active_set that this QP can work on is tried first:
    its equality-QP point is returned with one iteration when _certified
    accepts it.  Else the unconstrained minimizer (one refinement step) is
    returned with zero iterations when it is feasible.  Else the
    active-set iteration starts from warm.x if that is feasible, else from
    a Phase-1 point.  converged means that the certificate passed (KKT
    residual <= KKT_TOL); else the result is the last feasible iterate
    with its larger residual.  Raises Infeasible when no point is feasible,
    and QPFailure from a LinAlgError that reaches this boundary, such as
    the NaN of an overflow in a refinement step on an ill-conditioned H.
    """
    H, g, A, lb, ub = prob.H, prob.g, prob.A, prob.lb, prob.ub
    n = g.shape[0]
    try:
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
    except LinAlgError as exc:
        raise QPFailure(f"QP linear algebra failed: {exc}") from exc
