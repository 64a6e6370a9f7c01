import numpy as np
import pytest

from pfguide import (Infeasible, QPProblem, QPSolution, nmpc, qp,
                     realistic_scenario, run_scenario, solve_qp)
from qp_oracle import qp_oracle, random_feasible_qp


def random_qp_around_zero(rng, constrained, n_max=6, m_max=10):
    """Strictly convex QP with lb < 0 < ub, so x = 0 is strictly feasible, as
    in the SQP's step problems.  The unconstrained minimizer is placed inside
    the polytope, or outside it when constrained is True."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    M = rng.normal(size=(n, n))
    H = M.T @ M + (0.2 + rng.random()) * np.eye(n)
    A = rng.normal(size=(m, n))
    lb = -np.abs(rng.normal(size=m)) - 0.05
    ub = np.abs(rng.normal(size=m)) + 0.05
    for i in range(m):
        u01 = rng.random()
        if u01 < 0.15:
            lb[i] = -np.inf
        elif u01 < 0.3:
            ub[i] = np.inf
    # Scale a random direction to a point strictly inside the polytope (or
    # 1.5x past its boundary); g then makes it the unconstrained minimizer.
    reach = np.inf
    while not np.isfinite(reach):
        d = rng.normal(size=n)
        Ad = A @ d
        with np.errstate(divide="ignore"):
            reach = np.min(np.where(Ad > 0, ub / Ad,
                                    np.where(Ad < 0, lb / Ad, np.inf)))
    x_star = (1.5 if constrained else 0.5 * rng.random()) * reach * d
    return H, -H @ x_star, A, lb, ub


class TestShapes:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            QPProblem(np.eye(2), np.zeros(2), np.eye(2),
                      np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("lb, ub", [
        ([np.nan], [1.0]),
        ([-1.0], [np.nan]),
        ([np.inf], [np.inf]),
        ([-np.inf], [-np.inf])])
    def test_nan_and_unreachable_bounds_rejected(self, lb, ub):
        with pytest.raises(ValueError):
            QPProblem(np.eye(1), np.zeros(1), np.eye(1), lb, ub)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            QPProblem(np.eye(3), np.zeros(2), np.zeros((0, 2)),
                      np.zeros(0), np.zeros(0))


class TestBasics:
    def test_unconstrained_stationarity(self):
        sol = solve_qp(QPProblem(np.eye(4), -np.ones(4),
                                 np.zeros((0, 4)), np.zeros(0), np.zeros(0)))
        assert sol.x == pytest.approx(np.ones(4), abs=1e-12)
        assert sol.converged

    def test_separable_projection_on_upper_bounds(self):
        n = 4
        sol = solve_qp(QPProblem(np.eye(n), -np.ones(n), np.eye(n),
                                 np.full(n, -np.inf), np.full(n, 0.5)))
        assert sol.x == pytest.approx(np.full(n, 0.5), abs=1e-12)

    def test_equality_rows(self):
        # lb == ub encodes an equality; minimum of ||x||^2 on x0 + x1 = 1
        A = np.array([[1.0, 1.0]])
        sol = solve_qp(QPProblem(np.eye(2), np.zeros(2), A,
                                 np.array([1.0]), np.array([1.0])))
        assert sol.x == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_dependent_working_set_is_not_taken_for_stationary(self):
        # Both rows bound x0 <= 0.5 and are active at the start: the square
        # working set is singular and its least-squares multipliers are
        # sign-valid but not stationary, so a row must be dropped.
        prob = QPProblem(np.eye(2), np.array([-1.0, -1.0]),
                         np.array([[1.0, 0.0], [2.0, 0.0]]),
                         np.full(2, -np.inf), np.array([0.5, 1.0]))
        sol = solve_qp(prob, warm=QPSolution(np.array([0.5, 0.0]), (),
                                             np.inf, 0))
        assert sol.converged
        assert sol.x == pytest.approx([0.5, 1.0], abs=1e-12)

    def test_infeasible_detected(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Infeasible):
            solve_qp(QPProblem(np.eye(2), np.zeros(2), A,
                               np.array([1.0, -np.inf]),
                               np.array([np.inf, -1.0])))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        H, g, A, lb, ub = random_feasible_qp(rng)
        a = solve_qp(QPProblem(H, g, A, lb, ub))
        b = solve_qp(QPProblem(H, g, A, lb, ub))
        assert np.array_equal(a.x, b.x)
        assert a.active_set == b.active_set
        assert a.iterations == b.iterations


class TestAgainstOracle:
    def test_random_problems_match_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(80):
            H, g, A, lb, ub = random_feasible_qp(rng)
            J_ref, x_ref = qp_oracle(H, g, A, lb, ub)
            sol = solve_qp(QPProblem(H, g, A, lb, ub))
            J = 0.5 * sol.x @ H @ sol.x + g @ sol.x
            assert np.max(np.abs(sol.x - x_ref)) <= 1e-7
            assert abs(J - J_ref) <= 1e-8


class TestSQPStart:
    """The laws call solve_qp with a feasible warm start at delta = 0."""

    def test_zero_start_matches_enumeration(self):
        rng = np.random.default_rng(77)
        n_free = 0
        for k in range(80):
            H, g, A, lb, ub = random_qp_around_zero(rng, constrained=k % 2)
            n = g.shape[0]
            x_unc = np.linalg.solve(H, -g)
            r = A @ x_unc
            n_free += bool(np.all(r <= ub) and np.all(r >= lb))
            J_ref, x_ref = qp_oracle(H, g, A, lb, ub)
            sol = solve_qp(QPProblem(H, g, A, lb, ub),
                           warm=QPSolution(np.zeros(n), (), np.inf, 0))
            J = 0.5 * sol.x @ H @ sol.x + g @ sol.x
            assert sol.converged
            assert np.max(np.abs(sol.x - x_ref)) <= 1e-7
            assert abs(J - J_ref) <= 1e-8
        assert n_free == 40  # both kinds of problem were exercised

    def test_feasible_unconstrained_minimizer_returned_at_once(self,
                                                               monkeypatch):
        def no_phase1(*args):
            raise AssertionError("Phase-1 must not run")

        monkeypatch.setattr(qp, "_phase1", no_phase1)
        rng = np.random.default_rng(78)
        for _ in range(40):
            H, g, A, lb, ub = random_qp_around_zero(rng, constrained=False)
            n = g.shape[0]
            # An infeasible warm point must not matter either.
            far = QPSolution(np.full(n, 1e3), (), np.inf, 0)
            for warm in (None, far, QPSolution(np.zeros(n), (), np.inf, 0)):
                sol = solve_qp(QPProblem(H, g, A, lb, ub), warm=warm)
                assert sol.iterations == 0
                assert sol.active_set == ()
                assert sol.multipliers == {}
                assert sol.converged
                assert np.max(np.abs(sol.x - np.linalg.solve(H, -g))) <= 1e-9


class TestTermination:
    """A full, unblocked step lands on the working-set minimizer, so the
    next iteration checks the multipliers instead of stepping again."""

    def test_no_second_step_on_an_unchanged_working_set(self, monkeypatch):
        # NMPC hands each QP the previous QP's working set, which answers
        # most of them without an active-set pass; so the run's QPs are
        # captured and each is replayed from the zero start, as the
        # active-set pass meets it when the warm set misses.
        problems = []
        real_solve = nmpc.solve_qp

        def capturing_solve(prob, warm=None):
            problems.append(QPProblem(prob.H.copy(), prob.g.copy(),
                                      prob.A.copy(), prob.lb.copy(),
                                      prob.ub.copy()))
            return real_solve(prob, warm=warm)

        monkeypatch.setattr(nmpc, "solve_qp", capturing_solve)
        run_scenario(realistic_scenario("nmpc", duration=60.0))
        monkeypatch.undo()

        calls = []  # per _active_set call: start set, steps, result
        active_set, ratio_test = qp._active_set, qp._ratio_test

        def recording_active_set(H, Hinv, g, A, lb, ub, x0, *args):
            call = {"start": tuple(qp._active_rows(A, lb, ub, x0, g.shape[0])),
                    "steps": []}
            calls.append(call)
            call["sol"] = active_set(H, Hinv, g, A, lb, ub, x0, *args)
            return call["sol"]

        def recording_ratio_test(A, lb, ub, x, d, rows):
            alpha, blocker = ratio_test(A, lb, ub, x, d, rows)
            calls[-1]["steps"].append((blocker is None, tuple(rows)))
            return alpha, blocker

        monkeypatch.setattr(qp, "_active_set", recording_active_set)
        monkeypatch.setattr(qp, "_ratio_test", recording_ratio_test)
        for prob in problems:
            solve_qp(prob, warm=QPSolution(np.zeros(prob.g.shape[0]), (),
                                           np.inf, 0))
        assert len(calls) >= 100  # constrained QPs were exercised
        repeated = [c for c in calls
                    if any(a[0] and a == b
                           for a, b in zip(c["steps"], c["steps"][1:]))]
        assert repeated == []
        # Where the start's working set is optimal: one step, one check.
        settled = [c for c in calls if c["sol"].active_set == c["start"]]
        assert settled
        assert all(c["sol"].iterations == 2 for c in settled)


class TestWarmWorkingSet:
    """A warm active set is checked with one KKT solve of its equality QP;
    any set that is not the optimal one falls back to the full solve."""

    @staticmethod
    def _constrained_problems(count):
        rng = np.random.default_rng(4242)
        found = []
        while len(found) < count:
            H, g, A, lb, ub = random_feasible_qp(rng)
            cold = solve_qp(QPProblem(H, g, A, lb, ub))
            if cold.active_set:
                found.append(((H, g, A, lb, ub), cold.active_set,
                              qp_oracle(H, g, A, lb, ub)))
        return found

    @staticmethod
    def _warm_sets(active, A, lb, ub):
        """Named working sets around the optimal one; a case that the
        problem cannot form is left out."""
        m, n = A.shape
        out = {"optimal": active}
        if len(active) > 1:
            out["subset"] = active[:-1]
        used = {row for row, _ in active}
        extra = [(i, 1 if np.isfinite(ub[i]) else -1) for i in range(m)
                 if i not in used and lb[i] != ub[i]]
        if extra:
            out["superset"] = active + (extra[0],)
        flips = [k for k, (row, side) in enumerate(active)
                 if side != 0 and np.isfinite(lb[row]) and np.isfinite(ub[row])]
        if flips:
            k = flips[0]
            row, side = active[k]
            out["wrong_side"] = active[:k] + ((row, -side),) + active[k + 1:]
        out["duplicated_row"] = active + (active[0],)
        if m > n:
            out["more_than_n"] = tuple(
                (i, 1 if np.isfinite(ub[i]) else -1) for i in range(n + 1))
        return out

    def test_every_warm_set_matches_the_oracle(self):
        seen = set()
        for (H, g, A, lb, ub), active, (J_ref, x_ref) in \
                self._constrained_problems(40):
            n = g.shape[0]
            for name, work in self._warm_sets(active, A, lb, ub).items():
                seen.add(name)
                sol = solve_qp(QPProblem(H, g, A, lb, ub),
                               warm=QPSolution(np.zeros(n), work, np.inf, 0))
                J = 0.5 * sol.x @ H @ sol.x + g @ sol.x
                assert sol.converged, name
                assert np.max(np.abs(sol.x - x_ref)) <= 1e-7, name
                assert abs(J - J_ref) <= 1e-8, name
                if name == "optimal":
                    assert sol.iterations == 1
                    assert sol.active_set == active
                    assert np.max(np.abs(sol.x - x_ref)) <= 1e-9
        assert seen == {"optimal", "subset", "superset", "wrong_side",
                        "duplicated_row", "more_than_n"}

    @pytest.mark.parametrize("g, ub, x_opt, active", [
        # x = 0 on row 0 has multiplier -1e-9: within the KKT residual's
        # 1e-8, but below the active-set exit's -1e-10.
        (1e-9, [0.0, np.inf], -1e-9, ()),
        # x = 0 on row 0 violates row 1 by 5e-9: within the KKT residual's
        # 1e-8, but above FEAS_TOL.
        (-1.0, [0.0, -5e-9], -5e-9, ((1, +1),)),
    ], ids=["multiplier_sign", "feasibility"])
    def test_near_kkt_sets_fall_back(self, g, ub, x_opt, active):
        sol = solve_qp(QPProblem(np.eye(1), [g], np.ones((2, 1)),
                                 np.full(2, -np.inf), ub),
                       warm=QPSolution(np.zeros(1), ((0, +1),), np.inf, 0))
        assert sol.active_set == active
        assert sol.x[0] == pytest.approx(x_opt, abs=1e-15)

    @pytest.mark.parametrize("work", [((0, +1), (0, +1)),
                                      ((0, +1), (1, +1), (2, +1)),
                                      ((7, +1),), ((0, 0),), ((1, -1),)],
                             ids=["repeated", "more_than_n", "out_of_range",
                                  "side_0_on_inequality", "infinite_bound"])
    def test_impossible_sets_miss_before_any_solve(self, work, monkeypatch):
        def no_solve(*args):
            raise AssertionError("no KKT solve for an impossible set")

        monkeypatch.setattr(qp, "_equality_qp", no_solve)
        A = np.eye(2)
        lb, ub = np.array([-1.0, -np.inf]), np.array([0.5, 0.5])
        assert qp._warm_set_optimum(np.eye(2), -np.ones(2), A, lb, ub,
                                    work) is None

    def test_empty_warm_set_takes_the_usual_path(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("an empty warm set must not be checked")

        monkeypatch.setattr(qp, "_warm_set_optimum", no_check)
        sol = solve_qp(QPProblem(np.eye(2), -np.ones(2), np.eye(2),
                                 np.full(2, -np.inf), np.full(2, 0.5)),
                       warm=QPSolution(np.zeros(2), (), np.inf, 0))
        assert sol.active_set == ((0, 1), (1, 1))
        assert sol.converged


class TestMultipliers:
    def test_signs_by_side(self):
        # Schur multipliers solve grad + Aw^T mu = 0: an upper bound keeps
        # mu, a lower bound flips it, an equality row keeps it.
        work = [(4, +1), (1, -1), (2, 0)]
        mult = qp._multipliers(work, np.array([0.5, -0.25, -3.0]))
        assert list(mult) == work
        assert mult == {(4, +1): 0.5, (1, -1): 0.25, (2, 0): -3.0}
        assert all(type(v) is float for v in mult.values())
        assert qp._multipliers([], np.zeros(0)) == {}


def active_rows_loop(A, lb, ub, x, n):
    """Row-by-row reference for qp._active_rows."""
    work = []
    r = A @ x
    for i in range(lb.shape[0]):
        if lb[i] == ub[i]:
            work.append((i, 0))
        elif r[i] >= ub[i] - qp.FEAS_TOL and np.isfinite(ub[i]):
            work.append((i, +1))
        elif r[i] <= lb[i] + qp.FEAS_TOL and np.isfinite(lb[i]):
            work.append((i, -1))
        if len(work) == n:
            break
    return work


def ratio_test_loop(A, lb, ub, x, d, rows):
    """Row-by-row reference for qp._ratio_test."""
    alpha = 1.0
    blocker = None
    Ad = A @ d
    res = A @ x
    for i in range(lb.shape[0]):
        if i in rows:
            continue
        if Ad[i] > qp._DIR_TOL and np.isfinite(ub[i]):
            a_i = (ub[i] - res[i]) / Ad[i]
            if a_i < alpha - 1e-15:
                alpha, blocker = max(a_i, 0.0), (i, +1)
        elif Ad[i] < -qp._DIR_TOL and np.isfinite(lb[i]):
            a_i = (lb[i] - res[i]) / Ad[i]
            if a_i < alpha - 1e-15:
                alpha, blocker = max(a_i, 0.0), (i, -1)
    return alpha, blocker


def kkt_residual_arrays(H, g, A, lb, ub, x, mult, violation=None):
    """Array-form reference for qp._kkt_residual."""
    grad = H @ x + g
    scale = max(1.0, float(np.max(np.abs(g), initial=0.0)))
    r = qp._violation(A, lb, ub, x) if violation is None else violation
    if mult:
        rows = np.array([row for row, _ in mult])
        sides = np.array([side for _, side in mult])
        lam = np.array(list(mult.values()))
        Aw = A[rows]
        grad = grad + np.where(sides >= 0, lam, -lam) @ Aw
        res = Aw @ x
        slack = np.where(sides >= 0, ub[rows] - res, res - lb[rows])
        ineq = sides != 0
        r = max(r, float(np.max(-lam[ineq], initial=0.0)) / scale,
                float(np.max(np.abs(lam * slack)[ineq], initial=0.0)) / scale)
    return max(r, float(np.max(np.abs(grad))) / scale)


class TestRowScansMatchLoops:
    """The array forms of the working-set detection and the ratio test keep
    the row-by-row semantics exactly, lowest-row tie rule included."""

    @staticmethod
    def _rows(rng):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 12))
        A = rng.normal(size=(m, n))
        A[rng.random(m) < 0.2] = A[0] if m else 0.0  # duplicate rows: ties
        x = rng.normal(size=n)
        r = A @ x
        # Bounds at, near (either side of FEAS_TOL) or away from A x.
        off = rng.choice([0.0, 0.5e-9, -0.5e-9, 2e-9, 0.3, 1.0], size=(2, m))
        lb, ub = r - off[0], r + off[1]
        lb[rng.random(m) < 0.2] = -np.inf
        ub[rng.random(m) < 0.2] = np.inf
        eq = rng.random(m) < 0.15
        lb[eq] = ub[eq] = r[eq]
        ub = np.maximum(lb, ub)
        return A, lb, ub, x

    def test_active_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            A, lb, ub, x = self._rows(rng)
            for n in (1, 2, A.shape[1], 50):
                assert qp._active_rows(A, lb, ub, x, n) == \
                    active_rows_loop(A, lb, ub, x, n)

    def test_ratio_test(self):
        rng = np.random.default_rng(32)
        blocked = 0
        for _ in range(400):
            A, lb, ub, x = self._rows(rng)
            m, n = A.shape
            d = rng.normal(size=n) * rng.choice([1e-3, 1.0, 10.0])
            if m and rng.random() < 0.2:
                d = np.linalg.lstsq(A[:1], [1e-14], rcond=None)[0]  # ~parallel
            rows = sorted(rng.choice(m, size=int(rng.integers(0, m + 1)),
                                     replace=False).tolist()) if m else []
            got = qp._ratio_test(A, lb, ub, x, d, rows)
            assert got == ratio_test_loop(A, lb, ub, x, d, rows)
            blocked += got[1] is not None
        assert 100 < blocked < 400


class TestKKTResidualMatchesArrays:
    """The float form of the KKT residual returns exactly what the array
    form returns, for every side, an empty set and a passed violation."""

    @staticmethod
    def _problem(rng):
        """Rows at, near or away from their bounds at x, multipliers of
        either sign, and g near stationarity or not, so that violation,
        sign, complementarity and stationarity each decide the residual."""
        n = int(rng.integers(1, 6))
        m = int(rng.integers(0, 12))
        A = rng.normal(size=(m, n))
        x = rng.normal(size=n)
        r = A @ x
        off = rng.choice([0.0, 1e-9, -1e-9, 0.3, 1.0, 4.0], size=(2, m))
        lb, ub = r - off[0], r + off[1]
        lb[rng.random(m) < 0.2] = -np.inf
        ub[rng.random(m) < 0.2] = np.inf
        eq = rng.random(m) < 0.15
        lb[eq] = ub[eq] = r[eq]
        ub = np.maximum(lb, ub)
        mult = {}
        for row in rng.permutation(m)[:int(rng.integers(0, m + 1))].tolist():
            sides = [0] if lb[row] == ub[row] else \
                [s for s, b in ((1, ub[row]), (-1, lb[row])) if np.isfinite(b)]
            if sides:
                side = sides[int(rng.integers(len(sides)))]
                mult[(row, side)] = float(rng.normal())
        M = rng.normal(size=(n, n))
        H = M.T @ M + np.eye(n)
        push = np.zeros(n)
        for (row, side), lam in mult.items():
            push += (lam if side >= 0 else -lam) * A[row]
        g = -(H @ x) - push + rng.normal(size=n) * rng.choice([0.0, 1e-7, 1.0])
        return H, g, A, lb, ub, x, mult

    def test_random_multiplier_sets(self):
        rng = np.random.default_rng(33)
        sides_seen = set()
        for _ in range(600):
            H, g, A, lb, ub, x, mult = self._problem(rng)
            sides_seen.update(side for _, side in mult)
            for violation in (None, 0.0, float(rng.random())):
                for mset in (mult, {}):
                    got = qp._kkt_residual(H, g, A, lb, ub, x, mset, violation)
                    assert type(got) is float
                    assert got == kkt_residual_arrays(H, g, A, lb, ub, x,
                                                      mset, violation)
        assert sides_seen == {-1, 0, 1}


class TestInvariantsAndWarmStart:
    def test_primal_feasibility_on_exit(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            H, g, A, lb, ub = random_feasible_qp(rng)
            sol = solve_qp(QPProblem(H, g, A, lb, ub))
            r = A @ sol.x
            assert np.all(r <= ub + 1e-8) and np.all(r >= lb - 1e-8)
            for (row, side), lam in sol.multipliers.items():
                if side != 0:
                    assert lam >= -1e-8  # dual feasibility
                    slack = (ub[row] - r[row]) if side > 0 else (r[row] - lb[row])
                    assert abs(lam * slack) <= 1e-6 * max(1.0, np.abs(g).max())

    def test_monotone_objective_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            H, g, A, lb, ub = random_feasible_qp(rng)
            trace = []
            solve_qp(QPProblem(H, g, A, lb, ub), objective_trace=trace)
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))

    def test_warm_start_from_solution_is_immediate(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            H, g, A, lb, ub = random_feasible_qp(rng)
            cold = solve_qp(QPProblem(H, g, A, lb, ub))
            hot = solve_qp(QPProblem(H, g, A, lb, ub), warm=cold)
            assert hot.iterations <= 2
            assert np.max(np.abs(hot.x - cold.x)) <= 1e-9

    def test_regularization_handles_semidefinite_hessian(self):
        # a zero-curvature direction must be shored up by the 1e-10 ridge
        H = np.diag([1.0, 0.0])
        A = np.eye(2)
        sol = solve_qp(QPProblem(H, np.array([-1.0, -1e-8]), A,
                                 -np.ones(2), np.ones(2)))
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-5)  # pushed to its bound
