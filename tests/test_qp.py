import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import LinAlgError

from pfguide import (InputCmd, InputConstraints, Infeasible, QPFailure,
                     NMPCConfig, QPProblem, QPSolution, case_study_path, cli,
                     nmpc, pnmpc, qp, run_scenario, solve_qp,
                     transient_scenario)
from qp_oracle import qp_oracle, random_feasible_qp

# The laws' QP start for N = 2: delta = 0, no working set.
ZERO_START = QPSolution(np.zeros(6), (), math.inf, 0)


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
        with pytest.raises(ValueError, match=r"A must be \(1,2\)"):
            QPProblem(np.eye(2), np.zeros(2), np.eye(2), np.zeros(1),
                      np.ones(1))
        with pytest.raises(ValueError, match="matching shapes"):
            QPProblem(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2),
                      np.ones(3))

    @pytest.mark.parametrize("H, g", [
        (np.eye(2), [np.nan, 1.0]),
        (np.eye(2), [np.inf, 1.0]),
        (np.eye(2), [0.0, -np.inf]),
        ([[1.0, np.nan], [np.nan, 1.0]], np.zeros(2)),
        ([[np.inf, 0.0], [0.0, 1.0]], np.zeros(2))])
    def test_non_finite_hessian_or_gradient_rejected(self, H, g):
        # A NaN g used to come back as x = NaN, KKT residual 0.0, converged.
        with pytest.raises(ValueError, match="finite"):
            QPProblem(H, g, np.zeros((0, 2)), [], [])

    @pytest.mark.parametrize("A", [[[np.nan, 0.0]], [[0.0, np.inf]],
                                   [[-np.inf, 1.0]]])
    def test_non_finite_constraint_matrix_rejected(self, A):
        # A NaN row used to come back as x = NaN with a NaN residual.
        with pytest.raises(ValueError, match="finite"):
            QPProblem(np.eye(2), [1.0, 1.0], A, [-1.0], [1.0])

    @pytest.mark.parametrize("A, lb, ub", [
        ([[1.0, 0.0]], [-0.2], [np.inf]),
        (np.zeros((0, 2)), [], [])])
    def test_non_symmetric_hessian_rejected(self, A, lb, ub):
        # The objective sees only H's symmetric part, 2I: with x0 >= -0.2
        # the optimum is (-0.2, 0.5) at f = -0.41, but the solver returned
        # (-0.2, 0.4) at f = -0.40 as converged, with KKT residual 0.0.
        with pytest.raises(ValueError, match="symmetric"):
            QPProblem([[2.0, 1.0], [-1.0, 2.0]], [1.0, -1.0], A, lb, ub)

    def test_rounding_level_asymmetry_accepted(self):
        QPProblem([[1.0, 1e-14], [0.0, 1.0]], np.zeros(2), np.zeros((0, 2)),
                  [], [])
        with pytest.raises(ValueError, match="symmetric"):
            QPProblem([[1.0, 1e-12], [0.0, 1.0]], np.zeros(2),
                      np.zeros((0, 2)), [], [])

    def test_law_hessians_accepted(self, monkeypatch):
        # NMPC's exact-phase Hessians come out of an eigendecomposition,
        # asymmetric at rounding level (about 1e-16 of max|H|).
        asymmetric = []
        solve = nmpc.solve_qp

        def checking_solve(prob, warm=None):
            QPProblem(prob.H, prob.g, prob.A, prob.lb, prob.ub)
            asymmetric.append(prob.H.tobytes() != prob.H.T.tobytes())
            return solve(prob, warm=warm)

        monkeypatch.setattr(nmpc, "solve_qp", checking_solve)
        run_scenario(transient_scenario("nmpc", duration=10.0))
        assert sum(asymmetric) >= 10


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
        # Both rows bound x0 <= 0.5 and are active at the start.  They are
        # parallel, so the working set takes only row 0: holding both, it
        # would be square and singular, with least-squares multipliers that
        # are sign-valid but not stationary.
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

    def test_no_second_step_on_an_unchanged_working_set(
            self, monkeypatch, constrained_qp_runs):
        # NMPC hands each QP the previous QP's working set, which answers
        # some of them without an active-set pass; so the runs' QPs are
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
        for sc in constrained_qp_runs:
            run_scenario(sc)
        monkeypatch.undo()

        calls = []  # per _active_set call: start set, steps, result
        active_set, ratio_test = qp._active_set, qp._ratio_test

        def recording_active_set(H, Hinv, g, A, lb, ub, x0, *args):
            call = {"start": tuple(qp._active_rows(A, lb, ub, x0)),
                    "steps": []}
            calls.append(call)
            call["sol"] = active_set(H, Hinv, g, A, lb, ub, x0, *args)
            return call["sol"]

        def recording_ratio_test(A, lb, ub, x, d, rows, sq_norms):
            alpha, blocker = ratio_test(A, lb, ub, x, d, rows, sq_norms)
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
        # 1e-8, but below the sign test's -qp._SIGN_TOL (-1e-10).
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
        solved = []  # the working sets of every KKT solve
        equality_qp = qp._equality_qp

        def recording(H, g, A, lb, ub, work_):
            solved.append(tuple(work_))
            return equality_qp(H, g, A, lb, ub, work_)

        monkeypatch.setattr(qp, "_equality_qp", recording)
        lb, ub = np.array([-1.0, -np.inf]), np.array([0.5, 0.5])
        assert not qp._usable_warm_set(-np.ones(2), lb, ub, work)
        sol = solve_qp(QPProblem(np.eye(2), -np.ones(2), np.eye(2), lb, ub),
                       warm=QPSolution(np.zeros(2), work, np.inf, 0))
        assert work not in solved
        assert sol.active_set == ((0, 1), (1, 1))
        assert sol.converged

    def test_empty_warm_set_takes_the_usual_path(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("an empty warm set must not be checked")

        monkeypatch.setattr(qp, "_usable_warm_set", no_check)
        sol = solve_qp(QPProblem(np.eye(2), -np.ones(2), np.eye(2),
                                 np.full(2, -np.inf), np.full(2, 0.5)),
                       warm=QPSolution(np.zeros(2), (), np.inf, 0))
        assert sol.active_set == ((0, 1), (1, 1))
        assert sol.converged


class TestCertificate:
    """The active-set exit certifies its answer by the warm set's rule: the
    working set's equality-QP point with that point's own multipliers."""

    # The second QP of the first NMPC solve from the benchmark's seed-4245
    # start (x0, y0, omega0) = (9.590, 11.958, 2.043) on the realistic
    # preset: a penalized exact Hessian, |H|max 2.8e3 and cond(H) 1.4e8.
    H_4245 = [
        [2799.0195695814355, 273.64173419301267, -5.344912288336008,
         14.185039582361469, 0.02285606844831783, -4.273979522534313,
         12.185244142668484, 0.01752275063012653, -2.564267205774719],
        [273.64173419301267, 26.75350082103828, -0.00493438888788734,
         0.02426615036675244, -0.12285363199922732, -0.003941287228313032,
         0.01976270220491206, -0.09959471466325907, -0.002359310646652005],
        [-5.344912288336022, -0.004934388887892839, 2769.0825241444745,
         -4.3992068948822265, -0.0033915953958831412, 4.794275170919155,
         -2.7026678765041137, -0.001718428470592612, 2.827301253609057],
        [14.18503958236178, 0.024266150366778583, -4.399206894882256,
         2796.9650039237617, 258.0086413872962, -3.534608172179804,
         12.184869892507932, 0.01648287910986086, -2.564391156426594],
        [0.022856068448317553, -0.12285363199922698, -0.003391595395883825,
         258.00864138729617, 23.801405643552897, -0.0027215508307449564,
         0.017509662013460756, -0.0941792850548588, -0.001981253089465354],
        [-4.273979522534323, -0.003941287228314518, 4.794275170919155,
         -3.534608172179745, -0.0027215508307457544, 2766.9511701641745,
         -2.692601048197017, -0.0017248940263529867, 2.8306366517683386],
        [12.185244142668452, 0.019762702204912132, -2.702667876504099,
         12.184869892507843, 0.01750966201342993, -2.6926010481970057,
         2794.9213372774684, 243.10628482214796, -1.7367740670906453],
        [0.017522750630130767, -0.0995947146632584, -0.001718428470590653,
         0.016482879109859367, -0.0941792850548611, -0.0017248940263529238,
         243.10628482214798, 21.146574508218922, -0.0011121136276036614],
        [-2.5642672057747404, -0.002359310646653043, 2.82730125360929,
         -2.5643911564265647, -0.0019812530894641562, 2.8306366517682284,
         -1.736774067090653, -0.0011121136276055258, 2764.800860412193],
    ]
    g_4245 = [
        -161.7103729405992, -1.2343618832392744e-29, -15.182764986691573,
        -158.22102056268358, 0.0, -9.6791975190321, -153.46402197859928,
        9.66140802305176e-29, -5.649005290764581
    ]
    lb_4245 = [
        -0.05, -0.22778168831977708, 4.468157470978387e-32, -0.74, -0.05,
        -0.7853981633974483, 0.0, -0.74, -0.05, -0.7853981633974483,
        -3.944304526105059e-31, -0.74
    ]
    ub_4245 = [
        0.05, 1.3430146384751196, 0.225, 0.0, 0.05, 0.7853981633974483, 0.225,
        0.0, 0.05, 0.7853981633974483, 0.225, 0.0
    ]

    @classmethod
    def problem(cls):
        A = pnmpc._sqp_rows(3, InputConstraints())[0]
        warm = ((2, -1), (6, -1), (10, -1), (3, 1), (7, 1), (11, 1))
        return (QPProblem(cls.H_4245, cls.g_4245, A, cls.lb_4245,
                          cls.ub_4245),
                QPSolution(np.zeros(9), warm, np.inf, 0))

    def test_ill_conditioned_optimum_is_certified(self, monkeypatch):
        """Its Schur multipliers, computed through H^-1, read KKT 1.5e-8 at
        the optimum; the equality QP's own multipliers read 5e-16.  Row 0
        (the u0 rate row) is row 6 minus row 4 and blocks a step on a
        working set that holds both on rounding alone (a.d = 1.5e-11); it
        is skipped, so no Schur block is singular."""
        raised = []
        solve = qp._solve

        def recording_solve(a, b):
            try:
                return solve(a, b)
            except LinAlgError:
                raised.append(a.shape)
                raise

        monkeypatch.setattr(qp, "_solve", recording_solve)
        sol = solve_qp(*self.problem())
        assert raised == []
        assert sol.converged
        assert sol.kkt_residual <= 1e-12
        assert sol.active_set == ((3, 1), (7, 1), (11, 1), (1, -1), (0, 1),
                                  (5, -1), (4, 1), (8, 1))


def keeps_every_row(A, rows):
    """The greedy Gram rule by projections: each row's squared distance
    from the span of the rows before it exceeds _DEP_TOL times its squared
    norm."""
    for k, row in enumerate(rows):
        a = A[row]
        B = A[rows[:k]].T
        r = a - B @ np.linalg.lstsq(B, a, rcond=None)[0] if k else a
        if not r @ r > qp._DEP_TOL * (a @ a):
            return False
    return True


class TestIndependentWorkingSet:
    """Every working set that the active-set iteration holds passes the
    greedy Gram rule.  The sets are recorded where the iteration reads
    them: the start set, each step's ratio test (whose repeated call on
    the same step, after a skipped blocker, holds no working set), each
    multiplier check and the returned set."""

    @staticmethod
    def _recorder(monkeypatch):
        held = []  # (A, rows) of every working set
        current = {}  # the A and the step d of the running iteration
        active_rows, ratio_test = qp._active_rows, qp._ratio_test
        multipliers = qp._multipliers

        def recording_active_rows(A, lb, ub, x):
            work = active_rows(A, lb, ub, x)
            current.update(A=A, d=None)
            held.append((A, [row for row, _ in work]))
            return work

        def recording_ratio_test(A, lb, ub, x, d, rows, *args):
            if d is not current["d"]:
                current["d"] = d
                held.append((A, list(rows)))
            return ratio_test(A, lb, ub, x, d, rows, *args)

        def recording_multipliers(work, mu):
            if current:  # not the warm-set check before the iteration
                held.append((current["A"], [row for row, _ in work]))
            return multipliers(work, mu)

        monkeypatch.setattr(qp, "_active_rows", recording_active_rows)
        monkeypatch.setattr(qp, "_ratio_test", recording_ratio_test)
        monkeypatch.setattr(qp, "_multipliers", recording_multipliers)

        def solve(prob, warm=None):
            current.clear()
            sol = solve_qp(prob, warm=warm)
            if current:
                held.append((prob.A, [row for row, _ in sol.active_set]))
            return sol
        return solve, held

    def test_fixture_and_degenerate_draws(self, monkeypatch):
        solve, held = self._recorder(monkeypatch)
        assert solve(*TestCertificate.problem()).converged
        assert all(keeps_every_row(A, rows) for A, rows in held)
        for prob in TestDegenerateVertex.draws():
            assert solve(prob, warm=ZERO_START).converged
        assert all(keeps_every_row(A, rows) for A, rows in held)
        assert sum(len(rows) >= 3 for _, rows in held) >= 400

    def test_random_problems(self, monkeypatch):
        solve, held = self._recorder(monkeypatch)
        rng = np.random.default_rng(18)
        for _ in range(1000):
            H, g, A, lb, ub = random_feasible_qp(rng, n_max=6, m_max=10)
            assert solve(QPProblem(H, g, A, lb, ub)).converged
        assert all(keeps_every_row(A, rows) for A, rows in held)
        assert sum(len(rows) >= 3 for _, rows in held) >= 1000


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


def active_rows_loop(A, lb, ub, x):
    """Rank-based reference for qp._active_rows: the rows active at x,
    equality rows first, each kept when it raises the rank of the rows
    kept before it; returned in row order."""
    eq, ineq = [], []
    r = A @ x
    for i in range(lb.shape[0]):
        if lb[i] == ub[i]:
            eq.append((i, 0))
        elif r[i] >= ub[i] - qp.FEAS_TOL and np.isfinite(ub[i]):
            ineq.append((i, +1))
        elif r[i] <= lb[i] + qp.FEAS_TOL and np.isfinite(lb[i]):
            ineq.append((i, -1))
    work = []
    for rs in eq + ineq:
        rows = [row for row, _ in work + [rs]]
        if np.linalg.matrix_rank(A[rows]) == len(rows):
            work.append(rs)
    return sorted(work)


def ratio_test_loop(A, lb, ub, x, d, rows, skip_dependent=True):
    """Row-by-row reference for qp._ratio_test: a blocker whose |a.d| / |a|
    is within _NOISE_GAIN of one of the rows' and that lies in their span
    (by matrix rank) is skipped, as one more row of rows."""
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
    rate = np.abs(Ad) / np.linalg.norm(A, axis=1)
    if blocker and rows and skip_dependent \
            and rate[blocker[0]] <= qp._NOISE_GAIN * rate[rows].max() \
            and np.linalg.matrix_rank(A[rows + [blocker[0]]]) \
            == np.linalg.matrix_rank(A[rows]):
        return ratio_test_loop(A, lb, ub, x, d, rows + [blocker[0]])
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
        dropped = 0
        for _ in range(400):
            A, lb, ub, x = self._rows(rng)
            work = qp._active_rows(A, lb, ub, x)
            assert work == active_rows_loop(A, lb, ub, x)
            r = A @ x
            active = (r >= ub - qp.FEAS_TOL) | (r <= lb + qp.FEAS_TOL)
            dropped += len(work) < np.count_nonzero(active)
        assert dropped >= 100  # dependent rows were met and left out

    def test_ratio_test(self):
        rng = np.random.default_rng(32)
        blocked = skipped = 0
        for _ in range(400):
            A, lb, ub, x = self._rows(rng)
            m, n = A.shape
            d = rng.normal(size=n) * rng.choice([1e-3, 1.0, 10.0])
            if m and rng.random() < 0.2:
                d = np.linalg.lstsq(A[:1], [1e-14], rcond=None)[0]  # ~parallel
            rows = sorted(rng.choice(m, size=int(rng.integers(0, m + 1)),
                                     replace=False).tolist()) if m else []
            sq_norms = A.dot(A.T).diagonal().tolist()
            got = qp._ratio_test(A, lb, ub, x, d, rows, sq_norms)
            assert got == ratio_test_loop(A, lb, ub, x, d, rows)
            blocked += got[1] is not None
            skipped += got != ratio_test_loop(A, lb, ub, x, d, rows,
                                              skip_dependent=False)
        assert 100 < blocked < 400
        assert skipped >= 20  # dependent blockers were met and skipped


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


def problem_rejected_arrays(lb, ub):
    """Array-form reference for QPProblem's bound checks: True when the
    bounds are rejected."""
    lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
    return bool(not (lb <= ub).all()
                or lb.max(initial=-np.inf) == np.inf
                or ub.min(initial=np.inf) == -np.inf)


def violation_arrays(A, lb, ub, x):
    """Array-form reference for qp._violation."""
    r = A @ x
    return float(max((r - ub).max(initial=0.0), (lb - r).max(initial=0.0)))


def equality_qp_fancy(H, g, A, lb, ub, work):
    """List-indexing reference for qp._equality_qp."""
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


def certified_fancy(H, g, A, lb, ub, work, iterations):
    """Reference for qp._certified on equality_qp_fancy: the
    working set's equality-QP point with its own multipliers when it is
    feasible, their inequality signs are valid and the KKT residual is
    within KKT_TOL; else None."""
    sol = equality_qp_fancy(H, g, A, lb, ub, work)
    if sol is None:
        return None
    x = sol[0]
    violation = qp._violation(A, lb, ub, x)
    mult = qp._multipliers(work, sol[1])
    signs = [lam for (_, side), lam in mult.items() if side]
    if violation > qp.FEAS_TOL or min(signs, default=0.0) < -qp._SIGN_TOL:
        return None
    kkt = qp._kkt_residual(H, g, A, lb, ub, x, mult, violation)
    return QPSolution(x, tuple(work), kkt, iterations, mult) \
        if kkt <= qp.KKT_TOL else None


def active_set_fancy(H, Hinv, g, A, lb, ub, x0):
    """np.ix_ and list-indexing reference for qp._active_set: the Schur
    block, the H^-1 A^T columns and the A rows are sliced the old way;
    the row scans are the module's own."""
    n = g.shape[0]
    m = lb.shape[0]
    x = np.array(x0, dtype=float)
    HiAt = Hinv @ A.T
    AHiAt = A @ HiAt
    sq_norms = A.dot(A.T).diagonal().tolist()
    work = qp._active_rows(A, lb, ub, x)
    mu_work, mu = [], np.zeros(0)
    at_minimizer = False
    for it in range(1, 50 * (m + 1) + 1):
        grad = H @ x + g
        rows = [rs[0] for rs in work]
        try:
            if at_minimizer:
                d = np.zeros(n)
            elif len(work) == n:
                mu = -np.linalg.solve(A[rows].T, grad)
                d = np.zeros(n)
            elif work:
                Hin_g = Hinv @ grad
                Hin_At = HiAt[:, rows]
                S = AHiAt[np.ix_(rows, rows)]
                rhs = -(A[rows] @ Hin_g)
                mu = np.linalg.solve(S, rhs)
                mu += np.linalg.solve(S, rhs - S @ mu)
                d = -Hin_g - Hin_At @ mu
            else:
                mu = np.zeros(0)
                d = -(Hinv @ grad)
        except LinAlgError:
            break
        mu_work = list(work)
        tiny = qp._ZERO_STEP * (1.0 + max(map(abs, x.tolist()), default=0.0))
        if all(abs(d_i) <= tiny for d_i in d.tolist()):
            at_minimizer = False
            mult = qp._multipliers(work, mu)
            worst = None
            worst_val = -qp._SIGN_TOL
            for k, ((row, side), lam) in enumerate(mult.items()):
                if side != 0 and (lam < worst_val
                                  or (worst is not None and lam == worst_val
                                      and row < work[worst][0])):
                    worst_val = lam
                    worst = k
            if worst is None:
                sol = certified_fancy(H, g, A, lb, ub, work, it)
                if sol is not None:
                    return sol
                kkt = qp._kkt_residual(H, g, A, lb, ub, x, mult)
                return QPSolution(x, tuple(work), kkt, it, mult)
            del work[worst]
            continue
        alpha, blocker = qp._ratio_test(A, lb, ub, x, d, rows, sq_norms)
        x = x + alpha * d
        if blocker is None:
            at_minimizer = True
        else:
            work.append(blocker)
    mult = qp._multipliers(mu_work, mu)
    return QPSolution(x, tuple(work),
                      qp._kkt_residual(H, g, A, lb, ub, x, mult), it, mult)


def _bits(value):
    return struct.pack("d", value)


class TestKernelsMatchOldForms:
    """The take slices and float scans give the outputs of the indexing
    and array forms they replaced, bit for bit."""

    @staticmethod
    def _vertex_qp(rng):
        """A QP whose start x0 has up to n rows active (some exactly at
        their bounds, some equality rows), so square working sets occur,
        with the unconstrained minimizer pushed outside the polytope."""
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, n + 8))
        M = rng.normal(size=(n, n))
        H = M.T @ M + (0.2 + rng.random()) * np.eye(n)
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        r = A @ x0
        lb = r - np.abs(rng.normal(size=m)) - 0.05
        ub = r + np.abs(rng.normal(size=m)) + 0.05
        for i in range(m):
            u01 = rng.random()
            if u01 < 0.3:
                ub[i] = r[i]
            elif u01 < 0.5:
                lb[i] = r[i]
            elif u01 < 0.55:
                lb[i] = ub[i] = r[i]
            elif u01 < 0.65:
                lb[i] = -np.inf
            elif u01 < 0.75:
                ub[i] = np.inf
        g = -H @ (x0 + 3.0 * rng.normal(size=n))
        return H, g, A, lb, ub, x0

    def test_active_set_slices(self):
        rng = np.random.default_rng(111)
        square = iterations = 0
        for k in range(600):
            if k % 2:
                H, g, A, lb, ub, x0 = self._vertex_qp(rng)
            else:
                H, g, A, lb, ub = random_feasible_qp(rng)
                x0 = qp._phase1(A, lb, ub, np.zeros(g.shape[0]))
            Hinv = qp._inverse(H)
            got = qp._active_set(H, Hinv, g, A, lb, ub, x0)
            ref = active_set_fancy(H, Hinv, g, A, lb, ub, x0)
            assert got.x.tobytes() == ref.x.tobytes()
            assert got.active_set == ref.active_set
            assert got.iterations == ref.iterations
            assert _bits(got.kkt_residual) == _bits(ref.kkt_residual)
            assert list(got.multipliers) == list(ref.multipliers)
            assert [_bits(v) for v in got.multipliers.values()] == \
                [_bits(v) for v in ref.multipliers.values()]
            square += len(qp._active_rows(A, lb, ub, x0)) == g.shape[0]
            iterations += got.iterations
        assert square >= 50
        assert iterations >= 1500

    def test_equality_qp(self):
        rng = np.random.default_rng(112)
        for _ in range(300):
            H, g, A, lb, ub, x0 = self._vertex_qp(rng)
            work = qp._active_rows(A, lb, ub, x0)
            got = qp._equality_qp(H, g, A, lb, ub, work)
            ref = equality_qp_fancy(H, g, A, lb, ub, work)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()

    def test_violation(self):
        rng = np.random.default_rng(113)
        zeros = 0
        for _ in range(600):
            A, lb, ub, x = TestRowScansMatchLoops._rows(rng)
            # Zero points and zero bounds of either sign make zero
            # candidates, so that ties decide the result's sign.
            if rng.random() < 0.3:
                x[:] = rng.choice([0.0, -0.0])
                lb[rng.random(lb.shape[0]) < 0.5] = rng.choice([0.0, -0.0])
                ub[rng.random(ub.shape[0]) < 0.5] = rng.choice([0.0, -0.0])
                ub = np.maximum(lb, ub)
            for scale in (1.0, 1e-12):
                got = qp._violation(A, lb, ub, x * scale)
                ref = violation_arrays(A, lb, ub, x * scale)
                assert type(got) is float
                assert _bits(got) == _bits(ref)
                zeros += got == 0.0
        assert zeros > 300

    def test_violation_propagates_nan(self):
        A = np.array([[1.0], [1.0]])
        lb, ub = np.array([-1.0, -np.inf]), np.array([1.0, 2.0])
        assert math.isnan(qp._violation(A, lb, ub, np.array([np.nan])))
        # inf - inf in an infinite bound's residual is NaN as well.
        assert math.isnan(qp._violation(A, lb, ub, np.array([-np.inf])))
        assert qp._violation(A, lb, ub, np.array([3.0])) == 2.0

    def test_problem_rejections(self):
        rng = np.random.default_rng(114)
        values = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]
        rejected = 0
        for _ in range(2000):
            m = int(rng.integers(0, 4))
            lb, ub = rng.choice(values, size=(2, m))
            try:
                QPProblem(np.eye(1), np.zeros(1), np.ones((m, 1)), lb, ub)
            except ValueError:
                got = True
            else:
                got = False
            assert got == problem_rejected_arrays(lb, ub)
            rejected += got
        assert 500 < rejected < 1900


class TestNonFiniteAndIndefinite:
    """A QP never reports success on bad data."""

    def test_kkt_residual_propagates_nan(self):
        H, g, A = np.eye(2), np.array([1.0, 1.0]), np.zeros((0, 2))
        empty = np.zeros(0)
        for x in ([np.nan, 0.0], [0.0, np.nan]):
            assert math.isnan(qp._kkt_residual(H, g, A, empty, empty,
                                               np.array(x), {}))
        A1 = np.array([[1.0, 0.0]])
        r = qp._kkt_residual(H, g, A1, np.array([-1.0]), np.array([1.0]),
                             np.zeros(2), {(0, 1): np.nan})
        assert math.isnan(r)

    def test_indefinite_hessian_raises_qp_failure(self):
        with pytest.raises(QPFailure, match="positive definite"):
            solve_qp(QPProblem(np.diag([1.0, -1.0]), np.ones(2),
                               np.eye(2), -np.ones(2), np.ones(2)))

    def test_overflow_in_the_qp_is_a_qp_failure(self):
        """PNMPC's QP at t = 1 s of configs/transient.json with R = (1e300,
        1e-5, 1e-5): H carries 2e300 on its surge diagonal, the
        refinement of the unconstrained step overflows H x, and LAPACK's
        error scope turns the NaN into a LinAlgError.  solve_qp reports it
        as the QP's failure, not as a ValueError (a diverged state)."""
        path = case_study_path()
        cfg = NMPCConfig(R=np.array([1e300, 1e-5, 1e-5]))
        up = InputCmd(0.05, 0.0, 0.75)
        prob = pnmpc.PNMPCSolver(cfg, path).linearized_qp(
            (0.6877254162673379, 5.823805675772588, 0.2677384610987393),
            np.array([up.u, up.psi, up.u_tar] * 3), 0.01567926949014802, up,
            pnmpc.reference_stack(cfg, up.psi))[0]
        assert prob.H[0, 0] == 2e300
        with pytest.raises(QPFailure, match="QP linear algebra failed") as exc:
            solve_qp(prob, warm=QPSolution(np.zeros(9), (), math.inf, 0))
        assert isinstance(exc.value.__cause__, LinAlgError)
        # The error scope cannot tell LAPACK's flag from this NaN, so the
        # message names both causes.
        assert str(exc.value) == (
            "QP linear algebra failed: singular or not positive definite "
            "matrix, or an overflow to a non-finite value")

    def test_indefinite_hessian_fails_the_step_and_the_cli(self, monkeypatch,
                                                           tmp_path):
        real = pnmpc.HorizonSolver.linearized_qp

        def negated(self, *args):
            prob, *rest = real(self, *args)
            prob.H = -prob.H
            return (prob, *rest)

        monkeypatch.setattr(pnmpc.HorizonSolver, "linearized_qp", negated)
        with pytest.raises(QPFailure, match=r"guidance step failed at t=0 "
                                            r"\(plant step 0\)"):
            run_scenario(transient_scenario("pnmpc", duration=5.0))
        doc = {"path": {"name": "case_study"},
               "initial": {"x": 10.0, "y": 10.0, "psi": None, "omega": 2.5},
               "u_r": 0.15, "T_m": 1.0, "T_p": 1.0, "duration": 5.0,
               "law": "pnmpc", "filter_enabled": False}
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(doc))
        assert cli.main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / "trace.csv")]) == 3

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_no_converged_solution_with_non_finite_x(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        m = data.draw(st.integers(0, 3), label="m")
        finite = st.floats(-1e3, 1e3)
        special = st.sampled_from([math.nan, math.inf, -math.inf])
        entry = st.one_of(finite, finite, finite, special)

        def array(shape, elements):
            size = int(np.prod(shape))
            return np.array(data.draw(st.lists(elements, min_size=size,
                                               max_size=size)),
                            dtype=float).reshape(shape)

        M = array((n, n), finite)
        H = M.T @ M + np.eye(n) if data.draw(st.booleans()) else M + M.T
        H = H + array((n, n), st.one_of(st.just(0.0), st.just(0.0), special))
        try:
            prob = QPProblem(H, array((n,), entry), array((m, n), finite),
                             array((m,), entry), array((m,), entry))
        except ValueError:
            return
        warm = data.draw(st.sampled_from(
            [None, QPSolution(np.zeros(n), (), math.inf, 0),
             QPSolution(np.zeros(n), tuple((i, 1) for i in range(min(m, n))),
                        math.inf, 0)]))
        try:
            sol = solve_qp(prob, warm=warm)
        except (Infeasible, QPFailure):
            return
        assert not sol.converged or np.isfinite(sol.x).all()


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

    def test_monotone_objective_trace(self, monkeypatch):
        ratio_test = qp._ratio_test
        trace = []  # the objective after every step of the active-set pass

        def recording(A, lb, ub, x, d, rows, sq_norms):
            alpha, blocker = ratio_test(A, lb, ub, x, d, rows, sq_norms)
            if x.shape == g.shape:  # Phase-1 steps carry the extra t entry
                y = x + alpha * d
                trace.append(0.5 * float(y @ H @ y) + float(g @ y))
            return alpha, blocker

        monkeypatch.setattr(qp, "_ratio_test", recording)
        rng = np.random.default_rng(7)
        steps = 0
        for _ in range(25):
            H, g, A, lb, ub = random_feasible_qp(rng)
            trace.clear()
            solve_qp(QPProblem(H, g, A, lb, ub))
            steps += len(trace)
            for a, b in zip(trace, trace[1:]):
                assert b <= a + 1e-9 * (1.0 + abs(a))
        assert steps >= 25

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


def _outcome(kernel, *args):
    """The result bytes of kernel(*args), or LinAlgError when it raises."""
    try:
        return kernel(*args).tobytes()
    except LinAlgError:
        return LinAlgError


class TestLapackKernels:
    """qp calls the gufuncs behind np.linalg.cholesky, inv and solve under
    one error scope per solve: inside that scope each must give the public
    call's bytes, and raise LinAlgError on exactly the inputs it raises on."""

    def test_same_bits_and_same_failures(self):
        rng = np.random.default_rng(131)
        raised = {"cholesky": 0, "inv": 0, "solve": 0}
        for n in range(1, 31):
            M = rng.normal(size=(n, n))
            spd = M.T @ M + 0.1 * np.eye(n)
            indefinite = spd.copy()
            indefinite[-1, -1] = -1.0
            singular = M.copy()
            singular[-1] = singular[0]
            rows = rng.choice(n + 2, size=n, replace=False)
            Aw = rng.normal(size=(n + 2, n)).take(rows, 0)
            b = rng.normal(size=n)
            # Each matrix also as its transpose: F-contiguous, as the
            # full-square working set's Aw.T.
            for a in (spd, M, Aw, indefinite, singular, np.zeros((n, n))):
                for a in (a, a.T):
                    for name, kernel, public, args in (
                            ("cholesky", qp._cholesky, np.linalg.cholesky,
                             (a,)),
                            ("inv", qp._inv, np.linalg.inv, (a,)),
                            ("solve", qp._solve, np.linalg.solve, (a, b))):
                        with qp._lapack_scope():
                            got = _outcome(kernel, *args)
                        assert got == _outcome(public, *args), (name, n)
                        raised[name] += got is LinAlgError
        assert all(count >= 60 for count in raised.values()), raised


class TestSingularSystems:
    """The LinAlgError branches of the QP: a singular KKT system makes a
    warm set miss, and a Schur or square working-set solve that raises
    ends the active-set iteration unconverged.  Rows 0 and 1 bound
    x0 <= 0.5 twice: distinct rows, parallel normals."""

    A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    UB = np.array([0.5, 1.0])

    def _problem(self, n):
        A = self.A[:, :n]
        return np.eye(n), -np.ones(n), A, np.full(2, -np.inf), self.UB

    def _assert_matches_oracle(self, sol, H, g, A, lb, ub):
        J_ref, x_ref = qp_oracle(H, g, A, lb, ub)
        J = 0.5 * sol.x @ H @ sol.x + g @ sol.x
        assert sol.converged
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-9
        assert abs(J - J_ref) <= 1e-12

    def test_parallel_warm_rows_miss(self, monkeypatch):
        kkt_solutions = []
        equality_qp = qp._equality_qp

        def recording_equality_qp(*args):
            kkt_solutions.append(equality_qp(*args))
            return kkt_solutions[-1]

        monkeypatch.setattr(qp, "_equality_qp", recording_equality_qp)
        H, g, A, lb, ub = self._problem(2)
        sol = solve_qp(QPProblem(H, g, A, lb, ub),
                       warm=QPSolution(np.zeros(2), ((0, 1), (1, 1)),
                                       np.inf, 0))
        assert kkt_solutions[0] is None  # the warm set's singular KKT
        assert sol.iterations > 1  # the usual path took over
        self._assert_matches_oracle(sol, H, g, A, lb, ub)

    def _assert_unconverged_exit(self, sol, x, active, multipliers,
                                 iterations, H, g, A, lb, ub):
        """The exit of a singular solve: the iterate, its working set and
        the residual of the last multipliers solved for, with their set."""
        assert sol.x.tolist() == x
        assert sol.active_set == active
        assert sol.multipliers == multipliers
        assert sol.iterations == iterations
        assert sol.kkt_residual == qp._kkt_residual(H, g, A, lb, ub, sol.x,
                                                    sol.multipliers)
        assert not sol.converged

    def test_singular_schur_block_ends_unconverged(self, monkeypatch):
        solve = qp._solve

        def singular_pair(a, b):
            if a.shape[0] == 2:
                raise LinAlgError("Singular matrix")
            return solve(a, b)

        # Rows 0 and 1 are both active at the warm point, but the working
        # set takes only row 0.  Its 1x1 Schur step is blocked by row 2
        # (x1 <= 0.5); _solve then raises on the 2x2 Schur block, as
        # LAPACK does on a singular one.
        H, g, A, lb, ub = self._problem(3)
        A = np.vstack([A, [0.0, 1.0, 0.0]])
        lb, ub = np.full(3, -np.inf), np.append(ub, 0.5)
        monkeypatch.setattr(qp, "_solve", singular_pair)
        sol = solve_qp(QPProblem(H, g, A, lb, ub),
                       warm=QPSolution(np.array([0.5, 0.0, 0.0]), (),
                                       np.inf, 0))
        self._assert_unconverged_exit(sol, [0.5, 0.5, 0.5],
                                      ((0, 1), (2, 1)), {(0, 1): 0.5}, 2,
                                      H, g, A, lb, ub)

    def test_singular_square_working_set_ends_unconverged(self, monkeypatch):
        solve = qp._solve

        def singular_up_to_n(a, b):
            if a.shape[0] <= 2:
                raise LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(qp, "_solve", singular_up_to_n)
        # x <= (0.5, 0.5) with both rows active at the warm point: the
        # working set is square, and its multipliers come from A_w^T.
        H, g, A = np.eye(2), -np.ones(2), np.eye(2)
        lb, ub = np.full(2, -np.inf), np.full(2, 0.5)
        sol = solve_qp(QPProblem(H, g, A, lb, ub),
                       warm=QPSolution(np.full(2, 0.5), (), np.inf, 0))
        self._assert_unconverged_exit(sol, [0.5, 0.5], ((0, 1), (1, 1)), {},
                                      1, H, g, A, lb, ub)


class TestSafetyExits:
    """The exits that the independent working set leaves without a natural
    trigger: the iteration cap and a stationary point that the certificate
    refuses.  Each returns the iterate, its working set and the KKT
    residual of its last Schur multipliers.  From x = 0, x0 <= 0.5 blocks
    the first step and the second lands on the optimum (0.5, 1)."""

    H, G = np.eye(2), np.array([-1.0, -1.0])
    A, LB, UB = np.eye(2), np.full(2, -np.inf), np.array([0.5, np.inf])

    def _solve(self):
        return solve_qp(QPProblem(self.H, self.G, self.A, self.LB, self.UB),
                        warm=QPSolution(np.zeros(2), (), np.inf, 0))

    def _assert_iterate(self, sol):
        assert sol.x.tolist() == [0.5, 1.0]
        assert sol.active_set == ((0, 1),)
        assert sol.multipliers == {(0, 1): 0.5}
        assert sol.kkt_residual == qp._kkt_residual(
            self.H, self.G, self.A, self.LB, self.UB, sol.x, sol.multipliers)
        assert sol.converged

    def test_iteration_cap(self, monkeypatch):
        # No step counts as tiny, so the multipliers are never checked.
        monkeypatch.setattr(qp, "_ZERO_STEP", -1.0)
        sol = self._solve()
        assert sol.iterations == 50 * (2 + 1)
        self._assert_iterate(sol)

    def test_uncertified_stationary_point(self, monkeypatch):
        calls = []

        def singular_equality_qp(*args):
            calls.append(args[-1])
            return None

        monkeypatch.setattr(qp, "_equality_qp", singular_equality_qp)
        sol = self._solve()
        assert calls == [[(0, 1)]]  # the certificate ran and refused
        assert sol.iterations == 3  # blocked step, full step, check
        self._assert_iterate(sol)


class TestDegenerateVertex:
    """An SQP step QP whose zero start sits on a degenerate vertex: the
    rate rows of u0 and of u1 - u0 and the box row of u1 (rows 0, 4 and 6
    of _sqp_rows(2)) are active at delta = 0 with rank 2, beside row 3
    (u_tar0 at eps).  The working set must take an independent subset."""

    @staticmethod
    def draws():
        c = InputConstraints()
        A, lo, hi = pnmpc._sqp_rows(2, c)
        rng = np.random.default_rng(0)
        for _ in range(200):
            u_tar1 = rng.uniform(0.1, 0.5)
            M = rng.normal(size=(6, 6))
            H = M @ M.T + 0.2 * np.eye(6)
            g = rng.normal(size=6)
            # u_prev = (0, 0.3): u steps up by du_max, then back to 0.
            U = np.array([c.du_max, 0.3, c.eps, 0.0, 0.3, u_tar1])
            cur = A @ U
            cur[1] -= 0.3
            yield QPProblem(H, g, A, lo - cur, hi - cur)

    def test_dependent_start_rows_converge(self):
        A = pnmpc._sqp_rows(2, InputConstraints())[0]
        draws = []
        for prob in self.draws():
            sol = solve_qp(prob, warm=ZERO_START)
            assert sol.converged
            draws.append((prob, sol))
        prob = draws[0][0]
        active = [(0, 1), (3, -1), (4, -1), (6, -1)]
        assert active_rows_loop(A, prob.lb, prob.ub, np.zeros(6)) \
            == active[:3]
        assert np.linalg.matrix_rank(A[[row for row, _ in active]]) == 3
        assert qp._active_rows(A, prob.lb, prob.ub, np.zeros(6)) == active[:3]
        # The oracle costs about 0.2 s a draw: the two longest solves.
        draws.sort(key=lambda d: -d[1].iterations)
        for prob, sol in draws[:2]:
            J_ref, x_ref = qp_oracle(prob.H, prob.g, A, prob.lb, prob.ub)
            assert np.max(np.abs(sol.x - x_ref)) <= 1e-9
