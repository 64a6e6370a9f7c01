import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pfguide import (GuidanceState, InfeasibleStart, InputCmd, NMPCConfig,
                     NMPCSolver, TerminalWeightUnset,
                     UnstableTerminalLoop, discrete_lyapunov, euler_step,
                     realistic_scenario, run_scenario, sample_path, sglos,
                     stage_cost, synthesize_terminal_weight, z_of_omega)
from pfguide import nmpc as nmpc_mod
from pfguide import qp as qp_mod
from pfguide.errdyn import rollout
from pfguide.los import clamp_inputs
from pfguide.pnmpc import horizon_cost, quadratic_form


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            NMPCConfig(N=0)
        with pytest.raises(ValueError):
            NMPCConfig(Q=np.array([1.0, 0.0, 0.0]))  # PF errors need PD
        with pytest.raises(ValueError):
            NMPCConfig(R=np.array([-1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            NMPCConfig(lam=0.5)
        with pytest.raises(ValueError):
            NMPCConfig(P=np.diag([1.0, 1.0, 0.0]))  # must be PD
        with pytest.raises(ValueError):
            NMPCConfig(P=np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))

    def test_zero_z_weight_allowed(self):
        NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))


class TestStageCost:
    def test_zero_at_reference(self, demo_config):
        assert stage_cost(GuidanceState(0.0, 0.0, 1e-12),
                          demo_config.u_ref, demo_config) \
            == pytest.approx(0.0, abs=1e-20)

    def test_scalar_oracle_value(self, demo_config):
        # paper weights: 1*1 + 1*1 + 1e-5*1e-4 + 10*0.0025 + 1e-5*(0.01+0.0025)
        x = GuidanceState(1.0, 1.0, 0.01)
        u = InputCmd(demo_config.u_ref.u + 0.05, demo_config.u_ref.psi + 0.1,
                     demo_config.u_ref.u_tar + 0.05)
        ref = (1.0 + 1.0 + 1e-5 * 1e-4
               + 10.0 * 0.0025 + 1e-5 * 0.01 + 1e-5 * 0.0025)
        got = stage_cost(x, u, demo_config)
        assert got == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(2.0250001, abs=1e-6)

    def test_quadratic_homogeneity(self, demo_config):
        x1 = GuidanceState(0.3, -0.7, 0.2)
        x2 = GuidanceState(0.6, -1.4, 0.4)
        u = demo_config.u_ref
        assert stage_cost(x2, u, demo_config) \
            == pytest.approx(4.0 * stage_cost(x1, u, demo_config), rel=1e-12)

    def test_heading_deviation_wrapped(self, demo_config):
        u = InputCmd(demo_config.u_ref.u, 2.0 * math.pi, demo_config.u_ref.u_tar)
        x = GuidanceState(0.0, 0.0, 1e-9)
        assert stage_cost(x, u, demo_config) == pytest.approx(0.0, abs=1e-15)


class TestTerminalCost:
    """x'Px, as quadratic_form evaluates it on the terminal weight's rows."""

    def test_zero_at_origin(self, demo_config):
        P = demo_config.terminal_weight().tolist()
        assert quadratic_form(0.0, 0.0, 1e-12, P) \
            == pytest.approx(0.0, abs=1e-12)

    def test_identity_weight(self):
        P = NMPCConfig(P=np.eye(3)).terminal_weight().tolist()
        assert quadratic_form(1.0, 2.0, 0.9, P) \
            == pytest.approx(1.0 + 4.0 + 0.81, rel=1e-14)

    def test_even_symmetry(self, demo_config):
        P = demo_config.terminal_weight()
        a = quadratic_form(1.0, -2.0, 0.3, P.tolist())
        b = quadratic_form(-1.0, 2.0, 0.3, P.tolist())
        # z cannot be negated (domain), so compare the quadratic form directly
        v = np.array([1.0, -2.0, 0.3])
        assert a == pytest.approx(float(v @ P @ v), rel=1e-14)
        assert b == pytest.approx(float((-v + 2 * np.array([0, 0, 0.3])) @ P
                                        @ (-v + 2 * np.array([0, 0, 0.3]))),
                                  rel=1e-12)

    def test_unset_raises(self):
        with pytest.raises(TerminalWeightUnset):
            quadratic_form(0.0, 0.0, 0.5, NMPCConfig().terminal_weight())


class TestLyapunov:
    def test_scalar_identity_loop(self):
        # a_K = 0: P equals the stage weight
        assert discrete_lyapunov(np.array([[0.0]]), np.array([[1.0]]))[0, 0] \
            == pytest.approx(1.0, rel=1e-14)

    def test_scalar_geometric_series(self):
        # a_K = 0.5: P = 1 / (1 - 0.25) = 4/3
        assert discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))[0, 0] \
            == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_solves_matrix_equation(self):
        rng = np.random.default_rng(2)
        A = 0.5 * rng.normal(size=(3, 3))
        A /= max(1.0, np.max(np.abs(np.linalg.eigvals(A))) / 0.8)
        S = rng.normal(size=(3, 3))
        S = S @ S.T + np.eye(3)
        P = discrete_lyapunov(A, S)
        assert np.allclose(A.T @ P @ A - P, -S, atol=1e-10)


class TestSynthesis:
    def test_demo_weight_is_spd_and_loop_stable(self, demo_path, demo_config):
        P = demo_config.terminal_weight()
        assert np.allclose(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) > 0.0

    def test_monte_carlo_decrease_in_terminal_region(self, demo_path, demo_config):
        """V_f(x+) - V_f(x) <= -l(x, kf(x)) + 1e-4 on the terminal region.

        The slack absorbs the vestigial heading-reference penalty
        R_22 * phi_p^2 (~3e-5), which never vanishes because the heading
        reference is 0 while the path tangent is not.
        """
        cfg = demo_config
        P = cfg.terminal_weight()
        rows = P.tolist()
        gamma = 0.003
        rng = np.random.default_rng(3)
        count = 0
        worst = -np.inf
        while count < 1000:
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0.0, 0.1)
            z = abs(v[2])
            if z < 1e-4:
                continue
            xv = np.array([v[0], v[1], z])
            if float(xv @ P @ xv) > gamma:
                continue
            count += 1
            x = GuidanceState(*xv)
            kf = sglos(x, demo_path, cfg.terminal_law)
            xp = euler_step(x, kf, 0.0, cfg.T_m, demo_path)
            gap = (quadratic_form(xp.x_e, xp.y_e, xp.z, rows)
                   - quadratic_form(*xv, rows) + stage_cost(x, kf, cfg))
            worst = max(worst, gap)
        assert worst <= 1e-4

    def test_unstable_loop_detected(self, demo_path):
        # a huge guidance period makes the Euler closed loop expansive
        cfg = NMPCConfig(T_m=200.0)
        with pytest.raises(UnstableTerminalLoop):
            synthesize_terminal_weight(demo_path, cfg)

    def test_line_path_z_mode_floored(self, xaxis_path):
        cfg = NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))
        P = synthesize_terminal_weight(xaxis_path, cfg)
        evals = np.linalg.eigvalsh(P)
        assert evals.min() >= 1e-12  # decoupled z mode floored, still PD


class TestPredict:
    """The horizon prediction under the held sway is errdyn.rollout."""

    def test_equilibrium_errors_stay_zero(self, xaxis_path, demo_config):
        x = GuidanceState(0.0, 0.0, 0.9)
        u = InputCmd(0.15, 0.0, 0.15)
        states = rollout(x, [u] * demo_config.N, 0.0, demo_config.T_m,
                         xaxis_path)
        assert all(s.x_e == 0.0 and s.y_e == 0.0 for s in states)

    def test_single_step_recursion(self, demo_path, demo_config):
        x = GuidanceState(1.0, 1.0, 0.5)
        u = InputCmd(0.1, 0.2, 0.1)
        states = rollout(x, [u], 0.0, demo_config.T_m, demo_path)
        assert states == [x, euler_step(x, u, 0.0, demo_config.T_m,
                                        demo_path)]

    def test_against_fine_integration(self, demo_path, demo_config):
        """Coarse prediction approaches a fine-step oracle at first order."""
        x0 = GuidanceState(1.0, -2.0, 0.3)
        useq = [InputCmd(0.2, 0.1, 0.3), InputCmd(0.15, 0.3, 0.2),
                InputCmd(0.1, 0.5, 0.1)]

        def fine(dt):
            x = x0
            out = [x0]
            for u in useq:
                for _ in range(int(round(1.0 / dt))):
                    x = euler_step(x, u, 0.0, dt, demo_path)
                out.append(x)
            return out

        ref = fine(1e-3)
        coarse = rollout(x0, useq, 0.0, demo_config.T_m, demo_path)
        half = []
        x = x0
        for u in useq:
            x = euler_step(x, u, 0.0, 0.5, demo_path)
            x = euler_step(x, u, 0.0, 0.5, demo_path)
            half.append(x)

        def gap(states):
            return max(math.hypot(a.x_e - b.x_e, a.y_e - b.y_e)
                       for a, b in zip(states[1:], ref[1:]))

        assert gap(coarse) < 0.05
        assert gap(coarse) / gap([x0] + half) > 1.5


class TestSolve:
    def test_infeasible_start_rejected(self, demo_path, demo_config):
        with pytest.raises(InfeasibleStart):
            NMPCSolver(demo_config, demo_path).solve(
                GuidanceState(0, 0, 0.5), 0.0, InputCmd(0.5, 0.0, 0.1))

    def test_terminal_weight_required(self, demo_path):
        with pytest.raises(TerminalWeightUnset):
            NMPCSolver(NMPCConfig(), demo_path)

    @pytest.mark.parametrize("kkt_tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_kkt_tol_must_be_finite_and_positive(self, demo_path,
                                                 demo_config, kkt_tol):
        with pytest.raises(ValueError, match="kkt_tol"):
            NMPCSolver(demo_config, demo_path, kkt_tol=kkt_tol)

    @pytest.mark.parametrize("max_iterations", [0, -2, True, 3.0, "5"])
    def test_max_iterations_must_be_a_positive_int(self, demo_path,
                                                   demo_config,
                                                   max_iterations):
        with pytest.raises(ValueError, match="max_iterations"):
            NMPCSolver(demo_config, demo_path, max_iterations=max_iterations)

    def test_valid_solver_arguments_kept(self, demo_path, demo_config):
        solver = NMPCSolver(demo_config, demo_path, kkt_tol=1e-4,
                            max_iterations=1)
        assert (solver.kkt_tol, solver.max_iterations) == (1e-4, 1)

    def test_line_equilibrium_is_stationary(self, xaxis_path):
        cfg = NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))
        cfg = replace(cfg, P=synthesize_terminal_weight(xaxis_path, cfg))
        up = InputCmd(0.15, 0.0, 0.15)
        x = GuidanceState(0.0, 0.0, 0.05)
        res = NMPCSolver(cfg, xaxis_path).solve(x, 0.0, up)
        for cmd in res.u_seq:
            assert cmd == up  # held bit-exactly
        assert res.J_opt == pytest.approx(0.0, abs=1e-10)
        # coarse grid over first-step perturbations finds nothing better
        c = cfg.constraints
        for du, dpsi, dtar in itertools.product((-0.02, 0.0, 0.02), repeat=3):
            cand = clamp_inputs(InputCmd(up.u + du, up.psi + dpsi,
                                         up.u_tar + dtar), up, c)
            seq = [cand] + [clamp_inputs(cand, cand, c)] * (cfg.N - 1)
            states = rollout(x, seq, 0.0, cfg.T_m, xaxis_path)
            assert horizon_cost(x, states, seq, cfg) >= res.J_opt - 1e-9

    def test_constant_hold_always_feasible(self, demo_path, demo_config):
        # corner previous input, ugly state: must return without raising
        up = InputCmd(demo_config.constraints.u_max, 3.0,
                      demo_config.constraints.eps)
        res = NMPCSolver(demo_config, demo_path).solve(
            GuidanceState(9.0, -9.0, 0.97), 0.14, up)
        assert len(res.u_seq) == demo_config.N

    def test_single_step_vertex_solution(self, xaxis_path):
        """With references far outside the boxes, the optimum is a vertex;
        enumerate all feasible vertices and pick the best by oracle."""
        cfg = NMPCConfig(N=1, Q=np.array([1.0, 1.0, 0.0]),
                         R=np.array([5.0, 5.0, 5.0]),
                         u_ref=InputCmd(10.0, -1.0, 10.0))
        cfg = replace(cfg, P=np.eye(3) * 1e-9 + np.diag([1e-6, 1e-6, 0]))
        c = cfg.constraints
        up = InputCmd(0.1, 0.0, 0.3)
        x = GuidanceState(0.0, 0.0, 0.5)
        res = NMPCSolver(cfg, xaxis_path).solve(x, 0.0, up)

        u_iv = (max(0.0, up.u - c.du_max), min(c.u_max, up.u + c.du_max))
        psi_iv = (up.psi - c.dpsi_max, up.psi + c.dpsi_max)
        tar_iv = (c.eps, c.u_tar_max)
        best = None
        for uu, pp, tt in itertools.product(u_iv, psi_iv, tar_iv):
            seq = [InputCmd(uu, pp, tt)]
            states = rollout(x, seq, 0.0, cfg.T_m, xaxis_path)
            J = horizon_cost(x, states, seq, cfg)
            if best is None or J < best[0]:
                best = (J, seq[0])
        assert res.u_seq[0].u == pytest.approx(best[1].u, abs=1e-7)
        assert res.u_seq[0].psi == pytest.approx(best[1].psi, abs=1e-7)
        assert res.u_seq[0].u_tar == pytest.approx(best[1].u_tar, abs=1e-7)
        assert res.J_opt <= best[0] + 1e-9

    def test_warm_start_never_worse(self, demo_path, demo_config):
        pt = sample_path(demo_path, 2.5)
        x = GuidanceState(1.38, 5.85, z_of_omega(2.5))
        up = InputCmd(0.0, pt.phi_p, 0.01)
        solver = NMPCSolver(demo_config, demo_path)
        cold = solver.solve(x, 0.0, up)
        hot = solver.solve(x, 0.0, up, warm=cold)
        assert hot.J_opt <= cold.J_opt + 1e-8

    def test_cost_lower_bound(self, demo_path, demo_config):
        x = GuidanceState(2.0, -3.0, 0.4)
        up = InputCmd(0.1, 0.2, 0.2)
        res = NMPCSolver(demo_config, demo_path).solve(x, 0.05, up)
        assert res.J_opt >= stage_cost(x, res.u_seq[0], demo_config) - 1e-12

    def test_output_feasibility_chained(self, demo_path, demo_config):
        c = demo_config.constraints
        x = GuidanceState(-5.0, 7.0, 0.6)
        up = InputCmd(0.05, -1.0, 0.5)
        res = NMPCSolver(demo_config, demo_path).solve(x, -0.1, up)
        prev = up
        for cmd in res.u_seq:
            assert clamp_inputs(cmd, prev, c) == cmd
            prev = cmd


class TestSQPWork:
    def test_failed_line_search_keeps_the_linearization(self, monkeypatch,
                                                        demo_path,
                                                        demo_config):
        """The first line search fails (the patched cost rejects every
        trial), so the damped QP is re-solved at the same iterate: one
        linearization per distinct iterate, and the exact curvature still
        switches on at the repeated iterate."""
        linearized, curved, problems = [], [], []
        real_sens = nmpc_mod.sensitivity_flat
        real_curv = nmpc_mod.curvature_flat
        real_cost = nmpc_mod.horizon_cost_flat
        real_solve = nmpc_mod.solve_qp

        def sens(X, u_flat, *args):
            linearized.append(tuple(u_flat))
            return real_sens(X, u_flat, *args)

        def curv(S, X, u_flat, *args):
            curved.append(tuple(u_flat))
            return real_curv(S, X, u_flat, *args)

        def solve(prob, warm=None):
            problems.append((prob.H.copy(), prob.g.copy()))
            return real_solve(prob, warm=warm)

        def cost(X, u_flat, weights):
            # Line-search trials of the first QP step all fail.
            return math.inf if len(problems) == 1 else \
                real_cost(X, u_flat, weights)

        for name, fake in (("sensitivity_flat", sens),
                           ("curvature_flat", curv),
                           ("horizon_cost_flat", cost), ("solve_qp", solve)):
            monkeypatch.setattr(nmpc_mod, name, fake)
        res = NMPCSolver(demo_config, demo_path).solve(
            GuidanceState(1.38, 5.85, 1.0 / 3.5), 0.0,
            InputCmd(0.0, 0.56, 0.01))
        assert res.kkt_residual <= nmpc_mod.KKT_TOL
        assert len(linearized) == len(set(linearized))
        # The repeat re-solves the first linearization with more damping.
        assert np.array_equal(problems[0][1], problems[1][1])
        assert not np.array_equal(problems[0][0], problems[1][0])
        assert curved[0] == linearized[0]

    def test_constrained_qps_answered_from_the_warm_set(self, monkeypatch):
        """Within a solve each QP gets the working set the previous QP
        ended on; most constrained QPs are settled by that set alone."""
        results = []
        passes = []
        real_solve, real_active_set = nmpc_mod.solve_qp, qp_mod._active_set

        def solve(prob, warm=None):
            before = len(passes)
            sol = real_solve(prob, warm=warm)
            results.append((sol, len(passes) > before))
            return sol

        def active_set(*args):
            passes.append(None)
            return real_active_set(*args)

        monkeypatch.setattr(nmpc_mod, "solve_qp", solve)
        monkeypatch.setattr(qp_mod, "_active_set", active_set)
        run_scenario(realistic_scenario("nmpc", duration=60.0))
        constrained = [(sol, ran) for sol, ran in results if sol.active_set]
        from_warm = [sol for sol, ran in constrained if not ran]
        assert len(constrained) >= 100
        assert all(sol.iterations == 1 and sol.converged for sol in from_warm)
        assert len(from_warm) >= 0.7 * len(constrained)
