import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from pfguide import (GuidanceState, InfeasibleStart, InputCmd, NMPCConfig,
                     NMPCSolver, PNMPCSolver, SGLOSParams,
                     UnstableTerminalLoop, case_study_path,
                     discrete_lyapunov, euler_step, jacobian_block,
                     line_path, polynomial_path, realistic_scenario,
                     run_scenario, sample_path, sglos, stage_cost,
                     state_jacobian, synthesize_terminal_weight, wrap_angle,
                     z_of_omega)
from pfguide import nmpc as nmpc_mod
from pfguide import pnmpc
from pfguide import qp as qp_mod
from pfguide.errdyn import flat_inputs, rollout
from pfguide.los import clamp_inputs
from pfguide.paths import path_frame
from pfguide.pnmpc import horizon_cost, quadratic_form
from pfguide.qp import QPSolution


def numeric_terminal_weight(path, cfg, h):
    """The terminal weight with A, B and the SGLOS gain K taken by central
    differences of euler_step and sglos at step h, at the synthesis point
    x = (0, 0, 1e-2), u = (0.1 u_r, phi_p, 0.1 u_r)."""
    z_bar = pnmpc._SYN_Z
    x_bar = np.array([0.0, 0.0, z_bar])
    u_bar = np.array([0.1 * cfg.u_r,
                      sample_path(path, 1.0 / z_bar - 1.0).phi_p,
                      0.1 * cfg.u_r])

    def f(xv, uv):
        nxt = euler_step(GuidanceState(*xv), InputCmd(*uv), 0.0, cfg.T_m,
                         path)
        return np.array([nxt.x_e, nxt.y_e, nxt.z])

    def kf(xv):
        cmd = sglos(GuidanceState(*xv), path, cfg.terminal_law)
        return np.array([cmd.u, cmd.psi, cmd.u_tar])

    A, B, K = np.empty((3, 3)), np.empty((3, 3)), np.empty((3, 3))
    for i, d in enumerate(h * np.eye(3)):
        A[:, i] = (f(x_bar + d, u_bar) - f(x_bar - d, u_bar)) / (2.0 * h)
        B[:, i] = (f(x_bar, u_bar + d) - f(x_bar, u_bar - d)) / (2.0 * h)
        hi, lo = kf(x_bar + d), kf(x_bar - d)
        K[:, i] = (hi - lo) / (2.0 * h)
        K[1, i] = wrap_angle(hi[1] - lo[1]) / (2.0 * h)
    return discrete_lyapunov(A + B @ K,
                             np.diag(cfg.Q) + K.T @ np.diag(cfg.R) @ K)


def public_jacobian_terminal_weight(path, cfg):
    """The terminal synthesis with A = I + T_m state_jacobian and B = T_m
    jacobian_block, each taken at its own path frame, and phi_p and
    dphi/domega from a third: the composition the synthesis replaced."""
    p = cfg.terminal_law
    z_bar = pnmpc._SYN_Z
    phi_bar, _, dphi_dw = path_frame(path, 1.0 / z_bar - 1.0)[:3]
    x_bar = GuidanceState(0.0, 0.0, z_bar)
    u_bar = InputCmd(0.1 * cfg.u_r, phi_bar, 0.1 * cfg.u_r)
    A = np.eye(3) + cfg.T_m * state_jacobian(x_bar, u_bar, 0.0, path)
    B = cfg.T_m * jacobian_block(x_bar, u_bar, 0.0, path).m
    K = np.array([[0.0, 0.0, 0.0],
                  [0.0, -1.0 / p.delta, -dphi_dw / (z_bar * z_bar)],
                  [p.k2, 0.0, 0.0]])
    P = discrete_lyapunov(A + B @ K,
                          np.diag(cfg.Q) + K.T @ np.diag(cfg.R) @ K)
    evmin = float(np.min(np.linalg.eigvalsh(P)))
    if evmin < 1e-12:
        P = P + (1e-12 - min(evmin, 0.0)) * np.eye(3)
    return P


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
        with pytest.raises(ValueError,
                           match="P must be a symmetric 3x3 matrix"):
            NMPCConfig(P=np.eye(2))

    @pytest.mark.parametrize("P", [
        [[math.inf, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]],
        [[1e308, 1e308, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 1.7e308, 0.0], [-1.7e308, 1.0, 0.0], [0.0, 0.0, 1.0]]],
        ids=["infinite", "nan", "sum-overflows", "difference-overflows"])
    def test_terminal_weight_must_be_finite(self, P):
        """A P that is not finite, or whose symmetric part 0.5 (P + P')
        overflows, is refused with a ValueError naming P; the overflow
        raises no RuntimeWarning."""
        with pytest.raises(ValueError, match="^P "):
            NMPCConfig(P=np.array(P))

    @pytest.mark.parametrize("N", [2.0, True])
    def test_horizon_must_be_an_int_not_a_boolean(self, N):
        with pytest.raises(ValueError, match="horizon"):
            NMPCConfig(N=N, P=np.eye(3))

    def test_zero_z_weight_allowed(self):
        NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))


def _reference(cfg):
    """The cost's input reference (u_r, 0, u_r)."""
    return InputCmd(cfg.u_r, 0.0, cfg.u_r)


class TestStageCost:
    def test_zero_at_reference(self, demo_config):
        assert stage_cost(GuidanceState(0.0, 0.0, 1e-12),
                          _reference(demo_config), demo_config) \
            == pytest.approx(0.0, abs=1e-20)

    def test_scalar_oracle_value(self, demo_config):
        # paper weights: 1*1 + 1*1 + 1e-5*1e-4 + 10*0.0025 + 1e-5*(0.01+0.0025)
        x = GuidanceState(1.0, 1.0, 0.01)
        ref = (1.0 + 1.0 + 1e-5 * 1e-4
               + 10.0 * 0.0025 + 1e-5 * 0.01 + 1e-5 * 0.0025)
        # The default config has no terminal weight, which the stage cost
        # does not need.
        for cfg in (demo_config, NMPCConfig()):
            u = InputCmd(cfg.u_r + 0.05, 0.1, cfg.u_r + 0.05)
            got = stage_cost(x, u, cfg)
            assert got == pytest.approx(ref, rel=1e-12)
            assert got == pytest.approx(2.0250001, abs=1e-6)

    def test_quadratic_homogeneity(self, demo_config):
        x1 = GuidanceState(0.3, -0.7, 0.2)
        x2 = GuidanceState(0.6, -1.4, 0.4)
        u = _reference(demo_config)
        assert stage_cost(x2, u, demo_config) \
            == pytest.approx(4.0 * stage_cost(x1, u, demo_config), rel=1e-12)

    def test_heading_deviation_wrapped(self, demo_config):
        u = InputCmd(demo_config.u_r, 2.0 * math.pi, demo_config.u_r)
        x = GuidanceState(0.0, 0.0, 1e-9)
        assert stage_cost(x, u, demo_config) == pytest.approx(0.0, abs=1e-15)


class TestTerminalCost:
    """x'Px, as quadratic_form evaluates it on the terminal weight's rows."""

    def test_zero_at_origin(self, demo_config):
        P = demo_config.P.tolist()
        assert quadratic_form(0.0, 0.0, 1e-12, P) \
            == pytest.approx(0.0, abs=1e-12)

    def test_identity_weight(self):
        P = NMPCConfig(P=np.eye(3)).P.tolist()
        assert quadratic_form(1.0, 2.0, 0.9, P) \
            == pytest.approx(1.0 + 4.0 + 0.81, rel=1e-14)

    def test_even_symmetry(self, demo_config):
        P = demo_config.P
        a = quadratic_form(1.0, -2.0, 0.3, P.tolist())
        b = quadratic_form(-1.0, 2.0, 0.3, P.tolist())
        # z cannot be negated (domain), so compare the quadratic form directly
        v = np.array([1.0, -2.0, 0.3])
        assert a == pytest.approx(float(v @ P @ v), rel=1e-14)
        assert b == pytest.approx(float((-v + 2 * np.array([0, 0, 0.3])) @ P
                                        @ (-v + 2 * np.array([0, 0, 0.3]))),
                                  rel=1e-12)

    def test_unset_raises(self, demo_path):
        """Outside a solver, which derives P for its path, a config without
        P has no terminal cost to evaluate."""
        x = GuidanceState(0.0, 0.0, 0.5)
        seq = [InputCmd(0.15, 0.0, 0.15)] * 3
        states = rollout(x, seq, 0.0, 1.0, demo_path)
        with pytest.raises(ValueError, match="terminal weight P"):
            horizon_cost(x, states, seq, NMPCConfig())


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
        P = demo_config.P
        assert np.allclose(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) > 0.0

    def test_monte_carlo_decrease_in_terminal_region(self, demo_path, demo_config):
        """V_f(x+) - V_f(x) <= -l(x, kf(x)) + 1e-4 on the terminal region.

        The slack absorbs the vestigial heading-reference penalty
        R_22 * phi_p^2 (~3e-5), which never vanishes because the heading
        reference is 0 while the path tangent is not.
        """
        cfg = demo_config
        P = cfg.P
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

    @pytest.mark.parametrize("path", [
        case_study_path(),
        polynomial_path([0.0, 1.0, 0.01, 1e-4], [0.0, 0.5, -0.002, -1e-5]),
        line_path()], ids=["case_study", "cubic", "line"])
    def test_matches_central_differences(self, path):
        """The analytic A, B and closed-form K agree with central
        differences of the model and of SGLOS, whose truncation error in
        P falls as h^2 (3e-5 relative at h = 1e-6 on case_study)."""
        cfg = NMPCConfig(u_r=0.15)
        P = synthesize_terminal_weight(path, cfg)
        ref = numeric_terminal_weight(path, cfg, 1e-7)
        assert np.max(np.abs(P - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_line_path_z_mode_floored(self, xaxis_path):
        cfg = NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))
        P = synthesize_terminal_weight(xaxis_path, cfg)
        evals = np.linalg.eigvalsh(P)
        assert evals.min() >= 1e-12  # decoupled z mode floored, still PD

    @pytest.mark.parametrize("path", [
        case_study_path(), line_path(), line_path(direction=(-1.0, 0.0)),
        line_path(origin=(1.0, -2.0), direction=(0.6, 0.8)),
        polynomial_path([0.0, 1.0, 0.01, 1e-4], [0.0, 0.5, -0.002, -1e-5])],
        ids=["case_study", "east", "west", "oblique", "cubic"])
    def test_linearizes_once(self, monkeypatch, path):
        """One path frame and one Jacobian evaluation give, bit for bit,
        the P of the public Jacobians at their own frames."""
        configs = (NMPCConfig(), NMPCConfig(u_r=0.3, T_m=2.0),
                   NMPCConfig(Q=np.array([1.0, 1.0, 0.0])),
                   NMPCConfig(terminal_law=SGLOSParams(k1=0.4, k2=0.6,
                                                       delta=0.8)))
        expected = [public_jacobian_terminal_weight(path, cfg)
                    for cfg in configs]
        calls = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for name in ("path_frame", "_jacobians", "state_jacobian",
                     "jacobian_block"):
            monkeypatch.setattr(pnmpc, name,
                                counted(name, getattr(pnmpc, name)))
        for cfg, P in zip(configs, expected):
            calls.clear()
            assert synthesize_terminal_weight(path, cfg).tobytes() \
                == P.tobytes()
            assert calls == ["path_frame", "_jacobians"]


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

    @pytest.mark.parametrize("path", [case_study_path(), line_path()],
                             ids=["case_study", "line"])
    @pytest.mark.parametrize("law", ["nmpc", "pnmpc-exact", "pnmpc-frozen"])
    def test_terminal_weight_derived_when_unset(self, path, law):
        """A solver handed a config without P holds the synthesized P, bit
        for bit, and solves as one handed a config that carries it."""
        def solver(cfg):
            if law == "nmpc":
                return NMPCSolver(cfg, path)
            return PNMPCSolver(cfg, path, law.split("-")[1])

        cfg = NMPCConfig()
        P = synthesize_terminal_weight(path, cfg)
        derived = solver(cfg)
        given = solver(replace(cfg, P=P))
        assert derived.cfg.P.tobytes() == P.tobytes()
        x = GuidanceState(1.5, -2.0, 1.0 / 4.0)
        u_prev = InputCmd(0.1, 0.3, 0.2)
        results = [s.solve(x, 0.02, u_prev, timer=lambda: 0.0)
                   for s in (derived, given)]
        assert repr(results[0]) == repr(results[1])

    def test_tolerances_are_the_module_constants(self, demo_path,
                                                 demo_config):
        solver = NMPCSolver(demo_config, demo_path)
        assert (solver.kkt_tol, solver.max_iterations) \
            == (nmpc_mod.KKT_TOL, nmpc_mod.MAX_MAJOR_ITER)

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
        enumerate all feasible vertices and pick the best by oracle.  The
        heading reference 0 lies 1 rad below the previous heading."""
        cfg = NMPCConfig(N=1, Q=np.array([1.0, 1.0, 0.0]),
                         R=np.array([5.0, 5.0, 5.0]), u_r=10.0)
        cfg = replace(cfg, P=np.eye(3) * 1e-9 + np.diag([1e-6, 1e-6, 0]))
        c = cfg.constraints
        up = InputCmd(0.1, 1.0, 0.3)
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
    def test_failed_line_search_keeps_the_incumbent(self, monkeypatch,
                                                    caplog, demo_path,
                                                    demo_config):
        """The first line search fails (the patched pass 2 costs every
        trial at infinity), so the solve ends after one iteration on the
        best candidate, reports the KKT residual it has and says why."""
        x, u_prev = GuidanceState(1.38, 5.85, 1.0 / 3.5), \
            InputCmd(0.0, 0.56, 0.01)
        solver = NMPCSolver(demo_config, demo_path)
        _, (best_U, _, best_J, _) = solver._candidates(
            (x.x_e, x.y_e, x.z), path_frame(demo_path, 1.0 / x.z - 1.0),
            0.0, u_prev, None)
        problems = []
        real_pass2 = pnmpc.projected_rollout_flat
        real_solve = nmpc_mod.solve_qp

        def solve(prob, warm=None):
            problems.append(prob)
            return real_solve(prob, warm=warm)

        def pass2(*args):
            # Line-search trials of the first QP step all fail.
            V, X, J, frames = real_pass2(*args)
            return V, X, math.inf if len(problems) == 1 else J, frames

        monkeypatch.setattr(pnmpc, "projected_rollout_flat", pass2)
        monkeypatch.setattr(nmpc_mod, "solve_qp", solve)
        with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
            res = solver.solve(x, 0.0, u_prev)
        assert res.iterations == 1 and len(problems) == 1
        assert flat_inputs(res.u_seq) == best_U
        assert res.J_opt == best_J
        assert res.kkt_residual > nmpc_mod.KKT_TOL
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "pfguide.nmpc" and r.levelno == logging.WARNING]
        assert len(msgs) == 1 and "line search failed" in msgs[0]

    def test_zero_qp_step_ends_the_solve(self, monkeypatch, caplog,
                                         demo_path, demo_config):
        """A converged QP whose step is zero ends the solve after one
        iteration on the best candidate, with no warning."""
        x, u_prev = GuidanceState(1.38, 5.85, 1.0 / 3.5), \
            InputCmd(0.0, 0.56, 0.01)
        solver = NMPCSolver(demo_config, demo_path)
        _, (best_U, _, best_J, _) = solver._candidates(
            (x.x_e, x.y_e, x.z), path_frame(demo_path, 1.0 / x.z - 1.0),
            0.0, u_prev, None)
        problems = []

        def solve(prob, warm=None):
            problems.append(prob)
            return QPSolution(np.zeros(prob.H.shape[0]), (), 0.0, 1)

        monkeypatch.setattr(nmpc_mod, "solve_qp", solve)
        with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
            res = solver.solve(x, 0.0, u_prev)
        assert res.iterations == 1 and len(problems) == 1
        assert flat_inputs(res.u_seq) == best_U
        assert res.J_opt == best_J
        assert res.kkt_residual > nmpc_mod.KKT_TOL
        assert [r for r in caplog.records if r.name == "pfguide.nmpc"] == []

    def test_qp_hessian_is_the_linearization_or_its_convexification(
            self, monkeypatch):
        """Every QP carries, bit for bit, the Hessian its linearization
        built (_hessian) or _convexified's output for it: no damping term
        is added."""
        built, carried = [], []
        real_hessian = NMPCSolver._hessian
        real_conv, real_solve = nmpc_mod._convexified, nmpc_mod.solve_qp

        def hessian(self, *args):
            H = real_hessian(self, *args)
            built[:] = [H.tobytes()]
            return H

        def conv(*args):
            H = real_conv(*args)
            built.append(H.tobytes())
            return H

        def solve(prob, warm=None):
            carried.append(prob.H.tobytes() in built)
            return real_solve(prob, warm=warm)

        monkeypatch.setattr(NMPCSolver, "_hessian", hessian)
        for name, fake in (("_convexified", conv), ("solve_qp", solve)):
            monkeypatch.setattr(nmpc_mod, name, fake)
        run_scenario(realistic_scenario("nmpc", duration=20.0))
        assert len(carried) >= 50
        assert all(carried)

    def test_pass1_rollouts_and_hessians_counted(self, monkeypatch):
        """On 30 s of the realistic NMPC run, at most 30% of the pass-1
        calls (one per major iteration) roll the prediction out; the
        others take the states of the pass 2 that applied their point.  H
        is built once per QP solved, and never for a stationarity test
        that ends the solve."""
        counts = dict.fromkeys(("pass 1", "rollouts", "hessians", "QPs"), 0)
        real_pass1, real_hessian = NMPCSolver._linearize, NMPCSolver._hessian
        real_solve = nmpc_mod.solve_qp

        def pass1(x0, U, v, T_m, path, along=None):
            counts["pass 1"] += 1
            counts["rollouts"] += along is None
            return real_pass1(x0, U, v, T_m, path, along)

        def hessian(self, *args):
            counts["hessians"] += 1
            return real_hessian(self, *args)

        def solve(prob, warm=None):
            counts["QPs"] += 1
            return real_solve(prob, warm=warm)

        monkeypatch.setattr(NMPCSolver, "_linearize", staticmethod(pass1))
        monkeypatch.setattr(NMPCSolver, "_hessian", hessian)
        monkeypatch.setattr(nmpc_mod, "solve_qp", solve)
        run_scenario(realistic_scenario("nmpc", duration=30.0),
                     timer=lambda: 0.0)
        assert counts["pass 1"] >= 60, counts
        assert counts["rollouts"] <= 0.3 * counts["pass 1"], counts
        assert counts["hessians"] == counts["QPs"] >= 30, counts

    def test_non_finite_gradient_is_refused(self, demo_path):
        """A gradient that overflows (surge weight 10 on a deviation from
        the reference 1.7e308) fails the solve before the stationarity
        test reads it, with QPProblem.on_rows' ValueError for such a g."""
        solver = NMPCSolver(NMPCConfig(u_r=1.7e308, P=np.eye(3)), demo_path)
        hessians, real = [], NMPCSolver._hessian
        solver._hessian = lambda *args: hessians.append(None) or real(
            solver, *args)
        # numpy's overflow warning is not the test.
        with pytest.raises(ValueError) as exc, np.errstate(over="ignore"):
            solver.solve(GuidanceState(1.0, 2.0, 0.5), 0.0,
                         InputCmd(0.1, 0.0, 0.1))
        assert str(exc.value) == "H and g must be finite"
        assert hessians == []

    def test_a_nan_step_is_not_a_zero_step(self, monkeypatch, demo_path,
                                           demo_config):
        """A converged QP whose step holds a NaN does not end the solve as
        a zero step would: the trial it makes fails pass 2."""
        monkeypatch.setattr(nmpc_mod, "solve_qp", lambda prob, warm=None:
                            QPSolution(np.full(prob.g.shape, math.nan), (),
                                       0.0, 1))
        with pytest.raises(ValueError, match="non-finite input command"):
            NMPCSolver(demo_config, demo_path).solve(
                GuidanceState(1.38, 5.85, 1.0 / 3.5), 0.0,
                InputCmd(0.0, 0.56, 0.01))

    def test_ill_conditioned_qp_step_is_taken(self, caplog):
        """The benchmark's seed-4245 start of scenario 3: the second QP of
        the first solve has a penalized exact Hessian with cond(H) 1.4e8,
        and its optimum must be certified so that the SQP takes the
        descent step (g.d = -46.9) instead of stopping at KKT 161.7."""
        sc = replace(realistic_scenario("nmpc", duration=1.0),
                     x0=9.590192949836688, y0=11.957564349296453,
                     omega0=2.0427784612741156)
        with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
            trace = run_scenario(sc, timer=lambda: 0.0)
        assert [r.getMessage() for r in caplog.records
                if r.name == "pfguide.nmpc"] == []
        assert trace["kkt_residual"][0] <= nmpc_mod.KKT_TOL

    def test_iterate_is_not_projected(self, monkeypatch, caplog):
        """The point the SQP linearizes at is the hold as held and each
        accepted trial unprojected.  Pass 2 maps a heading of -pi to +pi,
        and the QP's rate rows difference headings unwrapped, so taking
        the projected commands as the iterate here made delta = 0
        infeasible: two QPs went to Phase 1 and a line search failed at
        KKT residual 7.4."""
        path = line_path(direction=(-1.0, 0.0))
        phase1, real = [], qp_mod._phase1
        monkeypatch.setattr(qp_mod, "_phase1", lambda *args: (
            phase1.append(args) or real(*args)))
        with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
            res = NMPCSolver(NMPCConfig(), path).solve(
                GuidanceState(0.0, 0.5, 1.0 / 6.0), 0.0,
                InputCmd(0.1, -math.pi, 0.1))
        assert phase1 == []
        assert not any("line search failed" in r.getMessage()
                       for r in caplog.records)
        assert res.kkt_residual < 1e-4

    def test_exact_phase_hessian_is_checked(self, monkeypatch):
        """The exact-phase Hessian is handed to the QP in a new QPProblem,
        so its checks run on it: a non-symmetric one is refused."""
        sc = replace(realistic_scenario("nmpc"), x0=9.590192949836688,
                     y0=11.957564349296453, omega0=2.0427784612741156)
        pt = sample_path(sc.path, sc.omega0)
        c, s = math.cos(pt.phi_p), math.sin(pt.phi_p)
        dx, dy = sc.x0 - pt.x_p, sc.y0 - pt.y_p
        x = GuidanceState(c * dx + s * dy, -s * dx + c * dy,
                          z_of_omega(sc.omega0))
        u_prev = InputCmd(0.0, pt.phi_p, sc.constraints.eps)
        real, calls = nmpc_mod._convexified, []

        def skewed(*args):
            H = real(*args)
            calls.append(H)
            return H + np.triu(np.full(H.shape, 1e-6 * np.abs(H).max()), 1)

        monkeypatch.setattr(nmpc_mod, "_convexified", skewed)
        with pytest.raises(ValueError, match="H must be symmetric"):
            NMPCSolver(sc.guidance_config(), sc.path).solve(x, 0.0, u_prev)
        assert len(calls) == 1

    def test_constrained_qps_answered_from_the_warm_set(self, monkeypatch,
                                                        constrained_qp_runs):
        """Within a solve each QP gets the working set the previous QP
        ended on; a QP handed its own optimal set is settled by one KKT
        solve of that set, with no active-set pass."""
        results = []
        passes = []
        real_solve, real_active_set = nmpc_mod.solve_qp, qp_mod._active_set

        def solve(prob, warm=None):
            before = len(passes)
            sol = real_solve(prob, warm=warm)
            results.append((warm.active_set, sol, len(passes) > before))
            return sol

        def active_set(*args):
            passes.append(None)
            return real_active_set(*args)

        monkeypatch.setattr(nmpc_mod, "solve_qp", solve)
        monkeypatch.setattr(qp_mod, "_active_set", active_set)
        for sc in constrained_qp_runs:
            run_scenario(sc)
        constrained = [r for r in results if r[1].active_set]
        assert len(constrained) >= 100
        from_warm = [sol for _, sol, ran in constrained if not ran]
        assert all(sol.iterations == 1 and sol.converged for sol in from_warm)
        handed_optimal = [(sol, ran) for warm, sol, ran in constrained
                          if warm == sol.active_set]
        # 85 of the corpus's QPs get their own optimal set; a handoff
        # broken on most of them must fail here.
        assert len(handed_optimal) >= 50
        for sol, ran in handed_optimal:
            assert not ran
            assert sol.iterations == 1 and sol.converged
