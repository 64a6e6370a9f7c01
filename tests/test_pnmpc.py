import math
from dataclasses import replace

import numpy as np
import pytest

from pfguide import (GuidanceState, InputCmd, JacobianBlock, NMPCConfig,
                     NMPCSolver, PNMPCSolver, QPProblem, dynamics,
                     horizon_cost, jacobian_block, sample_path, solve_qp,
                     wrap_angle, z_of_omega)
from pfguide import pnmpc
from pfguide.errdyn import rollout
from pfguide.los import clamp_inputs
from pfguide.pnmpc import (_increment_lower, horizon_weights, reference_stack,
                           sensitivity_along, snap_feasible, stack_inputs,
                           stack_states)


class TestJacobianBlock:
    def test_aligned_heading_entries(self, demo_path):
        w = 3.0
        pt = sample_path(demo_path, w)
        x = GuidanceState(0.5, -1.0, z_of_omega(w))
        u = InputCmd(0.2, pt.phi_p, 0.1)
        J = jacobian_block(x, u, 0.0, demo_path).m
        assert J[0, 0] == pytest.approx(1.0, abs=1e-15)   # cos(0)
        assert J[1, 0] == pytest.approx(0.0, abs=1e-15)   # sin(0)
        assert J[1, 1] == pytest.approx(u.u, rel=1e-12)   # u0 cos(0)

    def test_unit_z_line(self, xaxis_path):
        J = jacobian_block(GuidanceState(0.0, 0.0, 1.0),
                           InputCmd(0.1, 0.0, 0.1), 0.0, xaxis_path).m
        assert J[2, 2] == -1.0  # -z^2/F with z = F = 1

    def test_structural_zeros_enforced(self):
        with pytest.raises(ValueError):
            JacobianBlock(np.ones((3, 3)))
        with pytest.raises(ValueError):
            JacobianBlock(np.full((3, 3), np.nan))

    def test_matches_finite_differences(self, demo_path):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(50):
            x = GuidanceState(rng.uniform(-10, 10), rng.uniform(-10, 10),
                              rng.uniform(0.01, 1.0))
            u = InputCmd(rng.uniform(0, 0.225), rng.uniform(-math.pi, math.pi),
                         rng.uniform(0.01, 0.75))
            v = rng.uniform(-0.15, 0.15)
            J = jacobian_block(x, u, v, demo_path).m
            base = np.array([u.u, u.psi, u.u_tar])
            for col in range(3):
                d = np.zeros(3)
                d[col] = h
                hi = np.array(dynamics(x, InputCmd(*(base + d)), v, demo_path))
                lo = np.array(dynamics(x, InputCmd(*(base - d)), v, demo_path))
                fd = (hi - lo) / (2 * h)
                assert np.all(np.abs(fd - J[:, col])
                              <= 1e-6 * np.maximum(np.abs(J[:, col]), 1e-3))


def paper_G(Jm, N, T_m):
    """The paper's forced-response matrix in the input increments: block
    (i, j) = (i-j+1) T_m J on and below the block diagonal."""
    G = np.zeros((3 * N, 3 * N))
    for i in range(N):
        for j in range(i + 1):
            G[3 * i:3 * i + 3, 3 * j:3 * j + 3] = (i - j + 1) * T_m * Jm
    return G


def increment_difference(N):
    """Per-step perturbations to increments: I on the block diagonal, -I
    below it (the inverse of _increment_lower)."""
    return np.kron(np.eye(N) - np.eye(N, k=-1), np.eye(3))


def frozen_operator(monkeypatch, cfg, path, x, up, v, Jm=None):
    """The S the frozen solver hands to linearized_qp; Jm, when given,
    replaces the instant-0 input Jacobian."""
    captured = []
    real = pnmpc.linearized_qp

    def capture(S, *args):
        captured.append(S)
        return real(S, *args)

    monkeypatch.setattr(pnmpc, "linearized_qp", capture)
    if Jm is not None:
        monkeypatch.setattr(pnmpc, "jacobian_block",
                            lambda *args: JacobianBlock(Jm))
    PNMPCSolver(cfg, path, "frozen").solve(x, v, up)
    assert len(captured) == 1
    return captured[0]


class TestAssembleG:
    """The frozen operator S = kron(tril(ones), T_m J) is the paper's G
    mapped from input increments onto per-step perturbations."""

    x = GuidanceState(0.5, -1.0, 0.3)
    up = InputCmd(0.1, 0.5, 0.1)

    def test_identity_block_layout(self, monkeypatch, demo_path, demo_config):
        cfg = replace(demo_config, N=2, T_m=1.0)
        S = frozen_operator(monkeypatch, cfg, demo_path, self.x, self.up, 0.0,
                            np.eye(3))
        expect = np.block([[np.eye(3), np.zeros((3, 3))],
                           [np.eye(3), np.eye(3)]])
        assert np.array_equal(S, expect)
        assert np.array_equal(paper_G(np.eye(3), 2, 1.0)
                              @ increment_difference(2), expect)

    def test_single_step(self, monkeypatch, demo_path, demo_config):
        Jm = np.diag([2.0, 3.0, 4.0])
        cfg = replace(demo_config, N=1, T_m=0.5)
        S = frozen_operator(monkeypatch, cfg, demo_path, self.x, self.up, 0.0,
                            Jm)
        assert np.array_equal(S, 0.5 * Jm)
        assert np.array_equal(S, paper_G(Jm, 1, 0.5))

    def test_block_toeplitz_structure(self, monkeypatch, demo_path,
                                      demo_config):
        rng = np.random.default_rng(4)
        Jm = rng.normal(size=(3, 3))
        Jm[2, :2] = 0.0
        cfg = replace(demo_config, N=4, T_m=0.7)
        S = frozen_operator(monkeypatch, cfg, demo_path, self.x, self.up, 0.0,
                            Jm)
        for i in range(4):
            for j in range(4):
                blk = S[3 * i:3 * i + 3, 3 * j:3 * j + 3]
                if j > i:
                    assert np.array_equal(blk, np.zeros((3, 3)))
                else:
                    assert np.array_equal(blk, 0.7 * Jm)

    def test_matrix_vector_matches_loop_oracle(self, monkeypatch, demo_path,
                                               demo_config):
        """Along real Jacobians, S equals the paper's G times the
        increment-difference map to rounding, for horizons 1..6."""
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(60):
            N = int(rng.integers(1, 7))
            T_m = float(rng.choice([0.1, 0.3, 0.5, 1.0]))
            cfg = replace(demo_config, N=N, T_m=T_m)
            x = GuidanceState(rng.uniform(-10, 10), rng.uniform(-10, 10),
                              rng.uniform(0.05, 1.0))
            up = InputCmd(rng.uniform(0.0, 0.225),
                          rng.uniform(-math.pi, math.pi),
                          rng.uniform(0.01, 0.75))
            v = rng.uniform(-0.15, 0.15)
            S = frozen_operator(monkeypatch, cfg, demo_path, x, up, v)
            ref = paper_G(jacobian_block(x, up, v, demo_path).m, N, T_m) \
                @ increment_difference(N)
            worst = max(worst, float(np.abs(S - ref).max())
                        / float(np.abs(ref).max()))
        assert worst <= 4e-15


class TestFreeResponse:
    """The prediction under the held previous input is rollout of
    [u_prev] * N."""

    def test_on_path_errors_stay_zero(self, xaxis_path, demo_config):
        x = GuidanceState(0.0, 0.0, 0.5)
        states = rollout(x, [InputCmd(0.15, 0.0, 0.15)] * demo_config.N, 0.0,
                         demo_config.T_m, xaxis_path)
        assert all(s.x_e == 0.0 and s.y_e == 0.0 for s in states)

    def test_matches_hand_rolled_recursion(self, demo_path, demo_config):
        # three explicit Euler steps written out with scalar arithmetic
        w0 = 2.5
        pt0 = sample_path(demo_path, w0)
        x = GuidanceState(1.3774706714887182, 5.853194685483319, z_of_omega(w0))
        up = InputCmd(0.0, pt0.phi_p, 0.01)

        def step(xe, ye, z):
            w = 1.0 / z - 1.0
            p = sample_path(demo_path, w)
            dpsi = up.psi - p.phi_p  # small here, no wrap needed
            kw = p.dphi_dw / p.F
            nxe = xe + up.u * math.cos(dpsi) - 0.0 + up.u_tar * (kw * ye - 1.0)
            nye = ye + up.u * math.sin(dpsi) + 0.0 - up.u_tar * kw * xe
            nz = z - z * z * up.u_tar / p.F
            return nxe, nye, nz

        ref = [(x.x_e, x.y_e, x.z)]
        for _ in range(3):
            ref.append(step(*ref[-1]))
        got = rollout(x, [up] * demo_config.N, 0.0, demo_config.T_m,
                      demo_path)
        for r, s in zip(ref, got):
            assert s.x_e == pytest.approx(r[0], rel=1e-12)
            assert s.y_e == pytest.approx(r[1], rel=1e-12)
            assert s.z == pytest.approx(r[2], rel=1e-12)


class TestSensitivity:
    def test_directional_derivative(self, demo_path, demo_config):
        cfg = demo_config
        x = GuidanceState(2.0, -1.5, 0.25)
        up = InputCmd(0.12, 0.3, 0.2)
        hold = [up] * cfg.N
        states = rollout(x, hold, 0.02, cfg.T_m, demo_path)
        S = sensitivity_along(states, hold, 0.02, cfg.T_m, demo_path)
        rng = np.random.default_rng(3)
        d = rng.normal(size=3 * cfg.N)
        h = 1e-6
        U0 = stack_inputs(hold)

        def pred(U):
            useq = [InputCmd(U[3 * j], U[3 * j + 1], U[3 * j + 2])
                    for j in range(cfg.N)]
            return stack_states(rollout(x, useq, 0.02, cfg.T_m, demo_path)[1:])

        fd = (pred(U0 + h * d) - pred(U0 - h * d)) / (2 * h)
        assert np.allclose(S @ d, fd, atol=1e-7)

    def test_first_order_residual_locked(self, demo_path, demo_config):
        """||rollout(u+du) - (y_free + G du)|| <= c ||du||^2 with c locked."""
        cfg = demo_config
        L = _increment_lower(cfg.N)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(40):
            x = GuidanceState(rng.uniform(-10, 10), rng.uniform(-10, 10),
                              rng.uniform(0.05, 1.0))
            up = InputCmd(rng.uniform(0, 0.225), rng.uniform(-3, 3),
                          rng.uniform(0.01, 0.75))
            hold = [up] * cfg.N
            states = rollout(x, hold, 0.0, cfg.T_m, demo_path)
            G = sensitivity_along(states, hold, 0.0, cfg.T_m, demo_path) @ L
            du = rng.normal(size=3 * cfg.N)
            du *= 1e-4 / np.linalg.norm(du)
            U = stack_inputs(hold) + L @ du
            useq = [InputCmd(U[3 * j], U[3 * j + 1], U[3 * j + 2])
                    for j in range(cfg.N)]
            pred = stack_states(rollout(x, useq, 0.0, cfg.T_m, demo_path)[1:])
            lin = stack_states(states[1:]) + G @ du
            worst = max(worst, float(np.linalg.norm(pred - lin)) / 1e-8)
        assert worst <= 4.0  # measured ~1.8 on this distribution


class TestLinearizedQP:
    def test_hessian_exactly_symmetric_and_bitwise_unchanged(self,
                                                             demo_config):
        # H is built as M + M' + diag(2r), M = S'WS; it must equal the
        # symmetrized 2(S'WS + diag r) bit for bit.
        cfg = demo_config
        N = cfg.N
        rng = np.random.default_rng(41)
        up = InputCmd(0.1, 0.2, 0.3)
        for _ in range(50):
            S = rng.normal(size=(3 * N, 3 * N)) * rng.choice([1e-3, 1.0, 40.0])
            B = rng.normal(size=(3 * N, 3 * N))
            W = B.T @ B
            r = rng.random(3 * N) * rng.choice([1e-4, 1.0, 1e3])
            X = rng.normal(size=3 * (N + 1)).tolist()
            U = stack_inputs([up] * N)
            H = pnmpc.linearized_qp(S, X, U, up, U, (W, r),
                                    cfg.constraints).H
            H0 = 2.0 * (S.T @ (W @ S) + np.diag(r))
            assert np.array_equal(H, H.T)
            assert H.tobytes() == (0.5 * (H0 + H0.T)).tobytes()


class TestPNMPCSolve:
    def test_equilibrium_returns_hold(self, xaxis_path):
        cfg = NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))
        from pfguide import synthesize_terminal_weight
        cfg = replace(cfg, P=synthesize_terminal_weight(xaxis_path, cfg))
        up = InputCmd(0.15, 0.0, 0.15)
        res = PNMPCSolver(cfg, xaxis_path).solve(
            GuidanceState(0.0, 0.0, 0.05), 0.0, up)
        for cmd in res.u_seq:
            assert cmd.u == pytest.approx(0.15, abs=1e-9)
            assert cmd.psi == pytest.approx(0.0, abs=1e-9)
            assert cmd.u_tar == pytest.approx(0.15, abs=1e-9)

    def test_single_step_clamped_least_squares(self, xaxis_path):
        # N = 1 with the heading and target-speed weights pinned huge:
        # the surge solves a scalar quadratic, clamped to its interval.
        from pfguide import synthesize_terminal_weight
        up = InputCmd(0.10, 0.0, 0.20)
        cfg = NMPCConfig(N=1, R=np.array([10.0, 1e9, 1e9]),
                         u_ref=InputCmd(0.15, up.psi, up.u_tar))
        cfg = replace(cfg, P=synthesize_terminal_weight(xaxis_path, cfg))
        c = cfg.constraints
        x = GuidanceState(-0.8, 0.0, 0.3)

        def J_of_u(u):
            seq = [InputCmd(u, up.psi, up.u_tar)]
            states = rollout(x, seq, 0.0, cfg.T_m, xaxis_path)
            return horizon_cost(x, states, seq, cfg)

        # prediction is affine in u for N = 1, so J is exactly quadratic:
        # fit it through three samples and clamp the vertex
        j0, j1, j2 = J_of_u(0.0), J_of_u(0.1), J_of_u(0.2)
        a = (j2 - 2 * j1 + j0) / (2 * 0.1 ** 2)
        b = (j1 - j0) / 0.1 - a * 0.1
        u_star = -b / (2 * a)
        lo = max(0.0, up.u - c.du_max)
        hi = min(c.u_max, up.u + c.du_max)
        u_star = min(max(u_star, lo), hi)

        res = PNMPCSolver(cfg, xaxis_path).solve(x, 0.0, up)
        assert res.u_seq[0].u == pytest.approx(u_star, abs=1e-6)

    def test_linearized_cannot_beat_nonlinear(self, demo_path, demo_config):
        pt = sample_path(demo_path, 2.5)
        x = GuidanceState(1.3774706714887182, 5.853194685483319, 1.0 / 3.5)
        up = InputCmd(0.0, pt.phi_p, 0.01)
        r_lin = PNMPCSolver(demo_config, demo_path).solve(x, 0.0, up)
        r_nl = NMPCSolver(demo_config, demo_path).solve(x, 0.0, up)
        assert r_lin.J_opt >= r_nl.J_opt - 1e-6

    def test_output_feasible_exactly(self, demo_path, demo_config):
        c = demo_config.constraints
        x = GuidanceState(4.0, -6.0, 0.5)
        up = InputCmd(0.2, 1.0, 0.7)
        res = PNMPCSolver(demo_config, demo_path).solve(x, 0.1, up)
        prev = up
        for cmd in res.u_seq:
            assert clamp_inputs(cmd, prev, c) == cmd
            prev = cmd

    def test_frozen_linearization_mode(self, demo_path, demo_config):
        # the operator choice reaches the QP (test_matches_increment_qp
        # checks what each operator gives)
        x = GuidanceState(0.5, 0.5, 0.3)
        up = InputCmd(0.1, 0.5, 0.1)
        exact = PNMPCSolver(demo_config, demo_path).solve(x, 0.0, up)
        frozen = PNMPCSolver(demo_config, demo_path, "frozen").solve(
            x, 0.0, up)
        assert frozen.u_seq != exact.u_seq
        with pytest.raises(ValueError):
            PNMPCSolver(demo_config, demo_path, "other")

    def test_predictions_consistent_with_model(self, demo_path, demo_config):
        x = GuidanceState(1.0, 1.0, 0.4)
        up = InputCmd(0.1, 0.3, 0.2)
        res = PNMPCSolver(demo_config, demo_path).solve(x, 0.05, up)
        ref = rollout(x, res.u_seq, 0.05, demo_config.T_m, demo_path)
        assert tuple(ref) == res.x_pred


def _increment_qp_commands(x, up, v, cfg, path, linearization):
    """The fast step written as one QP in the input increments du, with
    U = U_hold + L du: rate rows on du, cumulative box rows, a cold QP."""
    N, c = cfg.N, cfg.constraints
    L = _increment_lower(N)
    hold = [up] * N
    states = rollout(x, hold, v, cfg.T_m, path)
    if linearization == "exact":
        G = sensitivity_along(states, hold, v, cfg.T_m, path) @ L
    else:
        G = paper_G(jacobian_block(x, up, v, path).m, N, cfg.T_m)
    W, r = horizon_weights(cfg)
    U0 = stack_inputs(hold)
    dev = U0 - reference_stack(cfg, up.psi)
    H = 2.0 * (G.T @ W @ G + L.T @ (r[:, None] * L))
    g = 2.0 * (G.T @ W @ stack_states(states[1:]) + L.T @ (r * dev))
    rows, lb, ub = [], [], []
    for j in range(N):
        for comp, half in ((0, c.du_max), (1, c.dpsi_max)):
            rows.append(np.eye(3 * N)[3 * j + comp])
            lb.append(-half)
            ub.append(half)
        for comp, lo, hi, base in ((0, 0.0, c.u_max, up.u),
                                   (2, c.eps, c.u_tar_max, up.u_tar)):
            rows.append(L[3 * j + comp])
            lb.append(lo - base)
            ub.append(hi - base)
    sol = solve_qp(QPProblem(0.5 * (H + H.T), g, np.array(rows),
                             np.array(lb), np.array(ub)))
    assert sol.converged
    return snap_feasible(U0 + L @ sol.x, up, c)


@pytest.mark.parametrize("linearization", ["exact", "frozen"])
def test_matches_increment_qp(demo_path, demo_config, linearization):
    """One full SQP step from the hold equals the single QP in the input
    increments, for both forced-response operators."""
    solver = PNMPCSolver(demo_config, demo_path, linearization)
    c = demo_config.constraints
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        x = GuidanceState(rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(0.05, 1.0))
        up = InputCmd(rng.uniform(0.0, c.u_max), rng.uniform(-math.pi, math.pi),
                      rng.uniform(c.eps, c.u_tar_max))
        v = rng.uniform(-0.15, 0.15)
        got = solver.solve(x, v, up).u_seq
        ref = _increment_qp_commands(x, up, v, demo_config, demo_path,
                                     linearization)
        for a, b in zip(got, ref):
            worst = max(worst, abs(a.u - b.u), abs(a.u_tar - b.u_tar),
                        abs(wrap_angle(a.psi - b.psi)))
    assert worst <= 1e-9
