import copy
import math
import struct
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pfguide import (GuidanceState, InputCmd, InputConstraints, JacobianBlock,
                     NMPCConfig, NMPCSolver, PNMPCSolver, QPFailure,
                     QPProblem, QPSolution, case_study_path, dynamics,
                     horizon_cost, jacobian_block, line_path,
                     polynomial_path, realistic_scenario, run_scenario,
                     sample_path, sglos, solve_qp, synthesize_terminal_weight,
                     transient_scenario, wrap_angle, z_of_omega)
from pfguide import nmpc as nmpc_mod
from pfguide import pnmpc
from pfguide.errdyn import (Z_MIN, dynamics_flat, flat_inputs, rollout,
                            rollout_flat)
from pfguide.exceptions import NonRegularPath, PFGuideError, StateEscape
from pfguide.los import clamp_inputs
from pfguide.paths import path_frame
from pfguide.pnmpc import (_increment_lower, horizon_weights, reference_stack,
                           sensitivity_along, stack_inputs, stack_states)
from pfguide.qp import QPRows


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
    """The S the frozen solver builds its QP from; Jm, when given,
    replaces the instant-0 input Jacobian."""
    captured = []
    real = pnmpc.HorizonSolver.linearized_qp

    def capture(self, *args):
        out = real(self, *args)
        captured.append(out[3])
        return out

    monkeypatch.setattr(pnmpc.HorizonSolver, "linearized_qp", capture)
    if Jm is not None:  # the frozen step's only call of _jacobians
        monkeypatch.setattr(pnmpc, "_jacobians", lambda *args: (Jm, None))
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

    def test_refuses_states_that_are_not_the_rollout(self, demo_path,
                                                     demo_config):
        """The states must be the rollout of u_seq from states[0], with or
        without the last state."""
        T_m = demo_config.T_m
        x = GuidanceState(2.0, -1.5, 0.25)
        hold = [InputCmd(0.12, 0.3, 0.2)] * demo_config.N
        states = rollout(x, hold, 0.02, T_m, demo_path)
        S = sensitivity_along(states, hold, 0.02, T_m, demo_path)
        assert S.tobytes() == sensitivity_along(states[:-1], hold, 0.02, T_m,
                                                demo_path).tobytes()
        nudged = replace(states[2], y_e=states[2].y_e + 1e-9)
        for bad in (states[:2] + [nudged] + states[3:],
                    states[:1] + states[2:],
                    states + [states[-1]],
                    rollout(x, hold, 0.0, T_m, demo_path)):
            with pytest.raises(ValueError, match="rollout of u_seq"):
                sensitivity_along(bad, hold, 0.02, T_m, demo_path)

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


def sensitivity_per_block(X, U, frames, v, T_m, path):
    """Block-by-block reference for the S of pnmpc.linearize_flat."""
    N = len(frames)
    S = np.zeros((3 * N, 3 * N))
    for i in range(N):
        r = 3 * i
        B, A = pnmpc._jacobians(X[r], X[r + 1], X[r + 2], U[r], U[r + 1],
                                U[r + 2], v, frames[i], path)
        if i > 0:
            Ad = np.eye(3) + T_m * np.array(A)
            S[r:r + 3, :r] = Ad @ S[r - 3:r, :r]
        S[r:r + 3, r:r + 3] = T_m * np.array(B)
    return S


def snap_feasible_cmds(U, u_prev, c):
    """Command-by-command reference for the chain projection of
    pnmpc.projected_rollout_flat: the rate projection, then the box clips,
    as InputCmds."""
    def clip(value, lo, hi):
        return lo if value < lo else hi if value > hi else value

    cmds = []
    prev = u_prev
    for j in range(U.shape[0] // 3):
        u, psi = float(U[3 * j]), wrap_angle(wrap_angle(float(U[3 * j + 1])))
        du = u - prev.u
        if du > c.du_max:
            u = prev.u + c.du_max
        elif du < -c.du_max:
            u = prev.u - c.du_max
        dpsi = wrap_angle(psi - prev.psi)
        if dpsi > c.dpsi_max:
            psi = wrap_angle(prev.psi + c.dpsi_max)
        elif dpsi < -c.dpsi_max:
            psi = wrap_angle(prev.psi - c.dpsi_max)
        prev = InputCmd(clip(u, 0.0, c.u_max), psi,
                        clip(float(U[3 * j + 2]), c.eps, c.u_tar_max))
        cmds.append(prev)
    return tuple(cmds)


def _cmd_bits(cmds):
    return [struct.pack("3d", c.u, c.psi, c.u_tar) for c in cmds]


def _float_bits(values):
    return struct.pack(f"{len(values)}d", *values)


def rollout_per_step(x0, U, v, dt, path):
    """Step-by-step reference for rollout_flat: path_frame, dynamics_flat,
    the Euler step and the z clamp, one call each per step."""
    xe, ye, z = x0
    X, frames = [xe, ye, z], []
    for j in range(0, len(U), 3):
        u, psi, u_tar = U[j:j + 3]
        if not all(map(math.isfinite, (u, psi, u_tar))):
            raise ValueError(f"non-finite input command {(u, psi, u_tar)!r}")
        frame = path_frame(path, 1.0 / z - 1.0)
        dxe, dye, dz = dynamics_flat(xe, ye, z, u, psi, u_tar, v, frame)
        nxe, nye, nz = xe + dt * dxe, ye + dt * dye, z + dt * dz
        if not all(map(math.isfinite, (nxe, nye, nz))):
            raise StateEscape(f"non-finite state after Euler step from "
                              f"{(xe, ye, z)!r}")
        xe, ye, z = nxe, nye, min(max(nz, Z_MIN), 1.0)
        X += (xe, ye, z)
        frames.append(frame)
    return X, frames


def jacobians_per_call(xe, ye, z, u, psi, u_tar, v, frame, path):
    """Reference for pnmpc._jacobians: the heading wrap and the path rates
    through wrap_angle and pnmpc._frame_rates."""
    phi_p, F, dphi_dw = frame[:3]
    dpsi = wrap_angle(psi - phi_p)
    c = math.cos(dpsi)
    s = math.sin(dpsi)
    kw = dphi_dw / F
    B = [[c, -u * s - v * c, kw * ye - 1.0],
         [s, u * c - v * s, -kw * xe],
         [0.0, 0.0, -z * z / F]]
    dF, dkw = pnmpc._frame_rates(frame, path, z)
    dw_dz = -1.0 / (z * z)
    col_z = (dw_dz * (dphi_dw * (u * s + v * c) + u_tar * dkw * ye),
             -dw_dz * (dphi_dw * (u * c - v * s) + u_tar * dkw * xe),
             -2.0 * z * u_tar / F - u_tar * dF / (F * F))
    A = [[0.0, u_tar * kw, col_z[0]],
         [-u_tar * kw, 0.0, col_z[1]],
         [0.0, 0.0, col_z[2]]]
    return B, A


def _raised(fn, *args):
    """(exception type, message) that fn raises, None if it returns."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestPredictionKernelsMatchOldForms:
    """The float rollout, the Jacobian rows, the sensitivity build, the
    float projection and PNMPC's two fused passes give the outputs of the
    per-call, per-block and per-command forms they replaced, bit for
    bit."""

    PATHS = {"case_study": case_study_path(),
             "line": line_path(origin=(1.0, -2.0), direction=(-0.6, 0.8)),
             # atan2 gives exactly -pi on this tangent, which rollout_flat
             # wraps to pi as path_frame does.
             "line_west": line_path(direction=(-1.0, -0.0)),
             "polynomial": polynomial_path([0.0, 1.0, 0.01, 1e-4],
                                           [0.0, 0.5, -0.002, -1e-5])}

    @staticmethod
    def _draw_inputs(rng, N):
        """Headings well beyond +-pi, and target speeds that are negative
        (z grows into the clamp at 1) or large (z falls into the clamp
        at Z_MIN) as well as in range."""
        U = []
        for _ in range(N):
            kind = rng.integers(3)
            u_tar = (rng.uniform(0.01, 0.75), rng.uniform(-3.0, -0.5),
                     rng.uniform(5.0, 40.0))[kind]
            U += (rng.uniform(0.0, 0.225), rng.uniform(-9.0, 9.0), u_tar)
        return U

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_rollout_flat(self, name):
        path = self.PATHS[name]
        rng = np.random.default_rng(len(name))
        clamped_low = clamped_high = wrapped = 0
        for _ in range(300):
            N = int(rng.integers(1, 6))
            x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10),
                  rng.choice([rng.uniform(0.05, 1.0), 1.0, Z_MIN]))
            U = self._draw_inputs(rng, N)
            v = rng.uniform(-0.15, 0.15)
            dt = rng.choice([0.1, 0.5, 1.0])
            X, frames = rollout_flat(x0, U, v, dt, path)
            ref_X, ref_frames = rollout_per_step(x0, U, v, dt, path)
            assert _float_bits(X) == _float_bits(ref_X)
            assert [_float_bits(f) for f in frames] == \
                [_float_bits(f) for f in ref_frames]
            clamped_low += Z_MIN in X[5::3]
            clamped_high += 1.0 in X[5::3]
            wrapped += any(abs(U[j] - f[0]) > math.pi
                           for j, f in zip(range(1, 3 * N, 3), frames))
        assert min(clamped_low, clamped_high) >= 30
        assert wrapped >= 200

    def test_rollout_flat_errors(self):
        path = self.PATHS["case_study"]
        # dx = 1 - omega: the speed factor vanishes at omega = 1, z = 0.5,
        # where a step from z = 1 with u_tar = 0.5 lands exactly.
        cusp = polynomial_path([0.0, 1.0, -0.5], [0.0])
        phi_p = path_frame(path, 1.0)[0]  # at z = 0.5
        # A second derivative that overflows past omega = 1.
        blowup = replace(path, deriv2=lambda w: (math.inf, 0.0) if w > 1.0
                         else path.deriv2(w))
        cases = [
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1, 0.1, math.nan, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, math.inf, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1], cusp),
            ((0.0, 0.0, 1.0), [0.1, 0.0, 0.5, 0.1, 0.0, 0.1], cusp),
            ((1.7e308, 0.0, 0.5), [1.7e308, phi_p, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1, 0.1, 0.0, 0.1], blowup)]
        kinds = set()
        for x0, U, p in cases:
            got = _raised(rollout_flat, x0, U, 0.0, 1.0, p)
            assert got is not None and got == _raised(
                rollout_per_step, x0, U, 0.0, 1.0, p)
            kinds.add(got[0])
        assert kinds == {ValueError, NonRegularPath, StateEscape}

    @pytest.mark.parametrize("U", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.1]])
    def test_rollout_flat_refuses_a_partial_step(self, U):
        calls = []
        base = self.PATHS["line"]
        path = replace(base, deriv=lambda w: calls.append(w) or base.deriv(w))
        with pytest.raises(ValueError, match="per step"):
            rollout_flat((0.0, 0.0, 0.5), U, 0.0, 1.0, path)
        assert calls == []  # raised before the first step

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("U", [[], [0.1, 0.0, 0.1]])
    def test_rollout_flat_refuses_a_bad_step_size(self, dt, U):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            rollout_flat((0.0, 0.0, 0.5), U, 0.0, dt, self.PATHS["line"])

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_jacobians(self, name):
        path = self.PATHS[name]
        rng = np.random.default_rng(7 + len(name))
        for _ in range(500):
            z = rng.choice([rng.uniform(0.01, 1.0), 1.0])
            frame = path_frame(path, 1.0 / z - 1.0)
            args = (rng.uniform(-10, 10), rng.uniform(-10, 10), z,
                    rng.uniform(0.0, 0.225), rng.uniform(-9.0, 9.0),
                    rng.uniform(-1.0, 1.0), rng.uniform(-0.15, 0.15))
            got = pnmpc._jacobians(*args, frame, path)
            ref = jacobians_per_call(*args, frame, path)
            for rows, ref_rows in zip(got, ref):
                assert [_float_bits(r) for r in rows] == \
                    [_float_bits(r) for r in ref_rows]

    @pytest.mark.parametrize("name", sorted(PATHS))
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_sensitivity_flat(self, name, N):
        """Pass 1 (linearize_flat) along any stacked inputs is
        rollout_per_step, its frames and sensitivity_per_block along it."""
        path = self.PATHS[name]
        rng = np.random.default_rng(N)
        clamped_low = clamped_high = wrapped = 0
        for _ in range(60):
            x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10),
                  rng.choice([rng.uniform(0.05, 1.0), 1.0, Z_MIN]))
            U = self._draw_inputs(rng, N)
            v = rng.uniform(-0.15, 0.15)
            T_m = rng.choice([0.1, 0.5, 1.0])
            X, frames, S = pnmpc.linearize_flat(x0, U, v, T_m, path)
            ref_X, ref_frames = rollout_per_step(x0, U, v, T_m, path)
            ref_S = sensitivity_per_block(ref_X, U, ref_frames, v, T_m, path)
            assert _float_bits(X) == _float_bits(ref_X)
            assert [_float_bits(f) for f in frames] == \
                [_float_bits(f) for f in ref_frames]
            assert S.tobytes() == ref_S.tobytes()
            assert S.strides == ref_S.strides
            clamped_low += Z_MIN in X[5::3]
            clamped_high += 1.0 in X[5::3]
            wrapped += any(abs(U[j] - f[0]) > math.pi
                           for j, f in zip(range(1, 3 * N, 3), frames))
        assert min(clamped_low, clamped_high) >= 5
        assert wrapped >= 30

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_hold_sensitivity(self, name):
        """Pass 1 along PNMPC's hold is rollout_per_step of the hold, its
        frames and sensitivity_per_block along it."""
        path = self.PATHS[name]
        rng = np.random.default_rng(31 + len(name))
        clamped = 0
        for _ in range(200):
            N = int(rng.integers(1, 6))
            x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10),
                  rng.choice([rng.uniform(0.05, 1.0), 1.0, Z_MIN]))
            hold = self._draw_inputs(rng, 1) * N
            v = rng.uniform(-0.15, 0.15)
            T_m = rng.choice([0.1, 0.5, 1.0])
            X, frames, S = pnmpc.linearize_flat(x0, hold, v, T_m, path)
            ref_X, ref_frames = rollout_per_step(x0, hold, v, T_m, path)
            ref_S = sensitivity_per_block(ref_X, hold, ref_frames, v, T_m,
                                          path)
            assert _float_bits(X) == _float_bits(ref_X)
            assert [_float_bits(f) for f in frames] == \
                [_float_bits(f) for f in ref_frames]
            assert S.tobytes() == ref_S.tobytes()
            clamped += Z_MIN in X[5::3] or 1.0 in X[5::3]
        assert clamped >= 60

    NEAR_PI = [math.pi, -math.pi, math.pi - 1e-12, -math.pi + 1e-12,
               math.pi + 0.3, -math.pi - 0.3, 3.0, -3.0, 7.5, -9.0]

    @classmethod
    def _draw_near_pi(cls, rng, N, c):
        """Inputs outside the boxes with headings at and across +-pi, and
        a previous input with its heading there too."""
        U = np.column_stack([
            rng.uniform(-0.1, 0.35, N),
            rng.choice(cls.NEAR_PI, N) + rng.normal(size=N)
            * rng.choice([0.0, 1e-3, 0.5]),
            rng.uniform(-0.2, 1.0, N)]).ravel().tolist()
        prev = InputCmd(float(rng.uniform(0.0, c.u_max)),
                        wrap_angle(float(rng.choice(cls.NEAR_PI))),
                        float(rng.uniform(c.eps, c.u_tar_max)))
        return U, prev

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_step_rollout(self, name):
        """Pass 2 (projected_rollout_flat) is snap_feasible_cmds, stacked,
        rollout_per_step of the projected inputs (states and frames, step
        0's being frame0 itself) and horizon_cost_flat of both.  Half the
        draws put the headings at and across +-pi."""
        path = self.PATHS[name]
        c = InputConstraints()
        rng = np.random.default_rng(43 + len(name))
        clamped = crossings = 0
        for i in range(300):
            N = int(rng.integers(1, 6))
            x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10),
                  rng.choice([rng.uniform(0.05, 1.0), 1.0, Z_MIN]))
            if i % 2:
                U, prev = self._draw_near_pi(rng, N, c)
            else:
                U = self._draw_inputs(rng, N)
                prev = InputCmd(float(rng.uniform(0.0, c.u_max)),
                                float(rng.uniform(-math.pi, math.pi)),
                                float(rng.uniform(c.eps, c.u_tar_max)))
            v = rng.uniform(-0.15, 0.15)
            T_m = rng.choice([0.1, 0.5, 1.0])
            P = rng.normal(size=(3, 3))
            weights = (tuple(rng.uniform(0.0, 2.0, 3)),
                       tuple(rng.uniform(0.0, 2.0, 3)),
                       (0.15, 0.0, 0.15), rng.uniform(0.5, 2.0),
                       tuple(map(tuple, (P @ P.T).tolist())))
            frame0 = path_frame(path, 1.0 / x0[2] - 1.0)
            V, X, J, frames = pnmpc.projected_rollout_flat(
                U, prev, x0, frame0, v, T_m, path, c, weights)
            flat = flat_inputs(snap_feasible_cmds(np.array(U), prev, c))
            ref_X, ref_frames = rollout_per_step(x0, flat, v, T_m, path)
            assert type(V) is list and _float_bits(V) == _float_bits(flat)
            assert _float_bits(X) == _float_bits(ref_X)
            assert frames[0] is frame0 and len(frames) == N
            assert [_float_bits(f) for f in frames] == \
                [_float_bits(f) for f in ref_frames]
            assert _float_bits([J]) == _float_bits(
                [pnmpc.horizon_cost_flat(ref_X, flat, weights)])
            clamped += Z_MIN in X[5::3]
            heads = [prev.psi] + V[1::3]
            crossings += any(abs(a - b) > math.pi
                             for a, b in zip(heads, heads[1:]))
        assert clamped >= 30
        assert crossings >= 40

    def test_fused_passes_raise_as_rollout_flat(self):
        path = self.PATHS["case_study"]
        cusp = polynomial_path([0.0, 1.0, -0.5], [0.0])
        phi_p = path_frame(path, 1.0)[0]  # at z = 0.5
        blowup = replace(path, deriv2=lambda w: (math.inf, 0.0) if w > 1.0
                         else path.deriv2(w))
        c = InputConstraints(u_max=1.7e308, u_tar_max=2.0, du_max=1.7e308,
                             dpsi_max=math.pi)
        w = ((1.0,) * 3, (1.0,) * 3, (0.15, 0.0, 0.15), 1.0,
             ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        stacks = [
            ((0.0, 0.0, 0.5), [0.1, math.nan, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1, 0.1, math.nan, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1, math.inf, 0.0, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1], cusp),
            ((0.0, 0.0, 1.0), [0.1, 0.0, 0.5], cusp),
            ((0.0, 0.0, 1.0), [0.1, 0.0, 0.5, 0.1, 0.0, 0.1], cusp),
            ((1.7e308, 0.0, 0.5), [1.7e308, phi_p, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1], blowup),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1, 0.1, 0.0, 0.1], blowup)]
        kinds = set()
        for x0, U, p in stacks:
            for N in (1, 2):  # the stack, then the stack twice over
                got = _raised(pnmpc.linearize_flat, x0, U * N, 0.0, 1.0, p)
                ref = _raised(rollout_per_step, x0, U * N, 0.0, 1.0, p)
                assert got == ref
                kinds.add(None if got is None else got[0])
        assert kinds >= {ValueError, NonRegularPath, StateEscape}
        steps = [
            ((0.0, 0.0, 1.0), [0.1, 0.0, 0.5, 0.1, 0.0, 0.1], cusp),
            ((1.7e308, 0.0, 0.5), [1.7e308, phi_p, 0.1], path),
            ((0.0, 0.0, 0.5), [0.1, 0.0, 0.1, 0.1, 0.0, 0.1], blowup)]
        kinds = set()
        prev = InputCmd(0.1, 0.0, 0.1)
        for x0, U, p in steps:
            frame0 = path_frame(p, 1.0 / x0[2] - 1.0)
            got = _raised(pnmpc.projected_rollout_flat, U, prev, x0, frame0,
                          0.0, 1.0, p, c, w)
            assert got is not None and got == _raised(
                rollout_per_step, x0, U, 0.0, 1.0, p)
            kinds.add(got[0])
        assert kinds == {NonRegularPath, StateEscape}
        with pytest.raises(ValueError, match="non-finite input command"):
            pnmpc.projected_rollout_flat(
                [0.1, 0.0, 0.1, math.nan, 0.0, 0.1], prev, (0.0, 0.0, 0.5),
                path_frame(path, 1.0), 0.0, 1.0, path, c, w)
        for U in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.1]):
            assert _raised(pnmpc.linearize_flat, (0.0, 0.0, 0.5), U, 0.0,
                           1.0, path) == _raised(rollout_flat, (0.0, 0.0, 0.5),
                                                 U, 0.0, 1.0, path)
        for dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be finite"):
                pnmpc.linearize_flat((0.0, 0.0, 0.5), [0.1, 0.0, 0.1], 0.0,
                                     dt, path)
            with pytest.raises(ValueError, match="dt must be finite"):
                pnmpc.projected_rollout_flat(
                    [0.1, 0.0, 0.1], prev, (0.0, 0.0, 0.5),
                    path_frame(path, 1.0), 0.0, dt, path, c, w)


def qp_along(solver, S, X, U, up, Uref, weights=None):
    """solver.linearized_qp at U on the given pass 1 (states X, operator
    S), with weights = (W, r), when given, in place of the solver's."""
    solver = copy.copy(solver)
    solver._linearize = lambda *args: (X, None, S)
    if weights is not None:
        solver._W, solver._r = weights
        solver._r2 = 2.0 * solver._r
    return solver.linearized_qp(None, U, None, up, Uref)[0]


def zero_start(N):
    """The QP's start at delta = 0, with no working set."""
    return QPSolution(np.zeros(3 * N), (), math.inf, 0)


def unfused_solve(solver, x, v, up):
    """PNMPCSolver.solve as the chain of kernels it fuses: the hold
    rollout, its sensitivity (or the frozen operator), linearized_qp,
    solve_qp, the chain projection, a second rollout and
    horizon_cost_flat."""
    cfg, path = solver.cfg, solver.path
    N, T_m = cfg.N, cfg.T_m
    hold = [up.u, up.psi, up.u_tar] * N
    x0 = (x.x_e, x.y_e, x.z)
    X, frames = rollout_flat(x0, hold, v, T_m, path)
    if solver.linearization == "exact":
        S = sensitivity_per_block(X, hold, frames, v, T_m, path)
    else:
        S = np.kron(np.tril(np.ones((N, N))),
                    T_m * jacobian_block(x, up, v, path).m)
    U = np.array(hold)
    qp = qp_along(solver, S, X, U, up, reference_stack(cfg, up.psi))
    qsol = solve_qp(qp, warm=zero_start(N))
    if not qsol.converged:
        raise QPFailure(f"QP stalled with KKT residual "
                        f"{qsol.kkt_residual:.3e}")
    u_seq = snap_feasible_cmds(U + qsol.x, up, cfg.constraints)
    u_flat = flat_inputs(u_seq)
    X, _ = rollout_flat(x0, u_flat, v, T_m, path)
    return (u_seq, X, pnmpc.horizon_cost_flat(X, u_flat,
                                              pnmpc.cost_weights(cfg)),
            qsol.iterations, qsol.kkt_residual, qp)


def _qp_bits(qp):
    return [a.tobytes() for a in (qp.H, qp.g, qp.A, qp.lb, qp.ub)]


@lru_cache(maxsize=None)
def _config(name, N, T_m):
    cfg = NMPCConfig(N=N, T_m=T_m)
    return replace(cfg, P=synthesize_terminal_weight(
        TestPredictionKernelsMatchOldForms.PATHS[name], cfg))


_C = InputConstraints()


class TestSolveMatchesUnfusedChain:
    """PNMPCSolver.solve runs as two passes around its QP; its outputs,
    and any error it raises, are those of the unfused kernel chain, bit
    for bit."""

    PATHS = TestPredictionKernelsMatchOldForms.PATHS

    @pytest.mark.parametrize("linearization", pnmpc.LINEARIZATIONS)
    @pytest.mark.parametrize("name", ["case_study", "line", "line_west",
                                      "polynomial"])
    def test_solve_matches_unfused_chain(self, monkeypatch, name,
                                         linearization):
        seen = {"unconstrained": 0, "constrained": 0, "clamped": 0}
        path = self.PATHS[name]
        # Last-bit changes in the linearization seldom survive into the
        # step's commands, so the QP the solver builds is compared too.
        problems = []
        real = pnmpc.solve_qp
        monkeypatch.setattr(pnmpc, "solve_qp", lambda qp, warm: real(
            problems.append(qp) or qp, warm=warm))

        # A calm draw (a start near the path, a hold near the reference)
        # gives an unconstrained QP, a wide one mostly a constrained QP;
        # z = Z_MIN steps into the clamp.
        @given(calm=st.booleans(), xe=st.floats(-12.0, 12.0),
               ye=st.floats(-12.0, 12.0),
               z=st.one_of(st.floats(0.02, 1.0), st.just(1.0),
                           st.just(Z_MIN)),
               u=st.one_of(st.floats(0.0, _C.u_max),
                           st.sampled_from([0.0, _C.u_max])),
               heading=st.one_of(st.floats(-math.pi, math.pi),
                                 st.just(math.pi)),
               u_tar=st.one_of(st.floats(_C.eps, _C.u_tar_max),
                               st.sampled_from([_C.eps, _C.u_tar_max])),
               v=st.floats(-0.15, 0.15), N=st.sampled_from([1, 3, 5]),
               T_m=st.sampled_from([0.3, 0.5, 1.0]))
        @settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
        def check(calm, xe, ye, z, u, heading, u_tar, v, N, T_m):
            if calm:
                xe, ye, heading = 0.02 * xe, 0.02 * ye, 0.02 * heading
                u = 0.15 + 0.1 * (u - 0.15)
                u_tar = 0.15 + 0.1 * (u_tar - 0.15)
            solver = PNMPCSolver(_config(name, N, T_m), path, linearization)
            # heading is taken from the path tangent at z
            psi = wrap_angle(path_frame(path, 1.0 / z - 1.0)[0] + heading)
            x, up = GuidanceState(xe, ye, z), InputCmd(u, psi, u_tar)
            problems.clear()
            try:
                ref = unfused_solve(solver, x, v, up)
            except Exception as exc:
                assert _raised(solver.solve, x, v, up) == \
                    (type(exc), str(exc))
                return
            got = solver.solve(x, v, up)
            assert _qp_bits(problems[0]) == _qp_bits(ref[5])
            assert _cmd_bits(got.u_seq) == _cmd_bits(ref[0])
            assert _float_bits(got.x_flat) == _float_bits(ref[1])
            assert _float_bits([got.J_opt, got.kkt_residual]) == \
                _float_bits([ref[2], ref[4]])
            assert got.iterations == ref[3]
            seen["constrained" if got.iterations else "unconstrained"] += 1
            seen["clamped"] += Z_MIN in got.x_flat[5::3]

        check()
        assert min(seen.values()) >= 10, seen


def unfused_pass2(solver, x0, v, up, U):
    """Pass 2 of the stacked inputs U as the kernels it fuses:
    snap_feasible_cmds, rollout_flat of the projected inputs and
    horizon_cost_flat, as (commands, states, cost)."""
    cfg = solver.cfg
    u_seq = snap_feasible_cmds(np.asarray(U), up, cfg.constraints)
    u_flat = flat_inputs(u_seq)
    X, _ = rollout_flat(x0, u_flat, v, cfg.T_m, solver.path)
    return u_seq, X, pnmpc.horizon_cost_flat(X, u_flat,
                                             pnmpc.cost_weights(cfg))


def warm_plans(solver, warm):
    """The warm start's plan and its shift closed by the SGLOS tail, as
    NMPC's candidates besides the hold, stacked."""
    cfg = solver.cfg
    if warm is None or len(warm.u_seq) != cfg.N:
        return []
    tail = sglos(GuidanceState(*warm.x_flat[-3:]), solver.path,
                 cfg.terminal_law)
    return [stack_inputs(seq)
            for seq in (warm.u_seq, tuple(warm.u_seq[1:]) + (tail,))]


def unfused_nmpc_solve(solver, x, v, up, warm, seen):
    """NMPCSolver.solve as a loop of unfused kernels.  The candidates and
    every line-search trial go through unfused_pass2, and the answer is
    the accepted trial's (or the winning candidate's) pass 2.  The point
    linearized at is the hold as held, a winning plan's projection or
    the unprojected trial; per major iteration rollout_flat and
    sensitivity_per_block along it feed linearized_qp.  seen counts the
    exact-phase iterations, the winning warm or shifted candidates and
    the accepted trials that the projection changed."""
    cfg, path = solver.cfg, solver.path
    N, T_m = cfg.N, cfg.T_m
    W = horizon_weights(cfg)[0]
    x0 = (x.x_e, x.y_e, x.z)
    hold = U = stack_inputs([up] * N)
    plan = unfused_pass2(solver, x0, v, up, hold)
    for seq in warm_plans(solver, warm):
        cand = unfused_pass2(solver, x0, v, up, seq)
        if cand[2] < plan[2]:
            U, plan = stack_inputs(cand[0]), cand
    seen["warm or shifted wins"] += U is not hold
    J = plan[2]
    Uref = reference_stack(cfg, up.psi)
    kkt, iters, exact = math.inf, 0, False
    qp_warm = zero_start(N)
    for it in range(1, nmpc_mod.MAX_MAJOR_ITER + 1):
        prev_kkt = kkt
        u_flat = U.tolist()
        X, frames = rollout_flat(x0, u_flat, v, T_m, path)
        S = sensitivity_per_block(X, u_flat, frames, v, T_m, path)
        qp = qp_along(solver, S, X, U, up, Uref)
        active = nmpc_mod._active_at_zero(qp.lb, qp.ub)
        kkt = nmpc_mod._stationarity_residual(qp.g, qp.A, active)
        if kkt <= nmpc_mod.KKT_TOL:
            break
        exact = exact or kkt > nmpc_mod.STALL_RATIO * prev_kkt
        if exact:
            seen["exact-phase iterations"] += 1
            qp = QPProblem(nmpc_mod._convexified(
                qp.H + pnmpc.curvature_flat(S, X, u_flat, frames, v, T_m,
                                            path, W),
                qp.H, qp.A.take(active[0], axis=0)),
                qp.g, qp.A, qp.lb, qp.ub)
        qsol = solve_qp(qp, warm=qp_warm)
        qp_warm = QPSolution(np.zeros(3 * N), qsol.active_set, math.inf, 0)
        iters = it
        delta = qsol.x
        if qsol.converged and \
                float(np.max(np.abs(delta), initial=0.0)) <= 1e-12:
            break
        gd = float(qp.g @ delta)
        if not qsol.converged or gd >= 0.0:
            break
        alpha = 1.0
        rounding = nmpc_mod._ROUNDING * abs(J)
        while alpha >= 1e-7:
            U_try = U + alpha * delta
            trial = unfused_pass2(solver, x0, v, up, U_try)
            if trial[2] <= J + 1e-4 * alpha * gd or (
                    trial[2] - J <= rounding and -alpha * gd <= rounding):
                break
            alpha *= 0.5
        else:
            break
        seen["projection changed a trial"] += \
            flat_inputs(trial[0]) != U_try.tolist()
        U, plan, J = U_try, trial, trial[2]
    return (*plan, iters, kkt)


def _result_bits(res):
    u_seq, X, J, iters, kkt = res
    return _cmd_bits(u_seq), _float_bits(X), _float_bits([J, kkt]), iters


def on_nmpc_draws(check_one):
    """Calls check_one(solver, x, v, up, warm) on drawn cold NMPC solves
    and, where check_one returns a result, on a warm solve from the next
    state of its plan moved by (dxe, dye).  A wide start hits the exact
    phase; in the warm solve the held input, the plan or its shift may
    win."""
    @given(name=st.sampled_from(["case_study", "line_west", "polynomial"]),
           xe=st.floats(-12.0, 12.0), ye=st.floats(-12.0, 12.0),
           z=st.one_of(st.floats(0.02, 1.0), st.just(1.0)),
           u=st.floats(0.0, _C.u_max), heading=st.floats(-math.pi, math.pi),
           u_tar=st.floats(_C.eps, _C.u_tar_max),
           v=st.floats(-0.15, 0.15), N=st.sampled_from([1, 3]),
           T_m=st.sampled_from([0.5, 1.0]),
           dxe=st.floats(-0.5, 0.5), dye=st.floats(-0.5, 0.5))
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    def check(name, xe, ye, z, u, heading, u_tar, v, N, T_m, dxe, dye):
        path = TestPredictionKernelsMatchOldForms.PATHS[name]
        solver = NMPCSolver(_config(name, N, T_m), path)
        psi = wrap_angle(path_frame(path, 1.0 / z - 1.0)[0] + heading)
        cold = check_one(solver, GuidanceState(xe, ye, z), v,
                         InputCmd(u, psi, u_tar), None)
        if cold is not None:
            xe1, ye1, z1 = cold.x_flat[3:6]
            check_one(solver, GuidanceState(xe1 + dxe, ye1 + dye, z1), v,
                      cold.u_seq[0], cold)

    check()


class TestNMPCSolveMatchesUnfusedLoop:
    """NMPCSolver.solve runs on PNMPC's two passes; its outputs, and any
    error it raises, are those of the loop of unfused kernels it
    replaced, bit for bit, cold and warm-started."""

    def test_solve_matches_unfused_loop(self):
        seen = dict.fromkeys(("exact-phase iterations", "warm or shifted wins",
                              "projection changed a trial"), 0)

        def check_one(solver, x, v, up, warm):
            """The solve's result, or None where the reference raises."""
            try:
                ref = unfused_nmpc_solve(solver, x, v, up, warm, seen)
            except Exception as exc:
                assert _raised(solver.solve, x, v, up, warm) == \
                    (type(exc), str(exc))
                return None
            got = solver.solve(x, v, up, warm)
            assert _result_bits((got.u_seq, got.x_flat, got.J_opt,
                                 got.iterations, got.kkt_residual)) == \
                _result_bits(ref)
            return got

        on_nmpc_draws(check_one)
        assert min(seen.values()) >= 10, seen


def _pass1_bits(out):
    X, frames, S = out
    return _float_bits(X), [_float_bits(f) for f in frames], S.tobytes()


class TestPass1AlongPass2:
    """NMPC's pass 1 takes the states and frames of the pass 2 that
    applied its linearization point: linearize_flat along them equals a
    fresh linearize_flat bit for bit (X, frames and S).  They are handed
    on only where pass 2's commands are the point byte for byte: a trial
    that the projection changes, or a signed zero that it rebuilds, takes
    the full pass 1."""

    PATHS = TestPredictionKernelsMatchOldForms.PATHS

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_pass1_along_pass2_is_a_fresh_pass1(self, name):
        """Half the draws are projected already, so pass 2 applies them
        as they are; the other half are raw, and mostly projected."""
        path = self.PATHS[name]
        c = InputConstraints()
        rng = np.random.default_rng(7 + len(name))
        weights = pnmpc.cost_weights(_config(name, 3, 1.0))
        seen = {"reused": 0, "changed": 0, "clamped": 0}
        for i in range(300):
            N = int(rng.integers(1, 6))
            x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10),
                  rng.choice([rng.uniform(0.05, 1.0), 1.0, Z_MIN]))
            prev = InputCmd(float(rng.uniform(0.0, c.u_max)),
                            float(rng.uniform(-math.pi, math.pi)),
                            float(rng.uniform(c.eps, c.u_tar_max)))
            v = rng.uniform(-0.15, 0.15)
            T_m = rng.choice([0.5, 1.0])
            frame0 = path_frame(path, 1.0 / x0[2] - 1.0)
            U = TestPredictionKernelsMatchOldForms._draw_inputs(rng, N)
            if i % 2:
                U = pnmpc.projected_rollout_flat(U, prev, x0, frame0, v, T_m,
                                                 path, c, weights)[0]
            plan = pnmpc.projected_rollout_flat(U, prev, x0, frame0, v, T_m,
                                                path, c, weights)
            along = nmpc_mod._along(np.array(U), plan)
            if _float_bits(plan[0]) != _float_bits(U):
                assert along is None
                seen["changed"] += 1
                continue
            assert along == (plan[1], plan[3])
            got = pnmpc.linearize_flat(x0, U, v, T_m, path, along)
            assert got[0] is plan[1] and got[1] is plan[3]
            assert _pass1_bits(got) == _pass1_bits(
                pnmpc.linearize_flat(x0, U, v, T_m, path))
            seen["reused"] += 1
            seen["clamped"] += Z_MIN in got[0][5::3]
        assert min(seen.values()) >= 20, seen

    def test_a_rebuilt_signed_zero_is_not_a_match(self):
        path = self.PATHS["line"]
        U = np.array([-0.0, 0.5, 0.1])
        x0 = (0.0, 0.0, 0.5)
        frame0 = path_frame(path, 1.0)
        plan = ([0.0, 0.5, 0.1], [*x0, 0.1, -0.2, 0.4], 1.0, [frame0])
        assert plan[0] == U.tolist()  # equal as values
        assert nmpc_mod._along(U, plan) is None
        assert nmpc_mod._along(np.array(plan[0]), plan) == \
            (plan[1], plan[3])

    def test_nmpc_reuses_where_pass2_applied_the_point(self, monkeypatch):
        """Each pass 1 of drawn NMPC solves equals a fresh one bit for bit,
        and takes pass 2's states exactly where pass 2 of the point
        applies it byte for byte."""
        seen = {"reused": 0, "full": 0}
        solving = {}

        def linearize(x0, U, v, T_m, path, along=None):
            got = pnmpc.linearize_flat(x0, U, v, T_m, path, along)
            assert _pass1_bits(got) == _pass1_bits(
                pnmpc.linearize_flat(x0, U, v, T_m, path))
            V = solving["solver"]._pass2(U, solving["up"], x0,
                                         path_frame(path, 1.0 / x0[2] - 1.0),
                                         v)[0]
            assert (along is not None) == (_float_bits(V) == _float_bits(U))
            seen["full" if along is None else "reused"] += 1
            return got

        monkeypatch.setattr(NMPCSolver, "_linearize", staticmethod(linearize))

        def check_one(solver, x, v, up, warm):
            solving.update(solver=solver, up=up)
            try:
                return solver.solve(x, v, up, warm)
            except PFGuideError:
                return None

        on_nmpc_draws(check_one)
        assert min(seen.values()) >= 10, seen


class TestNMPCAnswerIsItsBestStart:
    """NMPC's answer costs no more than the pass-2 cost of its cheapest
    candidate: the hold and, warm-started, the plan and its shift.  The
    line search may accept a rise of _ROUNDING |J| per iteration, the
    rounding of J, so that much is allowed."""

    @staticmethod
    def _check(solver, x, v, up, warm):
        x0 = (x.x_e, x.y_e, x.z)
        starts = [stack_inputs([up] * solver.cfg.N)] + warm_plans(solver,
                                                                   warm)
        J0 = min(unfused_pass2(solver, x0, v, up, U)[2] for U in starts)
        got = solver.solve(x, v, up, warm)
        assert got.J_opt <= J0 * (1.0 + nmpc_mod._ROUNDING) ** got.iterations
        return got

    def test_on_drawn_solves(self):
        solved = []

        def check_one(solver, x, v, up, warm):
            try:
                solved.append(self._check(solver, x, v, up, warm))
            except PFGuideError:
                return None
            return solved[-1]

        on_nmpc_draws(check_one)
        assert len(solved) >= 100

    def test_shifted_plan_case(self):
        """A warm solve whose shifted plan costs 25.98809353 by pass 2,
        where costing trials unprojected returned 26.09277859."""
        path = TestPredictionKernelsMatchOldForms.PATHS["case_study"]
        solver = NMPCSolver(_config("case_study", 3, 1.0), path)
        z, heading, v = 0.02, -1.4710316596731374, -0.0771835000740833
        up = InputCmd(0.17128245229649322,
                      wrap_angle(path_frame(path, 1.0 / z - 1.0)[0]
                                 + heading), 0.1)
        cold = self._check(solver, GuidanceState(1.9004260272436872e-98,
                                                 heading, z), v, up, None)
        xe, ye, z1 = cold.x_flat[3:6]
        x = GuidanceState(xe + 0.10330037816231152, ye + 1e-11, z1)
        shifted = unfused_pass2(solver, (x.x_e, x.y_e, x.z), v,
                                cold.u_seq[0], warm_plans(solver, cold)[1])
        assert shifted[2] == pytest.approx(25.98809353, abs=1e-8)
        got = self._check(solver, x, v, cold.u_seq[0], cold)
        assert got.J_opt == pytest.approx(25.98809353, abs=1e-8)


class TestLinearizedQP:
    def test_hessian_exactly_symmetric_and_bitwise_unchanged(
            self, demo_path, demo_config):
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
            H = qp_along(PNMPCSolver(cfg, demo_path), S, X, U, up, U,
                         (W, r)).H
            H0 = 2.0 * (S.T @ (W @ S) + np.diag(r))
            assert np.array_equal(H, H.T)
            assert H.tobytes() == (0.5 * (H0 + H0.T)).tobytes()


    def test_reference_is_reference_stack(self, demo_path, demo_config):
        """The solver's input reference is reference_stack's bit for bit
        at every heading of the box: below pi it is one read-only stack,
        built once, and at pi the stack on the 2 pi branch."""
        solver = PNMPCSolver(demo_config, demo_path)
        psis = [-math.pi, -1.0, -0.0, 0.0, 5e-324, 2.0,
                math.nextafter(math.pi, 0.0), math.pi]
        psis += np.random.default_rng(3).uniform(-math.pi, math.pi,
                                                 200).tolist()
        for psi in psis:
            assert solver._reference(psi).tobytes() == \
                reference_stack(solver.cfg, psi).tobytes()
        assert solver._reference(0.5) is solver._reference(-math.pi)
        assert not solver._reference(0.5).flags.writeable
        assert solver._reference(math.pi)[1] == 2.0 * math.pi

    def test_cached_rows_are_read_only(self, demo_path, demo_config):
        # linearized_qp hands out the solver's _sqp_rows A itself; a write
        # into one QP's A would change every later QP of the solver.
        c = InputConstraints()
        assert demo_config.constraints == c and demo_config.N == 3
        solver = PNMPCSolver(demo_config, demo_path)
        rows = solver._rows
        before = rows.A.copy()
        up = InputCmd(0.1, 0.2, 0.3)
        U = stack_inputs([up] * 3)
        qp = qp_along(solver, np.eye(9), [0.0] * 12, U, up, U,
                      (np.eye(9), np.ones(9)))
        with pytest.raises(ValueError, match="read-only"):
            qp.A[0, 0] = 5.0
        assert np.array_equal(rows.A, before)
        assert np.array_equal(pnmpc._sqp_rows(3, c).A, before)
        for cached in (*rows, pnmpc._stage_selector(3)):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0
        # The rows are one frozen, checked object, which the QP's A is.
        assert isinstance(rows, QPRows) and qp.A is rows.A
        with pytest.raises(AttributeError):
            rows.A = np.zeros_like(rows.A)
        with pytest.raises(ValueError, match="need lb <= ub"):
            rows._replace(lb=rows.ub + 1.0)
        # Built from caller arrays, the rows keep read-only copies: a
        # later write into the caller's arrays leaves them as checked.
        A, lb, ub = np.eye(2), np.zeros(2), np.ones(2)
        rows = QPRows(A, lb, ub)
        A[0, 0] = lb[0] = ub[0] = np.nan
        assert rows.A[0, 0] == 1.0 and rows.lb[0] == 0.0 and rows.ub[0] == 1.0
        for a in rows:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @pytest.mark.parametrize("A, lb, ub, match", [
        ([[np.nan, 0.0]], [0.0], [1.0], "A must be finite"),
        ([[0.0, np.inf]], [0.0], [1.0], "A must be finite"),
        ([[1.0, 0.0]], [1.0], [0.0], "need lb <= ub"),
        ([[1.0, 0.0]], [np.nan], [1.0], "need lb <= ub"),
        ([[1.0, 0.0]], [np.inf], [np.inf], "need lb <= ub"),
        ([[1.0, 0.0]], [-np.inf], [-np.inf], "need lb <= ub"),
        ([1.0, 0.0], [0.0], [1.0], r"A must be \(1,2\)"),
        ([[1.0, 0.0]], [0.0, 0.0], [1.0, 1.0], r"A must be \(2,2\)"),
        ([[1.0, 0.0]], [0.0], [1.0, 1.0], "matching shapes")])
    def test_rows_refused_when_built(self, A, lb, ub, match):
        """QPRows checks its rows once, when built, as QPProblem checks
        its own."""
        with pytest.raises(ValueError, match=match):
            QPRows(A, lb, ub)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["S", "X", "dev"])
    def test_non_finite_hessian_or_gradient_refused(self, where, bad,
                                                    demo_path, demo_config):
        """A law-built QP skips the row checks, but a non-finite H or g
        (from S, the states or the input deviation) is still refused."""
        up = InputCmd(0.1, 0.2, 0.3)
        args = {"S": np.eye(9), "X": [0.5] * 12,
                "U": stack_inputs([up] * 3), "dev": np.full(9, 0.1)}
        if where == "X":
            args["X"][7] = bad
        else:
            args[where][4] = bad
        solver = PNMPCSolver(demo_config, demo_path)
        # inf * 0 in the products is NaN: numpy's warning is not the test.
        with pytest.raises(ValueError, match="finite"), \
                np.errstate(invalid="ignore"):
            qp_along(solver, args["S"], args["X"], args["U"], up,
                     args["U"] - args["dev"], (np.eye(9), np.ones(9)))


def _qp_fields(qp):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (qp.H, qp.g, qp.A, qp.lb, qp.ub)]


def _solution_bits(sol):
    return (sol.x.tobytes(), sol.active_set, _float_bits([sol.kkt_residual]),
            sol.iterations,
            [(k, _float_bits([v])) for k, v in sol.multipliers.items()])


class TestLawQPsMatchCheckedQPs:
    """The laws build their QPs with QPProblem.on_rows and with_hessian,
    which skip the checks that the rows passed when they were built.  Each
    QP of a short realistic run passes every QPProblem check, equals field
    for field the QPProblem built from copies of its arrays, and solves to
    the same bits."""

    @pytest.mark.parametrize("law", ["pnmpc", "nmpc"])
    def test_law_qps_match_checked_qps(self, law, monkeypatch):
        module = pnmpc if law == "pnmpc" else nmpc_mod
        real, seen = module.solve_qp, []

        def capture(prob, warm=None):
            sol = real(prob, warm=warm)
            seen.append((prob, warm, sol))
            return sol

        monkeypatch.setattr(module, "solve_qp", capture)
        run_scenario(realistic_scenario(law, duration=30.0),
                     timer=lambda: 0.0)
        counts = dict.fromkeys(("constrained", "warm set", "exact phase"), 0)
        for prob, warm, sol in seen:
            assert not prob.A.flags.writeable  # the shared, checked rows
            checked = QPProblem(*(np.array(a) for a in (
                prob.H, prob.g, prob.A, prob.lb, prob.ub)))
            assert _qp_fields(checked) == _qp_fields(prob)
            assert _solution_bits(solve_qp(checked, warm=warm)) \
                == _solution_bits(sol)
            counts["constrained"] += bool(sol.active_set)
            counts["warm set"] += bool(warm.active_set)
            counts["exact phase"] += prob.H.tobytes() != prob.H.T.tobytes()
        assert len(seen) >= 30 and counts["constrained"] >= 5, counts
        if law == "nmpc":
            assert min(counts.values()) >= 5, counts


class TestPNMPCIsNMPCsFirstStep:
    """PNMPC is the first full step of NMPC's SQP from the held input.  Each
    PNMPC call of 100 s of the realistic and transient presets, replayed
    through a cold NMPC solve capped at one major iteration, builds the
    same first QP bit for bit; where NMPC's line search accepts its first
    trial (alpha = 1), the two results are equal bit for bit too."""

    def test_replayed_calls_match(self, monkeypatch):
        calls, pnmpc_qps = [], []
        real_solve, real_qp = PNMPCSolver.solve, pnmpc.solve_qp

        def record(self, x, v, up, *args, **kwargs):
            res = real_solve(self, x, v, up, *args, **kwargs)
            calls.append((self, x, v, up, res))
            return res

        monkeypatch.setattr(PNMPCSolver, "solve", record)
        monkeypatch.setattr(pnmpc, "solve_qp", lambda qp, warm: real_qp(
            pnmpc_qps.append(qp) or qp, warm=warm))
        for preset in (realistic_scenario, transient_scenario):
            run_scenario(preset("pnmpc", duration=100.0), timer=lambda: 0.0)
        assert len(calls) == len(pnmpc_qps) == 200

        nmpc_qps, trials = [], []
        real_pass2 = pnmpc.projected_rollout_flat
        assert nmpc_mod.solve_qp is real_qp  # both laws call qp.solve_qp
        assert NMPCSolver._pass2 is PNMPCSolver._pass2  # and one pass 2
        monkeypatch.setattr(nmpc_mod, "solve_qp", lambda qp, warm: real_qp(
            nmpc_qps.append(qp) or qp, warm=warm))
        # The cold start costs the hold once by pass 2; each later pass 2
        # is a trial.
        monkeypatch.setattr(pnmpc, "projected_rollout_flat",
                            lambda *args: (trials.append(None)
                                           or real_pass2(*args)))
        same = 0
        for (solver, x, v, up, res), qp in zip(calls, pnmpc_qps):
            nmpc = NMPCSolver(solver.cfg, solver.path)
            nmpc.max_iterations = 1
            nmpc_qps.clear()
            trials.clear()
            got = nmpc.solve(x, v, up, timer=lambda: 0.0)
            assert len(nmpc_qps) == 1
            assert _qp_bits(nmpc_qps[0]) == _qp_bits(qp)
            if len(trials) == 2:  # the hold, then the accepted alpha = 1
                assert _cmd_bits(got.u_seq) == _cmd_bits(res.u_seq)
                assert _float_bits(got.x_flat) == _float_bits(res.x_flat)
                assert _float_bits([got.J_opt]) == _float_bits([res.J_opt])
                same += 1
        assert same >= 100, same


class TestPNMPCSolve:
    def test_equilibrium_returns_hold(self, xaxis_path):
        cfg = NMPCConfig(Q=np.array([1.0, 1.0, 0.0]))
        cfg = replace(cfg, P=synthesize_terminal_weight(xaxis_path, cfg))
        up = InputCmd(0.15, 0.0, 0.15)
        res = PNMPCSolver(cfg, xaxis_path).solve(
            GuidanceState(0.0, 0.0, 0.05), 0.0, up)
        for cmd in res.u_seq:
            assert cmd.u == pytest.approx(0.15, abs=1e-9)
            assert cmd.psi == pytest.approx(0.0, abs=1e-9)
            assert cmd.u_tar == pytest.approx(0.15, abs=1e-9)

    def test_single_step_clamped_least_squares(self, xaxis_path):
        # N = 1 with the heading and target-speed weights pinned huge at
        # the previous input, which sits on the reference (u_r, 0, u_r):
        # the surge solves a scalar quadratic, clamped to its interval.
        up = InputCmd(0.10, 0.0, 0.15)
        cfg = NMPCConfig(N=1, R=np.array([10.0, 1e9, 1e9]), u_r=up.u_tar)
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

    @pytest.mark.parametrize("linearization", pnmpc.LINEARIZATIONS)
    def test_each_frame_evaluated_once(self, demo_path, demo_config,
                                       linearization):
        """An N = 3 step evaluates the path at the measured state once and
        at each of the two later states of each pass once."""
        calls = []
        path = replace(demo_path,
                       deriv=lambda w: calls.append(w) or demo_path.deriv(w))
        assert demo_config.N == 3
        PNMPCSolver(demo_config, path, linearization).solve(
            GuidanceState(0.5, 0.5, 0.3), 0.0, InputCmd(0.1, 0.5, 0.1))
        assert len(calls) == 5
        assert calls.count(1.0 / 0.3 - 1.0) == 1

    def test_unconverged_qp_fails_the_step(self, monkeypatch, demo_path,
                                           demo_config):
        def stalled(prob, warm=None):
            return QPSolution(np.zeros(prob.H.shape[0]), (), 3.5e-3, 7)

        monkeypatch.setattr(pnmpc, "solve_qp", stalled)
        with pytest.raises(QPFailure, match=r"KKT residual 3\.500e-03"):
            PNMPCSolver(demo_config, demo_path).solve(
                GuidanceState(1.0, 1.0, 0.4), 0.0, InputCmd(0.1, 0.3, 0.2))
        with pytest.raises(QPFailure, match=r"guidance step failed at t=0 "
                                            r"\(plant step 0\): QP stalled"):
            run_scenario(transient_scenario("pnmpc", duration=5.0))

    def test_predictions_consistent_with_model(self, demo_path, demo_config):
        x = GuidanceState(1.0, 1.0, 0.4)
        up = InputCmd(0.1, 0.3, 0.2)
        res = PNMPCSolver(demo_config, demo_path).solve(x, 0.05, up)
        ref = rollout(x, res.u_seq, 0.05, demo_config.T_m, demo_path)
        assert [c for s in ref for c in (s.x_e, s.y_e, s.z)] \
            == list(res.x_flat)


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
    return snap_feasible_cmds(U0 + L @ sol.x, up, c)


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
