"""The exact second-order SQP term and the solver that switches to it:
curvature against differences of the exact gradient, the stall trigger,
the convexified Hessian, the iteration-cap warning, converged solves on
the presets, from wide starts and over horizons, and the array forms of
the QP bounds and the stationarity residual."""

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pfguide.nmpc as nmpc_mod
from pfguide import (GuidanceState, InputCmd, NMPCConfig, NMPCSolver,
                     case_study_path, compute_metrics, line_path,
                     polynomial_path, realistic_scenario, run_scenario,
                     transient_scenario)
from pfguide.los import InputConstraints
from pfguide.nmpc import (KKT_TOL, MAX_MAJOR_ITER, _PENALTY,
                         _active_at_zero, _convexified,
                         _stationarity_residual)
from pfguide.pnmpc import (_sqp_rows, curvature_flat, horizon_weights,
                           reference_stack)

PATHS = {"line": line_path(origin=(1.0, -2.0), direction=(0.6, 0.8)),
         "cubic": polynomial_path([0.0, 1.0, 0.01, 1e-4],
                                  [0.0, 0.5, -0.002, -1e-5]),
         "case_study": case_study_path()}
CFG = NMPCConfig(P=np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1],
                             [0.0, 0.1, 0.5]]))
WEIGHTS = horizon_weights(CFG)

errors = st.floats(min_value=-10.0, max_value=10.0)
# z anywhere in [0.01, 1], with extra weight within 1e-6 of 1, where the
# curvature's z-z difference takes its backward stencil.
zs = st.one_of(st.floats(min_value=0.01, max_value=1.0),
               st.floats(min_value=1.0 - 1e-6, max_value=1.0))
step_inputs = st.tuples(st.floats(min_value=0.0, max_value=0.225),
                        st.floats(min_value=-math.pi, max_value=math.pi),
                        st.floats(min_value=0.01, max_value=0.75))
sways = st.floats(min_value=-0.15, max_value=0.15)


def linearize(x0, U, v, path, u_prev):
    qp, X, frames, S = NMPCSolver(CFG, path).linearized_qp(
        x0, U, v, u_prev, reference_stack(CFG, u_prev.psi))
    return qp, S, X, frames


@pytest.mark.parametrize("name", sorted(PATHS))
@given(xe=errors, ye=errors, z=zs, v=sways,
       seq=st.lists(step_inputs, min_size=CFG.N, max_size=CFG.N))
@settings(max_examples=40, deadline=None)
def test_curvature_matches_gradient_differences(name, xe, ye, z, v, seq):
    path = PATHS[name]
    x0 = (xe, ye, z)
    U = np.array([c for step in seq for c in step])
    u_prev = InputCmd(*seq[0])
    qp, S, X, frames = linearize(x0, U, v, path, u_prev)
    M = curvature_flat(S, X, U.tolist(), frames, v, CFG.T_m, path,
                       WEIGHTS[0])
    assert np.array_equal(M, M.T)
    H = qp.H + M
    n = U.shape[0]
    h = 1e-6
    fd = np.empty((n, n))
    for col in range(n):
        d = np.zeros(n)
        d[col] = h
        fd[:, col] = (linearize(x0, U + d, v, path, u_prev)[0].g
                      - linearize(x0, U - d, v, path, u_prev)[0].g) / (2.0 * h)
    scale = max(float(np.abs(fd).max()), 1e-3)
    assert float(np.abs(H - fd).max()) <= 1e-6 * scale


class TestStallTrigger:
    def _solve(self, monkeypatch, demo_path, demo_config, x, u_prev):
        calls = []
        real = nmpc_mod.curvature_flat

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(nmpc_mod, "curvature_flat", counting)
        res = NMPCSolver(demo_config, demo_path).solve(x, 0.0, u_prev)
        return res, calls

    def test_fast_contraction_stays_gauss_newton(self, monkeypatch,
                                                 demo_path, demo_config):
        # A state of the transient preset's closed loop near the path:
        # each Gauss-Newton iteration cuts the residual more than 4x.
        res, calls = self._solve(
            monkeypatch, demo_path, demo_config,
            GuidanceState(0.0007037573220092891, -0.0005736561024302887,
                          0.09768111827105476),
            InputCmd(0.15141740963291278, 1.459148088358306,
                     0.18876169724189548))
        assert res.kkt_residual <= KKT_TOL
        assert res.iterations >= 3
        assert calls == []

    def test_stall_switches_to_exact_curvature(self, monkeypatch, demo_path,
                                               demo_config):
        # The transient preset's start: Gauss-Newton alone ends this solve
        # on the iteration cap with a KKT residual of about 8.
        res, calls = self._solve(monkeypatch, demo_path, demo_config,
                                 GuidanceState(1.38, 5.85, 1.0 / 3.5),
                                 InputCmd(0.0, 0.56, 0.01))
        assert calls
        assert res.kkt_residual <= KKT_TOL
        assert res.iterations < MAX_MAJOR_ITER


def test_cap_exit_logs_warning(monkeypatch, caplog, demo_path, demo_config):
    monkeypatch.setattr(NMPCSolver, "max_iterations", 1)
    solver = NMPCSolver(demo_config, demo_path)
    with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
        res = solver.solve(GuidanceState(1.38, 5.85, 1.0 / 3.5), 0.0,
                           InputCmd(0.0, 0.56, 0.01))
    assert res.iterations == 1 and res.kkt_residual > KKT_TOL
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "pfguide.nmpc" and r.levelno == logging.WARNING]
    assert len(msgs) == 1
    assert "iteration cap (1)" in msgs[0]
    assert f"{res.kkt_residual:.3e}" in msgs[0]


@pytest.mark.parametrize("preset", [transient_scenario, realistic_scenario],
                         ids=["transient", "realistic"])
def test_no_iteration_cap_exits_on_presets(preset):
    trace = run_scenario(preset("nmpc"))
    capped = (trace["iterations"] >= MAX_MAJOR_ITER) & \
        (trace["kkt_residual"] > KKT_TOL)
    assert not capped.any()
    assert float(trace["kkt_residual"].max()) <= KKT_TOL


def test_no_cap_exits_from_wide_starts(wide_start_scenarios):
    # Clipping the full-space eigenvalues once left three solves of each
    # run at the cap, with KKT residuals of 1-6e-6.
    for sc in wide_start_scenarios:
        trace = run_scenario(sc)
        assert float(trace["kkt_residual"].max()) <= KKT_TOL
        assert int(trace["iterations"].max()) <= 10


@pytest.mark.parametrize("N", [1, 2, 4, 6, 10])
def test_every_horizon_converges_closed_loop(N):
    sc = realistic_scenario("nmpc", duration=200.0)
    trace = run_scenario(replace(sc, nmpc=NMPCConfig(N=N)))
    assert float(trace["kkt_residual"].max()) <= KKT_TOL
    assert compute_metrics(trace).violations == 0


class TestConvexified:
    """Penalizing the active rows before the clip keeps the curvature on
    their null space, where the full-space clip bends it, as long as the
    penalized sum leaves nothing to clip; the Schur-complement bound of
    _convexified's docstring is the condition checked."""

    def test_positive_definite_and_reduced_curvature_kept(self):
        rng = np.random.default_rng(14)
        rows_all, _, _ = _sqp_rows(3, InputConstraints())
        n = rows_all.shape[1]
        kept = 0
        for _ in range(300):
            m = int(rng.integers(1, 6))
            A = rows_all[np.sort(rng.choice(rows_all.shape[0], m,
                                            replace=False))]
            if np.linalg.matrix_rank(A) < m:
                continue
            basis, _ = np.linalg.qr(A.T, mode="complete")
            Y, Z = basis[:, :m], basis[:, m:]
            B = rng.normal(size=(n, n))
            H = 0.5 * (B + B.T) \
                + Z @ np.diag(rng.uniform(2.0, 5.0, n - m)) @ Z.T
            H *= 10.0 ** rng.uniform(-1.0, 3.0)
            G = rng.normal(size=(n, n))
            H_gn = (G @ G.T / n + 0.5 * np.eye(n)) * 0.05 * np.abs(H).max()
            if np.linalg.eigvalsh(H)[0] >= 0.0:
                continue
            H_cvx = _convexified(H, H_gn, A)
            assert np.linalg.eigvalsh(H_cvx)[0] > 0.0
            # The clip leaves the reduced curvature alone where it lies
            # above the floor by more than the coupling to the penalized
            # directions can take back: c^2 < a b (Schur complement).
            floor = np.linalg.eigvalsh(H_gn)[0]
            reduced = Z.T @ H @ Z
            a = np.linalg.eigvalsh(reduced)[0] - floor
            penalized = H + _PENALTY * np.abs(H).max() * (A.T @ A)
            b = np.linalg.eigvalsh(Y.T @ penalized @ Y)[0] - floor
            c = np.linalg.norm(Z.T @ H @ Y, 2)
            if not (a > 0.0 and b > 0.0 and c * c < a * b):
                continue
            kept += 1
            assert np.abs(Z.T @ H_cvx @ Z - reduced).max() <= \
                1e-9 * np.abs(reduced).max()
        assert kept >= 100

    def test_no_active_rows_clips_the_full_space(self):
        rng = np.random.default_rng(15)
        B = rng.normal(size=(6, 6))
        H = 0.5 * (B + B.T)
        H_gn = np.diag([0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
        w = np.linalg.eigvalsh(_convexified(H, H_gn, np.zeros((0, 6))))
        expected = np.maximum(np.linalg.eigvalsh(H), 0.5)
        assert np.allclose(w, expected, rtol=0.0, atol=1e-12)


def _bounds_loop(U, u_prev, c):
    """Per-row bounds of the perturbation, as the QP builder once filled
    them: rate rows (u, psi) then box rows (u, u_tar) per step."""
    lb, ub = [], []
    N = U.shape[0] // 3
    for j in range(N):
        for comp in (0, 1):
            half = c.du_max if comp == 0 else c.dpsi_max
            prev = (u_prev.u if comp == 0 else u_prev.psi) if j == 0 \
                else U[3 * (j - 1) + comp]
            cur = U[3 * j + comp] - prev
            lb.append(-half - cur)
            ub.append(half - cur)
        for comp in (0, 2):
            lo = 0.0 if comp == 0 else c.eps
            hi = c.u_max if comp == 0 else c.u_tar_max
            lb.append(lo - U[3 * j + comp])
            ub.append(hi - U[3 * j + comp])
    return np.array(lb), np.array(ub)


def _stationarity_loop(g, A, lb, ub):
    act_tol = 1e-9
    cols = []
    for i in range(lb.shape[0]):
        if ub[i] <= act_tol:
            cols.append(-A[i])
        if lb[i] >= -act_tol:
            cols.append(A[i])
    if not cols:
        return float(np.max(np.abs(g), initial=0.0))
    C = np.stack(cols, axis=1)
    lam, *_ = np.linalg.lstsq(C, g, rcond=None)
    lam = np.maximum(lam, 0.0)
    return float(np.max(np.abs(g - C @ lam), initial=0.0))


class TestArrayFormsMatchLoops:
    def test_qp_bounds(self):
        rng = np.random.default_rng(5)
        c = InputConstraints()
        for N in (1, 3, 5):
            solver = NMPCSolver(replace(CFG, N=N), PATHS["line"])
            A = solver._rows.A
            assert np.array_equal(A, _sqp_rows(N, c).A)
            for _ in range(200):
                U = rng.uniform(-1.0, 1.0, 3 * N) * rng.choice(
                    [1e-3, 1.0, 4.0], 3 * N)
                u_prev = InputCmd(*rng.uniform(-1.0, 1.0, 3))
                qp = solver.linearized_qp((0.0, 0.0, 0.5), U, 0.0, u_prev,
                                          np.zeros(3 * N))[0]
                lb, ub = _bounds_loop(U, u_prev, c)
                assert qp.A is A
                assert np.array_equal(qp.lb, lb)
                assert np.array_equal(qp.ub, ub)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(6)
        A, _, _ = _sqp_rows(3, InputConstraints())
        m, n = A.shape
        for _ in range(400):
            g = rng.normal(size=n)
            # bounds at, near and away from the 1e-9 activity threshold
            pick = rng.choice([0.0, 1e-9, -1e-9, 2e-9, 0.3, -0.3], (2, m))
            lb = -np.abs(pick[0]) * rng.choice([1.0, -1.0], m)
            ub = lb + np.abs(pick[1])
            assert _stationarity_residual(g, A, _active_at_zero(lb, ub)) == \
                _stationarity_loop(g, A, lb, ub)
