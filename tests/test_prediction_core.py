"""The float prediction core: analytic state Jacobian, one path frame per
predicted step and the guarded SQP step."""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pfguide.nmpc as nmpc_mod
from pfguide import (GuidanceState, InputCmd, NMPCSolver, QPSolution,
                     case_study_path, euler_step, horizon_cost, line_path,
                     polynomial_path, rollout, stage_cost, state_jacobian)
from pfguide.errdyn import dynamics_flat, rollout_flat
from pfguide.paths import path_frame
from pfguide.pnmpc import quadratic_form

CUBIC = polynomial_path([0.0, 1.0, 0.01, 1e-4], [0.0, 0.5, -0.002, -1e-5])
PATHS = {"line": line_path(origin=(1.0, -2.0), direction=(0.6, 0.8)),
         "cubic": CUBIC,
         "case_study": case_study_path()}

# z anywhere in [0.01, 1], with extra weight within 1e-6 of 1, where the
# oracle's z stencil crosses z = 1.
zs = st.one_of(st.floats(min_value=0.01, max_value=1.0),
               st.floats(min_value=1.0 - 1e-6, max_value=1.0))
errors = st.floats(min_value=-10.0, max_value=10.0)
inputs = st.tuples(st.floats(min_value=0.0, max_value=0.225),
                   st.floats(min_value=-math.pi, max_value=math.pi),
                   st.floats(min_value=0.01, max_value=0.75))
sways = st.floats(min_value=-0.15, max_value=0.15)


def fd_state_jacobian(x, u, v, path, h=1e-6):
    """Central differences of the float dynamics in the state.

    The z step is h*z (omega = 1/z - 1 moves by h/z^2 per unit step) and
    may cross z = 1, where the built-in paths are smooth for omega < 0.
    """
    xs = np.array([x.x_e, x.y_e, x.z])

    def f(xv):
        return np.array(dynamics_flat(*xv, u.u, u.psi, u.u_tar, v,
                                      path_frame(path, 1.0 / xv[2] - 1.0)))

    J = np.empty((3, 3))
    for col, step in enumerate((h, h, h * x.z)):
        d = np.zeros(3)
        d[col] = step
        J[:, col] = (f(xs + d) - f(xs - d)) / (2.0 * step)
    return J


@pytest.mark.parametrize("name", sorted(PATHS))
@given(xe=errors, ye=errors, z=zs, u=inputs, v=sways,
       seq=st.lists(inputs, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_analytic_state_jacobian_and_float_rollout(name, xe, ye, z, u, v, seq):
    path = PATHS[name]
    x = GuidanceState(xe, ye, z)
    cmd = InputCmd(*u)
    J = state_jacobian(x, cmd, v, path)
    fd = fd_state_jacobian(x, cmd, v, path)
    assert np.all(np.abs(J - fd) <= 1e-5 * np.maximum(np.abs(J), 1e-3))

    # the float rollout is bit-identical to chaining euler_step, and its
    # frames are the path frames at the states the steps start from
    cmds = [InputCmd(*c) for c in seq]
    X, frames = rollout_flat((xe, ye, z), [c for t in seq for c in t], v,
                             1.0, path)
    chained = [x]
    for c in cmds:
        chained.append(euler_step(chained[-1], c, v, 1.0, path))
    assert X == [c for s in chained for c in (s.x_e, s.y_e, s.z)]
    assert frames == [path_frame(path, 1.0 / s.z - 1.0) for s in chained[:-1]]
    assert rollout(x, cmds, v, 1.0, path) == chained


def test_state_jacobian_closed_form_columns(demo_path):
    # x_e and y_e columns: (0, -u_tar kappa, 0) and (u_tar kappa, 0, 0)
    x = GuidanceState(1.5, -2.0, 0.2)
    u = InputCmd(0.1, 0.4, 0.3)
    frame = path_frame(demo_path, 1.0 / x.z - 1.0)
    kappa = frame[2] / frame[1]
    J = state_jacobian(x, u, 0.05, demo_path)
    assert J[:, 0].tolist() == [0.0, -u.u_tar * kappa, 0.0]
    assert J[:, 1].tolist() == [u.u_tar * kappa, 0.0, 0.0]


def test_horizon_cost_matches_stage_and_terminal_costs(demo_path, demo_config):
    cfg = demo_config
    x = GuidanceState(2.0, -1.0, 0.3)
    seq = [InputCmd(0.1, 0.3, 0.2), InputCmd(0.15, 0.5, 0.25),
           InputCmd(0.2, 0.2, 0.3)]
    states = rollout(x, seq, 0.02, cfg.T_m, demo_path)
    xN = states[-1]
    ref = (sum(stage_cost(s, u, cfg) for s, u in zip(states, seq))
           + cfg.lam * quadratic_form(xN.x_e, xN.y_e, xN.z,
                                      cfg.P.tolist()))
    assert horizon_cost(x, states, seq, cfg) == pytest.approx(ref, rel=1e-12)


class TestGuardedSQPStep:
    x = GuidanceState(1.38, 5.85, 1.0 / 3.5)

    def _run(self, monkeypatch, demo_path, demo_config, tamper):
        real = nmpc_mod.solve_qp
        calls = []

        def fake(problem, warm=None):
            calls.append(problem)
            return tamper(real(problem, warm=warm))

        up = InputCmd(0.0, 0.56, 0.01)
        monkeypatch.setattr(nmpc_mod, "solve_qp", fake)
        res = NMPCSolver(demo_config, demo_path).solve(self.x, 0.0, up)
        hold = [up] * demo_config.N
        J_hold = horizon_cost(self.x, rollout(self.x, hold, 0.0,
                                              demo_config.T_m, demo_path),
                              hold, demo_config)
        return res, calls, hold, J_hold

    @pytest.mark.parametrize("tamper", [
        lambda s: QPSolution(s.x, s.active_set, 1.0, s.iterations),
        lambda s: dataclasses.replace(s, x=-s.x),
    ], ids=["unconverged", "ascent"])
    def test_rejected_step_keeps_incumbent(self, monkeypatch, caplog,
                                           demo_path, demo_config, tamper):
        with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
            res, calls, hold, J_hold = self._run(monkeypatch, demo_path,
                                                 demo_config, tamper)
        assert len(calls) == 1  # the major loop ends at the first step
        assert res.iterations == 1
        assert list(res.u_seq) == hold
        assert res.J_opt == J_hold
        assert any("QP step rejected" in r.getMessage()
                   for r in caplog.records)

    def test_sound_step_is_taken(self, monkeypatch, caplog, demo_path,
                                 demo_config):
        with caplog.at_level(logging.WARNING, logger="pfguide.nmpc"):
            res, calls, _, J_hold = self._run(monkeypatch, demo_path,
                                              demo_config, lambda s: s)
        assert len(calls) > 1
        assert res.J_opt < J_hold
        assert not caplog.records
