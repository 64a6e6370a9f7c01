"""Command-line front end: simulate, compare, check-derivatives.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 invariant violation (path geometry, diverged state, failed checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .errdyn import GuidanceState, InputCmd, dynamics_flat, rollout_flat
from .exceptions import (ConfigError, DomainError, Infeasible, InfeasibleStart,
                         NonRegularPath, PFGuideError, QPFailure, StateEscape,
                         TerminalWeightUnset, UnstableTerminalLoop)
from .config import load_scenario
from .paths import (case_study_path, check_path_derivatives, line_path,
                    path_frame, polynomial_path)
from .nmpc import NMPCConfig
from .pnmpc import (curvature_flat, horizon_weights, jacobian_block,
                    linearized_qp, reference_stack, sensitivity_flat,
                    state_jacobian)
from .sim import LAWS, compute_metrics, run_scenario

_SOLVER_ERRORS = (Infeasible, InfeasibleStart, QPFailure, TerminalWeightUnset,
                  UnstableTerminalLoop)
_INVARIANT_ERRORS = (NonRegularPath, StateEscape, DomainError)


def _run(sc):
    """run_scenario, with a non-finite value (ValueError) reported as the
    diverged state it comes from.

    numpy's overflow warnings stay quiet: an overflow yields the
    non-finite value that the run then reports.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run_scenario(sc)
    except ValueError as exc:
        raise StateEscape(f"diverged state: {exc}") from exc


def _cmd_simulate(args) -> int:
    sc = load_scenario(args.config)
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out!r} is a directory")
    parent = os.path.dirname(args.out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out directory {parent!r} does not exist")
    trace = _run(sc)
    trace.write_csv(args.out)
    report = compute_metrics(trace)
    print(f"wrote {len(trace)} records to {args.out}")
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_compare(args) -> int:
    laws = [law.strip() for law in args.laws.split(",") if law.strip()]
    if not laws or len(set(laws)) != len(laws):
        raise ConfigError(f"--laws needs distinct law names, got {args.laws!r}")
    for law in laws:
        if law not in LAWS:
            raise ConfigError(f"unknown law {law!r}; choose from {LAWS}")
    sc = load_scenario(args.config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make --out directory {args.out!r}: "
                          f"{exc.strerror}") from exc
    combined = {}
    for law in laws:
        trace = _run(dataclasses.replace(sc, law=law))
        out_csv = os.path.join(args.out, f"{law}.csv")
        trace.write_csv(out_csv)
        combined[law] = compute_metrics(trace).to_dict()
        print(f"{law}: wrote {out_csv}")
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w") as fh:
        json.dump(combined, fh, indent=2)
        fh.write("\n")
    print(f"wrote {report_path}")
    return 0


def _rel_err(J: np.ndarray, fd: np.ndarray) -> float:
    """Largest relative error, with a floor of 1e-3 on the analytic entry."""
    return float((np.abs(J - fd) / np.maximum(np.abs(J), 1e-3)).max())


def _check_jacobians(path, samples: int, seed: int) -> tuple:
    """Worst relative errors of the analytic input and state Jacobians
    against central differences of the dynamics, over random points.

    The differences run on the float dynamics, so the z stencil may cross
    z = 1 (omega slightly below 0, where every built-in path is smooth).
    The z step scales with z: omega = 1/z - 1 moves by h/z^2 per unit
    step, so a fixed step would dominate the error for small z.
    """
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst_in = worst_st = 0.0
    for _ in range(samples):
        x = GuidanceState(rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(0.01, 1.0))
        u = InputCmd(rng.uniform(0.0, 0.225), rng.uniform(-math.pi, math.pi),
                     rng.uniform(0.01, 0.75))
        v = rng.uniform(-0.15, 0.15)
        xs = np.array([x.x_e, x.y_e, x.z])
        us = np.array([u.u, u.psi, u.u_tar])

        def f(xv, uv):
            return np.array(dynamics_flat(
                *xv, *uv, v, path_frame(path, 1.0 / xv[2] - 1.0)))

        fd_in = np.empty((3, 3))
        fd_st = np.empty((3, 3))
        for col in range(3):
            d = np.zeros(3)
            d[col] = h
            fd_in[:, col] = (f(xs, us + d) - f(xs, us - d)) / (2.0 * h)
            if col == 2:
                d[col] = h * x.z
            fd_st[:, col] = (f(xs + d, us) - f(xs - d, us)) / (2.0 * d[col])
        worst_in = max(worst_in, _rel_err(jacobian_block(x, u, v, path).m,
                                          fd_in))
        worst_st = max(worst_st, _rel_err(state_jacobian(x, u, v, path),
                                          fd_st))
    return worst_in, worst_st


def _check_curvature(path, samples: int, seed: int) -> float:
    """Worst error of the exact SQP Hessian (Gauss-Newton plus the
    curvature term) against central differences of the exact cost
    gradient, relative to the largest entry, over random horizons.

    The gradient is linearized_qp's g, re-linearized along the rollout of
    each perturbed input sequence.
    """
    rng = np.random.default_rng(seed)
    cfg = NMPCConfig(P=np.eye(3))
    weights = horizon_weights(cfg)
    n = 3 * cfg.N
    h = 1e-6
    worst = 0.0
    for _ in range(samples):
        x0 = (rng.uniform(-10, 10), rng.uniform(-10, 10),
              rng.uniform(0.01, 1.0))
        U = np.array([c for _ in range(cfg.N)
                      for c in (rng.uniform(0.0, 0.225),
                                rng.uniform(-math.pi, math.pi),
                                rng.uniform(0.01, 0.75))])
        v = rng.uniform(-0.15, 0.15)
        u_prev = InputCmd(*U[:3])
        Uref = reference_stack(cfg, u_prev.psi)

        def linearize(Uv):
            u = Uv.tolist()
            X, frames = rollout_flat(x0, u, v, cfg.T_m, path)
            S = sensitivity_flat(X, u, frames, v, cfg.T_m, path)
            qp = linearized_qp(S, X, Uv, u_prev, Uref, weights,
                               cfg.constraints)
            return qp, S, X, frames

        qp, S, X, frames = linearize(U)
        H = qp.H + curvature_flat(S, X, U.tolist(), frames, v, cfg.T_m,
                                  path, weights[0])
        fd = np.empty((n, n))
        for col in range(n):
            d = np.zeros(n)
            d[col] = h
            fd[:, col] = (linearize(U + d)[0].g
                          - linearize(U - d)[0].g) / (2.0 * h)
        worst = max(worst, float(np.abs(H - fd).max())
                    / max(float(np.abs(fd).max()), 1e-3))
    return worst


def _cmd_check_derivatives(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    failures = 0
    omegas = np.linspace(0.0, 120.0, 100)
    for path in (case_study_path(), line_path(),
                 polynomial_path([0.0, 1.0, 0.01, 1e-4],
                                 [0.0, 0.5, -0.002, -1e-5])):
        try:
            check_path_derivatives(path, omegas)
            print(f"path derivative check: {path.name} ok")
        except NonRegularPath as exc:
            print(f"path derivative check FAILED: {exc}")
            failures += 1
        worst_in, worst_st = _check_jacobians(path, args.samples, args.seed)
        worst_h = _check_curvature(path, args.samples, args.seed)
        for label, worst, tol in (("input-Jacobian", worst_in, 1e-6),
                                  ("state-Jacobian", worst_st, 1e-5),
                                  ("curvature", worst_h, 1e-5)):
            verdict = "ok" if worst <= tol else "FAILED"
            print(f"{label} check: {path.name} worst relative error "
                  f"{worst:.3e} over {args.samples} samples (tol {tol:.0e}) "
                  f"{verdict}")
            failures += worst > tol
    if failures:
        raise NonRegularPath(f"{failures} derivative check(s) failed")
    print("all derivative checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfguide",
        description="Path-following guidance laws and closed-loop simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop scenario")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--out", required=True, help="output trace CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several laws on one scenario")
    p_cmp.add_argument("--config", required=True, help="scenario JSON file")
    p_cmp.add_argument("--laws", default="nmpc,pnmpc,sglos",
                       help="comma-separated laws to run")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = sub.add_parser("check-derivatives",
                           help="finite-difference path and Jacobian checks")
    p_chk.add_argument("--samples", type=int, default=500)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func=_cmd_check_derivatives)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except _INVARIANT_ERRORS as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except PFGuideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
