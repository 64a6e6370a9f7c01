"""Timing, correctness checks and the end-to-end metrics of one run.

One closed-loop client runs scenarios back to back on one thread.  A
scenario is one request: ``run_scenario``, ``Trace.to_csv`` into memory,
then ``compute_metrics``, the same calls ``pfguide simulate`` makes.

Times are reported at a nominal host speed.  On a shared host the load
of other tenants can change the speed of the same code by a factor of two
within seconds.  So every timed scenario is bracketed by runs of a fixed
reference loop that does not touch pfguide, and its wall time is scaled
by ``REF_NOMINAL_S`` over the mean of the two reference times.  A change
to pfguide cannot move the reference, so the ratio keeps every gain and
regression of the program.
"""

from __future__ import annotations

import dataclasses
import io
import math
import re
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

REF_ITERATIONS = 40_000
REF_NOMINAL_S = 0.021  # reference loop time on an idle 2-vCPU x86-64 host

MIN_TAIL = 10  # samples that must lie beyond a reported percentile

_STEP_RE = re.compile(r"plant step (\d+)")


def reference_work() -> float:
    """Fixed interpreter-bound loop with small numpy products."""
    a = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]])
    v = np.ones(3)
    acc = 0.0
    table = {}
    for i in range(REF_ITERATIONS):
        x = i * 1e-3
        acc += math.sin(x) * math.cos(x) + math.hypot(x, 1.0)
        table[i & 63] = (x, acc)
        if i % 8 == 0:
            v = a @ v + 1e-3
            acc += float(v[0])
    return acc


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class HostClock:
    """Scale factors from wall time to nominal-host time.

    ``scale()`` is called right after a timed sample; the reference runs
    just before (the previous call) and just after it bracket the sample.
    """

    def __init__(self):
        self._last = reference_seconds()

    def scale(self) -> float:
        after = reference_seconds()
        before, self._last = self._last, after
        return REF_NOMINAL_S / (0.5 * (before + after))


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile, refused unless MIN_TAIL samples lie beyond."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(f"p{q:g} of {n} samples has only {n - rank} beyond it; "
                         f"need {MIN_TAIL}")
    return float(sorted(values)[rank - 1])


def failed_solves(law: str, kkt_at_instants, kkt_tol: float) -> int:
    """Unconverged solves of a completed run.

    Only the NMPC SQP promises a KKT tolerance; the PNMPC column holds
    its linearized QP's residual and SGLOS solves nothing.
    """
    if law != "nmpc":
        return 0
    return int(np.count_nonzero(np.asarray(kkt_at_instants) > kkt_tol))


def failed_after_error(message: str, stride: int, instants: int) -> int:
    """Guidance instants lost to a run that raised, from the failing step on."""
    m = _STEP_RE.search(message)
    first = 0 if m is None else math.ceil(int(m.group(1)) / stride)
    return max(0, instants - first)


def timing_columns(columns) -> tuple:
    """Wall-clock columns; every other trace column is deterministic."""
    return tuple(c for c in columns if c.endswith("time_s"))


def deterministic(trace, columns) -> dict:
    skip = set(timing_columns(columns))
    return {c: np.array(trace[c], copy=True) for c in columns if c not in skip}


def same_columns(a: dict, b: dict) -> bool:
    """Bit-for-bit equality, NaN included."""
    return a.keys() == b.keys() and all(
        a[c].tobytes() == b[c].tobytes() for c in a)


def check_request(law: str, trace, csv_text: str, report, columns) -> list:
    """Breaches of the output contract of one scenario request."""
    breaches = []
    if report.violations != 0:
        breaches.append(f"{report.violations} constraint violations")
    lines = csv_text.count("\n")
    if lines != len(trace) + 1:
        breaches.append(f"CSV has {lines} lines for {len(trace)} records")
    for name, col in deterministic(trace, columns).items():
        finite = np.isfinite(col)
        if finite.all():
            continue
        # SGLOS runs no optimizer, so its cost/residual columns are all NaN.
        if law == "sglos" and not finite.any():
            continue
        breaches.append(f"column {name} has non-finite values")
    return breaches


def serve(pf, sc):
    """One request through the public API; returns (trace, csv, report)."""
    trace = pf.run_scenario(sc)
    buf = io.StringIO()
    trace.to_csv(buf)
    return trace, buf.getvalue(), pf.compute_metrics(trace)


def warm_up(pf, sc) -> None:
    """A 2 s closed loop: builds a solver, fills the row caches and pays
    numpy's lazy numpy.ma import in the first compute_metrics."""
    serve(pf, dataclasses.replace(sc, duration=2.0))


@dataclass
class ScenarioRecord:
    """Reference outputs of one scenario and its timed repeats."""

    columns: dict = None
    iae_y_e: float = math.nan
    instants: int = 0
    failed_instants: int = 0
    walls: list = field(default_factory=list)      # nominal s per repeat
    solve_ms: list = field(default_factory=list)   # nominal ms per instant


@dataclass
class RunState:
    records: list
    attempted: int = 0
    failed: int = 0
    breaches: list = field(default_factory=list)


def instants_of(sc) -> tuple:
    """(guidance instants, plant steps per guidance step) of a scenario."""
    steps = int(round(sc.duration / sc.T_p))
    stride = int(round(sc.T_m / sc.T_p))
    return len(range(0, steps, stride)), stride


def serve_checked(pf, state: RunState, i: int, sc, clock=None):
    """Serve scenario i, check it, fold it into state.

    Returns the trace (None when the run raised) and the raw wall seconds.
    """
    columns = pf.sim.TRACE_COLUMNS
    rec = state.records[i]
    n_inst, stride = instants_of(sc)
    state.attempted += 1
    t0 = time.perf_counter()
    try:
        trace, csv_text, report = serve(pf, sc)
    except pf.PFGuideError as exc:
        wall = time.perf_counter() - t0
        if clock is not None:
            clock.scale()
        state.failed += 1
        if rec.columns is None:
            rec.instants = n_inst
            rec.failed_instants = failed_after_error(str(exc), stride, n_inst)
        return None, wall
    wall = time.perf_counter() - t0
    scale = clock.scale() if clock is not None else 1.0
    state.breaches += [f"scenario {i}: {b}" for b in
                       check_request(sc.law, trace, csv_text, report, columns)]
    cols = deterministic(trace, columns)
    if rec.columns is None:
        rec.columns = cols
        rec.iae_y_e = report.iae_y_e
        rec.instants = n_inst
        rec.failed_instants = failed_solves(
            sc.law, trace["kkt_residual"][0:len(trace) - 1:stride],
            pf.nmpc.KKT_TOL)
    elif not same_columns(rec.columns, cols):
        state.breaches.append(f"scenario {i}: repeat differs from first run")
    if clock is not None:
        rec.walls.append(wall * scale)
        rec.solve_ms.append(
            np.asarray(trace["solve_time_s"][0:len(trace) - 1:stride])
            * (1e3 * scale))
    return trace, wall


def timed_rounds(pf, scenarios, seconds: float) -> RunState:
    """Whole rounds over all scenarios until the next would overrun."""
    state = RunState([ScenarioRecord() for _ in scenarios])
    clock = HostClock()
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for i, sc in enumerate(scenarios):
            serve_checked(pf, state, i, sc, clock)
        now = time.perf_counter()
        if (now - start) + (now - t_round) > seconds:
            break
    if len(state.records[0].walls) < 2:
        # One round fitted: repeat one scenario, untimed, to check determinism.
        serve_checked(pf, state, 0, scenarios[0])
    return state


def end_to_end(state: RunState, scenarios) -> tuple:
    """Metrics (realtime factor, solve percentiles, converged share, IAE)
    and informational counts of a timed run."""
    done = [(r, sc) for r, sc in zip(state.records, scenarios) if r.walls]
    if not done:
        raise RuntimeError("no scenario completed")
    sim_s = sum(sc.duration for _, sc in done)
    wall = sum(statistics.median(r.walls) for r, _ in done)
    # One value per (scenario, instant): the median over its repeats.
    slots = np.concatenate([np.median(np.vstack(r.solve_ms), axis=0)
                            for r, _ in done])
    instants = sum(r.instants for r in state.records)
    failed = sum(r.failed_instants for r in state.records)
    return {
        "realtime_factor": sim_s / wall,
        "solve_ms_p50": percentile(slots, 50),
        "solve_ms_p99": percentile(slots, 99),
        "converged_frac": 1.0 - failed / instants,
        "iae_y_e": statistics.mean(r.iae_y_e for r, _ in done),
    }, {"solves": int(slots.size), "unconverged_solves": failed,
        "unconverged_frac": failed / instants,
        "repeats": [len(r.walls) for r in state.records]}
