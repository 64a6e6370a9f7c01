"""Closed-loop guidance benchmark for pfguide.

Run from the root of a pfguide checkout:

    python3 perfbench/run.py --workload nmpc-realistic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time (median of several fresh processes), then whole rounds over the
workload's scenarios until ``--seconds`` is spent.  ``--trace 1`` wraps
every layer from outside and serves every second scenario in passes, each
untraced and then traced, while ``--seconds`` allows.  It reports calls,
self times and counts per layer per pass (the traced set-up counts once)
plus the tracing overhead; its spans go to
``.bench_out/spans-<workload>.npz``.

Informational lines (drawn starts, solve counts, ``src_lines``, any
correctness breach) come first; the last line of standard output is the
JSON result.  Metric names and units come from ``BENCHMARK.json``.  The
program is imported from ``src/`` of the checkout and nowhere else.
"""

import os

# numpy's OpenBLAS would otherwise start a thread pool that competes with
# the single-threaded client for the cores; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
TRACE_STRIDE = 2    # the traced run serves scenarios 0, 2, 4, ...
PROBE_TIMEOUT = 120  # s


def load_program():
    """Import pfguide from the checkout's src/, refusing any other copy."""
    init = SRC / "pfguide" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no program at {init}")
    sys.path.insert(0, str(SRC))
    if str(ROOT) not in sys.path:
        sys.path.insert(1, str(ROOT))
    import pfguide
    if Path(pfguide.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported pfguide from {pfguide.__file__}")
    return pfguide


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str, seed: int) -> None:
    """Child process: time import, scenario build, synthesis and warm-up."""
    t0 = time.perf_counter()
    pf = load_program()
    from perfbench import measure, scenarios
    built, _ = scenarios.build_scenarios(
        pf, scenarios.WORKLOADS[workload], seed)
    measure.warm_up(pf, built[0])
    elapsed = time.perf_counter() - t0
    ref = statistics.mean(measure.reference_seconds() for _ in range(2))
    print(json.dumps({"setup_s": elapsed * measure.REF_NOMINAL_S / ref}))


def setup_seconds(workload: str, seed: int) -> float:
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
            check=True)
        values.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(values)


def untraced(pf, workload: str, seed: int, seconds: float):
    from perfbench import measure, scenarios
    setup_s = setup_seconds(workload, seed)
    built, starts = scenarios.build_scenarios(
        pf, scenarios.WORKLOADS[workload], seed)
    measure.warm_up(pf, built[0])
    state = measure.timed_rounds(pf, built, seconds)
    metrics, info = measure.end_to_end(state, built)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    info["starts"] = starts
    return metrics, info, state.attempted, state.failed, state.breaches


def traced(pf, workload: str, seed: int, seconds: float):
    from perfbench import measure, scenarios
    from perfbench.tracer import Tracer
    law = scenarios.WORKLOADS[workload]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        built, starts = scenarios.build_scenarios(pf, law, seed)
        tracer.recording = False
    finally:
        tracer.uninstall()
    measure.warm_up(pf, built[0])
    subset = built[::TRACE_STRIDE]
    clock = measure.HostClock()
    plain = measure.RunState([measure.ScenarioRecord() for _ in subset])
    spans = measure.RunState([measure.ScenarioRecord() for _ in subset])
    raw = []
    passes = 0
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, sc in enumerate(subset):
            measure.serve_checked(pf, plain, i, sc, clock)
        tracer.install()
        try:
            tracer.recording = True
            for i, sc in enumerate(subset):
                tracer.scenario = i * TRACE_STRIDE
                trace, wall = measure.serve_checked(pf, spans, i, sc, clock)
                if trace is not None:
                    raw.append(wall)
            tracer.recording = False
        finally:
            tracer.uninstall()
        passes += 1
        now = time.perf_counter()
        if (now - start) + (now - t_pass) > seconds:
            break

    breaches = plain.breaches + spans.breaches
    for i, (a, b) in enumerate(zip(plain.records, spans.records)):
        if a.columns is not None and b.columns is not None \
                and not measure.same_columns(a.columns, b.columns):
            breaches.append(f"scenario {i * TRACE_STRIDE}: traced run differs "
                            "from untraced run")
    nominal = sum(w for r in spans.records for w in r.walls)
    metrics = tracer.layer_metrics(nominal / sum(raw), passes)
    metrics["trace.overhead"] = nominal / sum(
        w for r in plain.records for w in r.walls)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.npz")
    info = {"starts": starts, "passes": passes,
            "traced_scenarios": list(range(0, len(built), TRACE_STRIDE)),
            "peak_rss_mb": peak_rss_mb()}
    return (metrics, info, plain.attempted + spans.attempted,
            plain.failed + spans.failed, breaches)


def main(argv=None) -> int:
    from_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in from_file["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads + ["all"],
                        help="'all' runs every workload in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=from_file["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        for workload in workloads:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, check=True)
        return 0

    pf = load_program()
    if args.trace:
        declared = from_file["per_layer"]
        result = traced(pf, args.workload, args.seed, args.seconds)
    else:
        declared = from_file["end_to_end"]
        result = untraced(pf, args.workload, args.seed, args.seconds)
    metrics, info, attempted, failed, breaches = result
    metrics["src_lines"] = info["src_lines"] = src_lines()

    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    for breach in breaches:
        print(f"correctness breach: {breach}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    print(json.dumps({
        "correct": not breaches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
