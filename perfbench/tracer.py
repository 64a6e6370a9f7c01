"""Outside-in tracer for pfguide's layers.

The tracer wraps public functions of the ``pfguide`` submodules from
outside, without touching the package's source.  ``nmpc``, ``pnmpc``,
``sim`` and ``los`` import functions by name, so a wrapper is installed
at every binding site: each attribute of each loaded ``pfguide`` module
that *is* the original function.  Methods are patched on their class.
``uninstall`` puts every original back.

Each call records a span (layer, start, end, parent span) with a request
id of (scenario, guidance step); spans stay in memory in flat arrays and
are written out once, when the run ends.  Step -1 marks spans that belong
to the scenario as a whole (the run set-up, CSV output and metrics).
Return values are inspected at the same boundaries for the counts that
calls and times do not show: QP iterations and failures, SQP iterations
and iteration-cap exits.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (submodule, qualified name) of every wrapped layer boundary.
LAYERS = (
    ("paths", "sample_path"),
    ("errdyn", "dynamics"),
    ("errdyn", "rollout"),
    ("pnmpc", "state_jacobian"),
    ("pnmpc", "jacobian_block"),
    ("pnmpc", "sensitivity_along"),
    ("pnmpc", "horizon_cost"),
    ("pnmpc", "PNMPCSolver.solve"),
    ("qp", "solve_qp"),
    ("nmpc", "NMPCSolver.solve"),
    ("nmpc", "synthesize_terminal_weight"),
    ("los", "sglos"),
    ("los", "clamp_inputs"),
    ("sim", "run_scenario"),
    ("sim", "LowLevelFilter.step"),
    ("sim", "Trace.to_csv"),
    ("sim", "compute_metrics"),
    ("sim", "disturbance_sample"),
    ("config", "load_scenario"),
)
NAMES = tuple(f"{m}.{q}" for m, q in LAYERS)
_ID = {name: i for i, name in enumerate(NAMES)}

# A law call directly under run_scenario starts a new guidance step.
LAW_CALLS = frozenset(_ID[n] for n in ("nmpc.NMPCSolver.solve",
                                       "pnmpc.PNMPCSolver.solve",
                                       "los.sglos"))

COUNTERS = ("qp.iterations", "qp.unconverged", "nmpc.sqp_iterations",
            "nmpc.cap_exits")


class Tracer:
    """Span recorder; wrappers call straight through while not recording."""

    def __init__(self):
        self.recording = False
        self.scenario = -1
        self.step = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.request_scenario = array("h")
        self.request_step = array("q")
        self._stack = []
        self._patches = []
        self._hooks = {_ID["qp.solve_qp"]: self._qp_done,
                       _ID["nmpc.NMPCSolver.solve"]: self._nmpc_done}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "pfguide"
                                           or name.startswith("pfguide."))]
        for name_id, (modname, qual) in enumerate(LAYERS):
            module = importlib.import_module(f"pfguide.{modname}")
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name_id, original))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name_id: int, fn):
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        req_scenario, req_step = self.request_scenario, self.request_step
        stack = self._stack
        perf = time.perf_counter
        hook = self._hooks.get(name_id)
        is_law = name_id in LAW_CALLS
        is_run = name_id == _ID["sim.run_scenario"]
        run_id = _ID["sim.run_scenario"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if is_law and parent >= 0 and names[parent] == run_id:
                self.step += 1
            idx = len(names)
            names.append(name_id)
            parents.append(parent)
            req_scenario.append(self.scenario)
            req_step.append(self.step)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
                if is_run:
                    self.step = -1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__perfbench_layer__ = NAMES[name_id]
        return wrapper

    # -- return-value counts ------------------------------------------

    def _qp_done(self, args, sol) -> None:
        self.counters["qp.iterations"] += sol.iterations
        if not sol.converged:
            self.counters["qp.unconverged"] += 1

    def _nmpc_done(self, args, res) -> None:
        solver = args[0]
        self.counters["nmpc.sqp_iterations"] += res.iterations
        if (res.iterations >= solver.max_iterations
                and res.kkt_residual > solver.kkt_tol):
            self.counters["nmpc.cap_exits"] += 1

    # -- analysis -----------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "scenario": np.frombuffer(self.request_scenario, dtype=np.int16),
            "step": np.frombuffer(self.request_step, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span, with the layer names, as one .npz file."""
        np.savez(path, layers=np.array(NAMES), **self.arrays())

    def layer_metrics(self, time_scale: float = 1.0, passes: int = 1) -> dict:
        """Calls and self time per layer, the counters and derived ratios.

        Self time is a span's duration minus the time its direct child
        spans cover; times are multiplied by ``time_scale``.  Spans of
        scenarios (id >= 0) and the counters are averaged over ``passes``
        identical passes; set-up spans (id -1) count once.
        """
        a = self.arrays()
        names, parents = a["name"], a["parent"]
        n = names.size
        dur = a["end"] - a["start"]
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        weight = np.where(a["scenario"] >= 0, 1.0 / passes, 1.0)
        calls = np.bincount(names, weights=weight, minlength=len(NAMES))
        self_total = np.bincount(names, weights=(dur - covered) * weight,
                                 minlength=len(NAMES)) * time_scale
        out = {}
        for i, layer in enumerate(NAMES):
            out[f"{layer}.calls"] = int(round(calls[i]))
            out[f"{layer}.self_s"] = float(self_total[i])
        out.update({k: int(round(v / passes))
                    for k, v in self.counters.items()})

        def ratio(num, den):
            return num / den if den else 0.0

        out["qp.iterations_per_call"] = ratio(
            self.counters["qp.iterations"],
            np.count_nonzero(names == _ID["qp.solve_qp"]))
        solves, qps, trials = self._nmpc_steps(names, parents)
        out["nmpc.qp_per_solve"] = ratio(qps, solves)
        out["nmpc.rollouts_per_qp"] = ratio(trials, qps)
        return out

    @staticmethod
    def _nmpc_steps(names, parents) -> tuple:
        """NMPC solves, their QP steps and the line-search rollouts those cost.

        A rollout that a solve makes after its first QP is a line-search
        trial, except the one final rollout of the returned sequence.
        """
        n = names.size
        idx = np.arange(n)
        solve = names == _ID["nmpc.NMPCSolver.solve"]
        in_solve = np.zeros(n, dtype=bool)
        has_parent = parents >= 0
        in_solve[has_parent] = solve[parents[has_parent]]
        qp = in_solve & (names == _ID["qp.solve_qp"])
        first_qp = np.full(n, n)
        np.minimum.at(first_qp, parents[qp], idx[qp])
        after = in_solve & (names == _ID["errdyn.rollout"])
        after[after] = idx[after] > first_qp[parents[after]]
        solves_with_qp = int(np.count_nonzero(first_qp[solve] < n))
        return (int(solve.sum()), int(qp.sum()),
                int(after.sum()) - solves_with_qp)
