"""Multirate closed-loop simulation, actuator emulation, metrics.

The plant advances at T_p: the commanded surge and heading pass through
the low-level filter (when enabled), the pose integrates the planar
kinematics x' = u cos(psi) - v sin(psi), y' = u sin(psi) + v cos(psi),
and the virtual target advances along the path with omega' = u_tar / F.
The guidance law runs every T_m = m * T_p, measuring the PF errors from
the true pose and the sway at its own instant, and holding its command
until the next guidance instant.

Each plant instant evaluates the path and the sway once.  The filter
updates on plain floats, so its last bits no longer depend on the BLAS
kernel a numpy matrix-vector product uses.  Rows fill one float buffer;
the CSV is written CSV_CHUNK rows at a time.

Runs are fully deterministic; the only wall-clock quantity is the solver
timing column, and the clock itself is injectable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .angles import unwrap_near, wrap_angle
from .errdyn import GuidanceState, InputCmd
from .exceptions import ConfigError, EmptyTrace, PFGuideError
from .los import InputConstraints, SGLOSParams, clamp_inputs, require_in_box, sglos
from .nmpc import NMPCConfig, NMPCSolver, make_config, synthesize_terminal_weight
from .paths import PathDef, path_frame, sample_path, z_of_omega
from .pnmpc import LINEARIZATIONS, PNMPCSolver

LAWS = ("nmpc", "pnmpc", "sglos")

# Low-level loop emulation: critically damped double pole plus input delay.
FILTER_POLE = 7.6923  # 1/s
FILTER_DELAY = 0.13   # s


@dataclass(frozen=True)
class DisturbanceSpec:
    """Sway profile: none, fixed-period sinusoid, or mirrored chirp."""

    kind: str = "none"
    amplitude: float = 0.0  # m/s
    period: float = 0.0     # s (sinusoid)
    phase: float = 0.0      # rad (sinusoid)
    f0: float = 0.0         # Hz (chirp start)
    f1: float = 0.0         # Hz (chirp at the switch)
    switch_time: float = 0.0  # s (chirp mirror point)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.period,
                                       self.phase, self.f0, self.f1,
                                       self.switch_time))):
            raise ConfigError(f"disturbance numbers must be finite: {self!r}")
        if self.kind == "none":
            return
        if self.amplitude < 0.0:
            raise ConfigError("disturbance amplitude must be >= 0")
        if self.kind == "sinusoid":
            if self.period <= 0.0:
                raise ConfigError("sinusoid period must be positive")
        elif self.kind == "chirp_mirror":
            if self.f0 <= 0.0 or self.f1 <= 0.0 or self.switch_time <= 0.0:
                raise ConfigError("chirp needs positive f0, f1 and switch time")
        else:
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")


def disturbance_sample(spec: DisturbanceSpec, t: float) -> float:
    """Sway velocity at time t; |v| never exceeds the amplitude."""
    if t < 0.0:
        raise ConfigError(f"disturbance time must be >= 0, got {t}")
    if spec.kind == "none":
        return 0.0
    if spec.kind == "sinusoid":
        return spec.amplitude * math.sin(2.0 * math.pi * t / spec.period
                                         + spec.phase)
    # Mirrored chirp: frequency sweeps f0 -> f1 up to the switch time, then
    # the signal plays back time-reversed.
    ts = spec.switch_time
    tt = t if t <= ts else max(0.0, 2.0 * ts - t)
    phase = 2.0 * math.pi * (spec.f0 * tt
                             + (spec.f1 - spec.f0) * tt * tt / (2.0 * ts))
    return spec.amplitude * math.sin(phase)


class LowLevelFilter:
    """Unit-DC-gain double-pole filter with a fractional input delay.

    The continuous part is discretized exactly for piecewise-constant
    input over one plant step; the delay is realized on the stored input
    history with linear interpolation between plant-grid samples, which
    preserves the stated delay rather than rounding it to the grid.
    """

    def __init__(self, T_p: float, initial: float = 0.0):
        if T_p <= 0.0:
            raise ConfigError(f"plant step must be positive, got {T_p}")
        a = FILTER_POLE
        T = float(T_p)
        self.T_p = T
        E = math.exp(-a * T)
        c1 = (1.0 - E) / a
        c2 = (1.0 - E * (1.0 + a * T)) / (a * a)
        # Row-major entries of exp(AT) = exp(-aT) (I + NT), with the
        # nilpotent N = A + aI, then the input column of the exact
        # zero-order-hold discretization.
        self._coef = (E * (1.0 + a * T), E * T, -E * a * a * T,
                      E * (1.0 - a * T), c2 * a * a, c1 * a * a - c2 * a * a * a)
        k = FILTER_DELAY / T
        self._lag = int(math.floor(k))
        self._frac = k - self._lag
        self._hist: List[float] = [float(initial)] * (self._lag + 2)
        self.output = float(initial)
        self._rate = 0.0

    def step(self, command: float) -> float:
        """Advance one plant step driven by the delayed command history."""
        self._hist.append(float(command))
        del self._hist[0]
        u_d = ((1.0 - self._frac) * self._hist[-1 - self._lag]
               + self._frac * self._hist[-2 - self._lag])
        a00, a01, a10, a11, b0, b1 = self._coef
        x0, x1 = self.output, self._rate
        self.output = a00 * x0 + a01 * x1 + b0 * u_d
        self._rate = a10 * x0 + a11 * x1 + b1 * u_d
        return self.output


@dataclass(frozen=True)
class Scenario:
    """Complete closed-loop experiment description (no hidden randomness)."""

    path: PathDef
    x0: float
    y0: float
    omega0: float
    psi0: Optional[float] = None       # None: aligned with the path tangent
    u_r: float = 0.15
    T_m: float = 1.0
    T_p: float = 1.0
    duration: float = 400.0
    law: str = "nmpc"
    sglos: SGLOSParams = field(default_factory=SGLOSParams)
    constraints: InputConstraints = field(default_factory=InputConstraints)
    nmpc: Optional[NMPCConfig] = None  # None: default tuning, synthesized P
    linearization: str = "exact"       # pnmpc forced-response operator
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    filter_enabled: bool = False
    converge_band: float = 0.1         # m
    initial_input: Optional[InputCmd] = None

    def __post_init__(self):
        bad = [name for name in ("x0", "y0", "omega0", "psi0", "u_r", "T_m",
                                 "T_p", "duration", "converge_band")
               if getattr(self, name) is not None
               and not math.isfinite(getattr(self, name))]
        if bad:
            raise ConfigError(f"scenario numbers must be finite: {bad}")
        if self.duration <= 0.0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if self.T_p <= 0.0 or self.T_m <= 0.0:
            raise ConfigError("T_m and T_p must be positive")
        m = self.T_m / self.T_p
        if abs(m - round(m)) > 1e-9 or round(m) < 1:
            raise ConfigError(
                f"T_m={self.T_m} must be an integer multiple of T_p={self.T_p}")
        if self.law not in LAWS:
            raise ConfigError(f"law must be one of {LAWS}, got {self.law!r}")
        if self.linearization not in LINEARIZATIONS:
            raise ConfigError(f"linearization must be one of "
                              f"{LINEARIZATIONS}, got {self.linearization!r}")
        cfg = self.nmpc
        if cfg is not None:
            # The solver reads these from the config; the plant loop, the
            # violation count and the SGLOS law read them from the scenario.
            # The config holds u_r as its reference input u_ref.
            differ = [name for name, ours, theirs in (
                ("T_m", self.T_m, cfg.T_m),
                ("u_ref", InputCmd(self.u_r, 0.0, self.u_r), cfg.u_ref),
                ("constraints", self.constraints, cfg.constraints),
                ("terminal_law", self.sglos, cfg.terminal_law))
                if ours != theirs]
            if differ:
                raise ConfigError(
                    f"the nmpc config disagrees with the scenario on {differ}")

    def guidance_config(self) -> NMPCConfig:
        """The predictive laws' config, with P synthesized when unset."""
        cfg = self.nmpc
        if cfg is None:
            return make_config(self.path, u_r=self.u_r, terminal_law=self.sglos,
                               constraints=self.constraints, T_m=self.T_m)
        if cfg.P is None:
            cfg = replace(cfg, P=synthesize_terminal_weight(self.path, cfg))
        return cfg


TRACE_COLUMNS = ("t", "x", "y", "psi_cmd", "psi_act", "u_cmd", "u_act",
                 "u_tar", "v", "omega", "z", "x_e", "y_e", "J_opt",
                 "kkt_residual", "iterations", "solve_time_s")

CSV_CHUNK = 256  # trace rows formatted per write


@dataclass
class Trace:
    """Per-plant-step records plus the metadata metrics need."""

    columns: dict
    meta: dict

    def __len__(self) -> int:
        return len(self.columns["t"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self, fileobj) -> None:
        """Header plus one row per record, each value as f"{v:.9g}" (one
        "%.9g" format per chunk of CSV_CHUNK rows gives the same text)."""
        fileobj.write(",".join(TRACE_COLUMNS) + "\n")
        cols = [self.columns[c] for c in TRACE_COLUMNS]
        row = ",".join(["%.9g"] * len(cols)) + "\n"
        for i in range(0, len(self), CSV_CHUNK):
            block = np.column_stack([col[i:i + CSV_CHUNK] for col in cols])
            fileobj.write(row * len(block) % tuple(block.ravel().tolist()))

    def write_csv(self, filename) -> None:
        with open(filename, "w") as fh:
            self.to_csv(fh)


def run_scenario(sc: Scenario, timer=time.perf_counter) -> Trace:
    """Simulate the closed loop and return the full trace.

    Solver and path errors abort the run and carry the failing step index.
    Non-finite PF errors raise ValueError.
    """
    path = sc.path
    T_p = sc.T_p
    steps = int(round(sc.duration / T_p))
    if abs(steps * T_p - sc.duration) > 1e-6 * max(1.0, sc.duration):
        raise ConfigError("duration must be a whole number of plant steps")
    m = int(round(sc.T_m / T_p))

    pt0 = sample_path(path, sc.omega0)
    psi0 = pt0.phi_p if sc.psi0 is None else wrap_angle(sc.psi0)
    # The previous input against which the first rate increment counts.
    u_initial = sc.initial_input if sc.initial_input is not None else \
        InputCmd(0.0, pt0.phi_p, sc.constraints.eps)
    require_in_box(u_initial, sc.constraints)
    cmd = u_initial

    solver = None
    if sc.law != "sglos":
        cfg = sc.guidance_config()
        solver = (NMPCSolver(cfg, path) if sc.law == "nmpc"
                  else PNMPCSolver(cfg, path, sc.linearization))

    filtered = sc.filter_enabled
    surge_f = LowLevelFilter(T_p, initial=0.0) if filtered else None
    head_f = LowLevelFilter(T_p, initial=psi0) if filtered else None

    x, y, omega = float(sc.x0), float(sc.y0), float(sc.omega0)
    psi_cmd_cont = psi0 if sc.initial_input is None else \
        unwrap_near(cmd.psi, psi0)  # continuous branch fed to the filter
    u_act, psi_act = 0.0, psi0  # filter outputs; unfiltered, step 0 sets them
    warm = None
    diag = (math.nan, math.nan, 0.0, math.nan)  # J_opt, kkt, iterations, time

    rows = np.empty((steps + 1, len(TRACE_COLUMNS)))
    for i in range(steps + 1):
        t_now = i * T_p
        # One measurement per instant: the errors, the guidance state and
        # the row read it, and F advances the target in the next plant step.
        try:
            z = z_of_omega(omega)
            x_p, y_p = path.eval(omega)
            phi_p, F = path_frame(path, omega)[:2]
        except PFGuideError as exc:
            raise type(exc)(f"plant step {i} failed: {exc}") from exc
        dx, dy = x - x_p, y - y_p
        c, s = math.cos(phi_p), math.sin(phi_p)
        x_e, y_e = c * dx + s * dy, -s * dx + c * dy
        if not (math.isfinite(x_e) and math.isfinite(y_e)):
            raise ValueError(f"non-finite PF errors ({x_e!r}, {y_e!r})")
        v = disturbance_sample(sc.disturbance, t_now)

        if i % m == 0 and i < steps:
            state = GuidanceState(x_e, y_e, z)
            try:
                if solver is not None:
                    warm = solver.solve(state, v, cmd, warm, timer=timer)
                    cmd = warm.u_seq[0]
                    diag = (warm.J_opt, warm.kkt_residual,
                            float(warm.iterations), warm.solve_time)
                else:
                    t0 = timer()
                    cmd = clamp_inputs(sglos(state, path, sc.sglos), cmd,
                                       sc.constraints)
                    diag = (math.nan, math.nan, 0.0, timer() - t0)
            except PFGuideError as exc:
                raise type(exc)(
                    f"guidance step failed at t={t_now:g} (plant step "
                    f"{i}): {exc}") from exc
            psi_cmd_cont = unwrap_near(cmd.psi, psi_cmd_cont)
            if not filtered:
                u_act, psi_act = cmd.u, psi_cmd_cont

        rows[i] = (t_now, x, y, wrap_angle(cmd.psi), wrap_angle(psi_act),
                   cmd.u, u_act, cmd.u_tar, v, omega, z, x_e, y_e) + diag
        if i == steps:
            break
        cp, sp = math.cos(psi_act), math.sin(psi_act)
        x += T_p * (u_act * cp - v * sp)
        y += T_p * (u_act * sp + v * cp)
        omega += T_p * cmd.u_tar / F
        if filtered:
            u_act = surge_f.step(cmd.u)
            psi_act = head_f.step(psi_cmd_cont)

    meta = dict(law=sc.law, T_m=sc.T_m, T_p=T_p, duration=sc.duration,
                guidance_stride=m, constraints=sc.constraints,
                initial_input=u_initial, converge_band=sc.converge_band,
                disturbance=sc.disturbance, filter_enabled=filtered)
    return Trace(dict(zip(TRACE_COLUMNS, rows.T)), meta)


@dataclass
class Report:
    """Aggregate performance metrics of one trace."""

    law: str
    iae_x_e: float          # m*s
    iae_y_e: float          # m*s
    rms_x_e: float          # m
    rms_y_e: float          # m
    time_to_converge: Optional[float]  # s, None if never inside the band
    converge_band: float    # m
    violations: int
    solve_time_min: float
    solve_time_median: float
    solve_time_mean: float
    solve_time_max: float
    guidance_steps: int
    duration: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def compute_metrics(trace: Trace) -> Report:
    """IAE/RMS errors, convergence time (band from the trace's meta),
    violation count, timing stats."""
    if len(trace) == 0:
        raise EmptyTrace("cannot compute metrics of an empty trace")
    T_p = trace.meta["T_p"]
    band = trace.meta["converge_band"]
    t = trace["t"]
    x_e = trace["x_e"]
    y_e = trace["y_e"]
    iae_x = float(np.sum(np.abs(x_e[:-1])) * T_p) if len(trace) > 1 else 0.0
    iae_y = float(np.sum(np.abs(y_e[:-1])) * T_p) if len(trace) > 1 else 0.0
    rms_x = float(np.sqrt(np.mean(x_e ** 2)))
    rms_y = float(np.sqrt(np.mean(y_e ** 2)))

    outside = np.flatnonzero(np.abs(y_e) >= band)
    if outside.size == 0:
        t_conv: Optional[float] = 0.0
    elif outside[-1] == len(trace) - 1:
        t_conv = None
    else:
        t_conv = float(t[outside[-1] + 1])

    stride = trace.meta["guidance_stride"]
    c = trace.meta["constraints"]
    prev = trace.meta["initial_input"]
    violations = 0
    solve_times = []
    last = len(trace) - 1
    for i in range(0, last, stride):
        cmd = InputCmd(float(trace["u_cmd"][i]), float(trace["psi_cmd"][i]),
                       float(trace["u_tar"][i]))
        if clamp_inputs(cmd, prev, c) != cmd:
            violations += 1
        prev = cmd
        solve_times.append(float(trace["solve_time_s"][i]))
    st = np.asarray(solve_times) if solve_times else np.array([math.nan])
    return Report(
        law=trace.meta["law"],
        iae_x_e=iae_x, iae_y_e=iae_y, rms_x_e=rms_x, rms_y_e=rms_y,
        time_to_converge=t_conv, converge_band=band,
        violations=violations,
        solve_time_min=float(np.min(st)),
        solve_time_median=float(np.median(st)),
        solve_time_mean=float(np.mean(st)),
        solve_time_max=float(np.max(st)),
        guidance_steps=len(solve_times),
        duration=trace.meta["duration"],
    )
