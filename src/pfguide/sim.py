"""Multirate closed-loop simulation, actuator emulation, metrics.

The plant advances at T_p: the commanded surge and heading pass through
the low-level filter (when enabled), the pose integrates the planar
kinematics x' = u cos(psi) - v sin(psi), y' = u sin(psi) + v cos(psi),
and the virtual target advances along the path with omega' = u_tar / F.
The guidance law runs every T_m = m * T_p, measuring the PF errors from
the true pose and the sway at its own instant, and holding its command
until the next guidance instant.

Runs are fully deterministic; the only wall-clock quantity is the solver
timing column, and the clock itself is injectable.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .angles import unwrap_near, wrap_angle
from .errdyn import InputCmd, VesselPose, pose_errors_state
from .exceptions import ConfigError, EmptyTrace, PFGuideError
from .los import InputConstraints, SGLOSParams, clamp_inputs, require_in_box, sglos
from .nmpc import NMPCConfig, NMPCSolver, make_config, synthesize_terminal_weight
from .paths import PathDef, sample_path, z_of_omega
from .pnmpc import PNMPCSolver

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

    def __init__(self, T_p: float, pole: float = FILTER_POLE,
                 delay: float = FILTER_DELAY, initial: float = 0.0):
        if T_p <= 0.0:
            raise ConfigError(f"plant step must be positive, got {T_p}")
        a = float(pole)
        T = float(T_p)
        self.T_p = T
        E = math.exp(-a * T)
        # exp(At) = exp(-a t) (I + N t) with the nilpotent N = A + a I.
        self._Ad = np.array([[E * (1.0 + a * T), E * T],
                             [-E * a * a * T, E * (1.0 - a * T)]])
        c1 = (1.0 - E) / a
        c2 = (1.0 - E * (1.0 + a * T)) / (a * a)
        self._Bd = np.array([c2 * a * a, c1 * a * a - c2 * a * a * a])
        k = delay / T
        self._lag = int(math.floor(k))
        self._frac = k - self._lag
        self._hist: List[float] = [float(initial)] * (self._lag + 2)
        self._x = np.array([float(initial), 0.0])

    @property
    def output(self) -> float:
        return float(self._x[0])

    def step(self, command: float) -> float:
        """Advance one plant step driven by the delayed command history."""
        self._hist.append(float(command))
        del self._hist[0]
        u_d = ((1.0 - self._frac) * self._hist[-1 - self._lag]
               + self._frac * self._hist[-2 - self._lag])
        self._x = self._Ad @ self._x + self._Bd * u_d
        return float(self._x[0])


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

    def guidance_config(self) -> NMPCConfig:
        cfg = self.nmpc
        if cfg is None:
            cfg = make_config(self.path, u_r=self.u_r,
                              sglos_params=self.sglos,
                              constraints=self.constraints, T_m=self.T_m)
        if cfg.P is None:
            cfg = cfg.with_terminal(
                synthesize_terminal_weight(self.path, cfg, self.sglos))
        return cfg


TRACE_COLUMNS = ("t", "x", "y", "psi_cmd", "psi_act", "u_cmd", "u_act",
                 "u_tar", "v", "omega", "z", "x_e", "y_e", "J_opt",
                 "kkt_residual", "iterations", "solve_time_s")


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
        fileobj.write(",".join(TRACE_COLUMNS) + "\n")
        cols = [self.columns[c] for c in TRACE_COLUMNS]
        for i in range(len(self)):
            fileobj.write(",".join(f"{col[i]:.9g}" for col in cols) + "\n")

    def write_csv(self, filename) -> None:
        with open(filename, "w") as fh:
            self.to_csv(fh)


def run_scenario(sc: Scenario, timer=time.perf_counter) -> Trace:
    """Simulate the closed loop and return the full trace.

    Solver and path errors abort the run and carry the failing step index.
    """
    path = sc.path
    steps = int(round(sc.duration / sc.T_p))
    if abs(steps * sc.T_p - sc.duration) > 1e-6 * max(1.0, sc.duration):
        raise ConfigError("duration must be a whole number of plant steps")
    m = int(round(sc.T_m / sc.T_p))

    pt0 = sample_path(path, sc.omega0)
    psi0 = pt0.phi_p if sc.psi0 is None else wrap_angle(sc.psi0)
    # The previous input against which the first rate increment counts.
    u_initial = sc.initial_input if sc.initial_input is not None else \
        InputCmd(0.0, pt0.phi_p, sc.constraints.eps)
    require_in_box(u_initial, sc.constraints)
    u_prev = u_initial

    solver = None
    if sc.law != "sglos":
        cfg = sc.guidance_config()
        solver = (NMPCSolver(cfg, path) if sc.law == "nmpc"
                  else PNMPCSolver(cfg, path, sc.linearization))

    surge_f = LowLevelFilter(sc.T_p, initial=0.0) if sc.filter_enabled else None
    head_f = LowLevelFilter(sc.T_p, initial=psi0) if sc.filter_enabled else None

    x, y = float(sc.x0), float(sc.y0)
    omega = float(sc.omega0)
    psi_cmd_cont = psi0 if sc.initial_input is None else \
        unwrap_near(u_prev.psi, psi0)  # continuous branch fed to the filter
    warm = None
    diag = (math.nan, math.nan, 0, math.nan)  # J_opt, kkt, iterations, time

    cols = {name: np.empty(steps + 1) for name in TRACE_COLUMNS}

    def guidance(t_now: float, step_idx: int):
        nonlocal u_prev, warm, diag, psi_cmd_cont
        state = pose_errors_state(VesselPose(x, y, psi0), omega, path)
        v_k = disturbance_sample(sc.disturbance, t_now)
        try:
            if solver is not None:
                res = solver.solve(state, v_k, u_prev, warm, timer=timer)
                cmd = res.u_seq[0]
                warm = res
                diag = (res.J_opt, res.kkt_residual, res.iterations,
                        res.solve_time)
            else:
                t0 = timer()
                raw = sglos(state, path, sc.sglos)
                cmd = clamp_inputs(raw, u_prev, sc.constraints)
                diag = (math.nan, math.nan, 0, timer() - t0)
        except PFGuideError as exc:
            raise type(exc)(
                f"guidance step failed at t={t_now:g} (plant step "
                f"{step_idx}): {exc}") from exc
        psi_cmd_cont = unwrap_near(cmd.psi, psi_cmd_cont)
        u_prev = cmd

    def record(i: int, t_now: float):
        u_act = surge_f.output if surge_f is not None else u_prev.u
        psi_act = head_f.output if head_f is not None else psi_cmd_cont
        state = pose_errors_state(VesselPose(x, y, wrap_angle(psi_act)),
                                  omega, path)
        row = (t_now, x, y, wrap_angle(u_prev.psi), wrap_angle(psi_act),
               u_prev.u, u_act, u_prev.u_tar,
               disturbance_sample(sc.disturbance, t_now), omega,
               z_of_omega(omega), state.x_e, state.y_e,
               diag[0], diag[1], float(diag[2]), diag[3])
        for name, value in zip(TRACE_COLUMNS, row):
            cols[name][i] = value

    guidance(0.0, 0)
    record(0, 0.0)
    for i in range(1, steps + 1):
        t_prev = (i - 1) * sc.T_p
        u_act = surge_f.output if surge_f is not None else u_prev.u
        psi_act = head_f.output if head_f is not None else psi_cmd_cont
        v_now = disturbance_sample(sc.disturbance, t_prev)
        x += sc.T_p * (u_act * math.cos(psi_act) - v_now * math.sin(psi_act))
        y += sc.T_p * (u_act * math.sin(psi_act) + v_now * math.cos(psi_act))
        try:
            omega += sc.T_p * u_prev.u_tar / sample_path(path, omega).F
        except PFGuideError as exc:
            raise type(exc)(f"plant step {i} failed: {exc}") from exc
        if surge_f is not None:
            surge_f.step(u_prev.u)
            head_f.step(psi_cmd_cont)
        t_now = i * sc.T_p
        if i % m == 0 and i < steps:
            guidance(t_now, i)
        record(i, t_now)

    meta = {
        "law": sc.law,
        "T_m": sc.T_m,
        "T_p": sc.T_p,
        "duration": sc.duration,
        "guidance_stride": m,
        "constraints": sc.constraints,
        "initial_input": u_initial,
        "converge_band": sc.converge_band,
        "disturbance": sc.disturbance,
        "filter_enabled": sc.filter_enabled,
    }
    return Trace(cols, meta)


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

    def to_json(self, fileobj) -> None:
        json.dump(self.to_dict(), fileobj, indent=2)
        fileobj.write("\n")


def compute_metrics(trace: Trace, converge_band: Optional[float] = None) -> Report:
    """IAE/RMS errors, convergence time, violation count, timing stats."""
    if len(trace) == 0:
        raise EmptyTrace("cannot compute metrics of an empty trace")
    T_p = trace.meta["T_p"]
    band = trace.meta["converge_band"] if converge_band is None else converge_band
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
