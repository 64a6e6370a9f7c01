"""Multirate closed-loop simulation, actuator emulation, metrics.

The plant advances at T_p: the commanded surge and heading pass through
the low-level filter (when enabled), the pose integrates the planar
kinematics x' = u cos(psi) - v sin(psi), y' = u sin(psi) + v cos(psi),
and the virtual target advances along the path with omega' = u_tar / F.
The guidance law runs every T_m = m * T_p, measuring the PF errors from
the true pose and the sway at its own instant, and holding its command
until the next guidance instant.

The loop works a guidance period at a time.  At each guidance instant
one LowLevelFilter.hold call advances the filter over the whole period
under the held command, and each plant instant of the period reads its
output from that list.  Each plant instant measures once: z, the path
position and the tangent (angle and speed factor, no second derivative)
are computed in place from path.eval and path.deriv, and z_of_omega and
path_tangent run only to raise their errors.  It samples the sway once.
The filter advances the surge and heading channels together, on plain
floats, so its last bits do not depend on the BLAS kernel a numpy
matrix-vector product uses.  Each value is recorded, formatted and
checked at the rate it changes.  The plant-rate columns are packed as
native doubles into one float buffer row per plant instant; the
guidance-rate columns get one record per guidance instant, repeated over
the rows that hold it when the run ends.  The CSV is written CSV_CHUNK
rows at a time with each run of repeated values formatted once, and the
metrics scan the guidance instants' commands on plain floats.

Runs are fully deterministic; the only wall-clock quantity is the solver
timing column, and the clock itself is injectable.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .angles import unwrap_near, wrap_angle
from .errdyn import GuidanceState, InputCmd
from .exceptions import ConfigError, EmptyTrace, PFGuideError, StateEscape
from .los import (InputConstraints, SGLOSParams, clamp_flat, require_in_box,
                  sglos)
from .nmpc import NMPCConfig, NMPCSolver, synthesize_terminal_weight
from .paths import F_MIN, PathDef, path_tangent, sample_path, z_of_omega
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
    """Unit-DC-gain double-pole filter with a fractional input delay, on
    the surge and heading channels at once.

    The continuous part is discretized exactly for piecewise-constant
    input over one plant step; the delay is realized on the stored input
    history with linear interpolation between plant-grid samples, which
    preserves the stated delay rather than rounding it to the grid.  Both
    channels share the plant step and so the coefficients: one step
    applies the same recursion to each channel's own history and state.
    """

    def __init__(self, T_p: float, initial: Tuple[float, float] = (0.0, 0.0)):
        if not (math.isfinite(T_p) and T_p > 0.0):
            raise ConfigError(f"plant step must be positive and finite, "
                              f"got {T_p}")
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
        u0, psi0 = float(initial[0]), float(initial[1])
        # (surge, heading) commands, oldest first.
        self._hist: List[Tuple[float, float]] = [(u0, psi0)] * (self._lag + 2)
        self.output = (u0, psi0)
        self._rate = (0.0, 0.0)

    def step(self, u: float, psi: float) -> Tuple[float, float]:
        """Advance both channels one plant step, each driven by its delayed
        command history; returns the new (surge, heading) outputs."""
        return self.hold(u, psi, 1)[0]

    def hold(self, u: float, psi: float, n: int) -> List[Tuple[float, float]]:
        """Hold the command (u, psi) for n plant steps; returns the n new
        (surge, heading) outputs, oldest first.  step is hold with n = 1,
        so n step calls give the same outputs and state, bit for bit."""
        hist, lag = self._hist, self._lag
        f = self._frac
        w = 1.0 - f
        a00, a01, a10, a11, b0, b1 = self._coef
        (xu, xp), (ru, rp) = self.output, self._rate
        outputs = []
        for _ in range(n):
            hist.append((u, psi))
            del hist[0]
            (u1, p1), (u2, p2) = hist[-1 - lag], hist[-2 - lag]
            ud, pd = w * u1 + f * u2, w * p1 + f * p2
            xu, xp, ru, rp = (a00 * xu + a01 * ru + b0 * ud,
                              a00 * xp + a01 * rp + b0 * pd,
                              a10 * xu + a11 * ru + b1 * ud,
                              a10 * xp + a11 * rp + b1 * pd)
            outputs.append((xu, xp))
        self.output, self._rate = (xu, xp), (ru, rp)
        return outputs


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
        if self.converge_band <= 0.0:
            raise ConfigError(
                f"converge_band must be positive, got {self.converge_band}")
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
        if self.nmpc is not None:
            differ = [name for name, ours in self._shared().items()
                      if getattr(self.nmpc, name) != ours]
            if differ:
                raise ConfigError(
                    f"the nmpc config disagrees with the scenario on {differ}")

    def _shared(self) -> dict:
        """The settings the nmpc config shares with the scenario, by config
        field name.  The solver reads them from the config; the plant loop,
        the violation count and the SGLOS law read them from the scenario."""
        return dict(T_m=self.T_m, u_r=self.u_r, constraints=self.constraints,
                    terminal_law=self.sglos)

    def guidance_config(self) -> NMPCConfig:
        """The predictive laws' config, with P synthesized when unset."""
        cfg = NMPCConfig(**self._shared()) if self.nmpc is None else self.nmpc
        if cfg.P is None:
            cfg = replace(cfg, P=synthesize_terminal_weight(self.path, cfg))
        return cfg


TRACE_COLUMNS = ("t", "x", "y", "psi_cmd", "psi_act", "u_cmd", "u_act",
                 "u_tar", "v", "omega", "z", "x_e", "y_e", "J_opt",
                 "kkt_residual", "iterations", "solve_time_s")

# Columns set once per guidance instant and held until the next one, and
# the columns every plant step sets.
_GUIDANCE_COLUMNS = ("psi_cmd", "u_cmd", "u_tar", "J_opt", "kkt_residual",
                     "iterations", "solve_time_s")
_PLANT_COLUMNS = tuple(c for c in TRACE_COLUMNS if c not in _GUIDANCE_COLUMNS)
# One plant-rate row as native doubles, packed straight into the buffer.
_ROW = struct.Struct(f"{len(_PLANT_COLUMNS)}d")

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
        """Header plus one row per record, each value as f"{v:.9g}".

        Rows are written CSV_CHUNK at a time; _write_rows formats a run of
        repeated values once, which gives the same text.
        """
        fileobj.write(",".join(TRACE_COLUMNS) + "\n")
        cols = [self.columns[c] for c in TRACE_COLUMNS]
        for i in range(0, len(self), CSV_CHUNK):
            _write_rows(fileobj.write, np.column_stack(
                [col[i:i + CSV_CHUNK] for col in cols]))

    def write_csv(self, filename) -> None:
        with open(filename, "w") as fh:
            self.to_csv(fh)


def _write_rows(write, block: np.ndarray) -> None:
    """Write the rows of a float64 block as CSV, each value as "%.9g".

    A column whose bits equal the previous row's on most rows is held:
    the rows split into runs over which every held column keeps its bits.
    Each run formats its held values once into a row template and its
    other values through one "%.9g" format of the template repeated.
    Equal bits give equal text (NaN, inf and the sign of zero included),
    so the text is that of formatting every value.
    """
    n = len(block)
    bits = block.view(np.uint64)
    changed = bits[1:] != bits[:-1]
    held = 2 * changed.sum(axis=0) < n - 1
    starts = [0] + (np.flatnonzero(changed[:, held].any(axis=1)) + 1).tolist()
    # Held fields format now; the escaped varying fields format per run.
    outer = ",".join(["%.9g" if h else "%%.9g" for h in held]) + "\n"
    heads = block[starts].compress(held, axis=1).tolist()
    varying = block.compress(~held, axis=1).ravel().tolist()
    k = len(varying) // n  # varying values per row
    for h, a, b in zip(heads, starts, starts[1:] + [n]):
        write((outer % tuple(h)) * (b - a) % tuple(varying[a * k:b * k]))


def _guidance_record(cmd: InputCmd, J_opt: float, kkt_residual: float,
                     iterations: float, solve_time_s: float) -> tuple:
    """One guidance instant's values in _GUIDANCE_COLUMNS order: the held
    command (psi_cmd wrapped, u_cmd, u_tar), then the step's diagnostics
    by their column names."""
    return (wrap_angle(cmd.psi), cmd.u, cmd.u_tar, J_opt, kkt_residual,
            iterations, solve_time_s)


def run_scenario(sc: Scenario, timer=time.perf_counter) -> Trace:
    """Simulate the closed loop and return the full trace.

    Solver and path errors abort the run and carry the failing step index.
    A diverged state raises StateEscape: non-finite PF errors, or a
    guidance step that meets a non-finite value (ValueError).  numpy's
    overflow warnings stay quiet, since an overflow yields the non-finite
    value that the run then reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _closed_loop(sc, timer)


def _closed_loop(sc: Scenario, timer) -> Trace:
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
    actuators = LowLevelFilter(T_p, initial=(0.0, psi0)) if filtered else None

    x, y, omega = float(sc.x0), float(sc.y0), float(sc.omega0)
    psi_cmd_cont = psi0 if sc.initial_input is None else \
        unwrap_near(cmd.psi, psi0)  # continuous branch fed to the filter
    u_act, psi_act = 0.0, psi0  # filter outputs; unfiltered, step 0 sets them
    held = None  # the filter's outputs over the current guidance period
    warm = None
    records = []  # the guidance-rate columns, one per guidance instant
    disturbance = sc.disturbance
    evaluate, deriv = path.eval, path.deriv

    rows = np.empty((steps + 1, len(_PLANT_COLUMNS)))
    pack_row, width = _ROW.pack_into, _ROW.size
    for i in range(steps + 1):
        t_now = i * T_p
        # One measurement per instant: the errors, the guidance state and
        # the row read it, and F advances the target in the next plant
        # step.  z, phi_p and F are z_of_omega's and path_tangent's, which
        # run only to raise their errors.
        try:
            if not 0.0 <= omega < math.inf:
                z_of_omega(omega)  # raises DomainError
            z = 1.0 / (omega + 1.0)
            x_p, y_p = evaluate(omega)
            tx, ty = deriv(omega)
            F = math.hypot(tx, ty)
            if F <= F_MIN:
                path_tangent(path, omega)  # raises NonRegularPath
        except PFGuideError as exc:
            raise type(exc)(f"plant step {i} failed: {exc}") from exc
        phi_p = wrap_angle(math.atan2(ty, tx))
        dx, dy = x - x_p, y - y_p
        c, s = math.cos(phi_p), math.sin(phi_p)
        x_e, y_e = c * dx + s * dy, -s * dx + c * dy
        if not (math.isfinite(x_e) and math.isfinite(y_e)):
            raise StateEscape(f"plant step {i} failed: non-finite PF errors "
                              f"({x_e!r}, {y_e!r})")
        v = disturbance_sample(disturbance, t_now)

        k = i % m  # plant steps since the last guidance instant
        if k == 0 and i < steps:
            state = GuidanceState(x_e, y_e, z)
            try:
                if solver is not None:
                    warm = solver.solve(state, v, cmd, warm, timer=timer)
                    cmd = warm.u_seq[0]
                    diag = (warm.J_opt, warm.kkt_residual,
                            float(warm.iterations), warm.solve_time)
                else:
                    t0 = timer()
                    raw = sglos(state, path, sc.sglos)
                    cmd = InputCmd(*clamp_flat(raw.u, raw.psi, raw.u_tar,
                                               cmd.u, cmd.psi, sc.constraints))
                    diag = (math.nan, math.nan, 0.0, timer() - t0)
            except (PFGuideError, ValueError) as exc:
                # A ValueError is a non-finite value met by the step.
                error = type(exc) if isinstance(exc, PFGuideError) \
                    else StateEscape
                raise error(f"guidance step failed at t={t_now:g} (plant "
                            f"step {i}): {exc}") from exc
            records.append(_guidance_record(cmd, *diag))
            psi_cmd_cont = unwrap_near(cmd.psi, psi_cmd_cont)
            if filtered:
                held = actuators.hold(cmd.u, psi_cmd_cont, min(m, steps - i))
            else:
                u_act, psi_act = cmd.u, psi_cmd_cont

        pack_row(rows, i * width, t_now, x, y, wrap_angle(psi_act), u_act, v,
                 omega, z, x_e, y_e)
        if i == steps:
            break
        cp, sp = math.cos(psi_act), math.sin(psi_act)
        x += T_p * (u_act * cp - v * sp)
        y += T_p * (u_act * sp + v * cp)
        omega += T_p * cmd.u_tar / F
        if filtered:
            u_act, psi_act = held[k]

    meta = dict(law=sc.law, T_m=sc.T_m, T_p=T_p, duration=sc.duration,
                guidance_stride=m, constraints=sc.constraints,
                initial_input=u_initial, converge_band=sc.converge_band,
                disturbance=sc.disturbance, filter_enabled=filtered)
    if not records:  # a zero-step run records the start's command
        records.append(_guidance_record(cmd, math.nan, math.nan, 0.0,
                                        math.nan))
    # Instant k's record covers rows k*m .. k*m + m - 1; the last also
    # covers the final row.
    counts = np.full(len(records), m)
    counts[-1] = steps + 1 - m * (len(records) - 1)
    columns = dict(zip(_PLANT_COLUMNS, rows.T))
    columns.update(zip(_GUIDANCE_COLUMNS,
                       np.repeat(np.array(records), counts, axis=0).T))
    return Trace({name: columns[name] for name in TRACE_COLUMNS}, meta)


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


def _median(values: list) -> float:
    """np.median's bits from one sort, without its numpy.ma import: NaN if
    a value is NaN, else the middle value or the mean of the middle two,
    plus the 0.0 that np.mean's sum starts from (-0.0 reads +0.0)."""
    if any(v != v for v in values):
        return math.nan
    s, h = sorted(values), len(values) // 2
    return s[h] + 0.0 if len(s) % 2 else (s[h - 1] + s[h] + 0.0) / 2


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
    instants = slice(0, len(trace) - 1, stride)
    cmd_cols = [trace[name][instants] for name in ("u_cmd", "psi_cmd", "u_tar")]
    finite = np.isfinite(cmd_cols).all(axis=0)
    if not finite.all():  # InputCmd rejects the first non-finite command
        InputCmd(*(float(col[np.argmin(finite)]) for col in cmd_cols))
    violations = 0
    prev_u, prev_psi = prev.u, prev.psi
    for cmd in zip(*(col.tolist() for col in cmd_cols)):
        if clamp_flat(*cmd, prev_u, prev_psi, c) != cmd:
            violations += 1
        prev_u, prev_psi = cmd[:2]
    solve_times = np.array(trace["solve_time_s"][instants])
    st = solve_times if len(solve_times) else np.array([math.nan])
    return Report(
        law=trace.meta["law"],
        iae_x_e=iae_x, iae_y_e=iae_y, rms_x_e=rms_x, rms_y_e=rms_y,
        time_to_converge=t_conv, converge_band=band,
        violations=violations,
        solve_time_min=float(np.min(st)),
        solve_time_median=_median(st.tolist()),
        solve_time_mean=float(np.mean(st)),
        solve_time_max=float(np.max(st)),
        guidance_steps=len(solve_times),
        duration=trace.meta["duration"],
    )
