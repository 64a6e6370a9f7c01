"""Scenario construction from JSON configuration documents.

The document mirrors the Scenario type field for field; unknown keys are
rejected so typos fail loudly instead of silently running the defaults.
Every section is a JSON object; null stands for a section left out.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errdyn import InputCmd
from .exceptions import ConfigError
from .los import InputConstraints, SGLOSParams
from .nmpc import NMPCConfig
from .paths import path_from_config
from .sim import DisturbanceSpec, Scenario

# Disturbance kind -> (required, optional) number keys.
_DISTURBANCE_KEYS = {
    "none": ((), ()),
    "sinusoid": (("amplitude", "period"), ("phase",)),
    "chirp_mirror": (("amplitude", "f0", "f1", "switch_time"), ()),
}
_CONSTRAINT_KEYS = ("eps", "u_max", "u_tar_max", "du_max", "dpsi_max")
_SGLOS_KEYS = ("k1", "k2", "delta")
_INPUT_KEYS = ("u", "psi", "u_tar")


def _take(d: dict, key: str, default=None, required: bool = False):
    if required and key not in d:
        raise ConfigError(f"missing required config key {key!r}")
    return d.pop(key, default)


def _number(value, key: str) -> float:
    """A finite JSON number: json reads NaN and Infinity, RFC 8259 does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be a finite number, "
                          f"got {value!r}")
    return float(value)


def _reject_unknown(keys, where: str) -> None:
    if keys:
        raise ConfigError(f"unknown {where} keys: {sorted(keys)}")


def _section(value, where: str) -> dict:
    """A copy of a JSON object section.  An array of [key, value] pairs is
    refused, although dict() would read it."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where!r} must be a JSON object, got {value!r}")
    return dict(value)


def _numbers(section: dict, where: str, required=(), optional=()) -> dict:
    """The section's values as finite floats; unknown keys are rejected."""
    _reject_unknown(set(section) - set(required) - set(optional), where)
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required config key {where}.{key}")
    return {key: _number(value, f"{where}.{key}")
            for key, value in section.items()}


def _disturbance(value) -> DisturbanceSpec:
    if value is None:
        return DisturbanceSpec()
    d = _section(value, "disturbance")
    kind = _take(d, "kind", required=True)
    if not isinstance(kind, str) or kind not in _DISTURBANCE_KEYS:
        raise ConfigError(f"unknown disturbance kind {kind!r}")
    return DisturbanceSpec(kind=kind,
                           **_numbers(d, "disturbance", *_DISTURBANCE_KEYS[kind]))


def _nmpc_kwargs(lp: dict) -> dict:
    """Horizon, weights and terminal weight of the predictive laws."""
    kwargs = {}
    if "N" in lp:
        kwargs["N"] = lp.pop("N")  # NMPCConfig checks it
    for key in ("Q", "R"):
        if key in lp:
            vec = lp.pop(key)
            if not (isinstance(vec, list) and len(vec) == 3):
                raise ConfigError(f"{key} must be a list of 3 numbers")
            kwargs[key] = np.array([_number(v, key) for v in vec])
    if "lambda" in lp:
        kwargs["lam"] = _number(lp.pop("lambda"), "lambda")
    if "terminal_weight" in lp:
        P = lp.pop("terminal_weight")
        if not (isinstance(P, list) and len(P) == 3 and all(
                isinstance(row, list) and len(row) == 3 for row in P)):
            raise ConfigError("terminal_weight must be 3 rows of 3 numbers")
        kwargs["P"] = np.array([[_number(v, "terminal_weight") for v in row]
                                for row in P])
    _reject_unknown(lp, "law_params")
    return kwargs


def scenario_from_config(doc: dict) -> Scenario:
    """Validate a parsed JSON document and build the Scenario."""
    d = _section(doc, "config document")

    path_doc = _section(_take(d, "path", required=True), "path")
    name = _take(path_doc, "name", required=True)
    params = _section(_take(path_doc, "params"), "path.params")
    _reject_unknown(path_doc, "path")
    try:
        path = path_from_config(name, params)
    except Exception as exc:
        raise ConfigError(f"bad path config: {exc}") from exc

    init = _section(_take(d, "initial", required=True), "initial")
    psi0 = _take(init, "psi")
    init = _numbers(init, "initial", required=("x", "y", "omega"))
    if init["omega"] < 0.0:
        raise ConfigError("initial omega must be >= 0")

    law = _take(d, "law", required=True)
    law_params = _take(d, "law_params")
    lp = _section(law_params, "law_params")
    linearization = "exact"
    if law == "sglos":
        sglos_keys = _numbers(lp, "law_params", optional=_SGLOS_KEYS)
    else:
        sglos_keys = _numbers(_section(lp.pop("sglos", None), "law_params.sglos"),
                              "law_params.sglos", optional=_SGLOS_KEYS)
        if law == "pnmpc":
            linearization = lp.pop("linearization", "exact")
        nmpc_kwargs = _nmpc_kwargs(lp)
    constraint_keys = _numbers(_section(_take(d, "constraints"), "constraints"),
                               "constraints", optional=_CONSTRAINT_KEYS)
    u_r = _number(_take(d, "u_r", 0.15), "u_r")
    T_m = _number(_take(d, "T_m", 1.0), "T_m")

    initial_input = _take(d, "initial_input")
    if initial_input is not None:
        initial_input = InputCmd(**_numbers(
            _section(initial_input, "initial_input"), "initial_input",
            required=_INPUT_KEYS))

    filter_enabled = _take(d, "filter_enabled", False)
    if not isinstance(filter_enabled, bool):
        raise ConfigError("'filter_enabled' must be true or false")

    try:
        constraints = InputConstraints(**constraint_keys)
        sglos_params = SGLOSParams(**sglos_keys)
        nmpc_cfg = None
        if law_params is not None and law != "sglos":
            nmpc_cfg = NMPCConfig(
                u_r=u_r, constraints=constraints, T_m=T_m,
                terminal_law=sglos_params, **nmpc_kwargs)
        kwargs = dict(
            path=path, x0=init["x"], y0=init["y"],
            psi0=None if psi0 is None else _number(psi0, "initial.psi"),
            omega0=init["omega"], u_r=u_r, T_m=T_m,
            T_p=_number(_take(d, "T_p", 1.0), "T_p"),
            duration=_number(_take(d, "duration", required=True), "duration"),
            law=law, sglos=sglos_params, constraints=constraints,
            nmpc=nmpc_cfg, linearization=linearization,
            disturbance=_disturbance(_take(d, "disturbance")),
            filter_enabled=filter_enabled,
            converge_band=_number(_take(d, "converge_band", 0.1),
                                  "converge_band"),
            initial_input=initial_input)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _reject_unknown(d, "config")
    return Scenario(**kwargs)


def load_scenario(filename) -> Scenario:
    try:
        with open(filename) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {filename!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {filename!r} is not valid JSON: {exc}") from exc
    return scenario_from_config(doc)
