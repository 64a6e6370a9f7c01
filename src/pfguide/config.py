"""Scenario construction from JSON configuration documents.

The document mirrors the Scenario type field for field; unknown keys are
rejected so typos fail loudly instead of silently running the defaults.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .errdyn import InputCmd
from .exceptions import ConfigError
from .los import InputConstraints, SGLOSParams
from .nmpc import NMPCConfig
from .paths import path_from_config
from .sim import DisturbanceSpec, Scenario


def _take(d: dict, key: str, default=None, required: bool = False):
    if required and key not in d:
        raise ConfigError(f"missing required config key {key!r}")
    return d.pop(key, default)


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _reject_unknown(d: dict, where: str) -> None:
    if d:
        raise ConfigError(f"unknown {where} keys: {sorted(d)}")


def _parse_disturbance(d: Optional[dict]) -> DisturbanceSpec:
    if d is None:
        return DisturbanceSpec()
    d = dict(d)
    kind = _take(d, "kind", required=True)
    if kind == "none":
        _reject_unknown(d, "disturbance")
        return DisturbanceSpec()
    if kind == "sinusoid":
        spec = DisturbanceSpec(
            kind="sinusoid",
            amplitude=_number(_take(d, "amplitude", required=True), "amplitude"),
            period=_number(_take(d, "period", required=True), "period"),
            phase=_number(_take(d, "phase", 0.0), "phase"))
        _reject_unknown(d, "disturbance")
        return spec
    if kind == "chirp_mirror":
        spec = DisturbanceSpec(
            kind="chirp_mirror",
            amplitude=_number(_take(d, "amplitude", required=True), "amplitude"),
            f0=_number(_take(d, "f0", required=True), "f0"),
            f1=_number(_take(d, "f1", required=True), "f1"),
            switch_time=_number(_take(d, "switch_time", required=True),
                                "switch_time"))
        _reject_unknown(d, "disturbance")
        return spec
    raise ConfigError(f"unknown disturbance kind {kind!r}")


def _parse_constraints(d: Optional[dict]) -> InputConstraints:
    if d is None:
        return InputConstraints()
    d = dict(d)
    kwargs = {}
    for key in ("eps", "u_max", "u_tar_max", "du_max", "dpsi_max"):
        if key in d:
            kwargs[key] = _number(d.pop(key), key)
    _reject_unknown(d, "constraints")
    try:
        return InputConstraints(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_sglos(d: Optional[dict]) -> SGLOSParams:
    if d is None:
        return SGLOSParams()
    d = dict(d)
    kwargs = {}
    for key in ("k1", "k2", "delta"):
        if key in d:
            kwargs[key] = _number(d.pop(key), key)
    _reject_unknown(d, "sglos parameters")
    try:
        return SGLOSParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_input(d: Optional[dict], key: str) -> Optional[InputCmd]:
    if d is None:
        return None
    d = dict(d)
    cmd = InputCmd(_number(_take(d, "u", required=True), "u"),
                   _number(_take(d, "psi", required=True), "psi"),
                   _number(_take(d, "u_tar", required=True), "u_tar"))
    _reject_unknown(d, key)
    return cmd


def scenario_from_config(doc: dict) -> Scenario:
    """Validate a parsed JSON document and build the Scenario."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    d = dict(doc)

    path_doc = _take(d, "path", required=True)
    if not isinstance(path_doc, dict):
        raise ConfigError("'path' must be an object with a 'name'")
    path_doc = dict(path_doc)
    name = _take(path_doc, "name", required=True)
    params = _take(path_doc, "params", None)
    _reject_unknown(path_doc, "path")
    try:
        path = path_from_config(name, params)
    except Exception as exc:
        raise ConfigError(f"bad path config: {exc}") from exc

    init = _take(d, "initial", required=True)
    if not isinstance(init, dict):
        raise ConfigError("'initial' must be an object")
    init = dict(init)
    x0 = _number(_take(init, "x", required=True), "initial.x")
    y0 = _number(_take(init, "y", required=True), "initial.y")
    psi0 = _take(init, "psi", None)
    psi0 = None if psi0 is None else _number(psi0, "initial.psi")
    omega0 = _number(_take(init, "omega", required=True), "initial.omega")
    _reject_unknown(init, "initial")
    if omega0 < 0.0:
        raise ConfigError("initial omega must be >= 0")

    law = _take(d, "law", required=True)
    law_params = _take(d, "law_params", None)
    constraints = _parse_constraints(_take(d, "constraints", None))
    u_r = _number(_take(d, "u_r", 0.15), "u_r")

    sglos_params = SGLOSParams()
    nmpc_cfg: Optional[NMPCConfig] = None
    linearization = "exact"
    if law_params is not None:
        if not isinstance(law_params, dict):
            raise ConfigError("'law_params' must be an object")
        lp = dict(law_params)
        if law == "sglos":
            sglos_params = _parse_sglos(lp)
        elif law in ("nmpc", "pnmpc"):
            sglos_params = _parse_sglos(lp.pop("sglos", None))
            if law == "pnmpc":
                linearization = lp.pop("linearization", "exact")
                if linearization not in ("exact", "frozen"):
                    raise ConfigError(
                        f"linearization must be exact|frozen, got {linearization!r}")
            kwargs = {}
            if "N" in lp:
                N = lp.pop("N")
                if isinstance(N, bool) or not isinstance(N, int) or N < 1:
                    raise ConfigError("N must be a positive integer")
                kwargs["N"] = N
            for key, attr in (("Q", "Q"), ("R", "R")):
                if key in lp:
                    vec = lp.pop(key)
                    if not (isinstance(vec, list) and len(vec) == 3):
                        raise ConfigError(f"{key} must be a list of 3 numbers")
                    kwargs[attr] = np.array([_number(v, key) for v in vec])
            if "lambda" in lp:
                kwargs["lam"] = _number(lp.pop("lambda"), "lambda")
            P = lp.pop("terminal_weight", None)
            _reject_unknown(lp, "law_params")
            try:
                nmpc_cfg = NMPCConfig(
                    u_ref=InputCmd(u_r, 0.0, u_r), constraints=constraints,
                    T_m=_number(d.get("T_m", 1.0), "T_m"),
                    terminal_law=sglos_params, **kwargs)
                if P is not None:
                    nmpc_cfg = nmpc_cfg.with_terminal(np.asarray(P, dtype=float))
            except (TypeError, ValueError) as exc:  # TypeError: non-numeric P
                raise ConfigError(str(exc)) from exc
        else:
            raise ConfigError(f"law must be one of nmpc|pnmpc|sglos, got {law!r}")

    disturbance = _parse_disturbance(_take(d, "disturbance", None))
    initial_input = _parse_input(_take(d, "initial_input", None), "initial_input")

    filter_enabled = _take(d, "filter_enabled", False)
    if not isinstance(filter_enabled, bool):
        raise ConfigError("'filter_enabled' must be true or false")

    kwargs = dict(
        path=path, x0=x0, y0=y0, psi0=psi0, omega0=omega0, u_r=u_r,
        T_m=_number(_take(d, "T_m", 1.0), "T_m"),
        T_p=_number(_take(d, "T_p", 1.0), "T_p"),
        duration=_number(_take(d, "duration", required=True), "duration"),
        law=law, sglos=sglos_params, constraints=constraints, nmpc=nmpc_cfg,
        linearization=linearization, disturbance=disturbance,
        filter_enabled=filter_enabled,
        converge_band=_number(_take(d, "converge_band", 0.1), "converge_band"),
        initial_input=initial_input,
    )
    _reject_unknown(d, "config")
    try:
        return Scenario(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(filename) -> Scenario:
    try:
        with open(filename) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {filename!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {filename!r} is not valid JSON: {exc}") from exc
    return scenario_from_config(doc)
