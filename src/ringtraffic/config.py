"""Scenario configuration: defaults, file loading, overrides, validation.

Configs are JSON objects (flat keys plus a nested ``params`` object).  Every
experiment kind carries a complete set of defaults, so an empty config file is
a valid run description.  Unknown keys are rejected rather than ignored.
"""
from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

from .core import ModelParams
from .errors import ConfigurationError
from .single_lane import delay_steps

ENV_PREFIX = "RINGTRAFFIC_"

KINDS = (
    "fundamental-diagram",
    "single-lane",
    "stability",
    "tau-curve",
    "load-balance",
    "aggressive",
    "custom",
)

_PARAMS_DEFAULTS = {
    "lambda_rate": 1.0,
    "v_max": 40.0,
    "d_min": 7.5,
    "car_size": 5.0,
    "track_length": 1000.0,
}

_COMMON = {
    "params": _PARAMS_DEFAULTS,
    "base_seed": 12345,
    "replicas": 1,
    "record_stride": 1,
}

KIND_DEFAULTS: dict[str, dict] = {
    "fundamental-diagram": {
        **_COMMON,
        "rho_resolution_per_km": 0.1,
    },
    "single-lane": {
        **_COMMON,
        "n_vehicles": 50,
        "delay": 0.0,
        "dt": 0.01,
        "t_end": 300.0,
        "perturb_vehicle": 0,
        "perturb_displacement": 1.0,
        "delta_flow": 18.63,
        "flow_grid_nt": 50,
        "flow_grid_nx": 50,
    },
    "stability": {
        **_COMMON,
        "n_vehicles": 50,
        "delay_grid": [round(0.05 * k, 10) for k in range(17)],
    },
    "tau-curve": {
        **_COMMON,
        "n_list": [10, 25, 50, 75, 100, 133],
    },
    "load-balance": {
        **_COMMON,
        "replicas": 10,
        "n_vehicles": 50,
        "delay": 0.0,
        "dt": 0.05,
        "t_end": 100.0,
        "r": 0.1,
        "p": 0.2,
        "delta_flow": 5.0,
    },
    "aggressive": {
        **_COMMON,
        "replicas": 20,
        "n_vehicles": 50,
        "delay": 0.0,
        "dt": 0.05,
        "t_end": 500.0,
        "r": 0.1,
        "p": 0.1,
        "stagger": None,
        "aggressive_lambda": 2.0,
        "aggressive_vehicle": None,
        "control_vehicle": None,
    },
    "custom": {
        **_COMMON,
        "lanes": 1,
        "n_vehicles": 50,
        "n_lane0": None,
        "n_lane1": None,
        "stagger": 0.0,
        "delay": 0.0,
        "dt": 0.01,
        "t_end": 100.0,
        "perturb_vehicle": 0,
        "perturb_displacement": 0.0,
        "r": 0.1,
        "p": 0.1,
        "delta_flow": 5.0,
    },
}

# Keys whose default is None and their expected scalar type once set.
_NULLABLE_TYPES = {
    "stagger": float,
    "aggressive_vehicle": int,
    "control_vehicle": int,
    "n_lane0": int,
    "n_lane1": int,
}

_SIMULATING_KINDS = {"single-lane", "load-balance", "aggressive", "custom"}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved experiment description."""

    kind: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    @property
    def params(self) -> ModelParams:
        return ModelParams(**self.values["params"])

    @property
    def seeds(self) -> list[int]:
        base = self.values.get("base_seed", 0)
        return [base + i for i in range(self.values.get("replicas", 1))]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **copy.deepcopy(self.values)}


def _coerce(key: str, value, default):
    """Coerce a merged value to the default's type; reject mismatches."""
    if default is None or value is None:
        expected = _NULLABLE_TYPES.get(key)
        if value is None or expected is None:
            return value
        default = expected()
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigurationError(f"key '{key}' expects a boolean, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"key '{key}' expects an integer, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise ConfigurationError(f"key '{key}' expects an integer, got {value!r}")
            value = int(value)
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"key '{key}' expects a number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigurationError(f"key '{key}' expects a string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"key '{key}' expects a list, got {value!r}")
        return [_coerce(f"{key}[]", item, default[0] if default else 0.0) for item in value]
    raise ConfigurationError(f"key '{key}' has unsupported type")


def _merge(resolved: dict, incoming: dict, source: str) -> None:
    for key, value in incoming.items():
        if key == "kind":
            continue
        if key == "params":
            if not isinstance(value, dict):
                raise ConfigurationError(f"{source}: 'params' must be an object")
            for pkey, pvalue in value.items():
                if pkey not in _PARAMS_DEFAULTS:
                    raise ConfigurationError(f"{source}: unknown key 'params.{pkey}'")
                resolved["params"][pkey] = _coerce(
                    f"params.{pkey}", pvalue, _PARAMS_DEFAULTS[pkey]
                )
            continue
        if key not in resolved:
            raise ConfigurationError(f"{source}: unknown key '{key}'")
        resolved[key] = _coerce(key, value, KIND_DEFAULTS_FLAT[key])


# Flattened view of every known key across kinds, for coercion defaults.
KIND_DEFAULTS_FLAT: dict = {}
for _kind_defaults in KIND_DEFAULTS.values():
    for _key, _value in _kind_defaults.items():
        if _key != "params":
            KIND_DEFAULTS_FLAT.setdefault(_key, _value)


def _parse_set_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigurationError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _nest_dotted(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        parts = key.split(".")
        target = out
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigurationError(f"override path '{key}' conflicts with a scalar")
        target[parts[-1]] = value
    return out


def _env_overrides(resolved: dict, environ) -> dict:
    """Environment overrides: RINGTRAFFIC_T_END=200, RINGTRAFFIC_PARAMS__V_MAX=30."""
    pairs = []
    known = {k.upper(): k for k in resolved if k != "params"}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):]
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if path.startswith("PARAMS__"):
            pkey = path[len("PARAMS__"):].lower()
            pairs.append((f"params.{pkey}", value))
        elif path.upper() in known:
            pairs.append((known[path.upper()], value))
        else:
            raise ConfigurationError(f"environment variable {name} names no config key")
    return _nest_dotted(pairs)


def load_config(
    kind: str | None = None,
    path: str | None = None,
    overrides: list[str] | None = None,
    environ=None,
    inline: dict | None = None,
) -> ScenarioConfig:
    """Resolve a scenario config from defaults, file, environment, and --set.

    Precedence (lowest to highest): kind defaults, config file, ``inline``
    dict, environment variables, ``--set`` overrides.
    """
    file_data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            file_data = json.loads(text) if text.strip() else {}
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno})"
            ) from exc
        if not isinstance(file_data, dict):
            raise ConfigurationError(f"config file {path!r} must hold a JSON object")

    kind = kind or file_data.get("kind") or (inline or {}).get("kind")
    if kind is None:
        raise ConfigurationError("no experiment kind given (flag, config, or inline)")
    if kind not in KINDS:
        raise ConfigurationError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")

    resolved = copy.deepcopy(KIND_DEFAULTS[kind])
    _merge(resolved, file_data, f"config file {path!r}" if path else "config file")
    if inline:
        _merge(resolved, inline, "inline config")
    env_data = _env_overrides(resolved, environ if environ is not None else os.environ)
    if env_data:
        _merge(resolved, env_data, "environment")
    if overrides:
        _merge(resolved, _nest_dotted(_parse_set_override(o) for o in overrides), "--set")

    _validate(kind, resolved)
    return ScenarioConfig(kind=kind, values=resolved)


def _validate(kind: str, v: dict) -> None:
    ModelParams(**v["params"])  # raises ParameterError on bad physics
    if v["replicas"] < 1:
        raise ConfigurationError(f"replicas must be >= 1, got {v['replicas']}")
    if v["record_stride"] < 1:
        raise ConfigurationError(f"record_stride must be >= 1, got {v['record_stride']}")
    if kind in _SIMULATING_KINDS:
        if v["dt"] <= 0:
            raise ConfigurationError(f"dt must be positive, got {v['dt']}")
        if v["t_end"] <= 0:
            raise ConfigurationError(f"t_end must be positive, got {v['t_end']}")
        delay_steps(v["delay"], v["dt"])  # integer-multiple invariant
    if kind in ("single-lane", "custom"):
        n = v["n_vehicles"]
        if not 0 <= v["perturb_vehicle"] < n:
            raise ConfigurationError(
                f"perturb_vehicle {v['perturb_vehicle']} out of range 0..{n - 1}"
            )
    if kind == "single-lane":
        if v["delta_flow"] <= 0:
            raise ConfigurationError("delta_flow must be positive")
    if kind == "stability":
        if any(d < 0 for d in v["delay_grid"]):
            raise ConfigurationError("delay_grid entries must be nonnegative")
    if kind == "tau-curve":
        if any(n < 2 for n in v["n_list"]):
            raise ConfigurationError("n_list entries must be >= 2")
    if kind == "fundamental-diagram":
        if v["rho_resolution_per_km"] <= 0:
            raise ConfigurationError("rho_resolution_per_km must be positive")
    if kind in ("load-balance", "aggressive", "custom"):
        if kind != "custom" or v["lanes"] == 2:
            if v["r"] < 0 or v["p"] < 0:
                raise ConfigurationError("lane-change rates r and p must be nonnegative")
    if kind == "aggressive":
        if v["n_vehicles"] % 2 != 0:
            raise ConfigurationError("aggressive experiment splits n_vehicles evenly per lane")
        if v["aggressive_lambda"] <= 0:
            raise ConfigurationError("aggressive_lambda must be positive")
    if kind == "custom":
        if v["lanes"] not in (1, 2):
            raise ConfigurationError(f"lanes must be 1 or 2, got {v['lanes']}")
        if v["lanes"] == 2:
            n0 = v["n_lane0"] if v["n_lane0"] is not None else v["n_vehicles"]
            n1 = v["n_lane1"] if v["n_lane1"] is not None else 0
            if n0 + n1 < 2 or n0 < 1 or n1 < 0:
                raise ConfigurationError(f"invalid lane split ({n0}, {n1})")
