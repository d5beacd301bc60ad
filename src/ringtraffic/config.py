"""Scenario configuration: defaults, file loading, overrides, validation.

Configs are JSON objects (flat keys plus a nested ``params`` object).  Every
experiment kind carries a complete set of defaults, so an empty config file is
a valid run description.  Unknown keys are rejected rather than ignored.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .core import ModelParams
from .errors import ConfigurationError
from .single_lane import delay_steps

_PARAMS_DEFAULTS = {
    "lambda_rate": 1.0,
    "v_max": 40.0,
    "d_min": 7.5,
    "car_size": 5.0,
    "track_length": 1000.0,
}

# Every kind holds exactly the keys its runner reads.
KIND_DEFAULTS: dict[str, dict] = {
    "fundamental-diagram": {
        "params": _PARAMS_DEFAULTS,
        "rho_resolution_per_km": 0.1,
    },
    "single-lane": {
        "params": _PARAMS_DEFAULTS,
        "record_stride": 1,
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
        "params": _PARAMS_DEFAULTS,
        "n_vehicles": 50,
        "delay_grid": [round(0.05 * k, 10) for k in range(17)],
    },
    "tau-curve": {
        "params": _PARAMS_DEFAULTS,
        "n_list": [10, 25, 50, 75, 100, 133],
    },
    "load-balance": {
        "params": _PARAMS_DEFAULTS,
        "base_seed": 12345,
        "replicas": 10,
        "record_stride": 1,
        "n_vehicles": 50,
        "delay": 0.0,
        "dt": 0.05,
        "t_end": 100.0,
        "r": 0.1,
        "p": 0.2,
        "delta_flow": 5.0,
    },
    "aggressive": {
        "params": _PARAMS_DEFAULTS,
        "base_seed": 12345,
        "replicas": 20,
        "record_stride": 1,
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
    "two-lane": {
        "params": _PARAMS_DEFAULTS,
        "base_seed": 12345,
        "record_stride": 1,
        "n_lane0": 50,
        "n_lane1": 0,
        "stagger": 0.0,
        "delay": 0.0,
        "dt": 0.01,
        "t_end": 100.0,
        "r": 0.1,
        "p": 0.1,
    },
}

KINDS = tuple(KIND_DEFAULTS)

# The scalar type, once set, of each key whose default is null (derived at run time).
_NULLABLE_TYPES = {"stagger": float, "aggressive_vehicle": int, "control_vehicle": int}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved experiment description."""

    kind: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def params(self) -> ModelParams:
        return ModelParams(**self.values["params"])

    @property
    def seeds(self) -> list[int]:
        """The seeds of a replica kind's runs."""
        base = self.values["base_seed"]
        return [base + i for i in range(self.values["replicas"])]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **copy.deepcopy(self.values)}


def _coerce(key: str, value, default):
    """Coerce a merged value to the default's type; reject mismatches and
    non-finite numbers (JSON's ``NaN`` and ``Infinity``).  Only a key whose
    default is ``None`` takes ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"key '{key}' expects a finite number, got {value!r}")
    if default is None:
        if value is None:
            return None
        default = _NULLABLE_TYPES[key]()
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"key '{key}' expects an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ConfigurationError(f"key '{key}' expects an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"key '{key}' expects a number, got {value!r}")
        return float(value)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigurationError(f"key '{key}' expects a list, got {value!r}")
        return [_coerce(f"{key}[]", item, default[0]) for item in value]
    raise ConfigurationError(f"key '{key}' has unsupported type")


def _merge(resolved: dict, incoming: dict, source: str, defaults: dict) -> None:
    """Merge ``incoming`` into ``resolved``, coercing each value against its
    kind's default."""
    for key, value in incoming.items():
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
        if key not in defaults:
            raise ConfigurationError(f"{source}: unknown key '{key}'")
        resolved[key] = _coerce(key, value, defaults[key])


def _parse_set_override(item: str) -> dict:
    """One ``--set key=value`` item as a config fragment: a ``params.`` key
    goes into ``params``, any other key to the top level."""
    if "=" not in item:
        raise ConfigurationError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    key = key.strip()
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if key.startswith("params."):
        return {"params": {key[len("params."):]: value}}
    return {key: value}


def load_config(
    kind: str | None = None,
    path: str | None = None,
    overrides: list[str] | None = None,
    *,
    environ=None,
) -> ScenarioConfig:
    """Resolve a scenario config from kind defaults, then the config file,
    then each ``--set`` override in turn.

    A file's ``kind``, if it has one, must be the given kind.  The
    environment is no config source: ``environ``, kept for callers that pass
    ``{}``, must be empty.
    """
    if environ:
        raise ConfigurationError("the environment is no config source; use --set")
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

    file_kind = file_data.pop("kind", None)
    kind = kind or file_kind
    if kind is None:
        raise ConfigurationError("no experiment kind given (subcommand or config file)")
    if kind not in KINDS:
        raise ConfigurationError(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")
    if file_kind not in (None, kind):
        raise ConfigurationError(f"config file {path!r} is for kind {file_kind!r}, not {kind!r}")

    defaults = KIND_DEFAULTS[kind]
    resolved = copy.deepcopy(defaults)
    _merge(resolved, file_data, f"config file {path!r}", defaults)
    for item in overrides or ():
        _merge(resolved, _parse_set_override(item), "--set", defaults)

    _validate(kind, resolved)
    return ScenarioConfig(kind=kind, values=resolved)


def _validate(kind: str, v: dict) -> None:
    """Check every key the kind holds; a key means the same in every kind."""
    ModelParams(**v["params"])  # raises ParameterError on bad physics
    floors = {"base_seed": 0, "n_vehicles": 2, "replicas": 1, "record_stride": 1,
              "flow_grid_nt": 1, "flow_grid_nx": 1}
    for key, low in floors.items():
        if key in v and v[key] < low:
            raise ConfigurationError(f"{key} must be >= {low}, got {v[key]}")
    for key in ("dt", "t_end", "delta_flow", "rho_resolution_per_km", "aggressive_lambda"):
        if key in v and v[key] <= 0:
            raise ConfigurationError(f"{key} must be positive, got {v[key]}")
    if "delay" in v:
        delay_steps(v["delay"], v["dt"])  # integer-multiple invariant
    if "r" in v and (v["r"] < 0 or v["p"] < 0):
        raise ConfigurationError("lane-change rates r and p must be nonnegative")
    for key in ("perturb_vehicle", "aggressive_vehicle", "control_vehicle"):
        if v.get(key) is not None and not 0 <= v[key] < v["n_vehicles"]:
            raise ConfigurationError(f"{key} {v[key]} out of range 0..{v['n_vehicles'] - 1}")
    for key in ("delay_grid", "n_list"):
        if key in v and not v[key]:
            raise ConfigurationError(f"{key} must not be empty")
    if any(d < 0 for d in v.get("delay_grid", ())):
        raise ConfigurationError("delay_grid entries must be nonnegative")
    if any(n < 2 for n in v.get("n_list", ())):
        raise ConfigurationError("n_list entries must be >= 2")
    if kind == "load-balance":
        last = round(round(v["t_end"] / v["dt"]) * v["dt"], 12)  # time of the final sample
        if v["delta_flow"] > last:
            raise ConfigurationError(
                f"delta_flow {v['delta_flow']} s exceeds the run's last sample at {last} s: "
                "no flow window would close"
            )
    if kind == "aggressive" and v["n_vehicles"] % 2 != 0:
        raise ConfigurationError("aggressive experiment splits n_vehicles evenly per lane")
    if "n_lane0" in v:
        n0, n1 = v["n_lane0"], v["n_lane1"]
        if n0 + n1 < 2 or n0 < 1 or n1 < 0:
            raise ConfigurationError(f"invalid lane split ({n0}, {n1})")
