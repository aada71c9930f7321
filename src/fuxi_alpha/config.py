"""Run configuration: one JSON document plus dotted-path overrides.

Unknown keys and variant kinds are rejected (all offenders reported at once);
missing keys take the documented defaults; the fully resolved config is echoed
into the output directory by the CLI for provenance.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Sequence

from .model import VARIANT_KINDS

DEFAULTS: dict[str, dict[str, Any]] = {
    "data": {
        "path": "",
        "format": "synthetic",   # movielens_dat | csv | synthetic
        "n": 50,                 # maximum sequence length
        "synthetic": {
            "users": 120,
            "items": 20,
            "length": 30,
            "seed": 7,
            "rule": "shifted_two_class",  # uniform | two_class | shifted_two_class
            "prob": 0.9,
        },
    },
    "model": {
        "variant": "full",
        "d": 50,
        "d_h": 50,
        "heads": 1,
        "d_ffn": 100,
        "layers": 2,
        "n_buckets": 128,
        "negatives": 128,
        "time_bucket_base": 1.0,
        "max_time_span": 63_072_000,
        "rms_eps": 1e-6,
    },
    "train": {
        "lr": 1e-3,
        "weight_decay": 0.1,
        "beta1": 0.9,
        "beta2": 0.98,
        "adam_eps": 1e-8,
        "epochs": 10,
        "batch_size": 32,
        "seed": 0,
        "eval_every": 1,
        "patience": 0,
    },
    "eval": {
        "ks": [10, 50],
        "partition": "test",  # test | validation
    },
    "bench": {
        "seq_lengths": [200, 400, 600, 800],
        "batch": 8,
        "users": 48,
        "items": 100,
        "variants": ["vanilla", "hstu_like", "full"],
    },
    "output": {
        "directory": "runs/latest",
    },
}


class ConfigError(ValueError):
    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _type_name(value: Any) -> str:
    return type(value).__name__


def _check_value(path: str, value: Any, default: Any, problems: list[str]) -> Any:
    if isinstance(default, dict):
        if not isinstance(value, dict):
            problems.append(f"{path}: expected a section, got {_type_name(value)}")
            return default
        return _merge_section(path, value, default, problems)
    if isinstance(default, bool) or isinstance(value, bool):
        problems.append(f"{path}: boolean values are not used in this schema")
        return default
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, int):
            return value
        problems.append(f"{path}: expected int, got {_type_name(value)}")
        return default
    if isinstance(default, float):
        if isinstance(value, (int, float)):
            return float(value)
        problems.append(f"{path}: expected float, got {_type_name(value)}")
        return default
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        problems.append(f"{path}: expected str, got {_type_name(value)}")
        return default
    if isinstance(default, list):
        if not isinstance(value, list):
            problems.append(f"{path}: expected list, got {_type_name(value)}")
            return default
        if default and value:
            want = type(default[0])
            for i, item in enumerate(value):
                ok = isinstance(item, want) or (want is float and isinstance(item, int))
                if not ok:
                    problems.append(f"{path}[{i}]: expected {want.__name__}, got {_type_name(item)}")
        return value
    problems.append(f"{path}: unsupported value type {_type_name(value)}")
    return default


def _merge_section(prefix: str, doc: dict, defaults: dict, problems: list[str]) -> dict:
    out = {}
    for key, default in defaults.items():
        path = f"{prefix}.{key}" if prefix else key
        if key in doc:
            out[key] = _check_value(path, doc[key], default, problems)
        else:
            out[key] = copy.deepcopy(default)
    for key in doc:
        if key not in defaults:
            path = f"{prefix}.{key}" if prefix else key
            problems.append(f"{path}: unknown key")
    return out


def _parse_override(spec: str, resolved: dict, problems: list[str]) -> None:
    if "=" not in spec:
        problems.append(f"override {spec!r}: expected key=value")
        return
    key, raw = spec.split("=", 1)
    parts = key.split(".")
    node = DEFAULTS
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            problems.append(f"override {key}: unknown key")
            return
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        problems.append(f"override {key}: unknown key")
        return
    default = node[parts[-1]]
    try:
        if isinstance(default, dict):
            problems.append(f"override {key}: cannot override a whole section")
            return
        if isinstance(default, int) and not isinstance(default, bool):
            value: Any = int(raw)
        elif isinstance(default, float):
            value = float(raw)
        elif isinstance(default, str):
            value = raw
        elif isinstance(default, list):
            value = json.loads(raw)
            if not isinstance(value, list):
                raise ValueError("not a list")
        else:
            problems.append(f"override {key}: unsupported type")
            return
    except (ValueError, json.JSONDecodeError):
        problems.append(f"override {key}: expected {_type_name(default)}, got {raw!r}")
        return
    target = resolved
    for part in parts[:-1]:
        target = target[part]
    target[parts[-1]] = value


def resolve_config(document: dict | None, overrides: Sequence[str] = ()) -> dict:
    """Defaults <- document <- overrides, with exhaustive validation."""
    problems: list[str] = []
    resolved = _merge_section("", document or {}, DEFAULTS, problems)
    for spec in overrides:
        _parse_override(spec, resolved, problems)
    kinds = [("model.variant", resolved["model"]["variant"])]
    kinds += [(f"bench.variants[{i}]", kind) for i, kind in enumerate(resolved["bench"]["variants"])]
    problems += [
        f"{path}: unknown variant kind {kind!r}; expected one of {list(VARIANT_KINDS)}"
        for path, kind in kinds
        if kind not in VARIANT_KINDS
    ]
    if problems:
        raise ConfigError(problems)
    return resolved
