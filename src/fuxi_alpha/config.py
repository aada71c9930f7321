"""Run configuration: one JSON document plus dotted-path overrides.

The model and train sections are the fields of `ModelConfig` and
`TrainConfig` with their defaults. Overrides are written into the document
before it is checked, so both go through one validator: unknown keys, wrong
types, string values outside `CHOICES` and numbers outside `BOUNDS` are
rejected (all offenders reported at once) and missing keys take the
defaults. The fully resolved config is echoed into the output directory by
the CLI for provenance.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields
from typing import Any, Sequence

from .data import FORMATS, GAP_RULES
from .model import VARIANT_KINDS, ModelConfig
from .train import TrainConfig


def _field_defaults(cls, skip: Sequence[str] = ()) -> dict[str, Any]:
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


DEFAULTS: dict[str, dict[str, Any]] = {
    "data": {
        "path": "",
        "format": "synthetic",
        "n": 50,                 # maximum sequence length
        "synthetic": {
            "users": 120,
            "items": 256,
            "length": 30,
            "seed": 7,
            "rule": "shifted_two_class",
            "prob": 0.9,
        },
    },
    # vocab comes from the data and n is data.n
    "model": {"variant": "full", **_field_defaults(ModelConfig, skip=("vocab", "n"))},
    "train": _field_defaults(TrainConfig),
    "eval": {
        "ks": [10, 50],
        "partition": "test",
    },
    "bench": {
        "seq_lengths": [200, 400, 600, 800],
        "batch": 8,
        "users": 48,
        "items": 256,
        "variants": ["vanilla", "hstu_like", "full"],
    },
    "output": {
        "directory": "runs/latest",
    },
}


# the values a string key, or each element of a list of strings, may take
CHOICES: dict[str, tuple[str, ...]] = {
    "data.format": ("synthetic", *FORMATS),
    "data.synthetic.rule": tuple(GAP_RULES),
    "model.variant": VARIANT_KINDS,
    "eval.partition": ("test", "validation"),
    "bench.variants": VARIANT_KINDS,
}


# inclusive (low, high) bounds of a number, or of each element of a list of
# numbers; None for no upper bound
BOUNDS: dict[str, tuple[float, float | None]] = {
    "data.n": (1, None),
    "data.synthetic.users": (1, None),
    "data.synthetic.items": (2, None),
    "data.synthetic.length": (2, None),
    "data.synthetic.prob": (0.0, 1.0),
    "eval.ks": (1, None),
    "bench.seq_lengths": (2, None),
    "bench.batch": (1, None),
    "bench.users": (1, None),
    "bench.items": (2, None),
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
            problems.append(f"{path or 'top level'}: expected a section, got {_type_name(value)}")
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


def _write_override(document: dict, spec: str, problems: list[str]) -> None:
    """Write key=value into the document: the text as is for a string key, else
    JSON-decoded (text that is not JSON stays text for the type check to report)."""
    key, sep, value = spec.partition("=")
    if not sep:
        problems.append(f"override {spec!r}: expected key=value")
        return
    *sections, name = parts = key.split(".")
    node = document
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            return  # the document's own value there is reported as not a section
    default: Any = DEFAULTS
    for part in parts:
        default = default.get(part) if isinstance(default, dict) else None
    if not isinstance(default, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
    node[name] = value


def _named_values(resolved: dict, key: str) -> list[tuple[str, Any]]:
    """(path, value) of the key's value, or of each element when it is a list."""
    value: Any = resolved
    for part in key.split("."):
        value = value[part]
    return [(f"{key}[{i}]", v) for i, v in enumerate(value)] if isinstance(value, list) else [(key, value)]


def resolve_config(document: Any, overrides: Sequence[str] = ()) -> dict:
    """Defaults <- document <- overrides, with exhaustive validation."""
    problems: list[str] = []
    document = copy.deepcopy(document)
    if isinstance(document, dict):
        for spec in overrides:
            _write_override(document, spec, problems)
    resolved = _check_value("", document, DEFAULTS, problems)
    for key, allowed in CHOICES.items():
        problems += [
            f"{path}: unknown value {v!r}; expected one of {list(allowed)}"
            for path, v in _named_values(resolved, key) if v not in allowed
        ]
    for key, (low, high) in BOUNDS.items():
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        problems += [
            f"{path}: expected a value {span}, got {v!r}"
            for path, v in _named_values(resolved, key)
            # a value of the wrong type is already reported; NaN fails both comparisons
            if isinstance(v, (int, float)) and not (v >= low and (high is None or v <= high))
        ]
    bench = resolved["bench"]
    if not bench["seq_lengths"]:
        problems.append("bench.seq_lengths: expected at least one length")
    if bench["batch"] > bench["users"]:
        problems.append(f"bench.batch: expected a value <= bench.users ({bench['users']}), got {bench['batch']}")
    if problems:
        raise ConfigError(problems)
    return resolved
