"""Experiment configuration: a schema-validated JSON document.

One document describes a whole experiment (data generation, solver settings,
evaluation thresholds); each CLI command consumes its section. The solver
section's schema is derived from `SolverConfig`, which declares every setting,
its type and its bounds once. Unknown keys are rejected so typos fail loudly,
and the effective config is echoed verbatim into every output directory for
reproducibility.
"""

from __future__ import annotations

import copy
import dataclasses

import jsonschema

from . import matio
from .numerics import ValidationError
from .solver import _BOUNDS, _CHOICES, SolverConfig

CONFIG_VERSION = 1

_DISTRIBUTION_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"type": "string"},
        "params": {"type": "array"},
    },
    "required": ["kind", "params"],
    "additionalProperties": False,
}

# JSON Schema type of each SolverConfig annotation.
_TYPES = {"int": {"type": "integer"}, "float": {"type": "number"},
          "float | None": {"type": ["number", "null"]},
          "tuple": {"type": "array", "items": {"type": "integer"}}}


def _solver_schema() -> dict:
    """The solver section, read off SolverConfig: a type per field annotation,
    an enum per choice field, and each of its bounds under the bound's keyword
    (on the items of a tuple field)."""
    props = {}
    for f in dataclasses.fields(SolverConfig):
        if f.name in _CHOICES:
            props[f.name] = {"enum": list(_CHOICES[f.name])}
        else:
            props[f.name] = copy.deepcopy(_TYPES[f.type])
    for _, _, keyword, bounds in _BOUNDS:
        for name, bound in bounds.items():
            spec = props[name]
            spec.get("items", spec)[keyword] = bound
    return {"type": "object", "properties": props, "additionalProperties": False}


_SOLVER_SCHEMA = _solver_schema()

_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": CONFIG_VERSION},
        "seed": {"type": "integer"},
        "data": {
            "type": "object",
            "properties": {
                "preset": {"type": "string"},
                "n": {"type": "integer", "minimum": 2},
                "d1": {"type": ["integer", "null"], "minimum": 1},
                "d2": {"type": ["integer", "null"], "minimum": 1},
                "homogeneous": {"type": "boolean"},
                "test_fraction": {"type": "number", "minimum": 0, "maximum": 0.5},
                "shuffle": {"type": "boolean"},
                "latent": {
                    "type": "object",
                    "properties": {
                        "shared": {"type": "array", "items": _DISTRIBUTION_SCHEMA},
                        "private1": {"type": "array", "items": _DISTRIBUTION_SCHEMA},
                        "private2": {"type": "array", "items": _DISTRIBUTION_SCHEMA},
                    },
                    "required": ["shared"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "solver": _SOLVER_SCHEMA,
        "anchors": {"type": "integer", "minimum": 0},
        "eval": {
            "type": "object",
            "properties": {
                "thresholds": {
                    "type": "object",
                    "properties": {
                        "leakage": {"type": "number", "minimum": 0},
                        "theta_rel_diff": {"type": "number", "minimum": 0},
                        "pair_match_error": {"type": "number", "minimum": 0},
                        "whitening_residual": {"type": "number", "minimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
    },
    "required": ["version"],
    "additionalProperties": False,
}

DEFAULT_CONFIG = {
    "version": CONFIG_VERSION,
    "seed": 0,
    "data": {"preset": "thm1a", "n": 100000},
    "solver": {"d_c": 2},
    "eval": {"thresholds": {}},
}


def validate_config(doc: dict) -> dict:
    if "version" not in doc:
        raise ValidationError("config is missing the mandatory 'version' field")
    try:
        jsonschema.validate(doc, _SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValidationError(f"config invalid at {path}: {exc.message}") from exc
    return doc


def load_config(path: str) -> dict:
    return validate_config(matio.read_json(path))


def merged_with_defaults(doc: dict | None) -> dict:
    """Overlay a (possibly partial) config onto the defaults, then validate."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in (doc or {}).items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return validate_config(merged)
