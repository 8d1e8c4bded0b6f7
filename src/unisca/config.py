"""Experiment configuration: one JSON document, checked key by key.

One document describes a whole experiment; each CLI command consumes its
section. Each key is declared once: the solver section by `SolverConfig`'s
field annotations (`solver._ANNOTATED`), `_BOUNDS` and `_CHOICES`; the latent
marginals by `datagen.LatentSpec.from_dict`; the eval thresholds by `GATED`;
the root, `data` and `eval` by `_SECTIONS`. Each key's value is checked by
one function, `numerics.check_value`, which `SolverConfig` calls on its
fields too, so a solver fault reads the same from Python and from JSON. An
integer takes no float, a number no boolean, and no object an unknown key;
each fault reads `config invalid at <path>: <reason>`. The effective config
is echoed into every output directory.
"""

from __future__ import annotations

import copy
import dataclasses
import operator

from . import datagen
from .numerics import ValidationError, check_keys, check_value
from .solver import _ANNOTATED, _BOUNDS, _CHOICES, SolverConfig

CONFIG_VERSION = 1

# How a threshold's metric is read from a report dict (IdentReport.to_dict()
# or sweep's per-seed medians): a per-view metric is bounded by its worse view.
GATED = {"leakage": max, "theta_rel_diff": float, "pair_match_error": float,
         "whitening_residual": max}

_NULL, _OBJECT = type(None), (dict,)
_KEY_BOUNDS = ((operator.ge, ">=", {"anchors": 0, "n": 2, "d1": 1, "d2": 1,
                                    "test_fraction": 0, **dict.fromkeys(GATED, 0)}),
               (operator.le, "<=", {"test_fraction": 0.5}))

# Each object of the document by path: its keys' types, bounds (in the form
# of solver._BOUNDS) and choices.
_SECTIONS = {
    "<root>": ({"version": (int,), "seed": (int,), "data": _OBJECT,
                "solver": _OBJECT, "anchors": (int,), "eval": _OBJECT},
               _KEY_BOUNDS, {"version": (CONFIG_VERSION,)}),
    "data": ({"preset": (str,), "n": (int,), "d1": (int, _NULL),
              "d2": (int, _NULL), "homogeneous": (bool,),
              "test_fraction": (float,), "latent": _OBJECT},
             _KEY_BOUNDS, {}),
    "solver": ({f.name: _ANNOTATED[f.type]
                for f in dataclasses.fields(SolverConfig)}, _BOUNDS, _CHOICES),
    "eval": ({"thresholds": _OBJECT}, (), {}),
    "eval/thresholds": (dict.fromkeys(GATED, (float,)), _KEY_BOUNDS, {}),
}

DEFAULT_CONFIG = {"version": CONFIG_VERSION, "seed": 0, "solver": {"d_c": 2},
                  "data": {"preset": "thm1a", "n": 100000}, "eval": {"thresholds": {}}}


def _check_section(section: dict, where: str) -> None:
    """Check an object's keys against _SECTIONS, and its subsections."""
    types, bounds, choices = _SECTIONS[where]
    check_keys(section, where, optional=types)
    for key, value in section.items():
        at = key if where == "<root>" else f"{where}/{key}"
        check_value(value, types[key], at, key, bounds, choices)
        if at == "data/latent":
            datagen.LatentSpec.from_dict(value, at)
        elif isinstance(value, dict):
            _check_section(value, at)


def _check_version(doc) -> None:
    if not isinstance(doc, dict) or "version" not in doc:
        raise ValidationError("config is missing the mandatory 'version' field")


def validate_config(doc: dict) -> dict:
    """Return doc once every key passes its declaration; otherwise raise
    ValidationError naming the path of the first key at fault."""
    _check_version(doc)
    try:
        _check_section(doc, "<root>")
    except ValidationError as exc:
        raise ValidationError(f"config invalid at {exc}") from exc
    return doc


def merged_with_defaults(doc: dict | None) -> dict:
    """Overlay a config file's document onto the defaults, section by section.
    Only its version's presence is checked here: validate the result."""
    merged = copy.deepcopy(DEFAULT_CONFIG)
    if doc is not None:
        _check_version(doc)
        for key, value in doc.items():
            if isinstance(merged.get(key), dict):
                if not isinstance(value, dict):
                    raise ValidationError(f"config invalid at {key}: expected "
                                          f"an object, got {value!r}")
                value = {**merged[key], **value}
            merged[key] = value
    return merged
