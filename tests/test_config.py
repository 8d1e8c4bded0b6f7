"""What a config document may hold: one fault per document, each rejected
with `config invalid at <path>` naming the key at fault."""

import copy

import numpy as np
import pytest

from unisca import config
from unisca.numerics import ValidationError
from unisca.solver import SolverConfig

_NORMAL = {"kind": "normal", "params": [0.0, 1.0]}
_MIXTURE = {"kind": "mixture", "params": [[0.5, -1.0, 0.5], [0.5, 1.0, 0.5]]}


def _doc(**sections) -> dict:
    return {"version": 1, **sections}


def _latent(**parts) -> dict:
    return _doc(data={"n": 600, "latent": parts})


# Minimums of the solver settings: (field, bound). Each bound is checked at
# the bound and one below it.
_SOLVER_BOUNDS = [
    ("d_c", 1), ("batch", 2), ("epochs", 1), ("restarts", 1),
    ("warm_epochs", 0), ("warm_batch", 2), ("checkpoint_every", 1),
    ("checkpoint_rows", 4), ("select_rows", 4), ("d_p1", 0), ("d_p2", 0),
    ("disc_hidden", 1),
]


def _solver_value(field, value):
    """A solver document setting `field` to `value`, and the path a fault in
    it is named by (a list field is checked item by item)."""
    if field == "disc_hidden":
        return _doc(solver={"d_c": 2, field: [value]}), f"solver/{field}/0"
    return _doc(solver={"d_c": 2, field: value}), f"solver/{field}"


def _bound_cases():
    """(document, path, accepted) at and one below every solver bound."""
    for field, bound in _SOLVER_BOUNDS:
        for label, value in (("at", bound), ("past", bound - 1)):
            doc, path = _solver_value(field, value)
            yield pytest.param(doc, path, label == "at",
                               id=f"{field}-minimum-{label}")


_REJECTED = [
    # root
    pytest.param(_doc(output="runs/a"), "<root>", id="root-unknown-key"),
    pytest.param({"version": 2}, "version", id="version-2"),
    pytest.param(_doc(seed="0"), "seed", id="seed-string"),
    pytest.param(_doc(anchors=-1), "anchors", id="anchors-negative"),
    pytest.param(_doc(data=[]), "data", id="data-not-an-object"),
    # data
    pytest.param(_doc(data={"n": 1}), "data/n", id="n-1"),
    pytest.param(_doc(data={"n": True}), "data/n", id="n-true"),
    pytest.param(_doc(data={"d1": 0}), "data/d1", id="d1-0"),
    pytest.param(_doc(data={"test_fraction": 0.6}), "data/test_fraction",
                 id="test_fraction-0.6"),
    # A bool is no number: read as one, False would pass as 0.
    pytest.param(_doc(data={"test_fraction": False}), "data/test_fraction",
                 id="test_fraction-false"),
    pytest.param(_doc(data={"test_fraction": "0.1"}), "data/test_fraction",
                 id="test_fraction-string"),
    pytest.param(_doc(data={"homogeneous": "yes"}), "data/homogeneous",
                 id="homogeneous-string"),
    pytest.param(_doc(data={"size": 3}), "data", id="data-unknown-key"),
    pytest.param(_doc(data={"shuffle": False}), "data", id="data-shuffle"),
    # data/latent
    pytest.param(_latent(private1=[_NORMAL]), "data/latent",
                 id="latent-missing-shared"),
    pytest.param(_latent(shared=[_NORMAL], private3=[_NORMAL]), "data/latent",
                 id="latent-unknown-key"),
    pytest.param(_latent(shared=[{"kind": "normal"}]),
                 "data/latent/shared/0", id="distribution-missing-params"),
    pytest.param(_latent(shared=[{**_NORMAL, "scale": 2}]),
                 "data/latent/shared/0", id="distribution-extra-key"),
    pytest.param(_latent(shared=[_NORMAL], private2=[{"params": [0, 1]}]),
                 "data/latent/private2/0", id="private-distribution-no-kind"),
    # eval
    pytest.param(_doc(eval={"gate": {}}), "eval", id="eval-unknown-key"),
    pytest.param(_doc(eval={"thresholds": {"accuracy": 0.5}}),
                 "eval/thresholds", id="threshold-unknown"),
    pytest.param(_doc(eval={"thresholds": {"leakage": -0.1}}),
                 "eval/thresholds/leakage", id="threshold-negative"),
    # Null is no number.
    pytest.param(_doc(eval={"thresholds": {"leakage": None}}),
                 "eval/thresholds/leakage", id="threshold-null"),
    # solver
    pytest.param(_doc(solver={"d_c": 2, "gamma": 0.1}), "solver",
                 id="solver-unknown-key"),
    pytest.param(_doc(solver={"d_c": 2, "mode": "paired"}), "solver/mode",
                 id="mode-unknown"),
    pytest.param(_doc(solver={"d_c": 2, "matcher": "wasserstein"}),
                 "solver/matcher", id="matcher-unknown"),
    pytest.param(_doc(solver={"d_c": "2"}), "solver/d_c", id="d_c-string"),
]

# Documents that once passed the check and then crashed the command with a
# traceback: an integer key set to a float, or marginal parameters that are
# not numbers.
CRASHED = [
    pytest.param(_doc(data={"n": 2.0}), "data/n", id="n-float"),
    pytest.param(_doc(solver={"d_c": 2.0}), "solver/d_c", id="d_c-float"),
    pytest.param(_doc(solver={"d_c": 2, "batch": 200.0}), "solver/batch",
                 id="batch-float"),
    pytest.param(_latent(shared=[{"kind": "mixture",
                                  "params": [[1.0, 0.0]]}]),
                 "data/latent/shared/0/params", id="mixture-short-component"),
    pytest.param(_latent(shared=[{"kind": "normal", "params": ["a", "b"]}]),
                 "data/latent/shared/0/params", id="params-strings"),
    pytest.param(_latent(shared=[{"kind": "normal", "params": [0, None]}]),
                 "data/latent/shared/0/params", id="params-null"),
]

_REJECTED += CRASHED + [
    pytest.param(_doc(seed=True), "seed", id="seed-true"),
    pytest.param(_doc(solver={"d_c": True}), "solver/d_c", id="d_c-true"),
    pytest.param(_doc(solver={"d_c": 2, "disc_hidden": [8.0]}),
                 "solver/disc_hidden/0", id="disc_hidden-float"),
    pytest.param(_latent(shared=[{"kind": "mixture",
                                  "params": [[float("nan"), 0.0, 1.0]]}]),
                 "data/latent/shared/0/params", id="mixture-nan-weight"),
    pytest.param(_latent(shared=[{"kind": "normal", "params": [0, True]}]),
                 "data/latent/shared/0/params", id="params-true"),
    pytest.param(_latent(shared=[{"kind": 1, "params": [0, 1]}]),
                 "data/latent/shared/0/kind", id="kind-number"),
    pytest.param(_latent(shared=[{"kind": "normal", "params": [0, -1]}]),
                 "data/latent/shared/0/params", id="normal-negative-sigma"),
    pytest.param(_latent(shared=[{"kind": "cauchy", "params": [0, 1]}]),
                 "data/latent/shared/0/kind", id="kind-unknown"),
    pytest.param(_latent(shared=[]), "data/latent/shared", id="shared-empty"),
    pytest.param(_latent(shared=[_NORMAL], private1=_NORMAL),
                 "data/latent/private1", id="private1-not-an-array"),
]


def _rejects(doc, path):
    with pytest.raises(ValidationError) as info:
        config.validate_config(doc)
    assert str(info.value).startswith(f"config invalid at {path}: ")


@pytest.mark.parametrize("doc,path", _REJECTED)
def test_config_names_the_key_at_fault(doc, path):
    _rejects(doc, path)


@pytest.mark.parametrize("doc,path,accepted", _bound_cases())
def test_solver_bounds_are_checked_at_and_past_the_bound(doc, path, accepted):
    if accepted:
        assert config.validate_config(doc) is doc
    else:
        _rejects(doc, path)


def test_a_numpy_float64_is_a_number_and_a_float32_is_not():
    # np.float64 subclasses float; JSON never yields another numpy float.
    doc = _doc(eval={"thresholds": {"leakage": np.float64(0.5)}})
    assert config.validate_config(doc) is doc
    with pytest.raises(ValidationError, match=(
            "^config invalid at eval/thresholds/leakage: expected a number, "
            "got ")):
        config.validate_config(
            _doc(eval={"thresholds": {"leakage": np.float32(0.5)}}))


def test_config_without_version_is_rejected():
    with pytest.raises(ValidationError, match="mandatory 'version' field"):
        config.validate_config({"seed": 0})


@pytest.mark.parametrize("key,value", [
    ("output", "runs/a"), ("retrieval", {"ks": [1, 5], "k_csls": 10})])
def test_config_rejects_keys_nothing_reads(key, value):
    with pytest.raises(ValidationError) as info:
        config.validate_config({"version": 1, key: value})
    assert str(info.value).startswith("config invalid at <root>: ")
    assert key in str(info.value)


_TINY_SOLVER = {"d_c": 2, "epochs": 1, "restarts": 1, "warm_epochs": 0,
                "batch": 200, "checkpoint_rows": 300, "select_rows": 300}

_ACCEPTED = [
    pytest.param(config.DEFAULT_CONFIG, id="defaults"),
    pytest.param(_doc(), id="version-only"),
    # The documents tests/test_cli.py writes.
    pytest.param(_doc(seed=3, data={"preset": "private-appxG", "n": 600},
                      solver={**_TINY_SOLVER, "mode": "with_private"}),
                 id="cli-private"),
    pytest.param(_doc(seed=3, data={"preset": "thm1a", "n": 600},
                      solver=_TINY_SOLVER, eval={"thresholds": {}}),
                 id="cli-unaligned"),
    pytest.param(_doc(seed=3, data={"preset": "thm1a", "n": 600},
                      solver=_TINY_SOLVER,
                      eval={"thresholds": {"whitening_residual": 0.0}}),
                 id="cli-whitening-threshold"),
    pytest.param(_doc(seed=3, data={"preset": "thm1a", "n": 600},
                      solver=_TINY_SOLVER,
                      eval={"thresholds": {"leakage": 1.0}}),
                 id="cli-leakage-threshold"),
    pytest.param(_doc(seed=0, solver={**_TINY_SOLVER, "batch": 5,
                                      "checkpoint_rows": 5,
                                      "select_rows": 5}),
                 id="cli-word-vectors"),
    pytest.param(_doc(seed=3, data={"preset": "thm1a", "n": 600, "d1": 5,
                                    "d2": 5}), id="cli-wide"),
    # Every key at an accepted value.
    pytest.param(_doc(seed=1, anchors=0,
                      data={"preset": "thm1b", "n": 2, "d1": None, "d2": 4,
                            "homogeneous": True, "test_fraction": 0,
                            "latent": {"shared": [_NORMAL, _MIXTURE],
                                       "private1": [], "private2": [_NORMAL]}},
                      solver={"d_c": 2, "mode": "weakly_supervised",
                              "matcher": "adversarial",
                              "disc_hidden": [8, 8]},
                      eval={"thresholds": {"leakage": 0, "theta_rel_diff": 1,
                                           "pair_match_error": 0.5,
                                           "whitening_residual": 2.0}}),
                 id="every-key"),
]


@pytest.mark.parametrize("doc", _ACCEPTED)
def test_config_accepts(doc):
    before = copy.deepcopy(doc)
    assert config.validate_config(doc) is doc
    assert doc == before


# Solver faults, each read by SolverConfig and by the config check: the
# config names the path and then gives the constructor's own message.
_SOLVER_FAULTS = [
    pytest.param({"d_c": 2.0}, id="integer-float"),
    pytest.param({"batch": "200"}, id="integer-string"),
    pytest.param({"mode": 3}, id="string-number"),
    pytest.param({"disc_hidden": 5}, id="array-number"),
    pytest.param({"d_c": 0}, id="minimum"),
    pytest.param({"mode": "paired"}, id="mode-unknown"),
    pytest.param({"matcher": "wasserstein"}, id="matcher-unknown"),
    pytest.param({"disc_hidden": [8, 8.5]}, id="disc_hidden-item-float"),
    pytest.param({"disc_hidden": [8, 0]}, id="disc_hidden-item-minimum"),
]


@pytest.mark.parametrize("fault", _SOLVER_FAULTS)
def test_solver_faults_read_the_same_from_python_and_json(fault):
    section = {"d_c": 2, **fault}
    with pytest.raises(ValidationError) as direct:
        SolverConfig(**section)
    assert str(direct.value).startswith(next(iter(fault)))
    with pytest.raises(ValidationError) as via_config:
        config.validate_config(_doc(solver=section))
    assert str(via_config.value) == f"config invalid at solver/{direct.value}"
