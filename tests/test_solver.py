"""Fit entry points: mode routing, divergence, config validation, the warm
start's DEBUG log and the classifier head's predictions."""

import logging

import numpy as np
import pytest

from unisca import config, solver
from unisca.numerics import ValidationError

from conftest import small_dataset

TINY = dict(seed=1, restarts=1, warm_epochs=0, epochs=2, batch=200,
            warm_batch=200, checkpoint_rows=300, select_rows=300)


def _private_config(**overrides):
    return solver.SolverConfig(**{"d_c": 2, "mode": "with_private",
                                  "d_p1": 1, "d_p2": 1, **TINY, **overrides})


def test_fit_routes_with_private_mode_to_private_heads():
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    cfg = _private_config()
    via_fit = solver.fit(ds.x1, ds.x2, cfg)
    assert via_fit.qp1.matrix.shape == (1, ds.x1.shape[1])
    assert via_fit.qp2.matrix.shape == (1, ds.x2.shape[1])
    direct = solver.fit_with_private(ds.x1, ds.x2, cfg)
    for a, b in ((via_fit.q1, direct.q1), (via_fit.qp2, direct.qp2)):
        assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(via_fit.trace, direct.trace)


def test_private_mode_needs_private_dimensions():
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    with pytest.raises(ValidationError, match="d_p1"):
        solver.fit(ds.x1, ds.x2, _private_config(d_p2=0))
    with pytest.raises(ValidationError, match="with_private"):
        solver.fit_with_private(ds.x1, ds.x2,
                                solver.SolverConfig(d_c=2, d_p1=1, d_p2=1))


@pytest.mark.parametrize("labels", [
    lambda ds: (ds.c[:, 0] > 0).astype(float),
    lambda ds: (ds.c[:-1, 0] > 0).astype(np.int64),
    lambda ds: -np.ones(ds.x1.shape[0], dtype=np.int64),
])
def test_classifier_rejects_bad_labels(labels):
    ds = small_dataset(seed=1, n=600, preset="thm1b", homogeneous=True)
    cfg = solver.SolverConfig(d_c=2, mode="homogeneous", **TINY)
    with pytest.raises(ValidationError, match="labels"):
        solver.fit_with_classifier(ds.x1, labels(ds), ds.x2, cfg)


@pytest.mark.parametrize("mode", ["unaligned", "homogeneous"])
def test_fit_forms_each_view_covariance_once(monkeypatch, mode):
    # Homogeneous mode pools the two views' covariances; it once formed each
    # a second time to build the views after pooling.
    ds = small_dataset(seed=1, n=600, preset="thm1b", homogeneous=True)
    calls, real = [], solver.empirical_covariance
    monkeypatch.setattr(solver, "empirical_covariance",
                        lambda x, **kw: calls.append(x.shape) or real(x, **kw))
    solver.fit(ds.x1, ds.x2, solver.SolverConfig(d_c=2, mode=mode, **TINY))
    assert calls == [ds.x1.shape, ds.x2.shape]


def _blow_up(entry):
    """Run `entry` with a shared-head learning rate so large that the first
    Adam step throws the projections out of floating-point range."""
    if entry == "fit_with_classifier":
        ds = small_dataset(seed=1, n=600, preset="thm1b", homogeneous=True)
        cfg = solver.SolverConfig(d_c=2, mode="homogeneous", lr_q=1e150, **TINY)
        labels = (ds.c[:, 0] > 0).astype(np.int64)
        return solver.fit_with_classifier(ds.x1, labels, ds.x2, cfg)
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    if entry == "fit_with_private":
        return solver.fit_with_private(ds.x1, ds.x2, _private_config(lr_q=1e150))
    warm = {"restarts": 2, "warm_epochs": 2} if entry == "warm_start" else {}
    cfg = solver.SolverConfig(d_c=2, lr_q=1e150, **{**TINY, **warm})
    return solver.fit(ds.x1, ds.x2, cfg)


@pytest.mark.parametrize("entry", ["fit", "warm_start", "fit_with_private",
                                   "fit_with_classifier"])
def test_divergence_names_the_term(entry):
    with np.errstate(all="ignore"):
        with pytest.raises(solver.DivergenceError,
                           match="whitening penalty became non-finite"):
            _blow_up(entry)


@pytest.mark.parametrize("field,value", [
    ("checkpoint_every", 0), ("warm_slices", 0), ("checkpoint_rows", 1),
    ("select_rows", 3), ("batch", 1), ("restarts", 0), ("rho", -1.0),
])
def test_config_rejects_values_below_minimum(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be >="):
        solver.SolverConfig(d_c=2, **{field: value})


def _schema_bounds():
    """(field, value just past the bound, value at or inside it) for every
    numeric bound the config schema puts on a solver field."""
    cases = []
    for name, spec in config._SOLVER_SCHEMA["properties"].items():
        wrap = (lambda v: (v,)) if "items" in spec else (lambda v: v)
        spec = spec.get("items", spec)
        step = 1 if spec.get("type") == "integer" else 1e-6
        for keyword, past, inside in (("minimum", -step, 0),
                                      ("exclusiveMinimum", 0, step),
                                      ("maximum", step, 0)):
            if keyword in spec:
                bound = spec[keyword]
                cases.append(pytest.param(
                    name, wrap(bound + past), wrap(bound + inside),
                    id=f"{name}-{keyword}"))
    return cases


@pytest.mark.parametrize("field,past,inside", _schema_bounds())
def test_config_holds_every_schema_bound(field, past, inside):
    solver.SolverConfig(**{"d_c": 2, field: inside})
    with pytest.raises(ValidationError, match=f"{field} must be"):
        solver.SolverConfig(**{"d_c": 2, field: past})


def test_default_solver_config_passes_the_derived_schema():
    doc = {"version": 1, "solver": solver.SolverConfig(d_c=2).to_dict()}
    assert config.validate_config(doc) is doc


@pytest.mark.parametrize("key,value", [
    ("output", "runs/a"), ("retrieval", {"ks": [1, 5], "k_csls": 10})])
def test_config_rejects_keys_nothing_reads(key, value):
    with pytest.raises(ValidationError, match="Additional properties"):
        config.validate_config({"version": 1, key: value})


def test_warm_start_logs_restart_scores_at_debug(caplog):
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    cfg = solver.SolverConfig(d_c=ds.d_c, **{**TINY, "restarts": 3,
                                             "warm_epochs": 1})
    with caplog.at_level(logging.INFO, logger="unisca"):
        quiet = solver.fit(ds.x1, ds.x2, cfg)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="unisca"):
        loud = solver.fit(ds.x1, ds.x2, cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "unisca" and r.levelno == logging.DEBUG]
    for restart in range(3):
        assert any(m.startswith(f"warm start restart {restart}: score ")
                   for m in lines)
    assert sum(m.startswith("warm start chose restart ") for m in lines) == 1
    assert np.array_equal(quiet.q1.matrix, loud.q1.matrix)
    assert np.array_equal(quiet.q2.matrix, loud.q2.matrix)
    assert np.array_equal(quiet.trace, loud.trace)
    assert quiet.checkpoints == loud.checkpoints


def test_classify_applies_the_head_and_survives_a_round_trip(tmp_path):
    ds = small_dataset(seed=1, n=600, preset="thm1b", homogeneous=True)
    labels = (ds.c[:, 0] > 0).astype(np.int64)
    cfg = solver.SolverConfig(d_c=ds.d_c, mode="homogeneous", **TINY)
    result = solver.fit_with_classifier(ds.x1, labels, ds.x2, cfg)
    w, b = result.classifier
    predicted = solver.classify(result, ds.x1)
    assert np.issubdtype(predicted.dtype, np.integer)
    assert np.array_equal(
        predicted, np.argmax(result.q1.apply(ds.x1) @ w.T + b, axis=1))
    solver.save_model(result, str(tmp_path))
    loaded = solver.load_model(str(tmp_path))
    assert np.array_equal(solver.classify(loaded, ds.x1), predicted)
    assert loaded.trace.tobytes() == result.trace.tobytes()


def test_classify_needs_a_classifier_head():
    ds = small_dataset(seed=1, n=600, preset="thm1b", homogeneous=True)
    cfg = solver.SolverConfig(d_c=ds.d_c, mode="homogeneous", **TINY)
    result = solver.fit(ds.x1, ds.x2, cfg)
    with pytest.raises(ValidationError, match="classifier"):
        solver.classify(result, ds.x1)
