"""Fit entry points: mode routing, divergence, bad input, config validation,
the warm start's quantile matcher and DEBUG log, and the model directory's
save/load round trip."""

import dataclasses
import json
import logging
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from unisca import config, numerics, solver
from unisca.numerics import ValidationError, substream

from conftest import rewrite_archive, small_dataset

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


@pytest.mark.parametrize("batch,rows1", [(2, 600), (3, 600), (200, 3)])
def test_private_mode_needs_four_rows_a_step_before_any_work(
        monkeypatch, batch, rows1):
    # HSIC's batches and checkpoints take min(batch, n1, n2) rows, and HSIC
    # needs 4: the fit stops before its warm start, naming the batch and
    # both views' row counts.
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    x1 = ds.x1[:rows1] - ds.x1[:rows1].mean(axis=0)
    steps = []
    monkeypatch.setattr(solver, "_train",
                        lambda *a, **k: steps.append(a))
    cfg = _private_config(batch=batch, restarts=2, warm_epochs=3)
    with pytest.raises(ValidationError, match=(
            rf"^with_private's HSIC needs 4 rows a step; got batch {batch}, "
            rf"{rows1} rows in X1, 600 in X2$")):
        solver.fit(x1, ds.x2, cfg)
    assert steps == []


def test_private_checkpoints_form_no_hsic_gradients(monkeypatch):
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    calls, real = [], solver.hsic_biased
    monkeypatch.setattr(solver, "hsic_biased", lambda u, *a, grad=True:
                        calls.append((u.shape[0], grad)) or real(u, *a, grad=grad))
    cfg = _private_config()
    solver.fit(ds.x1, ds.x2, cfg)
    # 3 batches of 200 rows an epoch, 2 views; checkpoints at epochs 0 and 2.
    steps = [(200, True)] * (2 * 3 * cfg.epochs)
    assert sorted(calls) == sorted(steps + [(300, False)] * 4)


@pytest.mark.parametrize("mode", ["unaligned", "homogeneous"])
def test_fit_forms_each_view_covariance_once(monkeypatch, mode):
    # Homogeneous mode pools the two views' covariances; it once formed each
    # a second time to build the views after pooling.
    ds = small_dataset(seed=1, n=600, preset="thm1b", homogeneous=True)
    calls = []

    class View(solver._View):
        def __init__(self, x, name):
            calls.append(x.shape)
            super().__init__(x, name)
    monkeypatch.setattr(solver, "_View", View)
    solver.fit(ds.x1, ds.x2, solver.SolverConfig(d_c=2, mode=mode, **TINY))
    assert calls == [ds.x1.shape, ds.x2.shape]


def test_an_mmd_fit_never_holds_the_distance_triangle():
    # The bandwidths' median over a 2000-point pool: holding its 15.3 MiB of
    # squared distances made the fit's peak 18.5-18.9 MiB; counting them by
    # bucket over two passes of strips left a peak of 3.4 MiB.
    ds = small_dataset(seed=1, n=3000, preset="thm1a")
    cfg = solver.SolverConfig(d_c=ds.d_c, seed=1, restarts=1, epochs=1)
    tracemalloc.start()
    try:
        solver.fit(ds.x1, ds.x2, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def _bad_input(case):
    """(x1, x2, config) for one input fault of a tiny thm1a fit (3 columns
    per view, d_c=2)."""
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    x1, x2, cfg = ds.x1.copy(), ds.x2.copy(), dict(d_c=2, **TINY)
    if case == "nan":
        x1[3, 1] = np.nan
    elif case == "inf":
        x2[3, 1] = np.inf
    elif case == "uncentred":
        x1 += 1.0
    elif case == "constant-column-uncentred":
        x1[:, 2] = 5.0
    elif case == "d_c-above-rank":
        x1 = x1[:, :1] * np.array([1.0, -2.0, 0.5])
    elif case == "d_c-above-dimension":
        cfg["d_c"] = 4
    elif case.startswith("n-"):
        n = int(case[2:])
        x1, x2 = x1[:n] - x1[:n].mean(axis=0), x2[:n] - x2[:n].mean(axis=0)
    elif case == "x2-n-1":
        x2 = x2[:1] - x2[:1].mean(axis=0)
    elif case == "homogeneous-unequal-dimensions":
        x2, cfg["mode"] = x2[:, :2] - x2[:, :2].mean(axis=0), "homogeneous"
    return x1, x2, solver.SolverConfig(**cfg)


@pytest.mark.parametrize("case,fault", [
    ("nan", "X1 contains NaN or Inf entries"),
    ("inf", "X2 contains NaN or Inf entries"),
    ("uncentred", "X1 is not centered (column mean too large)"),
    ("constant-column-uncentred", "X1 is not centered (column mean too large)"),
    ("d_c-above-rank", "Q1: covariance rank 1 < required 2"),
    ("d_c-above-dimension", "Q1: covariance rank 3 < required 4"),
    ("n-1", "X1: covariance needs at least 2 rows, got 1"),
    ("x2-n-1", "X2: covariance needs at least 2 rows, got 1"),
    ("n-2", "Q1: covariance rank 1 < required 2"),
    ("homogeneous-unequal-dimensions",
     "homogeneous mode requires equal data dimensions"),
])
def test_fit_rejects_bad_input_naming_the_cause(case, fault):
    x1, x2, cfg = _bad_input(case)
    with pytest.raises(ValidationError, match=f"^{re.escape(fault)}$"):
        solver.fit(x1, x2, cfg)


@pytest.mark.parametrize("mode", ["unaligned", "homogeneous", "with_private"])
def test_fit_refuses_anchors_outside_weak_supervision(mode):
    # They were once applied as an anchor penalty in any mode, while the
    # saved config still named a mode without one.
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    cfg = solver.SolverConfig(d_c=2, mode=mode, d_p1=1, d_p2=1, **TINY)
    anchors = solver.AnchorSet(np.array([[0, 0], [1, 1], [2, 2]]))
    with pytest.raises(ValidationError, match=f"^{mode} mode takes no anchors"):
        solver.fit(ds.x1, ds.x2, cfg, anchors=anchors)


def test_fit_with_a_duplicated_column_whitens_the_retained_rank():
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    x1 = np.hstack([ds.x1, ds.x1[:, :1]])
    view = solver._prepare_views(x1, ds.x2, False)[0]
    assert view.w.shape == (3, 4)
    result = solver.fit(x1, ds.x2, solver.SolverConfig(d_c=2, **TINY))
    q1 = result.q1.matrix
    assert q1.shape == (2, 4) and np.isfinite(q1).all()
    # The two equal columns' difference has no variance, so the truncated
    # whitening, and with it Q1, gives it no weight.
    null = np.array([1.0, 0.0, 0.0, -1.0])
    assert np.linalg.norm(q1 @ null) <= 1e-10 * np.linalg.norm(q1)
    assert np.isfinite(result.trace).all()


def test_fit_with_a_centred_constant_column_drops_it():
    # Centring a constant column, as `fit --emb1/--emb2` centres its files,
    # leaves a round-off mean with std 0, once refused as not centred.
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    x1 = ds.x1.copy()
    x1[:, 2] = 7.7
    x1 -= x1.mean(axis=0)
    assert x1[:, 2].mean() != 0.0 and x1[:, 2].std() == 0.0
    view = solver._prepare_views(x1, ds.x2, False)[0]
    assert view.w.shape == (2, 3)
    result = solver.fit(x1, ds.x2, solver.SolverConfig(d_c=2, **TINY))
    q1 = result.q1.matrix
    assert np.isfinite(q1).all() and np.isfinite(result.trace).all()
    assert np.max(np.abs(q1[:, 2])) <= 1e-10 * np.linalg.norm(q1)


def test_every_mmd_call_takes_float32_views(monkeypatch):
    # The MMD's strips compute in its inputs' dtype: a fit rounds the views
    # of its training steps (200 rows here), checkpoints (300) and restart
    # scores (400, two-scale) to float32. The bandwidth stays the one
    # KernelSpec.resolve finds on the float64 probe projections.
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    cfg = solver.SolverConfig(d_c=2, **{**TINY, "restarts": 2,
                                        "warm_epochs": 1, "select_rows": 400})
    calls, resolved = [], []
    mmd, resolve = solver.mmd2_unbiased, solver.KernelSpec.resolve

    def recording_mmd(x, y, kernel, grad=True):
        calls.append((x.dtype, y.dtype, x.shape[0], kernel, grad))
        return mmd(x, y, kernel, grad)

    def recording_resolve(*sets):
        resolved.append(([a.dtype for a in sets], resolve(*sets)))
        return resolved[-1][1]
    monkeypatch.setattr(solver, "mmd2_unbiased", recording_mmd)
    monkeypatch.setattr(solver.KernelSpec, "resolve",
                        staticmethod(recording_resolve))
    solver.fit(ds.x1, ds.x2, cfg)

    phases = {(200, True, False): "step", (300, False, False): "checkpoint",
              (400, False, True): "score"}
    seen = {phases[rows, grad, k.two_scale] for _, _, rows, k, grad in calls}
    assert seen == {"step", "checkpoint", "score"}
    assert {(dx, dy) for dx, dy, *_ in calls} == {
        (np.dtype(np.float32), np.dtype(np.float32))}
    [(dtypes, kernel)] = resolved
    assert dtypes == [np.dtype(np.float64)] * 2
    assert {k.bandwidth for *_, k, _ in calls} == {kernel.bandwidth}
    # The probes as fit draws them: the whitening block, without noise.
    v1, v2, _ = solver._prepare_views(ds.x1, ds.x2, False)
    init = substream(cfg.seed, "solver", "init")
    p1, p2 = (solver._block_init(v.rank, slice(0, 2), 0.0, init, "Q")
              for v in (v1, v2))
    want = resolve(v1.z[:1000] @ p1.T, v2.z[:1000] @ p2.T)
    assert np.float64(kernel.bandwidth).tobytes() == \
        np.float64(want.bandwidth).tobytes()


def test_every_hsic_call_takes_float32_views(monkeypatch):
    # HSIC's strips compute in its inputs' dtype: a fit rounds both views
    # of its training steps (200 rows here) and checkpoints (300) to
    # float32. Its four bandwidths stay the ones KernelSpec.resolve finds
    # on the float64 projections of the heads the term starts from.
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    calls, resolved, starts = [], [], []
    hsic, resolve, term = (solver.hsic_biased, solver.KernelSpec.resolve,
                           solver._hsic_term)

    def recording_hsic(u, v, ku, kv, grad=True):
        calls.append((u.dtype, v.dtype, u.shape[0], grad, ku, kv))
        return hsic(u, v, ku, kv, grad=grad)

    def recording_resolve(*sets):
        resolved.append(([a.dtype for a in sets], resolve(*sets)))
        return resolved[-1][1]

    def recording_term(p0, v1, v2):
        starts.append({k: a.copy() for k, a in p0.items()})
        return term(p0, v1, v2)
    monkeypatch.setattr(solver, "hsic_biased", recording_hsic)
    monkeypatch.setattr(solver.KernelSpec, "resolve",
                        staticmethod(recording_resolve))
    monkeypatch.setattr(solver, "_hsic_term", recording_term)
    solver.fit(ds.x1, ds.x2, _private_config())

    assert {(rows, grad) for _, _, rows, grad, *_ in calls} == {
        (200, True), (300, False)}
    assert {(du, dv) for du, dv, *_ in calls} == {
        (np.dtype(np.float32), np.dtype(np.float32))}
    # The four HSIC kernels, each resolved on one float64 projection, then
    # the matcher's MMD kernel on two, at its first read.
    assert [d for d, _ in resolved] == [[np.dtype(np.float64)]] * 4 + [
        [np.dtype(np.float64)] * 2]
    kernels = [k for _, k in resolved[:4]]
    assert {(ku, kv) for *_, ku, kv in calls} == {
        (kernels[0], kernels[1]), (kernels[2], kernels[3])}
    v1, v2, _ = solver._prepare_views(ds.x1, ds.x2, False)
    [p0] = starts
    for got, (v, slot) in zip(kernels, ((v1, "q1"), (v1, "qp1"),
                                        (v2, "q2"), (v2, "qp2"))):
        want = resolve(v.z[:1000] @ p0[slot].T)
        assert np.float64(got.bandwidth).tobytes() == \
            np.float64(want.bandwidth).tobytes()


def test_views_past_float32_range_stay_float64():
    # Only a diverging fit's views pass 3.4e38; kept float64, the MMD stays
    # finite and the whitening term names the divergence.
    u, v = np.ones((3, 2)), np.full((3, 2), 1e39)
    assert all(a.dtype == np.float32 for a in solver._float32(u, -u))
    got = solver._float32(u, v)
    assert got[0] is u and got[1] is v


def _blow_up(entry, monkeypatch):
    """Run `entry` with a shared-head learning rate so large that the first
    Adam step throws the projections out of floating-point range."""
    monkeypatch.setattr(solver, "_LR_Q", 1e150)
    ds = small_dataset(seed=1, n=600, preset="private-appxG")
    if entry == "fit_with_private":
        return solver.fit_with_private(ds.x1, ds.x2, _private_config())
    warm = {"restarts": 2, "warm_epochs": 2} if entry == "warm_start" else {}
    cfg = solver.SolverConfig(d_c=2, **{**TINY, **warm})
    return solver.fit(ds.x1, ds.x2, cfg)


@pytest.mark.parametrize("entry", ["fit", "warm_start", "fit_with_private"])
def test_divergence_names_the_term(entry, monkeypatch):
    # The caller's np.errstate holds in the warm start's worker threads
    # too, so no overflow warning leaks from a restart run side by side.
    with np.errstate(all="ignore"), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(solver.DivergenceError,
                           match="whitening penalty became non-finite"):
            _blow_up(entry, monkeypatch)
    assert not caught


@pytest.mark.parametrize("entry,term", [
    ("fit", "whitening penalty"), ("warm_start", "whitening penalty"),
    ("fit_with_private", "private whitening penalty")])
def test_finite_blow_up_names_the_term_and_epoch(entry, term, monkeypatch):
    # At a step size of 100 the objective climbs from 4e-3 at epoch 0's
    # checkpoint to about 1e8 while staying finite; without a bound the fit
    # returned. Fits at the solver's step sizes keep each whitening penalty
    # below 1. Each phase numbers its epochs from 0, so only the phase tells
    # the first two apart.
    if entry == "fit_with_private":
        monkeypatch.setattr(solver, "_LR_P", 100.0)
        ds = small_dataset(seed=1, n=600, preset="private-appxG")
        cfg = _private_config(epochs=20)
    else:
        monkeypatch.setattr(solver, "_LR_Q", 100.0)
        ds = small_dataset(seed=1, n=600, preset="thm1a")
        warm = {"restarts": 2, "warm_epochs": 2} if entry == "warm_start" else {}
        cfg = solver.SolverConfig(d_c=ds.d_c,
                                  **{**TINY, "epochs": 20, **warm})
    phase = "warm-start restart 0" if entry == "warm_start" else "training"
    with pytest.raises(solver.DivergenceError,
                       match=rf"^{term} reached .*, above its bound .*, "
                             rf"at epoch 0 of {phase}$"):
        solver.fit(ds.x1, ds.x2, cfg)


def test_warm_start_raises_the_lowest_failing_restart(monkeypatch):
    # Restart 1 starts from NaN and fails at its first step; restart 0 blows
    # up a few steps in. Side by side restart 1 fails first, yet the error
    # is restart 0's, as when they run one after the other.
    monkeypatch.setattr(numerics, "usable_cores", lambda: 2)
    monkeypatch.setattr(solver, "_LR_Q", 100.0)
    monkeypatch.setattr(solver, "_haar_init",
                        lambda rank, k, rng: np.full((k, rank), np.nan))
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    cfg = solver.SolverConfig(d_c=ds.d_c, **{**TINY, "restarts": 2,
                                             "warm_epochs": 2})
    with pytest.raises(solver.DivergenceError,
                       match=r"^whitening penalty reached .* at epoch 0 of "
                             r"warm-start restart 0$"):
        solver.fit(ds.x1, ds.x2, cfg)


@pytest.mark.parametrize("field,value", [
    ("checkpoint_every", 0), ("warm_batch", 1), ("checkpoint_rows", 1),
    ("select_rows", 3), ("batch", 1), ("restarts", 0),
])
def test_config_rejects_values_below_minimum(field, value):
    with pytest.raises(ValidationError,
                       match=rf"^{field}: {value!r} is not >= \d"):
        solver.SolverConfig(d_c=2, **{field: value})


# The JSON-Schema keyword each comparison of solver._BOUNDS stands for, kept
# as the case ids.
_KEYWORDS = {">=": "minimum"}


def _bounds():
    """(field, value one below the bound, value at it, the fault the value
    below reads) for every bound solver._BOUNDS puts on a field (on the items
    of a tuple field, named by the item's index)."""
    types = {f.name: f.type for f in dataclasses.fields(solver.SolverConfig)}
    cases = []
    for _, symbol, bounds in solver._BOUNDS:
        for name, bound in bounds.items():
            wrap = (lambda v: (v,)) if types[name] == "tuple" else (lambda v: v)
            where = f"{name}/0" if types[name] == "tuple" else name
            cases.append(pytest.param(
                name, wrap(bound - 1), wrap(bound),
                f"{where}: {bound - 1!r} is not {symbol} {bound}",
                id=f"{name}-{_KEYWORDS[symbol]}"))
    return cases


@pytest.mark.parametrize("field,past,inside,fault", _bounds())
def test_config_holds_every_schema_bound(field, past, inside, fault):
    solver.SolverConfig(**{"d_c": 2, field: inside})
    with pytest.raises(ValidationError, match=f"^{re.escape(fault)}$"):
        solver.SolverConfig(**{"d_c": 2, field: past})


def test_default_solver_config_passes_the_config_check():
    doc = {"version": 1, "solver": solver.SolverConfig(d_c=2).to_dict()}
    assert config.validate_config(doc) is doc


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


def _quantile_match_per_slice(u, v, directions):
    """quantile_match written one slice at a time, with its own sorts and
    outer-product gradient updates."""
    b, k = u.shape[0], directions.shape[0]
    a1, a2 = u @ directions.T, v @ directions.T
    grad_u, grad_v, value = np.zeros_like(u), np.zeros_like(v), 0.0
    for i in range(k):
        o1 = np.argsort(a1[:, i], kind="stable")
        o2 = np.argsort(a2[:, i], kind="stable")
        gap = a1[o1, i] - a2[o2, i]
        value += float(gap @ gap) / b
        du, dv = np.zeros(b), np.zeros(b)
        du[o1] = 2.0 * gap / b
        dv[o2] = -2.0 * gap / b
        grad_u += np.outer(du, directions[i])
        grad_v += np.outer(dv, directions[i])
    return value / k, grad_u / k, grad_v / k


@pytest.mark.parametrize("b", [2, 3, 400, 1000])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 24])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_quantile_match_agrees_with_per_slice_loop(b, d, k, ties):
    rng = substream(b * 100 + d * 10 + k, "tests", "quantile")
    u = rng.normal(size=(b, d))
    v = 1.5 * rng.normal(size=(b, d)) + 0.3
    if ties:  # repeated rows tie on every slice; the stable order breaks them
        u = u[rng.integers(0, max(1, b // 3), size=b)]
        v = v[rng.integers(0, max(1, b // 3), size=b)]
    dirs = rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    value, gu, gv = solver.quantile_match(u, v, dirs)
    want, wu, wv = _quantile_match_per_slice(u, v, dirs)
    assert abs(value - want) <= 1e-12 * abs(want)
    for got, ref in ((gu, wu), (gv, wv)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _quantile_match_stable(u, v, directions):
    """quantile_match as it was written with one stable argsort per set and
    take_along_axis / put_along_axis for the gather and the scatter."""
    b, k = u.shape[0], directions.shape[0]
    a1, a2 = u @ directions.T, v @ directions.T
    o1 = np.argsort(a1, axis=0, kind="stable")
    o2 = np.argsort(a2, axis=0, kind="stable")
    gap = np.take_along_axis(a1, o1, 0) - np.take_along_axis(a2, o2, 0)
    du, dv = np.empty_like(gap), np.empty_like(gap)
    np.put_along_axis(du, o1, 2.0 * gap / b, 0)
    np.put_along_axis(dv, o2, -2.0 * gap / b, 0)
    value = float(np.sum(gap * gap)) / b
    return value / k, du @ directions / k, dv @ directions / k


@pytest.mark.parametrize("b", [2, 3, 1000])
@pytest.mark.parametrize("ties", ["distinct", "u", "both"])
def test_quantile_match_is_byte_identical_to_the_stable_sort(b, ties):
    # Repeated rows tie on every slice, so only the stable order is right
    # for them; without ties the default-kind sort's order is the same.
    rng = substream(b, "tests", f"quantile-stable-{ties}")
    u, v = rng.normal(size=(b, 3)), rng.normal(size=(b, 3)) + 0.2
    if ties != "distinct":
        u = u[rng.integers(0, max(1, b // 3), size=b)]
    if ties == "both":
        v = v[rng.integers(0, max(1, b // 3), size=b)]
    dirs = rng.normal(size=(24, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    value, gu, gv = solver.quantile_match(u, v, dirs)
    want, wu, wv = _quantile_match_stable(u, v, dirs)
    assert value == want
    assert np.array_equal(gu, wu) and np.array_equal(gv, wv)


@pytest.mark.parametrize("value,accepted", [
    (2.0, False), (True, False), (np.int64(2), True), ("2", False)])
def test_config_integer_fields_take_integers_only(value, accepted):
    for name in ("d_c", "batch"):
        if not accepted:
            with pytest.raises(ValidationError,
                               match=f"^{name}: expected an integer, got "):
                solver.SolverConfig(**{"d_c": 2, name: value})
            continue
        cfg = solver.SolverConfig(**{"d_c": 2, name: value})
        assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 2


@pytest.mark.parametrize("field,value", [("disc_hidden", 5)])
def test_config_rejects_a_field_of_the_wrong_type(field, value):
    # A wrong type once escaped as a bare TypeError or was accepted.
    with pytest.raises(ValidationError,
                       match=f"^{field}: expected an array, got "):
        solver.SolverConfig(**{"d_c": 2, field: value})


def test_config_disc_hidden_takes_integers_only():
    assert solver.SolverConfig(d_c=2, disc_hidden=(np.int64(8),)).disc_hidden == (8,)
    with pytest.raises(ValidationError,
                       match=r"^disc_hidden/0: expected an integer, got 8\.5$"):
        solver.SolverConfig(d_c=2, disc_hidden=(8.5,))


def test_quantile_match_needs_equal_batches(rng):
    dirs = np.eye(2)
    with pytest.raises(ValidationError, match="equal batch sizes"):
        solver.quantile_match(rng.normal(size=(5, 2)), rng.normal(size=(6, 2)),
                              dirs)


def _round_trip_fit(mode):
    if mode == "with_private":
        ds = small_dataset(seed=1, n=600, preset="private-appxG")
        return solver.fit_with_private(ds.x1, ds.x2, _private_config())
    ds = small_dataset(seed=1, n=600, preset="thm1b",
                       homogeneous=mode == "homogeneous")
    extra = ({"matcher": "adversarial", "disc_hidden": (8,)}
             if mode == "adversarial" else {"mode": mode})
    return solver.fit(ds.x1, ds.x2, solver.SolverConfig(d_c=2, **extra, **TINY))


def test_adversarial_fit_without_hidden_layers(tmp_path):
    # disc_hidden=() is a one-layer discriminator, logistic regression on
    # the projections; its strips are as wide as d_c.
    ds = small_dataset(seed=1, n=600, preset="thm1b")
    cfg = solver.SolverConfig(d_c=2, matcher="adversarial", disc_hidden=(),
                              **TINY)
    result = solver.fit(ds.x1, ds.x2, cfg)
    assert result.discriminator.hidden == ()
    assert [w.shape for w in result.discriminator.weights] == [(1, 2)]
    assert np.all(np.isfinite(result.trace))
    solver.save_model(result, str(tmp_path))
    loaded = solver.load_model(str(tmp_path))
    assert loaded.discriminator.weights[0].tobytes() == (
        result.discriminator.weights[0].tobytes())


def _saved_arrays(result):
    """Every array a model directory stores, by the name it is stored under."""
    out = {"Q1": result.q1.matrix, "Q2": result.q2.matrix,
           "Sigma1": result.q1.covariance, "Sigma2": result.q2.covariance,
           "trace": result.trace,
           "checkpoints": np.array(result.checkpoints, dtype=np.float64)}
    if result.qp1 is not None:
        out["QP1"], out["QP2"] = result.qp1.matrix, result.qp2.matrix
    if result.discriminator is not None:
        for i, (w, b) in enumerate(zip(result.discriminator.weights,
                                       result.discriminator.biases)):
            out[f"disc_W{i}"], out[f"disc_b{i}"] = w, b
    return out


@pytest.mark.parametrize("mode", ["unaligned", "homogeneous", "with_private",
                                  "adversarial"])
def test_save_load_round_trip_keeps_every_array(tmp_path, mode):
    result = _round_trip_fit(mode)
    solver.save_model(result, str(tmp_path))
    loaded = solver.load_model(str(tmp_path))
    want, got = _saved_arrays(result), _saved_arrays(loaded)
    assert sorted(got) == sorted(want)
    assert ("QP1" in want) == (mode == "with_private")
    assert ("disc_W0" in want) == (mode == "adversarial")
    for key, a in want.items():
        assert got[key].shape == a.shape, key
        assert got[key].tobytes() == a.tobytes(), key
    assert loaded.homogeneous == result.homogeneous
    assert loaded.config == result.config
    assert loaded.wall_clock == result.wall_clock > 0
    meta = json.loads((tmp_path / "model.json").read_text())
    assert sorted(meta) == ["checkpoints", "config", "kind", "version",
                            "wall_clock_seconds"]
    assert meta["version"] == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "arrays.npz", "loss_trace.csv", "model.json"]
    with np.load(tmp_path / "arrays.npz") as archive:
        stored = sorted(archive.files)
    tied = {"Q2", "Sigma2"} if mode == "homogeneous" else set()
    assert stored == sorted(set(want) - {"trace", "checkpoints"} - tied)


@pytest.mark.parametrize("mode", ["unaligned", "homogeneous", "with_private",
                                  "adversarial"])
def test_loads_a_directory_that_also_states_its_layout(tmp_path, mode):
    # Earlier model directories restated the config's layout in four more
    # model.json keys and kept a copy of the wall clock in timing.json; both
    # are ignored, so such a directory loads to the same arrays.
    result = _round_trip_fit(mode)
    solver.save_model(result, str(tmp_path))
    meta = json.loads((tmp_path / "model.json").read_text())
    meta.update(homogeneous=result.homogeneous,
                has_private=result.qp1 is not None,
                has_discriminator=result.discriminator is not None,
                disc_hidden=(list(result.discriminator.hidden)
                             if result.discriminator else None))
    (tmp_path / "model.json").write_text(json.dumps(meta))
    (tmp_path / "timing.json").write_text(json.dumps(
        {"wall_clock_seconds": result.wall_clock}))
    loaded = solver.load_model(str(tmp_path))
    want, got = _saved_arrays(result), _saved_arrays(loaded)
    assert sorted(got) == sorted(want)
    for key, a in want.items():
        assert got[key].tobytes() == a.tobytes(), key
    assert loaded.config == result.config
    assert loaded.wall_clock == result.wall_clock


@pytest.mark.parametrize("version", [1, 3, "2"])
def test_load_refuses_another_version_and_says_to_refit(tmp_path, version):
    solver.save_model(_round_trip_fit("unaligned"), str(tmp_path))
    path = tmp_path / "model.json"
    meta = json.loads(path.read_text())
    path.write_text(json.dumps({**meta, "version": version}))
    with pytest.raises(ValidationError) as info:
        solver.load_model(str(tmp_path))
    assert str(info.value) == (f"{path}: version {version!r} is not 2; "
                               "refit the model")


def test_load_ignores_arrays_the_config_does_not_imply(tmp_path):
    # A homogeneous result whose q1 was replaced is saved with Q2 and Sigma2
    # too; the config ties the heads, so they are not read.
    result = _round_trip_fit("homogeneous")
    result.q1 = dataclasses.replace(result.q1, matrix=result.q1.matrix * 2)
    solver.save_model(result, str(tmp_path))
    rewrite_archive(tmp_path / "arrays.npz",
                    lambda a: {**a, "extra": np.array(["x"])})
    loaded = solver.load_model(str(tmp_path))
    assert loaded.homogeneous
    assert loaded.q1.matrix.tobytes() == result.q1.matrix.tobytes()


@pytest.mark.parametrize("mode,name,shape,fault", [
    ("unaligned", "Q1", (3, 3), "Q1: expected shape (2, 3), got (3, 3)"),
    ("unaligned", "Q2", (3,), "Q2: expected shape (2, 3), got (3,)"),
    ("unaligned", "Sigma1", (4, 4),
     "Sigma1: expected shape (3, 3), got (4, 4)"),
    ("homogeneous", "Sigma1", (3, 2),
     "Sigma1: expected shape (3, 3), got (3, 2)"),
    ("with_private", "QP2", (2, 3), "QP2: expected shape (1, 3), got (2, 3)"),
    ("with_private", "QP1", (1, 4), "QP1: expected shape (1, 3), got (1, 4)"),
    ("adversarial", "disc_W0", (8, 3),
     "disc_W0: expected shape (8, 2), got (8, 3)"),
    ("adversarial", "disc_b1", (1, 1),
     "disc_b1: expected shape (1,), got (1, 1)"),
])
def test_load_refuses_arrays_of_another_shape(tmp_path, mode, name, shape,
                                              fault):
    # Each once loaded, and a Sigma unlike its head failed later in numpy's
    # matmul, or a discriminator of another shape in its forward pass.
    solver.save_model(_round_trip_fit(mode), str(tmp_path))
    path = rewrite_archive(tmp_path / "arrays.npz",
                           lambda a: {**a, name: np.ones(shape)})
    with pytest.raises(ValidationError) as info:
        solver.load_model(str(tmp_path))
    assert str(info.value) == f"{path}: {fault}"


def test_load_refuses_a_model_without_a_config(tmp_path):
    solver.save_model(_round_trip_fit("unaligned"), str(tmp_path))
    meta = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps({**meta, "config": None}))
    with pytest.raises(ValidationError, match="refit the model$"):
        solver.load_model(str(tmp_path))


def _restart_scores(caplog, ds, **search):
    cfg = solver.SolverConfig(d_c=ds.d_c, **{**TINY, **search})
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="unisca"):
        solver.fit(ds.x1, ds.x2, cfg)
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("warm start restart ")]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_restart_scores_the_same_whatever_the_restart_count(
        workers, caplog, monkeypatch):
    # Restart r draws its frame, its slices and its warm batches from its
    # own stream, so restarts 0 and 1 do not move when two more join them.
    # The scores are logged in restart order after the search.
    monkeypatch.setattr(numerics, "usable_cores", lambda: workers)
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    two = _restart_scores(caplog, ds, restarts=2, warm_epochs=2)
    four = _restart_scores(caplog, ds, restarts=4, warm_epochs=2)
    assert [m.split(":")[0] for m in four] == [
        f"warm start restart {r}" for r in range(4)]
    assert four[:2] == two


@pytest.mark.parametrize("restarts,warm_epochs",
                         [(2, 0), (4, 0), (1, 2), (2, 2), (4, 2)])
def test_training_batches_do_not_depend_on_the_search(restarts, warm_epochs,
                                                      monkeypatch):
    # The training phase alone draws from the batch stream, so neither the
    # restart count nor the warm epochs move its batches. The warm start's
    # batches have warm_batch rows, the training's batch rows.
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    real = solver._epoch_batches

    def training_batches(**search):
        drawn = []

        def record(n1, n2, batch, rng):
            for idx1, idx2 in real(n1, n2, batch, rng):
                if batch == TINY["batch"]:
                    drawn.append((idx1.tobytes(), idx2.tobytes()))
                yield idx1, idx2
        monkeypatch.setattr(solver, "_epoch_batches", record)
        cfg = solver.SolverConfig(d_c=ds.d_c, **{**TINY, "warm_batch": 100,
                                                 **search})
        solver.fit(ds.x1, ds.x2, cfg)
        return drawn

    plain = training_batches(restarts=1, warm_epochs=0)
    assert len(plain) == 3 * TINY["epochs"]
    assert training_batches(restarts=restarts,
                            warm_epochs=warm_epochs) == plain


def test_restarts_on_more_workers_than_cores_give_the_same_bytes(monkeypatch):
    # Six restarts on six threads, switching every microsecond, against one
    # after the other: a state the restarts shared by mistake (a stream, a
    # parameter array, an Adam moment) would show as different bytes.
    ds = small_dataset(seed=1, n=600, preset="thm1a")
    cfg = solver.SolverConfig(d_c=ds.d_c, **{**TINY, "restarts": 6,
                                             "warm_epochs": 2})
    monkeypatch.setattr(numerics, "usable_cores", lambda: 1)
    alone = solver.fit(ds.x1, ds.x2, cfg)
    monkeypatch.setattr(numerics, "usable_cores", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = solver.fit(ds.x1, ds.x2, cfg)
    finally:
        sys.setswitchinterval(interval)
    for a, b in ((alone.q1, pooled.q1), (alone.q2, pooled.q2)):
        assert a.matrix.tobytes() == b.matrix.tobytes()
    assert alone.trace.tobytes() == pooled.trace.tobytes()
    assert alone.checkpoints == pooled.checkpoints


def test_a_saved_discriminator_loads_in_float32_with_the_fitted_bytes(
        tmp_path, rng):
    # The fit's discriminator computes in float32; the archive keeps every
    # array float64, and the upcast and the rounding back are exact.
    result = _round_trip_fit("adversarial")
    solver.save_model(result, str(tmp_path))
    with np.load(tmp_path / "arrays.npz") as archive:
        assert {archive[k].dtype for k in archive.files} == {np.dtype("<f8")}
    fitted = result.discriminator
    loaded = solver.load_model(str(tmp_path)).discriminator
    assert {a.dtype for a in loaded.weights + loaded.biases} == {
        np.dtype(np.float32)}
    x = rng.normal(size=(300, 2))
    assert loaded.forward(x).tobytes() == fitted.forward(x).tobytes()


def test_an_archive_of_float64_layers_loads_them_rounded_to_float32(
        tmp_path, rng):
    # A model saved while the discriminator computed in float64 holds
    # layers that float32 cannot hold exactly; they load rounded to float32.
    solver.save_model(_round_trip_fit("adversarial"), str(tmp_path))
    layers = {}

    def float64_layers(arrays):
        for name in arrays:
            if name.startswith("disc_"):
                layers[name] = rng.normal(size=arrays[name].shape)
                arrays[name] = layers[name]
        return arrays
    rewrite_archive(tmp_path / "arrays.npz", float64_layers)
    disc = solver.load_model(str(tmp_path)).discriminator
    for i, (w, b) in enumerate(zip(disc.weights, disc.biases)):
        for name, a in ((f"disc_W{i}", w), (f"disc_b{i}", b)):
            assert a.dtype == np.float32, name
            want = layers[name].astype(np.float32)
            assert a.tobytes() == want.tobytes(), name
            assert not np.array_equal(a, layers[name]), name
