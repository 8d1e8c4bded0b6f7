"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402
from unisca import distmatch, numerics, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Which workloads call each phase-specific span; every other workload must
# bypass it (zero calls).
ONLY_ON = {
    "distmatch.mmd2_unbiased.score": {"warmstart"},
    "solver.quantile_match": {"warmstart"},
    "distmatch.hsic_biased": {"private"},
    "distmatch.discriminator_step": {"adversarial"},
    "distmatch.gan_value_and_grads.disc": {"adversarial"},
    "distmatch.gan_value_and_grads.gen": {"adversarial"},
    "distmatch.gan_value_and_grads.checkpoint": {"adversarial"},
    "distmatch.mmd2_unbiased.step": {"warmstart", "homogeneous", "private"},
    "distmatch.mmd2_unbiased.checkpoint": {"warmstart", "homogeneous", "private"},
}


def tiny(name):
    """The named workload with every size cut down; phases keep distinct
    row counts (step 100, checkpoint 200, score 400)."""
    w = WORKLOADS[name]
    overrides = {"batch": 100, "checkpoint_rows": 200, "select_rows": 400,
                 "warm_batch": 100,
                 "warm_epochs": min(w.solver.get("warm_epochs", 30), 2),
                 "epochs": 2}
    if w.solver.get("matcher") == "adversarial":
        overrides["disc_hidden"] = (16, 8)
    return dataclasses.replace(w, n=600, solver={**w.solver, **overrides})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_splits_layers(name, tmp_path):
    w = tiny(name)
    fits, details = harness.run_traced(w, seed=3, seconds=0.0,
                                       scratch=str(tmp_path))
    assert fits.failures == []
    assert fits.attempted == 2
    values = details["metrics"]
    for span, users in ONLY_ON.items():
        calls = values[f"{span}.calls"]
        assert (calls > 0) == (name in users), (span, calls)
    assert values["solver.fit.self_s"] > 0
    assert set(fits.quality) == {"pair_match_error", "leakage_max",
                                 "theta_rel_diff", "whitening_residual_max"}


def test_full_size_workloads_have_distinct_phases():
    for w in WORKLOADS.values():
        phases = w.phases(solver.SolverConfig(d_c=2, **w.solver))
        assert "step" in phases.values()
        assert ("score" in phases.values()) == (w.name == "warmstart")


def test_patched_restores_originals_even_on_error():
    w = tiny("private")
    cfg = solver.SolverConfig(d_c=2, **w.solver)
    targets = harness.layer_targets(w, cfg)
    before = {(owner, attr): vars(owner)[attr] for owner, attr, _ in targets}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            assert solver.hsic_biased is not before[solver, "hsic_biased"]
            raise RuntimeError("boom")
    assert {key: vars(key[0])[key[1]] for key in before} == before
    assert solver.mmd2_unbiased is distmatch.mmd2_unbiased
    assert vars(numerics.AdamState)["step"] is before[numerics.AdamState, "step"]


def test_traced_mmd_fit_is_bitwise_equal(tmp_path):
    w = tiny("warmstart")
    dataset = w.dataset(1)
    cfg = w.config(1, dataset)
    plain = w.fit(dataset, cfg)
    tracer = Tracer()
    with tracer.patched(harness.layer_targets(w, cfg)):
        traced = w.fit(dataset, cfg)
    assert len(tracer.spans) > 0
    a, b = harness.outputs(plain), harness.outputs(traced)
    for key in ("Q1", "Q2", "trace", "checkpoints"):
        assert a[key] == b[key], key
    assert a == b


def test_check_fit_reports_bad_outputs(tmp_path):
    w = tiny("homogeneous")
    dataset = w.dataset(2)
    cfg = w.config(2, dataset)
    result = w.fit(dataset, cfg)
    assert harness.check_fit(w, cfg, dataset, result, str(tmp_path)) == []
    bad_q = result.q1.matrix.copy()
    bad_q[0, 0] = np.nan
    result.q1 = dataclasses.replace(result.q1, matrix=bad_q)
    result.checkpoints = result.checkpoints[:1]
    problems = harness.check_fit(w, cfg, dataset, result, str(tmp_path))
    assert any("Q1 not finite" in p for p in problems)
    assert any("checkpoints" in p for p in problems)


def test_self_times_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("other-root", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_summarize_counts_per_fit_and_tail():
    spans = [Span("x", 0.0, 0.001 * (i + 1), -1, i % 2) for i in range(40)]
    spans.append(Span("x", 0.0, 5.0, -1, -1))  # outside any fit: ignored
    out = tracing.summarize(spans, ["x", "never"], runs=2)
    assert out["x.calls"] == 20
    assert out["x.ms_p50"] == pytest.approx(20.0)
    assert out["x.tail_pct"] == 50.0  # 20 calls a fit: 10 lie above the 10th
    assert out["x.ms_tail"] == pytest.approx(20.0)
    assert out["never.calls"] == 0 and out["never.total_s"] == 0.0
    assert tracing.tail([1.0, 2.0], per_fit=2) == (100.0, 2.0)


def test_tail_percentile_does_not_depend_on_fits_pooled():
    one_fit = [float(i) for i in range(80)]
    two_fits = sorted(one_fit * 2)
    assert tracing.tail(one_fit, per_fit=80) == (75.0, 59.0)
    assert tracing.tail(two_fits, per_fit=80) == (75.0, 59.0)


def test_run_fails_without_source(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                          "homogeneous", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         cwd=tmp_path, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
