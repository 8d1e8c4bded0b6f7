"""Timed and traced benchmark runs of one workload.

A timed run measures what a user of `unisca` sees: set-up time (fresh
processes that import the package and generate the dataset), the wall time
of each fit, peak memory and the identification report. A traced run
alternates untraced and traced fits of the same workload and reports the
time spent in each layer's public functions, plus the tracing overhead.

Every fit is checked: finite projections of the right shape, a finite trace
with one row per epoch, the expected checkpoints, a bit-identical
save_model/load_model round trip, and outputs bit-identical to the run's
first fit. A fit that raises DivergenceError or ValidationError, or fails a
check, counts as failed; it is never retried.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

from unisca import datagen, distmatch, metrics, numerics, solver
from unisca.numerics import ValidationError
from unisca.solver import DivergenceError

from tracing import Tracer, self_times, summarize
from workloads import Workload

# Set-up probes per timed run. The machine's speed drifts over seconds, so
# half the probes run before the fits and half after, and the run reports
# their median.
SETUP_REPEATS = 5

# Spans the traced run reports for every workload, so that a layer a workload
# bypasses shows as zero calls rather than as a missing row.
SPAN_NAMES = (
    "distmatch.mmd2_unbiased.score",
    "distmatch.mmd2_unbiased.checkpoint",
    "distmatch.mmd2_unbiased.step",
    "solver.quantile_match",
    "distmatch.hsic_biased",
    "distmatch.discriminator_step",
    "distmatch.gan_value_and_grads.disc",
    "distmatch.gan_value_and_grads.gen",
    "distmatch.gan_value_and_grads.checkpoint",
    "numerics.AdamState.step",
    "distmatch.KernelSpec.resolve",
    "solver.whitening_penalty",
)
FIT_SPAN = "solver.fit"
REPORT_SPAN = "metrics.evaluate_fit"


def layer_targets(workload: Workload, cfg: solver.SolverConfig) -> list:
    """(owner, attribute, span name) for every traced entry point.

    `solver` imports its distmatch functions by name, so they are patched on
    the solver module; the generator call inside discriminator_step goes
    through the distmatch module.
    """
    phase = workload.phases(cfg)
    gan_phase = {"step": "gen", "checkpoint": "checkpoint"}

    def mmd_name(x, *args, **kwargs):
        return f"distmatch.mmd2_unbiased.{phase[x.shape[0]]}"

    def gan_name(f, u, *args, **kwargs):
        return f"distmatch.gan_value_and_grads.{gan_phase[phase[u.shape[0]]]}"

    return [
        (solver, "mmd2_unbiased", mmd_name),
        (solver, "gan_value_and_grads", gan_name),
        (solver, "quantile_match", "solver.quantile_match"),
        (solver, "hsic_biased", "distmatch.hsic_biased"),
        (solver, "discriminator_step", "distmatch.discriminator_step"),
        (solver, "whitening_penalty", "solver.whitening_penalty"),
        (distmatch, "gan_value_and_grads", "distmatch.gan_value_and_grads.disc"),
        (numerics.AdamState, "step", "numerics.AdamState.step"),
        (distmatch.KernelSpec, "resolve", "distmatch.KernelSpec.resolve"),
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def expected_checkpoints(workload: Workload, cfg: solver.SolverConfig) -> list:
    if workload.private:
        return [0, cfg.epochs]
    return [0] + [e + 1 for e in range(cfg.epochs)
                  if (e + 1) % cfg.checkpoint_every == 0 or e == cfg.epochs - 1]


def outputs(result: solver.FitResult) -> dict[str, bytes]:
    """Every numeric output of a fit, as raw bytes for exact comparison."""
    arrays = {"Q1": result.q1.matrix, "Sigma1": result.q1.covariance,
              "Q2": result.q2.matrix, "Sigma2": result.q2.covariance,
              "trace": result.trace,
              "checkpoints": np.array(result.checkpoints, dtype=np.float64)}
    if result.qp1 is not None:
        arrays["QP1"] = result.qp1.matrix
        arrays["QP2"] = result.qp2.matrix
    if result.discriminator is not None:
        for i, (w, b) in enumerate(zip(result.discriminator.weights,
                                       result.discriminator.biases)):
            arrays[f"disc_W{i}"] = w
            arrays[f"disc_b{i}"] = b
    return {k: f"{a.shape}".encode() + np.ascontiguousarray(a, dtype="<f8").tobytes()
            for k, a in arrays.items()}


def check_fit(workload: Workload, cfg: solver.SolverConfig,
              dataset: datagen.SyntheticDataset, result: solver.FitResult,
              scratch: str) -> list[str]:
    """Problems found in one fit's outputs; empty when it passes."""
    problems = []
    d1, d2 = dataset.x1.shape[1], dataset.x2.shape[1]
    heads = [("Q1", result.q1, (cfg.d_c, d1)), ("Q2", result.q2, (cfg.d_c, d2))]
    if workload.private:
        heads += [("QP1", result.qp1, (cfg.d_p1, d1)),
                  ("QP2", result.qp2, (cfg.d_p2, d2))]
    for name, proj, shape in heads:
        if proj is None:
            problems.append(f"{name} missing")
        elif proj.matrix.shape != shape:
            problems.append(f"{name} shape {proj.matrix.shape} != {shape}")
        elif not np.all(np.isfinite(proj.matrix)):
            problems.append(f"{name} not finite")
    if result.trace.shape != (cfg.epochs, len(solver.TRACE_COLUMNS)):
        problems.append(f"trace shape {result.trace.shape}")
    elif not np.all(np.isfinite(result.trace)):
        problems.append("trace not finite")
    epochs = [e for e, _ in result.checkpoints]
    if epochs != expected_checkpoints(workload, cfg):
        problems.append(f"checkpoints at epochs {epochs}")
    elif not all(np.isfinite(v) for _, v in result.checkpoints):
        problems.append("checkpoint loss not finite")
    with tempfile.TemporaryDirectory(dir=scratch) as directory:
        solver.save_model(result, directory)
        if outputs(solver.load_model(directory)) != outputs(result):
            problems.append("save_model/load_model round trip changed outputs")
    return problems


def quality(report: metrics.IdentReport) -> dict[str, float]:
    return {
        "pair_match_error": report.pair_match_error,
        "leakage_max": max(report.leakage1, report.leakage2),
        "theta_rel_diff": report.theta_rel_diff,
        "whitening_residual_max": max(report.whitening_residual1,
                                      report.whitening_residual2),
    }


@dataclass
class Fits:
    """Outcomes of the fits of one run, checked against the run's first fit."""

    workload: Workload
    cfg: solver.SolverConfig
    dataset: datagen.SyntheticDataset
    scratch: str
    seconds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    quality: dict | None = None
    reference: dict | None = None

    def attempt(self, tracer: Tracer | None = None, targets=()) -> float:
        """One fit plus its checks; returns its wall seconds. With a tracer,
        `targets` are patched for the fit and the report gets its own span."""
        problems = []
        traced = tracer is not None
        t0 = time.perf_counter()
        try:
            with (tracer.patched(targets) if traced else nullcontext()), \
                    (tracer.span(FIT_SPAN) if traced else nullcontext()):
                result = self.workload.fit(self.dataset, self.cfg)
        except (DivergenceError, ValidationError) as exc:
            result = None
            problems.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        self.seconds.append(elapsed)
        if result is not None:
            problems += check_fit(self.workload, self.cfg, self.dataset,
                                  result, self.scratch)
            with tracer.span(REPORT_SPAN) if traced else nullcontext():
                report = metrics.evaluate_fit(result, self.dataset)
            q = quality(report)
            if not all(np.isfinite(v) for v in q.values()):
                problems.append(f"identification report not finite: {q}")
            found = outputs(result)
            if self.reference is None:
                self.reference, self.quality = found, q
            elif found != self.reference:
                problems.append("outputs differ from the run's first fit")
        if problems:
            self.failures.append("; ".join(problems))
        return elapsed

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure_setup(script: str, workload: Workload, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports its dataset
    ready. The child runs `script --setup-probe`."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, script, "--setup-probe", "--workload", workload.name,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload: Workload, seed: int, seconds: float, scratch: str,
              script: str) -> tuple[Fits, dict]:
    """Untraced fits until `seconds` have passed, with set-up probes split
    between the start and the end of the run."""
    setup = [measure_setup(script, workload, seed)
             for _ in range(SETUP_REPEATS // 2)]
    dataset = workload.dataset(seed)
    fits = Fits(workload, workload.config(seed, dataset), dataset, scratch)
    start = time.perf_counter()
    while fits.attempted == 0 or time.perf_counter() - start < seconds:
        fits.attempt()
    setup += [measure_setup(script, workload, seed)
              for _ in range(SETUP_REPEATS - len(setup))]
    values = {
        "fit_s": statistics.median(fits.seconds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        **(fits.quality or {}),
        "failed_frac": fits.failed / fits.attempted,
    }
    return fits, {"metrics": values, "fit_seconds": fits.seconds,
                  "setup_seconds": setup}


def run_traced(workload: Workload, seed: int, seconds: float, scratch: str
               ) -> tuple[Fits, dict]:
    """Pairs of one untraced and one traced fit, alternating which goes
    first, until `seconds` have passed. Per-layer metrics come from the
    traced fits, the overhead from both kinds."""
    tracer = Tracer()
    tracer.run = -1
    with tracer.patched([(datagen, "generate_dataset",
                          "datagen.generate_dataset")]):
        dataset = workload.dataset(seed)
    gen_s = sum(s.duration for s in tracer.spans)
    fits = Fits(workload, workload.config(seed, dataset), dataset, scratch)
    targets = layer_targets(workload, fits.cfg)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for is_traced in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if is_traced:
                tracer.run = len(traced)
                traced.append(fits.attempt(tracer, targets))
            else:
                plain.append(fits.attempt())
    runs = len(traced)
    values = summarize(tracer.spans, SPAN_NAMES, runs)
    fit_spans = [(s, st) for s, st in zip(tracer.spans, self_times(tracer.spans))
                 if s.name == FIT_SPAN]
    values[f"{FIT_SPAN}.total_s"] = statistics.median(s.duration for s, _ in fit_spans)
    values[f"{FIT_SPAN}.self_s"] = statistics.median(st for _, st in fit_spans)
    values[f"{REPORT_SPAN}.total_s"] = summarize(
        tracer.spans, [REPORT_SPAN], runs)[f"{REPORT_SPAN}.total_s"]
    values["heavy_frac"] = (sum(values[f"{h}.total_s"] for h in workload.heavy)
                            / values[f"{FIT_SPAN}.total_s"])
    values["datagen.generate_dataset.total_s"] = gen_s
    values["traced_fits"] = runs
    values["trace_overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    return fits, {"metrics": values, "fit_seconds_untraced": plain,
                  "fit_seconds_traced": traced, "spans": tracer.to_json()}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads the BLAS bundled with numpy will use, asked from the library."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "unisca", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_record(root: str, workload: Workload, seed: int, mode: str,
               cfg: solver.SolverConfig, thread_env: dict) -> dict:
    """What a result needs so numbers from different machines are never
    compared blind."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "thread_env": thread_env,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "data": {"preset": workload.preset, "n": workload.n,
                 "homogeneous": workload.homogeneous,
                 "with_private": workload.private},
        "solver": cfg.to_dict(),
    }
