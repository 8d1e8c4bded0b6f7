"""Golden replay: five small fits, one per training mode, against stored outputs.

The outputs in tests/data/golden_fits.npz were written by this file's
`write_golden` and are compared byte for byte, so any change to the order of
random draws or floating-point sums in the solver shows here. Checkpoints
follow one schedule in every mode (epoch 0, every checkpoint_every epochs,
the last epoch); the stored ones must reappear byte for byte among them.
Each fit is also run twice in one process and must repeat itself byte for
byte, checkpoints included, and once each with the warm start's restarts on
one worker thread and on two, which must give the stored bytes too. CHANGES.md
records each past regeneration.

Regenerate the file only for a change that is meant to alter the numbers,
and say so, with the largest difference per array that `--diff` prints:

    PYTHONPATH=src python tests/test_golden.py --diff
    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from unisca import datagen, numerics, solver
from unisca.numerics import substream

from conftest import small_dataset

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "golden_fits.npz")

COMMON = dict(seed=1, restarts=2, warm_epochs=2, epochs=3, checkpoint_every=2,
              batch=400, warm_batch=400, select_rows=600, checkpoint_rows=500)


def _unaligned():
    ds = small_dataset(seed=1, n=1200, preset="thm1a")
    return solver.fit(ds.x1, ds.x2, solver.SolverConfig(d_c=ds.d_c, **COMMON))


def _weakly_supervised():
    ds = small_dataset(seed=1, n=1200, preset="thm1a")
    pairs = datagen.sample_anchors(ds, 3, substream(1, "tests", "anchors"))
    cfg = solver.SolverConfig(d_c=ds.d_c, mode="weakly_supervised", **COMMON)
    return solver.fit(ds.x1, ds.x2, cfg, anchors=solver.AnchorSet(pairs))


def _adversarial():
    ds = small_dataset(seed=1, n=1200, preset="thm1a")
    cfg = solver.SolverConfig(d_c=ds.d_c, matcher="adversarial",
                              disc_hidden=(16, 16), **COMMON)
    return solver.fit(ds.x1, ds.x2, cfg)


def _homogeneous():
    ds = small_dataset(seed=1, n=1200, preset="thm1b", homogeneous=True)
    cfg = solver.SolverConfig(d_c=ds.d_c, mode="homogeneous", **COMMON)
    return solver.fit(ds.x1, ds.x2, cfg)


def _with_private():
    ds = small_dataset(seed=1, n=1200, preset="private-appxG")
    cfg = solver.SolverConfig(d_c=ds.d_c, mode="with_private",
                              d_p1=ds.p1.shape[1], d_p2=ds.p2.shape[1],
                              **COMMON)
    return solver.fit_with_private(ds.x1, ds.x2, cfg)


FITS = {"unaligned": _unaligned, "weakly_supervised": _weakly_supervised,
        "adversarial": _adversarial, "homogeneous": _homogeneous,
        "with_private": _with_private}


def arrays(result: solver.FitResult) -> dict[str, np.ndarray]:
    """The fit's numeric outputs, checkpoints excepted."""
    out = {"Q1": result.q1.matrix, "Q2": result.q2.matrix,
           "trace": result.trace}
    if result.qp1 is not None:
        out["QP1"], out["QP2"] = result.qp1.matrix, result.qp2.matrix
    if result.discriminator is not None:
        for i, (w, b) in enumerate(zip(result.discriminator.weights,
                                       result.discriminator.biases)):
            out[f"disc_W{i}"], out[f"disc_b{i}"] = w, b
    return out


def fresh_arrays() -> dict[str, np.ndarray]:
    """Every fit's outputs under the keys the golden file stores them by."""
    stored = {}
    for name, run in FITS.items():
        result = run()
        for key, a in arrays(result).items():
            stored[f"{name}/{key}"] = a
        stored[f"{name}/checkpoints"] = np.array(result.checkpoints,
                                                 dtype=np.float64).reshape(-1, 2)
    return stored


def write_golden(path: str = GOLDEN) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez(path, **fresh_arrays())


def diff_golden(path: str = GOLDEN) -> None:
    """Print each stored array's largest absolute and relative difference
    from a fresh run; the relative one is over the entries stored nonzero.
    Checkpoints are compared at the epochs both hold."""
    with np.load(path) as data:
        old = {k: data[k] for k in data.files}
    new = fresh_arrays()
    print(f"{'array':<32} {'max abs':>10} {'max rel':>10}")
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            print(f"{key:<32} only in the {'fresh run' if key in new else 'file'}")
            continue
        a, b, note = old[key], new[key], ""
        if key.endswith("/checkpoints"):
            added = sorted(set(b[:, 0]) - set(a[:, 0]))
            note = f"  fresh run adds epochs {[int(e) for e in added]}" if added else ""
            a, b = a[np.isin(a[:, 0], b[:, 0])], b[np.isin(b[:, 0], a[:, 0])]
        if a.shape != b.shape:
            print(f"{key:<32} shape {a.shape} -> {b.shape}")
            continue
        delta = np.abs(b - a)
        nz = a != 0
        rel = float(np.max(delta[nz] / np.abs(a[nz]), initial=0.0))
        print(f"{key:<32} {float(np.max(delta, initial=0.0)):10.3g} {rel:10.3g}{note}")


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {k: data[k] for k in data.files}


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def first_run():
    """Each fit's first run in this process, made on first use; the golden
    comparison and the replay check share it."""
    runs = {}

    def get(name: str) -> solver.FitResult:
        if name not in runs:
            runs[name] = FITS[name]()
        return runs[name]
    return get


def _assert_golden(name: str, result: solver.FitResult, golden) -> None:
    got = arrays(result)
    want = {k.split("/", 1)[1]: v for k, v in golden.items()
            if k.startswith(name + "/") and not k.endswith("/checkpoints")}
    assert sorted(got) == sorted(want)
    for key in want:
        assert _same_bytes(got[key], want[key]), f"{name}/{key}"
    assert [e for e, _ in result.checkpoints] == [0, 2, 3]
    found = dict(result.checkpoints)
    for epoch, value in golden[f"{name}/checkpoints"]:
        assert _same_bytes(np.float64(found[int(epoch)]), value), (name, epoch)


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_replays_golden_outputs(name, golden, first_run):
    _assert_golden(name, first_run(name), golden)


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_replays_golden_outputs_on_one_worker(name, golden, monkeypatch):
    # The warm start runs its restarts on min(restarts, usable cores)
    # threads, and the adversarial matcher its two views side by side when
    # usable cores // BLAS threads >= 2; the test above uses this machine's
    # cores, this one a single core that runs both one after the other.
    # Every restart draws from its own stream and each view only reads the
    # discriminator, so the bytes are the same either way.
    monkeypatch.setattr(numerics, "usable_cores", lambda: 1)
    _assert_golden(name, FITS[name](), golden)


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_replays_itself_in_one_process(name, first_run):
    # State left behind by an earlier fit (a cached bandwidth, a random
    # stream, a buffer reused in place) would show in the second run.
    first, second = first_run(name), FITS[name]()
    a, b = arrays(first), arrays(second)
    assert sorted(a) == sorted(b)
    for key in a:
        assert _same_bytes(a[key], b[key]), f"{name}/{key}"
    assert _same_bytes(np.array(first.checkpoints), np.array(second.checkpoints))


if __name__ == "__main__":
    commands = {"--write": write_golden, "--diff": diff_golden}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: python {sys.argv[0]} --write | --diff")
    commands[sys.argv[1]]()
