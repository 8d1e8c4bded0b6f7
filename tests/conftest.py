import numpy as np
import pytest

from unisca import datagen, numerics
from unisca.distmatch import Discriminator
from unisca.numerics import substream


@pytest.fixture
def rng():
    return substream(20240, "tests", "shared")


@pytest.fixture
def fresh_pool(monkeypatch):
    """numerics.side_by_side's helper pool, made afresh for the test on first
    use and its threads stopped after it, so the helper threads a test sees
    are its own; returns the dict that holds it, by pid, where a test may
    put a pool of its own."""
    pools = {}
    monkeypatch.setattr(numerics, "_POOLS", pools)
    yield pools
    for pool in pools.values():
        for _ in pool.threads:
            pool.jobs.put(None)
        for thread in pool.threads:
            thread.join(timeout=60)


def small_dataset(seed=5, n=3000, preset="thm1b", homogeneous=False, d1=None, d2=None):
    """A quick synthetic dataset for solver/metric tests."""
    latent, tmpl = datagen.preset(preset, substream(seed, "datagen", "preset"))
    tmpl = datagen.MixingTemplate(d1=d1, d2=d2, homogeneous=homogeneous)
    mixing = tmpl.realize(latent, substream(seed, "datagen", "mixing"))
    return datagen.generate_dataset(
        latent, mixing, n, substream(seed, "datagen", "samples"))


def rewrite_archive(path, change) -> str:
    """Replace the numpy archive at `path` by change(its arrays as a dict);
    returns the path as a string."""
    with np.load(path) as archive:
        arrays = dict(archive)
    np.savez(path, **change(arrays))
    return str(path)


def float64_twin(f):
    """The discriminator f with its layers upcast to float64, through
    Discriminator.from_layers: the same code, run in float64, for the tests
    that check it at float64 round-off."""
    return Discriminator.from_layers([w.astype(np.float64) for w in f.weights],
                                     [b.astype(np.float64) for b in f.biases])
