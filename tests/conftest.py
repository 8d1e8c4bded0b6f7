import numpy as np
import pytest

from unisca import datagen, numerics
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
