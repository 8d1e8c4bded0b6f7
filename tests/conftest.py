import numpy as np
import pytest

from unisca import datagen
from unisca.numerics import substream


@pytest.fixture
def rng():
    return substream(20240, "tests", "shared")


def small_dataset(seed=5, n=3000, preset="thm1b", homogeneous=False, d1=None, d2=None):
    """A quick synthetic dataset for solver/metric tests."""
    latent, tmpl = datagen.preset(preset, substream(seed, "datagen", "preset"))
    tmpl = datagen.MixingTemplate(d1=d1, d2=d2, homogeneous=homogeneous)
    mixing = tmpl.realize(latent, substream(seed, "datagen", "mixing"))
    return datagen.generate_dataset(
        latent, mixing, n, substream(seed, "datagen", "samples"))
