"""Finite-difference verification of every analytic gradient in the package.

Each estimator is probed on >= 20 random small instances; the relative error
bound of 1e-4 is far above what correct gradients produce (~1e-10) and far
below what any sign/scale mistake would produce. The discriminator, which
computes in float32 as a fit builds it, is checked here on float64 layers
(`float64_twin`): the same code, at float64 round-off.
"""

import itertools
from operator import itemgetter

import numpy as np
import pytest

from unisca import distmatch
from unisca.distmatch import (Discriminator, KernelSpec, gan_value_and_grads,
                              hsic_biased, mmd2_unbiased)
from unisca.numerics import grad_check, substream
from unisca.solver import anchor_penalty, quantile_match, whitening_penalty

from conftest import float64_twin

TOL = 1e-4
N_INSTANCES = 20


def _rngs(purpose):
    return [substream(1000 + i, "gradtests", purpose) for i in range(N_INSTANCES)]


@pytest.mark.parametrize("rng", _rngs("mmd"))
def test_mmd_gradients(rng):
    m, n, d = rng.integers(3, 7), rng.integers(3, 7), rng.integers(1, 4)
    x = rng.normal(size=(m, d))
    y = rng.normal(size=(n, d))
    kern = KernelSpec(bandwidth=float(rng.uniform(0.5, 2.0)))
    err_x = grad_check(lambda a: mmd2_unbiased(a, y, kern)[:2], x)
    err_y = grad_check(
        lambda a: (mmd2_unbiased(x, a, kern)[0], mmd2_unbiased(x, a, kern)[2]), y)
    assert err_x <= TOL and err_y <= TOL


@pytest.mark.parametrize("rng", _rngs("hsic"))
def test_hsic_gradients(rng):
    m = rng.integers(5, 9)
    u = rng.normal(size=(m, rng.integers(1, 3)))
    v = rng.normal(size=(m, rng.integers(1, 3)))
    ku = KernelSpec(float(rng.uniform(0.5, 2.0)))
    kv = KernelSpec(float(rng.uniform(0.5, 2.0)))
    err_u = grad_check(lambda a: hsic_biased(a, v, ku, kv)[:2], u)
    err_v = grad_check(
        lambda a: (hsic_biased(u, a, ku, kv)[0], hsic_biased(u, a, ku, kv)[2]), v)
    assert err_u <= TOL and err_v <= TOL


@pytest.mark.parametrize("rng", _rngs("gan"))
def test_gan_input_gradients(rng):
    d = rng.integers(1, 4)
    f = float64_twin(Discriminator(d, hidden=(6, 4), rng=rng))
    u = rng.normal(size=(rng.integers(2, 5), d))
    v = rng.normal(size=(rng.integers(2, 5), d))
    for grads in ("all", "inputs"):  # the full call and the generator pass's
        err_u = grad_check(
            lambda a: itemgetter(0, 2)(gan_value_and_grads(f, a, v, grads=grads)), u)
        err_v = grad_check(
            lambda a: itemgetter(0, 3)(gan_value_and_grads(f, u, a, grads=grads)), v)
        assert err_u <= TOL and err_v <= TOL, grads


@pytest.mark.parametrize("rng", _rngs("gan-params"))
def test_gan_parameter_gradients(rng):
    d = rng.integers(1, 3)
    f = float64_twin(Discriminator(d, hidden=(5,), rng=rng))
    u = rng.normal(size=(3, d))
    v = rng.normal(size=(3, d))
    smoothing = float(rng.choice([0.0, 0.2]))
    params = []
    for w, b in zip(f.weights, f.biases):
        params.extend((w, b))
    for ti, grads in itertools.product(range(len(params)), ("all", "params")):
        def fn(a, ti=ti, grads=grads):
            old = params[ti].copy()
            params[ti][...] = a
            loss, pg, _, _ = gan_value_and_grads(f, u, v, smoothing=smoothing,
                                                 grads=grads)
            params[ti][...] = old
            return loss, pg[ti]
        assert grad_check(fn, params[ti].copy()) <= TOL, (ti, grads)


# The views above are one strip each; at a strip budget of one entry each
# of their rows is a strip of its own.
@pytest.mark.parametrize("rng", _rngs("gan"))
def test_gan_input_gradients_in_one_row_strips(rng, monkeypatch):
    monkeypatch.setattr(distmatch, "_STRIP", 1)
    test_gan_input_gradients(rng)


@pytest.mark.parametrize("rng", _rngs("gan-params"))
def test_gan_parameter_gradients_in_one_row_strips(rng, monkeypatch):
    monkeypatch.setattr(distmatch, "_STRIP", 1)
    test_gan_parameter_gradients(rng)


@pytest.mark.parametrize("rng", _rngs("quantile"))
def test_quantile_match_gradients(rng):
    # Piecewise quadratic; random draws put no two projections within a
    # step of each other, so the sort order is fixed across each probe.
    b, d, k = rng.integers(3, 9), rng.integers(1, 4), rng.integers(1, 6)
    u = rng.normal(size=(b, d))
    v = rng.normal(size=(b, d))
    dirs = rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    err_u = grad_check(lambda a: quantile_match(a, v, dirs)[:2], u)
    err_v = grad_check(lambda a: itemgetter(0, 2)(quantile_match(u, a, dirs)), v)
    assert err_u <= TOL and err_v <= TOL


@pytest.mark.parametrize("rng", _rngs("rq"))
def test_whitening_penalty_gradient(rng):
    k, d = rng.integers(1, 4), rng.integers(2, 6)
    if k > d:
        k = d
    q = rng.normal(size=(k, d))
    a = rng.normal(size=(d, d))
    sigma = a @ a.T / d
    assert grad_check(lambda m: whitening_penalty(m, sigma), q) <= TOL


@pytest.mark.parametrize("rng", _rngs("anchor"))
def test_anchor_penalty_gradients(rng):
    k, d1, d2, L = 2, rng.integers(2, 5), rng.integers(2, 5), rng.integers(1, 4)
    q1 = rng.normal(size=(k, d1))
    q2 = rng.normal(size=(k, d2))
    x1a = rng.normal(size=(L, d1))
    x2a = rng.normal(size=(L, d2))
    err1 = grad_check(lambda a: anchor_penalty(a, q2, x1a, x2a)[:2], q1)
    err2 = grad_check(
        lambda a: (anchor_penalty(q1, a, x1a, x2a)[0],
                   anchor_penalty(q1, a, x1a, x2a)[2]), q2)
    assert err1 <= TOL and err2 <= TOL
