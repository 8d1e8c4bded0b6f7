import copy
import dataclasses
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from unisca import distmatch, numerics
from unisca.distmatch import (DEFAULT_HIDDEN, Discriminator, KernelSpec,
                              _LABEL_SMOOTHING, _cols, _gram, _rows,
                              discriminator_step, gan_value_and_grads,
                              hsic_biased, mmd2_unbiased)
from unisca.numerics import ValidationError, substream

from conftest import float64_twin, small_dataset


class TestKernelSpec:
    def test_invalid_bandwidth(self):
        with pytest.raises(ValidationError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValidationError):
            KernelSpec(bandwidth=np.inf)

    def test_resolve_is_frozen(self, rng):
        x = rng.normal(size=(100, 3))
        k = KernelSpec.resolve(x)
        assert k.bandwidth > 0 and not k.two_scale
        assert KernelSpec.resolve(x) == k
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.bandwidth = 1.0

    def test_constant_input_fallback(self):
        k = KernelSpec.resolve(np.ones((20, 2)))
        assert k.bandwidth == 1.0

    @pytest.mark.parametrize("sets", [
        pytest.param(lambda r: (r.normal(size=(3000, 2)),), id="2000-rows-even"),
        pytest.param(lambda r: tuple(r.normal(size=(900, 3)) for _ in range(3)),
                     id="1998-rows-odd"),
        pytest.param(lambda r: (r.normal(size=(4, 2)),), id="6-pairs"),
        pytest.param(lambda r: (r.normal(size=(3, 2)),), id="3-pairs"),
        pytest.param(lambda r: (r.normal(size=(2, 1)),), id="1-pair"),
        pytest.param(lambda r: (r.normal(size=(1, 2)),), id="one-row"),
        pytest.param(lambda r: (np.full((30, 2), 2.5),), id="constant"),
        pytest.param(lambda r: (r.normal(size=(10, 2))[r.integers(0, 4, 41)],),
                     id="duplicated-rows"),
        pytest.param(lambda r: (r.normal(size=(7, 2))[[0, 0, 0, 0, 0, 0, 1]],),
                     id="zero-median"),
        pytest.param(lambda r: (np.vstack([[np.inf, 0.0], r.normal(size=(9, 2))]),),
                     id="non-finite"),
        # The select's buckets: squared distances from 1e-300 to 1e300,
        # about 2,000 octaves;
        pytest.param(lambda r: (10.0 ** np.arange(-150.0, 151.0, 3.0)[:, None]
                                * r.uniform(1, 2, size=(101, 1)),),
                     id="2000-octaves"),
        # clusters of 45 and 36 points: 1620 pairs within them and 1620
        # across, so the two middle ranks lie in buckets far apart;
        pytest.param(lambda r: (r.normal(size=(45, 2)),
                                r.normal(size=(36, 2)) + 1e3),
                     id="middle-ranks-apart"),
        # three values on a line, so each distance is tied across hundreds
        # of pairs, and a median tied with pairs on both sides of it;
        pytest.param(lambda r: (r.integers(0, 3, size=(80, 1)) * 1.0,),
                     id="tied-median"),
        # squared distances below the smallest normal double;
        pytest.param(lambda r: (r.normal(size=(60, 2)) * 1e-160,),
                     id="subnormal"),
        # duplicated rows at the full pool, whose zero distances sit in the
        # lowest bucket; 3 distinct rows, each distance shared by about a
        # third of the pairs; and 1500 equal rows of 2000, whose zero median
        # bucket holds 56% of the distances, which the second pass keeps.
        pytest.param(
            lambda r: (r.normal(size=(40, 2))[r.integers(0, 40, 3000)],),
            id="2000-rows-duplicated"),
        pytest.param(
            lambda r: (r.normal(size=(3, 2))[r.integers(0, 3, 2000)],),
            id="2000-rows-of-3"),
        pytest.param(
            lambda r: (np.vstack([np.full((1500, 2), 0.5),
                                  r.normal(size=(500, 2))]),),
            id="2000-rows-mostly-equal"),
    ])
    def test_resolve_matches_the_median_of_all_distances(self, rng, sets):
        # The formula resolve replaced: every pairwise distance, then
        # np.median. An infinite coordinate makes NaN distances in both.
        sets = sets(rng)
        pool = np.vstack([s[:max(1, 2000 // len(sets))] for s in sets])
        with np.errstate(invalid="ignore"):
            p2 = np.einsum("ij,ij->i", pool, pool)
            d2 = np.maximum(p2[:, None] + p2[None, :] - 2.0 * (pool @ pool.T), 0.0)
            dists = np.sqrt(d2[np.triu(np.ones(d2.shape, dtype=bool), 1)])
            med = float(np.median(dists)) if dists.size else 0.0
            got = KernelSpec.resolve(*sets).bandwidth
        assert got == (med if med > 0 else 1.0)

    @pytest.mark.parametrize("n", [2000, 1000, 362, 2])
    def test_strips_equal_the_square_product(self, n):
        # Every squared distance above the diagonal, joined from the strips
        # row by row, byte for byte, against the one square product resolve
        # used to form, over many draws of scale, offset and width, at the
        # pool sizes fits resolve (2000 and 1000 points) and at one strip's
        # rows or fewer, twice at each width from 1 to 5.
        draws = substream(n, "tests", "resolve-draws")
        for d in (1, 2, 3, 4, 5) * 2:
            pool = (draws.normal(size=(n, d)) * 10 ** draws.uniform(-2, 2)
                    + draws.normal(size=d))
            p2 = np.einsum("ij,ij->i", pool, pool)
            d2 = np.maximum(p2[:, None] + p2[None, :] - 2.0 * (pool @ pool.T),
                            0.0)
            want = d2[np.triu(np.ones(d2.shape, dtype=bool), 1)]
            got = np.concatenate(
                [strip[np.triu_indices(strip.shape[0], 1, strip.shape[1])]
                 for strip in distmatch._sq_distance_strips(pool, np.nan)])
            assert np.maximum(got, 0.0).tobytes() == want.tobytes()

    def test_strips_fill_the_diagonal_block(self, rng):
        pool = rng.normal(size=(1000, 2))
        for fill in (0.0, np.nan):
            for strip in distmatch._sq_distance_strips(pool, fill):
                lower = np.tril_indices(strip.shape[0])
                np.testing.assert_array_equal(strip[lower], fill)
                assert not np.isnan(strip[np.triu_indices(
                    strip.shape[0], 1, strip.shape[1])]).any()

    def test_the_select_counts_and_keeps_the_clamped_distances(self, rng):
        # Duplicated rows give squared distances a rounding below 0, which
        # the clamp makes +0.0: both passes must count and keep them in
        # bucket 0. Against the clamped triangle of the square product
        # (one strip at 300 points), over bucket ranges from 0 up.
        pool = rng.normal(size=(30, 2))[rng.integers(0, 30, 300)]
        p2 = np.einsum("ij,ij->i", pool, pool)
        raw = (p2[:, None] + p2[None, :] - 2.0 * (pool @ pool.T))[
            np.triu_indices(300, 1)]
        assert (raw < 0).any()
        clamped = np.maximum(raw, 0.0) + 0.0  # no -0.0
        buckets = distmatch._buckets(clamped)
        counts = distmatch._bucket_counts(pool)
        np.testing.assert_array_equal(
            counts, np.bincount(buckets, minlength=distmatch._BUCKETS))
        for first, last in ((0, 0), (0, buckets.max()), (buckets.max(),) * 2,
                            tuple(np.sort(rng.choice(buckets, 2)))):
            inside = (buckets >= first) & (buckets <= last)
            kept = distmatch._in_buckets(pool, first, last, inside.sum())
            np.testing.assert_array_equal(np.sort(kept),
                                          np.sort(clamped[inside]))

    @pytest.mark.parametrize("off", [-1, 1])
    def test_the_second_pass_must_keep_what_the_first_counted(self, rng, off):
        # A size that is not the number the strips keep would leave unset
        # entries in the median's array, or overrun it: both are errors.
        pool = rng.normal(size=(300, 2))
        last = distmatch._BUCKETS - 1
        with pytest.raises(RuntimeError, match="second pass kept"):
            distmatch._in_buckets(pool, 0, last, 300 * 299 // 2 + off)

    def test_buckets_order_as_the_values_16_to_an_octave(self):
        # From 0 through the subnormals and normals to inf, a larger value
        # never takes a lower bucket, and doubling a normal value moves it
        # 16 buckets up; every such bucket is below _BUCKETS, and one with
        # its sign bit set (-0.0 too) is not.
        tiny = np.finfo(np.float64).tiny
        values = np.sort(np.concatenate([
            [0.0, 5e-324, tiny / 3, tiny, 1.0, 1.5, 2.0, np.inf],
            10.0 ** np.linspace(-307, 307, 4001)]))
        buckets = distmatch._buckets(values)
        assert buckets[0] == 0 and buckets[-1] < distmatch._BUCKETS
        assert (np.diff(buckets) >= 0).all()
        normal = values[(values >= tiny) & (values < 1e300)]
        assert (distmatch._buckets(2.0 * normal)
                == distmatch._buckets(normal) + 16).all()
        assert (distmatch._buckets(np.array([-0.0, -5e-324, -1.0, -np.inf]))
                >= distmatch._BUCKETS).all()

    @pytest.mark.parametrize("first,last", [(0, 0), (0, 16370), (1, 1),
                                            (16370, 16371), (16370, 0x7FF0),
                                            (0x7FF0, 0x7FF0)])
    def test_bucket_range_spans_its_buckets(self, first, last):
        # lo and hi are the extreme doubles whose buckets, clamped at 0, lie
        # in first..last: a negative clamps into bucket 0, and inf's bucket
        # holds inf alone once the NaNs are set apart.
        lo, hi = distmatch._bucket_range(first, last)
        def bucket(v):
            return int(distmatch._buckets(np.maximum(np.array(v), 0.0)))

        assert bucket(hi) == last
        if first == 0:
            assert lo == -np.inf
        else:
            assert bucket(lo) == first
            assert bucket(np.nextafter(lo, -np.inf)) == first - 1
        if last == 0x7FF0:
            assert hi == np.inf
        else:
            assert bucket(np.nextafter(hi, np.inf)) == last + 1


class TestMMD:
    def test_hand_computed_value(self):
        x = np.array([[0.0], [1.0]])
        v, _, _ = mmd2_unbiased(x, x.copy(), KernelSpec(1.0))
        assert abs(v - (np.exp(-0.5) - 1.0)) < 1e-12

    def test_unbiased_under_null(self):
        estimates = []
        for t in range(100):
            r = substream(t, "tests", "mmd-null")
            x = r.normal(size=(60, 2))
            y = r.normal(size=(60, 2))
            estimates.append(mmd2_unbiased(x, y, KernelSpec(1.0))[0])
        estimates = np.array(estimates)
        se = estimates.std() / np.sqrt(len(estimates))
        assert abs(estimates.mean()) <= 3.0 * se

    def test_permutation_invariance(self, rng):
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=(25, 2))
        k = KernelSpec(0.8)
        v0, _, _ = mmd2_unbiased(x, y, k)
        v1, _, _ = mmd2_unbiased(x[rng.permutation(30)], y[rng.permutation(25)], k)
        assert abs(v0 - v1) <= 1e-12

    def test_detects_mean_shift(self, rng):
        x = rng.normal(size=(200, 2))
        y = rng.normal(size=(200, 2)) + 2.0
        v, _, _ = mmd2_unbiased(x, y, KernelSpec(1.0))
        assert v > 0.1

    def test_too_few_samples(self, rng):
        with pytest.raises(ValidationError):
            mmd2_unbiased(rng.normal(size=(1, 2)), rng.normal(size=(5, 2)),
                          KernelSpec(1.0))


# Strip budgets (entries of a Gram strip, distmatch._STRIP) that MMD must
# give the same answers at, each a function of the call's row counts m and n:
# one-row strips; strips of m - 1 rows against the n columns of y, so the
# cross Gram's last strip holds one row; and one strip for each whole Gram.
# The tests without a budget run at the default, under which a square Gram
# of 362 rows is one strip, of 363 two, of 512 two full ones of 256 rows,
# and of 1200 eleven and a one-row twelfth; they take every BUDGET_SIZES
# pair too.
STRIP_BUDGETS = {"one-row": lambda m, n: 1,
                 "one-row-last": lambda m, n: max(1, m - 1) * n,
                 "single": lambda m, n: max(m, n) ** 2}


@pytest.fixture(params=list(STRIP_BUDGETS))
def strip_budget(request, monkeypatch):
    """Call with (m, n) to set distmatch._STRIP for this test."""
    def set_budget(m, n):
        budget = STRIP_BUDGETS[request.param](m, n)
        monkeypatch.setattr(distmatch, "_STRIP", budget)
    return set_budget


# Row counts for the tests at every budget: the fewest rows, unequal sets,
# and sizes across the default budget's strip boundaries.
BUDGET_SIZES = [(2, 2), (3, 5), (363, 363), (1000, 513), (1200, 600)]


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMMDValueOnly:
    """Both paths sum the Grams in the same strips, each of at most
    distmatch._STRIP entries; grad=False must return the gradient path's
    value byte for byte, also at and across strip boundaries and at any
    budget."""

    @staticmethod
    def _same(x, y, k):
        full, value = mmd2_unbiased(x, y, k)[0], mmd2_unbiased(x, y, k, grad=False)[0]
        return np.float64(full).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (362, 362), (363, 363),
                                     (511, 512), (512, 512), (513, 1025),
                                     (1000, 513), (1200, 600)])
    def test_matches_gradient_path(self, rng, m, n):
        x = rng.normal(size=(m, 2))
        y = rng.normal(size=(n, 2)) + 0.5
        assert self._same(x, y, KernelSpec(0.8))

    @pytest.mark.parametrize("m,n", BUDGET_SIZES)
    def test_matches_gradient_path_at_any_strip_budget(self, rng, strip_budget,
                                                       m, n):
        strip_budget(m, n)
        self.test_matches_gradient_path(rng, m, n)

    @pytest.mark.parametrize("bandwidth", [1e-3, 1e3])
    def test_matches_at_extreme_bandwidths(self, rng, bandwidth):
        x = rng.normal(size=(700, 3))
        y = rng.normal(size=(600, 3))
        assert self._same(x, y, KernelSpec(bandwidth))

    def test_matches_on_coincident_points(self, rng):
        x = np.repeat(rng.normal(size=(10, 2)), 60, axis=0)
        assert self._same(x, x.copy(), KernelSpec(1.0))

    def test_returns_no_gradients(self, rng):
        _, gx, gy = mmd2_unbiased(rng.normal(size=(20, 2)),
                                  rng.normal(size=(30, 2)), KernelSpec(1.0),
                                  grad=False)
        assert gx is None and gy is None

    @pytest.mark.parametrize("x,y,kernel", [
        (np.array([[0.0, np.nan], [1.0, 2.0]]), np.ones((3, 2)), KernelSpec(1.0)),
        (np.ones((1, 2)), np.ones((5, 2)), KernelSpec(1.0)),
        (np.ones((4, 2)), np.ones((4, 3)), KernelSpec(1.0)),
    ], ids=["nan", "one-row", "dimension"])
    def test_rejects_what_the_gradient_path_rejects(self, x, y, kernel):
        with pytest.raises(ValidationError) as full:
            mmd2_unbiased(x, y, kernel)
        with pytest.raises(ValidationError, match=re.escape(str(full.value))):
            mmd2_unbiased(x, y, kernel, grad=False)

    def test_forms_no_square_gram(self, rng):
        # One 4096 x 4096 float64 matrix is 128 MiB; one 32 x 4096 strip of
        # 2^17 entries is 1 MiB, and the call peaked at 1.3 MiB. Strips of
        # 512 rows peaked at 16.3 MiB, and holding the old strip while the
        # next formed at 32.
        x = rng.normal(size=(4096, 2))
        y = rng.normal(size=(4096, 2))
        peak = _peak_bytes(lambda: mmd2_unbiased(x, y, KernelSpec(1.0), grad=False))
        assert peak < 2 * 2**20


class TestOneProductGram:
    """_gram forms -|x - y|^2 / (2 sigma^2) as one product of augmented rows
    [x, |x|^2, 1] and c [-2y, 1, |y|^2]. Far from the origin both it and the
    norm expansion it replaced lose digits to cancelling squared norms; it
    must lose no more than twice as many."""

    @staticmethod
    def _exact(x, y, sig):
        d = x[:, None, :] - y[None, :, :]
        return np.exp(np.einsum("ijk,ijk->ij", d, d) / (-2.0 * sig * sig))

    @staticmethod
    def _norm_expansion(x, y, sig):
        x2, y2 = np.einsum("ij,ij->i", x, x), np.einsum("ij,ij->i", y, y)
        d2 = np.maximum(-2.0 * (x @ y.T) + x2[:, None] + y2[None, :], 0.0)
        return np.exp(d2 / (-2.0 * sig * sig))

    @pytest.mark.parametrize("offset", [0.0, 10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("sig", [0.5, 2.0])
    def test_error_at_most_twice_the_norm_expansion(self, rng, offset, sig):
        x = rng.normal(size=(300, 2)) + offset
        y = rng.normal(size=(200, 2)) + offset + 0.3
        exact = self._exact(x, y, sig)
        old = np.abs(self._norm_expansion(x, y, sig) - exact).max()
        new = np.abs(_gram(_rows(x), _cols(y, sig)) - exact).max()
        assert new <= 2.0 * max(old, 1e-16), (new, old)

    def test_coincident_points_give_one(self, rng):
        x = rng.normal(size=(50, 3)) * 5.0
        k = _gram(_rows(x), _cols(x, 0.7))
        assert np.all(k <= 1.0)
        np.testing.assert_allclose(np.diag(k), 1.0, rtol=0, atol=1e-12)


class TestTwoScale:
    """KernelSpec(sigma, two_scale=True) is k_sigma + k_{sigma/2}: its MMD^2
    is the sum of the MMD^2 at sigma and at sigma/2, with the sigma/2 Gram
    taken by squaring the sigma strip twice."""

    @pytest.mark.parametrize("n", [511, 512, 513, 1025, 4096])
    def test_equals_the_sum_of_both_bandwidths(self, rng, n):
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=(n, 2)) * 1.2 + 0.3
        two = mmd2_unbiased(x, y, KernelSpec(1.0, two_scale=True), grad=False)
        one = (mmd2_unbiased(x, y, KernelSpec(1.0), grad=False)[0]
               + mmd2_unbiased(x, y, KernelSpec(0.5), grad=False)[0])
        assert abs(two[0] - one) <= 1e-15
        assert two[1] is None and two[2] is None

    def test_unequal_sets_and_coincident_points(self, rng):
        x = np.repeat(rng.normal(size=(10, 2)), 60, axis=0)
        y = np.vstack([x[:300], rng.normal(size=(213, 2))])
        two = mmd2_unbiased(x, y, KernelSpec(0.7, two_scale=True), grad=False)[0]
        one = (mmd2_unbiased(x, y, KernelSpec(0.7), grad=False)[0]
               + mmd2_unbiased(x, y, KernelSpec(0.35), grad=False)[0])
        assert abs(two - one) <= 1e-15

    def test_gradient_is_rejected(self, rng):
        x, y = rng.normal(size=(20, 2)), rng.normal(size=(30, 2))
        with pytest.raises(ValidationError, match="value-only"):
            mmd2_unbiased(x, y, KernelSpec(1.0, two_scale=True))

    def test_needs_a_bandwidth(self):
        with pytest.raises(TypeError, match="bandwidth"):
            KernelSpec(two_scale=True)

    def test_hsic_rejects_it(self, rng):
        u, v = rng.normal(size=(20, 2)), rng.normal(size=(20, 1))
        with pytest.raises(ValidationError, match="one-scale"):
            hsic_biased(u, v, KernelSpec(1.0, two_scale=True), KernelSpec(1.0))


# ---------------------------------------------------------------------------
# Full-matrix reference: the MMD and HSIC formulas written over whole Gram
# and centred matrices, with row sums and products taken separately. The
# squared distances are summed in the engine's order, so both sides see the
# same kernel entries and the comparison measures the reductions; at small
# bandwidths the norm expansion itself is only good to about
# eps |x|^2 / sigma^2 in any order.
# ---------------------------------------------------------------------------

def ref_gram(x, y, sig):
    x2 = np.einsum("ij,ij->i", x, x)
    y2 = np.einsum("ij,ij->i", y, y)
    d2 = np.maximum(-2.0 * (x @ y.T) + x2[:, None] + y2[None, :], 0.0)
    return np.exp(d2 / (-2.0 * sig * sig))


def ref_mmd(x, y, sig):
    """Also returns, per gradient, the size of the terms it subtracts: the
    largest Gram row sum times the largest coordinate, over sigma^2."""
    m, n = x.shape[0], y.shape[0]
    cxx, cyy, cxy = 1.0 / (m * (m - 1)), 1.0 / (n * (n - 1)), 2.0 / (m * n)
    kxx = ref_gram(x, x, sig)
    np.fill_diagonal(kxx, 0.0)
    kyy = ref_gram(y, y, sig)
    np.fill_diagonal(kyy, 0.0)
    kxy = ref_gram(x, y, sig)
    value = cxx * kxx.sum() + cyy * kyy.sum() - cxy * kxy.sum()
    inv = 1.0 / (sig * sig)
    grad_x = -2.0 * cxx * inv * (kxx.sum(axis=1)[:, None] * x - kxx @ x)
    grad_x += cxy * inv * (kxy.sum(axis=1)[:, None] * x - kxy @ y)
    grad_y = -2.0 * cyy * inv * (kyy.sum(axis=1)[:, None] * y - kyy @ y)
    grad_y += cxy * inv * (kxy.sum(axis=0)[:, None] * y - kxy.T @ x)
    top = max(np.abs(x).max(), np.abs(y).max())
    scale_x = inv * top * (2.0 * cxx * kxx.sum(axis=1).max()
                           + cxy * kxy.sum(axis=1).max())
    scale_y = inv * top * (2.0 * cyy * kyy.sum(axis=1).max()
                           + cxy * kxy.sum(axis=0).max())
    return float(value), grad_x, grad_y, scale_x, scale_y


def ref_hsic(u, v, sig_u, sig_v):
    """Also returns, per gradient, the largest term the centring identity
    subtracts, (2 / (m sigma)^2) t_i |u_i| with t the row sums of K o L."""
    m = u.shape[0]
    k, l = ref_gram(u, u, sig_u), ref_gram(v, v, sig_v)
    hk = k - k.mean(axis=0, keepdims=True)
    hkh = hk - hk.mean(axis=1, keepdims=True)
    hl = l - l.mean(axis=0, keepdims=True)
    hlh = hl - hl.mean(axis=1, keepdims=True)
    value = float(np.sum(k * hlh)) / (m * m)
    mu = hlh / (m * m) * k
    grad_u = (-2.0 / (sig_u * sig_u)) * (mu.sum(axis=1)[:, None] * u - mu @ u)
    mv = hkh / (m * m) * l
    grad_v = (-2.0 / (sig_v * sig_v)) * (mv.sum(axis=1)[:, None] * v - mv @ v)
    t = (k * l).sum(axis=1).max()
    return (value, grad_u, grad_v,
            2.0 * t * np.abs(u).max() / (m * sig_u) ** 2,
            2.0 * t * np.abs(v).max() / (m * sig_v) ** 2)


def _assert_within(got, want, scale, what):
    """|got - want| <= 1e-12 * scale everywhere."""
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    assert err <= 1e-12 * scale, f"{what}: {err:.3g} > 1e-12 x {scale:.3g}"


def _check(got, want):
    """Both values are sums of kernel means in [0, 1], so they are held to
    1e-12 absolute; each gradient to 1e-12 of the largest term it subtracts
    (a gradient can cancel to far below its terms, as at a matched pair of
    distributions)."""
    _assert_within(got[0], want[0], 1.0, "value")
    _assert_within(got[1], want[1], want[3], "first gradient")
    _assert_within(got[2], want[2], want[4], "second gradient")


def _check_mmd(x, y, sig):
    _check(mmd2_unbiased(x, y, KernelSpec(sig)), ref_mmd(x, y, sig))


def _check_hsic(u, v, sig_u, sig_v):
    _check(hsic_biased(u, v, KernelSpec(sig_u), KernelSpec(sig_v)),
           ref_hsic(u, v, sig_u, sig_v))


class TestAgainstFullMatrixReference:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 5), (362, 362),
                                     (363, 363), (511, 511), (512, 512),
                                     (513, 513), (1000, 1000), (1025, 1025),
                                     (1200, 1200), (2048, 2048), (3, 1025),
                                     (1000, 513), (1200, 600)])
    def test_mmd_at_block_and_buffer_sizes(self, rng, m, n):
        _check_mmd(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)) + 0.5, 0.8)

    @pytest.mark.parametrize("m,n", BUDGET_SIZES)
    def test_mmd_at_any_strip_budget(self, rng, strip_budget, m, n):
        strip_budget(m, n)
        self.test_mmd_at_block_and_buffer_sizes(rng, m, n)

    @pytest.mark.parametrize("sig", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_mmd_across_bandwidths(self, rng, sig):
        _check_mmd(rng.normal(size=(600, 2)), rng.normal(size=(500, 2)) + 0.5, sig)

    def test_mmd_on_coincident_points(self, rng):
        x = np.repeat(rng.normal(size=(10, 2)), 60, axis=0)
        _check_mmd(x, x.copy(), 1.0)
        _check_mmd(x, np.vstack([x[:300], rng.normal(size=(200, 2))]), 0.5)

    @pytest.mark.parametrize("m", [4, 5, 511, 512, 513, 1000, 1025, 2048])
    def test_hsic_at_block_and_buffer_sizes(self, rng, m):
        u = rng.normal(size=(m, 2))
        _check_hsic(u, rng.normal(size=(m, 2)) + u ** 2, 0.8, 1.3)

    @pytest.mark.parametrize("m", [4, 363, 1000, 1200])
    def test_hsic_at_any_strip_budget(self, rng, strip_budget, m):
        strip_budget(m, m)
        self.test_hsic_at_block_and_buffer_sizes(rng, m)
        u = rng.normal(size=(m, 2))
        v = rng.normal(size=(m, 1)) + u[:, :1] ** 2
        k_u, k_v = KernelSpec(0.8), KernelSpec(1.3)
        full = hsic_biased(u, v, k_u, k_v)[0]
        value = hsic_biased(u, v, k_u, k_v, grad=False)[0]
        assert np.float64(full).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("sig", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_hsic_across_bandwidths(self, rng, sig):
        u = rng.normal(size=(600, 2))
        _check_hsic(u, rng.normal(size=(600, 2)) + u ** 2, sig, sig)

    def test_hsic_on_coincident_points(self, rng):
        u = np.repeat(rng.normal(size=(10, 2)), 60, axis=0)
        _check_hsic(u, u[:, :1] ** 2, 1.0, 0.7)
        _check_hsic(u, np.ones((600, 1)), 1.0, 1.0)

    @pytest.mark.parametrize("du,dv", [(1, 3), (3, 1), (2, 5)])
    def test_hsic_with_views_of_different_widths(self, rng, du, dv):
        u = rng.normal(size=(300, du))
        v = rng.normal(size=(300, dv)) + np.sin(u[:, :1])
        _check_hsic(u, v, 1.1, 0.9)


class TestMemory:
    """tracemalloc peaks; one 2048 x 2048 float64 matrix is 32 MiB."""

    def test_mmd_gradient_path_holds_one_strip(self, rng):
        # The three-Gram body peaked at 128 MiB and the one-Gram body at
        # 32.5 MiB. A 64 x 2048 Gram strip of 2^17 entries is 1 MiB, and the
        # call peaked at 1.5 MiB. 512-row strips (8 MiB) peaked at 8.5, and
        # keeping the old strip while the next formed at 16.4.
        x, y = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 2))
        assert _peak_bytes(lambda: mmd2_unbiased(x, y, KernelSpec(1.0))) < 2 * 2**20

    def test_two_scale_score_holds_one_strip(self, rng):
        # A 32 x 4096 strip of 2^17 entries is 1 MiB, and the call peaked at
        # 1.3 MiB; 512-row strips (16 MiB) peaked at 16.3. The sigma/2 Gram
        # is squared in the sigma strip's buffer, so no second strip is alive.
        x, y = rng.normal(size=(4096, 2)), rng.normal(size=(4096, 2))
        kernel = KernelSpec(1.0, two_scale=True)
        assert _peak_bytes(
            lambda: mmd2_unbiased(x, y, kernel, grad=False)) < 2 * 2**20

    def test_resolve_holds_strips_not_the_distance_triangle(self, rng):
        # The 2000-point pool's upper triangle is 15.3 MiB and a 65 x 2000
        # strip 1 MiB. Holding the triangle in one buffer peaked at 18.3 MiB;
        # two passes over the strips, keeping only the middle buckets'
        # distances, peaked at 3.2. Forming the square distance matrix
        # (30.5 MiB) in the Gram's buffer and concatenating its rows' upper
        # parts peaked at 46 MiB, four full-size temporaries at 62 and
        # np.triu_indices' two index arrays at 76.
        a, b = rng.normal(size=(3000, 2)), rng.normal(size=(3000, 2))
        assert _peak_bytes(lambda: KernelSpec.resolve(a, b)) < 5 * 2**20

    @pytest.mark.parametrize("m,grad", [(1024, False), (1000, True)])
    def test_hsic_holds_two_strips(self, rng, m, grad):
        # With centred copies it peaked at 80 MiB. Forming the two full
        # Grams K and L peaked at 16.0 MiB value-only at 1024 rows and at
        # 15.5 with gradients at 1000. One strip of K and one of L, each
        # _strip_rows(m) x m (1 MiB), peaked at 2.2 and 2.4.
        u, v = rng.normal(size=(m, 2)), rng.normal(size=(m, 1))
        assert _peak_bytes(lambda: hsic_biased(u, v, KernelSpec(1.0),
                                               KernelSpec(1.0), grad=grad)
                           ) < 4 * 2**20

    def test_gan_value_only_keeps_no_activations(self, rng, monkeypatch):
        # Keeping every layer's pre- and post-activations for both views
        # peaked at 214 MiB. Forward only, over whole views one after the
        # other, a 2048 x 1024 layer output (16 MiB) and the next one (8.1
        # MiB) were alive at once, and the call peaked at 24.2 MiB; side by
        # side it would have been 48.3. Over 128-row strips, the views side
        # by side (2 cores, one BLAS thread), it peaked at 4.0 to 4.1 MiB in
        # float64 and at 2.04 to 2.05 in float32, the net's dtype.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(numerics, "usable_cores", lambda: 2)
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        u, v = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 2))
        assert _peak_bytes(
            lambda: gan_value_and_grads(f, u, v, grads="none")) < 3 * 2**20

    @pytest.mark.parametrize("cores", [1, 2])
    def test_gan_training_step_holds_two_views_at_most(self, rng, monkeypatch,
                                                       cores):
        # A 1000-row discriminator step, its views one after the other (1
        # core) and side by side (2 cores, one BLAS thread). Over whole
        # views a view's activations, widths 1024 + 521 + 512 + 256 + 128 +
        # 64 = 2505 at 8 bytes, were 19.1 MiB when its forward pass ended
        # and 21.2 at its backward pass's peak; the call peaked at 28.2 MiB
        # one after the other and 41.6 side by side. Over 128-row strips a
        # view holds its parameter gradients (7.4 MiB), the reused
        # dz.T @ acts buffer (4.1) and one strip's activations (2.4): the
        # call peaked at 21.6 MiB one after the other and 28.3 side by side.
        # In float32, the net's dtype, each of these is half as large, and
        # the call peaked at 10.9 and 14.2 MiB.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(numerics, "usable_cores", lambda: cores)
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        u, v = rng.normal(size=(1000, 2)), rng.normal(size=(1000, 2))
        assert _peak_bytes(
            lambda: gan_value_and_grads(f, u, v, grads="params")) < 15 * 2**20

    def test_gan_generator_pass_holds_strips(self, rng, monkeypatch):
        # The projection update's 1000-row call, its views side by side (2
        # cores, one BLAS thread). Over whole views it peaked at 39.6 MiB;
        # over 128-row strips it holds one strip's activations (2.4 MiB)
        # and backward temporaries a view, and peaked at 5.3. In float32,
        # the net's dtype, the strip's activations are 1.2 MiB and the call
        # peaked at 2.66 to 2.76 MiB.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(numerics, "usable_cores", lambda: 2)
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        u, v = rng.normal(size=(1000, 2)), rng.normal(size=(1000, 2))
        assert _peak_bytes(
            lambda: gan_value_and_grads(f, u, v, grads="inputs")) < 3.5 * 2**20


class TestHSIC:
    def test_constant_input_zero(self, rng):
        u = rng.normal(size=(20, 2))
        v = np.full((20, 1), 3.14)
        value, gu, gv = hsic_biased(u, v, KernelSpec.resolve(u),
                                    KernelSpec.resolve(v))
        assert abs(value) <= 1e-12
        assert np.allclose(gu, 0.0) and np.allclose(gv, 0.0)

    def test_dependence_beats_shuffle(self):
        for t in range(100):
            r = substream(t, "tests", "hsic-dep")
            u = r.normal(size=(40, 1))
            k = KernelSpec.resolve(u)
            dep = hsic_biased(u, u.copy(), k, k)[0]
            indep = hsic_biased(u, u[r.permutation(40)], k, k)[0]
            assert dep > indep

    def test_nonnegative(self, rng):
        for _ in range(20):
            u = rng.normal(size=(15, 2))
            v = rng.normal(size=(15, 3))
            assert hsic_biased(u, v, KernelSpec.resolve(u),
                               KernelSpec.resolve(v))[0] >= -1e-12

    def test_permutation_invariance(self, rng):
        u = rng.normal(size=(18, 2))
        v = rng.normal(size=(18, 2))
        ku, kv = KernelSpec(1.0), KernelSpec(1.2)
        v0 = hsic_biased(u, v, ku, kv)[0]
        p = rng.permutation(18)
        v1 = hsic_biased(u[p], v[p], ku, kv)[0]
        assert abs(v0 - v1) <= 1e-12

    @pytest.mark.parametrize("m", [4, 5, 511, 512, 513, 1024])
    def test_value_only_matches_the_gradient_path(self, rng, m):
        # grad=False sums K o L by a product with one column instead of the
        # last of [u, v, 1], so the two values may differ in the last bits.
        u = rng.normal(size=(m, 2))
        v = rng.normal(size=(m, 1)) + u[:, :1] ** 2
        ku, kv = KernelSpec(0.9), KernelSpec(1.1)
        value, gu, gv = hsic_biased(u, v, ku, kv, grad=False)
        assert gu is None and gv is None
        assert abs(value - hsic_biased(u, v, ku, kv)[0]) <= 1e-15
        assert abs(value - ref_hsic(u, v, 0.9, 1.1)[0]) <= 1e-12

    def test_row_mismatch(self, rng):
        with pytest.raises(ValidationError):
            hsic_biased(rng.normal(size=(8, 1)), rng.normal(size=(9, 1)),
                        KernelSpec(1.0), KernelSpec(1.0))

    def test_too_few_rows(self, rng):
        with pytest.raises(ValidationError):
            hsic_biased(rng.normal(size=(3, 1)), rng.normal(size=(3, 1)),
                        KernelSpec(1.0), KernelSpec(1.0))


class TestDiscriminator:
    def test_output_in_unit_interval(self, rng):
        f = Discriminator(3, hidden=(16, 8), rng=rng)
        p = f.forward(rng.normal(size=(40, 3)) * 50.0)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_uninformative_discriminator(self, rng):
        f = Discriminator(2, hidden=(8,), rng=rng)
        f.weights[-1][...] = 0.0
        f.biases[-1][...] = 0.0
        u = rng.normal(size=(10, 2))
        v = rng.normal(size=(12, 2))
        loss, _, gu, gv = gan_value_and_grads(f, u, v)
        assert abs(loss - 2.0 * np.log(0.5)) < 1e-12
        assert np.allclose(gu, 0.0) and np.allclose(gv, 0.0)

    def test_equilibrium_on_identical_distributions(self):
        rng = substream(5, "tests", "gan-eq")
        f = Discriminator(1, hidden=(16, 8), lr=5e-3, rng=rng)
        for _ in range(300):
            u = rng.normal(size=(128, 1))
            v = rng.normal(size=(128, 1))
            discriminator_step(f, u, v)
        u = rng.normal(size=(2000, 1))
        v = rng.normal(size=(2000, 1))
        acc = 0.5 * ((f.forward(u) > 0.5).mean() + (f.forward(v) <= 0.5).mean())
        assert abs(acc - 0.5) < 0.1

    def test_smoothing_changes_param_grads_only(self, rng):
        f = Discriminator(2, hidden=(6,), rng=rng)
        u = rng.normal(size=(5, 2))
        v = rng.normal(size=(5, 2))
        plain = gan_value_and_grads(f, u, v, smoothing=0.0)
        smooth = gan_value_and_grads(f, u, v, smoothing=0.2)
        assert not np.allclose(plain[1][0], smooth[1][0])

    def test_permutation_invariance(self, rng):
        f = float64_twin(Discriminator(2, hidden=(6,), rng=rng))
        u = rng.normal(size=(9, 2))
        v = rng.normal(size=(7, 2))
        l0 = gan_value_and_grads(f, u, v)[0]
        l1 = gan_value_and_grads(f, u[rng.permutation(9)],
                                 v[rng.permutation(7)])[0]
        assert abs(l0 - l1) <= 1e-12

    def test_wrong_width_rejected(self, rng):
        f = Discriminator(3, hidden=(4,), rng=rng)
        with pytest.raises(ValidationError):
            f.forward(rng.normal(size=(5, 2)))

    @staticmethod
    def _net_and_views(rng):
        # The default network. A scaled output layer and a wide second view
        # put some outputs into the probability clamp at both ends.
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        f.weights[-1] *= 1000.0
        return f, rng.normal(size=(48, 2)), 6.0 * rng.normal(size=(40, 2)) + 1.0

    @pytest.mark.parametrize("grads,kept", [("none", ()), ("params", (1,)),
                                            ("inputs", (2, 3))])
    def test_selected_gradients_are_the_full_call_bytes(self, rng, grads, kept):
        f, u, v = self._net_and_views(rng)
        full = gan_value_and_grads(f, u, v, 0.2)
        part = gan_value_and_grads(f, u, v, 0.2, grads=grads)
        assert np.float64(part[0]).tobytes() == np.float64(full[0]).tobytes()
        for slot in (1, 2, 3):
            if slot not in kept:
                assert part[slot] is None, slot
                continue
            got = part[slot] if slot > 1 else np.concatenate(
                [a.ravel() for a in part[slot]])
            want = full[slot] if slot > 1 else np.concatenate(
                [a.ravel() for a in full[slot]])
            assert got.tobytes() == want.tobytes(), slot

    def test_step_equals_a_step_on_the_full_call(self, rng):
        f, u, v = self._net_and_views(rng)
        g = copy.deepcopy(f)
        discriminator_step(f, u, v)
        _, grads, _, _ = gan_value_and_grads(g, u, v, _LABEL_SMOOTHING)
        params = [a for pair in zip(g.weights, g.biases) for a in pair]
        for adam, p, grad in zip(g.adam, params, grads):
            p[...] = adam.step(p, -grad)
        for a, b in zip(f.weights + f.biases, g.weights + g.biases):
            assert a.tobytes() == b.tobytes()

    def test_forward_keeps_no_cache_and_matches_the_cached_pass(self, rng):
        f, u, _ = self._net_and_views(rng)
        p, cache = f._forward(u)
        assert cache is None
        assert f.forward(u).tobytes() == p.tobytes()
        assert f._forward(u, keep=True)[0].tobytes() == p.tobytes()


def _gan_calls(f, u, v):
    """gan_value_and_grads(f, u, v, 0.2) in every grads mode, by mode."""
    return {grads: gan_value_and_grads(f, u, v, 0.2, grads=grads)
            for grads in distmatch._GRADS}


def _flat(slot):
    """One gan_value_and_grads slot as one array, or None."""
    return np.concatenate([a.ravel() for a in slot]) if isinstance(
        slot, list) else slot


class TestDiscriminatorStrips:
    """Each view runs over strips of _strip_rows(widest layer) rows, the
    input and output layers counted. At any strip budget the value and
    every gradient must agree with one strip's to round-off, and within one
    budget every grads mode must give the same bytes. The nets here have
    float64 layers, so that round-off is float64's; TestFloat32 checks the
    float32 nets a fit builds."""

    @staticmethod
    def _net_and_views(rng, hidden, n, float64=True):
        # A scaled output layer and a wide second view put some outputs
        # into the probability clamp at both ends.
        f = Discriminator(3, hidden=hidden, rng=rng)
        if float64:
            f = float64_twin(f)
        f.weights[-1] *= 30.0
        return f, rng.normal(size=(n, 3)), 4.0 * rng.normal(size=(n, 3)) + 1.0

    @staticmethod
    def _assert_same_bytes_in_every_mode(calls):
        full = calls["all"]
        for grads, call in calls.items():
            assert np.float64(call[0]).tobytes() == np.float64(
                full[0]).tobytes(), grads
            for slot in (1, 2, 3):
                if call[slot] is not None:
                    assert _flat(call[slot]).tobytes() == _flat(
                        full[slot]).tobytes(), (grads, slot)

    @staticmethod
    def _assert_close(got, want, value=1e-12, grads=1e-12):
        # Within `value` of the value, and `grads` of each gradient's
        # largest entry: an entry summed from terms that cancel keeps only
        # the terms' absolute round-off, so its own relative error can be
        # far larger.
        assert got[0] == pytest.approx(want[0], rel=value, abs=0)
        for slot in (1, 2, 3):
            g, w = _flat(got[slot]), _flat(want[slot])
            assert np.abs(g - w).max() <= grads * np.abs(w).max(), slot

    @pytest.mark.parametrize("hidden", [(40, 24), ()])
    @pytest.mark.parametrize("n", [2, 363, 1000])
    def test_any_strip_budget_agrees_with_one_strip(self, rng, monkeypatch,
                                                    strip_budget, hidden, n):
        f, u, v = self._net_and_views(rng, hidden, n)
        widest = max(3, *hidden, 1)
        monkeypatch.setattr(distmatch, "_STRIP",
                            STRIP_BUDGETS["single"](n, widest))
        one = gan_value_and_grads(f, u, v, 0.2)
        strip_budget(n, widest)
        calls = _gan_calls(f, u, v)
        self._assert_same_bytes_in_every_mode(calls)
        self._assert_close(calls["all"], one)

    def test_default_net_over_several_strips(self, rng, monkeypatch):
        # 300 rows of the default net are strips of 128, 128 and 44 rows.
        f = float64_twin(Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng))
        f.weights[-1] *= 1000.0
        u, v = rng.normal(size=(300, 2)), 6.0 * rng.normal(size=(300, 2))
        calls = _gan_calls(f, u, v)
        self._assert_same_bytes_in_every_mode(calls)
        monkeypatch.setattr(distmatch, "_STRIP", 300 * 1024)
        self._assert_close(calls["all"], gan_value_and_grads(f, u, v, 0.2))

    def test_forward_agrees_at_one_row_strips(self, rng, monkeypatch):
        f, u, _ = self._net_and_views(rng, (40, 24), 363)
        want = f.forward(u)
        monkeypatch.setattr(distmatch, "_STRIP", 1)
        assert np.abs(f.forward(u) - want).max() <= 1e-12 * want.max()

    def test_forward_holds_strips(self, rng):
        # A 4096-row held-out evaluation of the default net. Whole, its
        # 4096 x 1024 first layer output alone is 32 MiB; over 128-row
        # strips the call holds one strip's two widest layers.
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        x = rng.normal(size=(4096, 2))
        assert _peak_bytes(lambda: f.forward(x)) < 4 * 2**20

    def test_no_hidden_layer(self, rng):
        # One linear layer and a sigmoid: the input gradient of view u is
        # dz times the weights, row by row, and the parameter gradient of
        # the weights is dz.T @ u; here checked against those expressions.
        f = float64_twin(Discriminator(3, hidden=(), rng=rng))
        u, v = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
        loss, pg, gu, gv = gan_value_and_grads(f, u, v)
        pu = 1.0 / (1.0 + np.exp(-(u @ f.weights[0].T + f.biases[0])[:, 0]))
        pv = 1.0 / (1.0 + np.exp(-(v @ f.weights[0].T + f.biases[0])[:, 0]))
        assert loss == pytest.approx(np.log(pu).mean() + np.log1p(-pv).mean(),
                                     rel=1e-12)
        dzu, dzv = (1.0 - pu) / 7, -pv / 5
        np.testing.assert_allclose(gu, dzu[:, None] * f.weights[0], rtol=1e-12)
        np.testing.assert_allclose(gv, dzv[:, None] * f.weights[0], rtol=1e-12)
        np.testing.assert_allclose(pg[0], [dzu @ u + dzv @ v], rtol=1e-12)
        np.testing.assert_allclose(pg[1], [dzu.sum() + dzv.sum()], rtol=1e-12)


class TestFloat32:
    """A discriminator as a fit builds it computes in float32, its layers'
    dtype: its strips, activations, parameter gradients and Adam moments
    are float32, its probabilities, value and input gradients float64. The
    bounds below were set from measurement: on these draws and on those of
    12 other seeds, the largest error seen is named at each."""

    def test_layers_are_the_float64_draws_rounded(self, rng):
        draws = copy.deepcopy(rng)
        f = Discriminator(2, hidden=(8, 4), rng=rng)
        for w in f.weights:
            fan_out, fan_in = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            want = draws.uniform(-bound, bound, size=w.shape)
            assert w.dtype == np.float32
            assert w.tobytes() == want.astype(np.float32).tobytes()
        assert [b.dtype for b in f.biases] == [np.float32] * 3
        assert not any(b.any() for b in f.biases)

    def test_what_is_float32_and_what_float64(self, rng):
        f = Discriminator(2, hidden=(8, 4), rng=rng)
        u, v = rng.normal(size=(20, 2)), rng.normal(size=(30, 2))
        loss, pg, gu, gv = gan_value_and_grads(f, u, v)
        assert type(loss) is float
        assert [g.dtype for g in pg] == [np.float32] * 6
        assert gu.dtype == gv.dtype == f.forward(u).dtype == np.float64
        discriminator_step(f, u, v)
        assert {a.dtype for a in f.weights + f.biases} == {
            np.dtype(np.float32)}
        assert {a.m.dtype for a in f.adam} == {np.dtype(np.float32)}
        assert {a.v.dtype for a in f.adam} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("hidden", [(40, 24), (64, 64), ()])
    @pytest.mark.parametrize("n", [363, 1000])
    def test_agrees_with_its_float64_twin(self, rng, hidden, n):
        # The value within 1e-7 (seen: 2.9e-9) and each gradient within
        # 2e-5 of its largest entry (seen: 2.4e-6). On the default net a
        # hidden unit whose pre-activation lies within float32 round-off of
        # 0 can take the other slope of the leaky ReLU: in 1 of 12 calls of
        # 300 rows two units did, and moved u's input gradient by 2e-2 of
        # its largest entry. The value is continuous there; it is checked
        # on the default net below.
        f = Discriminator(2, hidden=hidden, rng=rng)
        u, v = rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) + 0.5
        TestDiscriminatorStrips._assert_close(
            gan_value_and_grads(f, u, v, 0.2),
            gan_value_and_grads(float64_twin(f), u, v, 0.2), 1e-7, 2e-5)

    def test_default_net_value_agrees_with_its_float64_twin(self, rng):
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        u, v = rng.normal(size=(300, 2)), rng.normal(size=(300, 2)) + 0.5
        got = gan_value_and_grads(f, u, v, 0.2, grads="none")[0]
        want = gan_value_and_grads(float64_twin(f), u, v, 0.2, grads="none")[0]
        assert got == pytest.approx(want, rel=1e-7, abs=0)

    def test_default_net_gives_the_same_bytes_in_every_mode(self, rng):
        # 300 rows of the default net are strips of 128, 128 and 44 rows.
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        f.weights[-1] *= 1000.0
        u, v = rng.normal(size=(300, 2)), 6.0 * rng.normal(size=(300, 2))
        TestDiscriminatorStrips._assert_same_bytes_in_every_mode(
            _gan_calls(f, u, v))

    @pytest.mark.parametrize("hidden", [(40, 24), ()])
    @pytest.mark.parametrize("n", [2, 363, 1000])
    def test_any_strip_budget_agrees_with_one_strip(self, rng, monkeypatch,
                                                    strip_budget, hidden, n):
        # The value within 1e-6 (seen: 1.2e-7) and each gradient within
        # 5e-5 of its largest entry (seen: 7.5e-6): a product of a strip of
        # one row or of a few runs other BLAS kernels than a full strip's,
        # which round float32 otherwise. Every mode gives the same bytes.
        f, u, v = TestDiscriminatorStrips._net_and_views(rng, hidden, n,
                                                         float64=False)
        widest = max(3, *hidden, 1)
        monkeypatch.setattr(distmatch, "_STRIP",
                            STRIP_BUDGETS["single"](n, widest))
        one = gan_value_and_grads(f, u, v, 0.2)
        strip_budget(n, widest)
        calls = _gan_calls(f, u, v)
        TestDiscriminatorStrips._assert_same_bytes_in_every_mode(calls)
        TestDiscriminatorStrips._assert_close(calls["all"], one, 1e-6, 5e-5)

    def test_trains_as_its_float64_twin_does(self):
        # Two nets from one init, trained on the same batches to tell a
        # shift of 1.5 (Bayes accuracy 0.773). Over 8 seeds the held-out
        # accuracies differed by at most 2.5e-4, and read 0.764-0.778.
        rng = substream(0, "tests", "gan-float32")
        f = Discriminator(2, hidden=(32, 16), lr=5e-3, rng=rng)
        g = float64_twin(f)
        for adam in g.adam:
            adam.lr = 5e-3
        shift = np.array([1.5, 0.0])
        for _ in range(300):
            u = rng.normal(size=(128, 2))
            v = rng.normal(size=(128, 2)) + shift
            discriminator_step(f, u, v)
            discriminator_step(g, u, v)
        u = rng.normal(size=(4000, 2))
        v = rng.normal(size=(4000, 2)) + shift
        acc = [0.5 * ((net.forward(u) > 0.5).mean()
                      + (net.forward(v) <= 0.5).mean()) for net in (f, g)]
        assert abs(acc[0] - acc[1]) <= 0.02
        assert min(acc) > 0.72


def _float32_and_twin(x, y):
    """x and y rounded to float32, and the same values in float64: the
    float64 twin of a float32 MMD call."""
    x32, y32 = np.float32(x), np.float32(y)
    return (x32, y32), (np.float64(x32), np.float64(y32))


class TestFloat32MMD:
    """Given float32 sets, as a fit passes them, MMD forms its Gram strips,
    their sums and products in float32, adds them into float64, and
    returns a float value and float64 gradients. Each check compares it
    with its float64 twin, the same rounded values in float64. The bounds
    below were set from measurement: on these draws and on those of 12
    other seeds, and on the probe views of thm1a, thm1b, thm3-laplace and
    private-appxG at 1000 to 4096 rows, the largest error seen is named at
    each."""

    SIZES = [(2, 2), (3, 5), (363, 363), (1000, 513), (1200, 600),
             (2048, 2048)]

    @staticmethod
    def _assert_close(got, want, value_bound, grad_bound):
        """The values within value_bound, each gradient within grad_bound
        of its largest entry."""
        assert abs(got[0] - want[0]) <= value_bound
        for g, w in zip(got[1:], want[1:]):
            err = np.abs(g - w).max() / np.abs(w).max()
            assert err <= grad_bound, err

    @pytest.mark.parametrize("m,n", SIZES)
    def test_agrees_with_its_float64_twin(self, rng, m, n):
        # The value within 1e-6 (seen: 1.7e-7), each gradient within 5e-5
        # of its largest entry (seen: 1.2e-5) and the two-scale score
        # within 2e-6 (seen: 4.6e-7).
        low, twin = _float32_and_twin(rng.normal(size=(m, 2)),
                                      rng.normal(size=(n, 2)) + 0.5)
        self._assert_close(mmd2_unbiased(*low, KernelSpec(0.8)),
                           mmd2_unbiased(*twin, KernelSpec(0.8)), 1e-6, 5e-5)
        two = KernelSpec(0.8, two_scale=True)
        got = mmd2_unbiased(*low, two, grad=False)[0]
        assert abs(got - mmd2_unbiased(*twin, two, grad=False)[0]) <= 2e-6

    @pytest.mark.parametrize("m,n", BUDGET_SIZES)
    def test_value_only_path_gives_the_gradient_path_s_bytes(
            self, rng, strip_budget, m, n):
        strip_budget(m, n)
        low, _ = _float32_and_twin(rng.normal(size=(m, 2)),
                                   rng.normal(size=(n, 2)) + 0.5)
        assert TestMMDValueOnly._same(*low, KernelSpec(0.8))

    @pytest.mark.parametrize("m,n", BUDGET_SIZES)
    def test_any_strip_budget_agrees_with_one_strip(self, rng, monkeypatch,
                                                    strip_budget, m, n):
        # The value within 1e-6 (seen: 1.6e-7) and each gradient within
        # 5e-5 of its largest entry (seen: 8.9e-6): a strip's float32 sums
        # and products round by its shape.
        low, _ = _float32_and_twin(rng.normal(size=(m, 2)),
                                   rng.normal(size=(n, 2)) + 0.5)
        monkeypatch.setattr(distmatch, "_STRIP", STRIP_BUDGETS["single"](m, n))
        one = mmd2_unbiased(*low, KernelSpec(0.8))
        strip_budget(m, n)
        self._assert_close(mmd2_unbiased(*low, KernelSpec(0.8)), one,
                           1e-6, 5e-5)

    @pytest.mark.parametrize("scale,bound", [(1.0, 1e-5), (5.0, 2e-4)])
    def test_coincident_points_give_one(self, rng, scale, bound):
        # Within a few float32 eps of |x|^2 / (2 sigma^2), as the squared
        # norms and the product's dots round apart: 1e-5 at unit scale
        # (seen: 1.9e-6), 2e-4 at five times it (seen: 6.1e-5).
        x = np.float32(rng.normal(size=(50, 3)) * scale)
        k = _gram(_rows(x), _cols(x, 0.7))
        assert k.dtype == np.float32 and np.all(k <= 1.0)
        np.testing.assert_allclose(np.diag(k), 1.0, rtol=0, atol=bound)

    def test_coincident_sets_agree_with_the_reference(self, rng):
        # The value within 1e-6 (seen: 5.4e-8), each gradient within 1e-5
        # of the largest term it subtracts (seen: 1.2e-6; the gradients
        # cancel far below their terms here).
        x = np.repeat(rng.normal(size=(10, 2)), 60, axis=0)
        for y in (x.copy(), np.vstack([x[:300], rng.normal(size=(200, 2))])):
            low, twin = _float32_and_twin(x, y)
            got = mmd2_unbiased(*low, KernelSpec(0.5))
            want = ref_mmd(*twin, 0.5)
            assert abs(got[0] - want[0]) <= 1e-6
            for g, w, scale in zip(got[1:], want[1:3], want[3:]):
                assert np.abs(g - w).max() <= 1e-5 * scale

    def test_far_entries_stop_at_a_normal_float32(self):
        # Far pairs are raised to exp(_FLOOR32), whose fourth power, the
        # two-scale score's sigma/2 entry, is still a normal float32: a
        # subnormal made each of those steps 13-63x slower.
        x = np.zeros((3, 2), np.float32)
        y = np.full((4, 2), 100.0, np.float32)
        k = _gram(_rows(x), _cols(y, 1.0))
        assert np.all(k == np.exp(np.float32(distmatch._FLOOR32)))
        assert np.all(k ** 4 >= np.finfo(np.float32).tiny)
        # In float64 nothing is raised.
        assert np.all(_gram(_rows(np.float64(x)), _cols(np.float64(y), 1.0))
                      == 0.0)

    def test_returns_a_float_and_float64_gradients(self, rng):
        low, _ = _float32_and_twin(rng.normal(size=(20, 2)),
                                   rng.normal(size=(30, 2)))
        value, gx, gy = mmd2_unbiased(*low, KernelSpec(1.0))
        assert type(value) is float
        assert gx.dtype == gy.dtype == np.float64
        for grad in (False, True):
            value = mmd2_unbiased(*low, KernelSpec(1.0), grad=grad)[0]
            assert type(value) is float

    def test_one_float64_set_runs_both_in_float64(self, rng):
        (x32, y32), (x64, y64) = _float32_and_twin(rng.normal(size=(40, 2)),
                                                   rng.normal(size=(30, 2)))
        want = mmd2_unbiased(x64, y64, KernelSpec(1.0))
        for got in (mmd2_unbiased(x32, y64, KernelSpec(1.0)),
                    mmd2_unbiased(x64, y32, KernelSpec(1.0))):
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    def test_rejects_what_float64_rejects(self):
        x = np.ones((4, 2), np.float32)
        x[1, 0] = np.inf
        with pytest.raises(ValidationError, match="X contains NaN or Inf"):
            mmd2_unbiased(x, np.ones((3, 2), np.float32), KernelSpec(1.0))
        with pytest.raises(ValidationError, match="at least 2 samples"):
            mmd2_unbiased(np.ones((1, 2), np.float32),
                          np.ones((3, 2), np.float32), KernelSpec(1.0))

    def test_score_holds_one_strip(self, rng):
        # A float32 strip of 2^17 entries is 0.5 MiB; the 4096-row two-scale
        # score peaked at 0.66 MiB, against 1.31 in float64.
        low, _ = _float32_and_twin(rng.normal(size=(4096, 2)),
                                   rng.normal(size=(4096, 2)))
        kernel = KernelSpec(1.0, two_scale=True)
        assert _peak_bytes(
            lambda: mmd2_unbiased(*low, kernel, grad=False)) < 1 * 2**20


class TestFloat32HSIC:
    """Given float32 views, as a fit passes them, HSIC forms its two Gram
    strips and their products in float32, adds them into float64, and
    returns a float value and float64 gradients. Each check compares it
    with its float64 twin. The bounds below were set from measurement: on
    these draws and on those of 13 other seeds, and on a private-appxG
    fit's heads (workload recipe, seeds 0-3, both views, 1000 rows: value
    within 2.0e-9, gradients within 3.5e-5 of their largest entry), the
    largest error seen is named at each."""

    SIZES = [4, 5, 363, 1000, 1200, 2048]

    @staticmethod
    def _views(rng, m):
        u = rng.normal(size=(m, 2))
        return _float32_and_twin(u, rng.normal(size=(m, 1)) + u[:, :1] ** 2)

    @pytest.mark.parametrize("m", SIZES)
    def test_agrees_with_its_float64_twin(self, rng, m):
        # The value within 2e-7 (seen: 6.2e-8 at 4 rows, 1.6e-9 from 363
        # rows on), each gradient within 1e-4 of its largest entry (seen:
        # 2.4e-5).
        low, twin = self._views(rng, m)
        ku, kv = KernelSpec(0.9), KernelSpec(1.1)
        TestFloat32MMD._assert_close(hsic_biased(*low, ku, kv),
                                     hsic_biased(*twin, ku, kv), 2e-7, 1e-4)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_on_private_appxg_shaped_views(self, seed):
        # The true shared code (d_c = 2) against each view's private one
        # (d_p = 1), at 1000 rows and their own median-heuristic
        # bandwidths: the value within 1e-8 (seen: 2.1e-9), each gradient
        # within 2e-4 of its largest entry (seen: 6.0e-5).
        ds = small_dataset(seed=seed, n=1000, preset="private-appxG")
        for p in (ds.p1, ds.p2):
            low, twin = _float32_and_twin(ds.c, p)
            ku, kv = KernelSpec.resolve(ds.c), KernelSpec.resolve(p)
            TestFloat32MMD._assert_close(hsic_biased(*low, ku, kv),
                                         hsic_biased(*twin, ku, kv), 1e-8, 2e-4)

    @pytest.mark.parametrize("m", [4, 363, 1000, 1200])
    def test_value_only_path_gives_the_gradient_path_s_bytes(
            self, rng, strip_budget, m):
        strip_budget(m, m)
        low, _ = self._views(rng, m)
        ku, kv = KernelSpec(0.8), KernelSpec(1.3)
        value, gu, gv = hsic_biased(*low, ku, kv, grad=False)
        assert gu is None and gv is None
        full = hsic_biased(*low, ku, kv)[0]
        assert np.float64(value).tobytes() == np.float64(full).tobytes()

    @pytest.mark.parametrize("m", [4, 363, 1000, 1200])
    def test_any_strip_budget_agrees_with_one_strip(self, rng, monkeypatch,
                                                    strip_budget, m):
        # The value within 1e-7 (seen: 2.1e-8) and each gradient within
        # 1e-4 of its largest entry (seen: 3.3e-5): a strip's float32 sums
        # and products round by its shape.
        low, _ = self._views(rng, m)
        ku, kv = KernelSpec(0.8), KernelSpec(1.3)
        monkeypatch.setattr(distmatch, "_STRIP", STRIP_BUDGETS["single"](m, m))
        one = hsic_biased(*low, ku, kv)
        strip_budget(m, m)
        TestFloat32MMD._assert_close(hsic_biased(*low, ku, kv), one, 1e-7,
                                     1e-4)

    def test_returns_a_float_and_float64_gradients(self, rng):
        low, _ = self._views(rng, 20)
        value, gu, gv = hsic_biased(*low, KernelSpec(1.0), KernelSpec(1.0))
        assert type(value) is float
        assert gu.dtype == gv.dtype == np.float64
        value = hsic_biased(*low, KernelSpec(1.0), KernelSpec(1.0),
                            grad=False)[0]
        assert type(value) is float

    def test_one_float64_view_runs_both_in_float64(self, rng):
        (u32, v32), (u64, v64) = self._views(rng, 40)
        ku, kv = KernelSpec(1.0), KernelSpec(0.7)
        want = hsic_biased(u64, v64, ku, kv)
        for got in (hsic_biased(u32, v64, ku, kv),
                    hsic_biased(u64, v32, ku, kv)):
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()

    def test_rejects_what_float64_rejects(self):
        u = np.ones((4, 2), np.float32)
        u[1, 0] = np.nan
        with pytest.raises(ValidationError, match="U contains NaN or Inf"):
            hsic_biased(u, np.ones((4, 1), np.float32), KernelSpec(1.0),
                        KernelSpec(1.0))
        with pytest.raises(ValidationError, match="at least 4 rows"):
            hsic_biased(np.ones((3, 2), np.float32),
                        np.ones((3, 1), np.float32), KernelSpec(1.0),
                        KernelSpec(1.0))

    def test_gradient_call_holds_two_float32_strips(self, rng):
        # Two 131 x 1000 float32 strips are 0.5 MiB each; the 1000-row call
        # with gradients peaked at 1.30 MiB, against 2.38 in float64. A
        # strip transpose upcast to float64 by a float64 right factor would
        # add 1 MiB.
        low, _ = _float32_and_twin(rng.normal(size=(1000, 2)),
                                   rng.normal(size=(1000, 1)))
        assert _peak_bytes(lambda: hsic_biased(
            *low, KernelSpec(1.0), KernelSpec(1.0))) < 2 * 2**20


class TestViewsSideBySide:
    """A call runs the real view u and the fake view v side by side
    (numerics.side_by_side) when usable cores // BLAS threads >= 2; it must
    give the bytes and the errors of one view after the other."""

    @pytest.fixture
    def workers(self, monkeypatch, fresh_pool):
        """workers(n): n = 2 runs the views side by side, n = 1 one after
        the other; returns the list of helper pools the calls asked for."""
        asked = []
        real = numerics._helpers

        def counted():
            asked.append(real())
            return asked[-1]
        monkeypatch.setattr(numerics, "_helpers", counted)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

        def set_workers(n):
            monkeypatch.setattr(numerics, "usable_cores", lambda: n)
            asked.clear()
            return asked
        return set_workers

    @pytest.mark.parametrize("grads", ["params", "inputs", "all", "none"])
    def test_same_bytes_at_one_and_two_workers(self, rng, workers, grads):
        # A thread switch every microsecond interleaves the two views'
        # steps as finely as the interpreter allows.
        f, u, v = TestDiscriminator._net_and_views(rng)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1, 2):
                asked = workers(n)
                runs.append(gan_value_and_grads(f, u, v, 0.2, grads=grads))
                assert len(asked) == n - 1
        finally:
            sys.setswitchinterval(interval)
        alone, paired = runs
        assert np.float64(alone[0]).tobytes() == np.float64(paired[0]).tobytes()
        for a, b in zip(alone[1:], paired[1:]):
            if isinstance(a, list):
                assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
            else:
                assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_error_is_u_s_when_both_views_fail(self, rng, workers, n):
        # Side by side v may fail first; u's error is raised all the same,
        # as when u runs first. With u sound, v's error is raised.
        f, u, v = TestDiscriminator._net_and_views(rng)
        workers(n)
        bad_u, bad_v = u.copy(), v.copy()
        bad_u[3, 1] = np.nan
        bad_v[0, 0] = np.inf
        with pytest.raises(ValidationError, match=r"^discriminator input u "):
            gan_value_and_grads(f, bad_u, bad_v, grads="params")
        with pytest.raises(ValidationError, match=r"^discriminator input v "):
            gan_value_and_grads(f, u, bad_v, grads="inputs")

    def test_two_blas_threads_on_two_cores_start_no_worker(self, rng,
                                                           monkeypatch,
                                                           fresh_pool):
        # Each view would want both cores for its BLAS threads, so they run
        # one after the other: no helper is asked for and no thread starts.
        monkeypatch.setattr(numerics, "usable_cores", lambda: 2)
        f, u, v = TestDiscriminator._net_and_views(rng)
        before = set(threading.enumerate())
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        for grads in ("params", "inputs", "all", "none"):
            gan_value_and_grads(f, u, v, grads=grads)
        assert set(threading.enumerate()) == before and not fresh_pool
        # One BLAS thread on the same cores starts one pool helper, kept
        # for later calls, even in a pool with room for more; a value-only
        # call runs its views side by side as the others do.
        fresh_pool[os.getpid()] = numerics._Pool(4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        for grads in ("none", "params", "params"):
            gan_value_and_grads(f, u, v, grads=grads)
        started = set(threading.enumerate()) - before
        assert [t.name.split("_")[0] for t in started] == ["unisca-helper"]
