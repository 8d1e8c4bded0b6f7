import copy
import re
import tracemalloc

import numpy as np
import pytest

from unisca.distmatch import (DEFAULT_HIDDEN, Discriminator, KernelSpec,
                              discriminator_step, gan_value_and_grads,
                              hsic_biased, mmd2_unbiased)
from unisca.numerics import ValidationError, substream


class TestKernelSpec:
    def test_invalid_bandwidth(self):
        with pytest.raises(ValidationError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValidationError):
            KernelSpec(bandwidth=np.inf)

    def test_resolve_is_frozen(self, rng):
        x = rng.normal(size=(100, 3))
        k = KernelSpec().resolve(x)
        assert k.bandwidth is not None and k.bandwidth > 0
        assert k.resolve(rng.normal(size=(50, 3))).bandwidth == k.bandwidth

    def test_constant_input_fallback(self):
        k = KernelSpec().resolve(np.ones((20, 2)))
        assert k.bandwidth == 1.0

    def test_unresolved_rejected(self, rng):
        with pytest.raises(ValidationError):
            mmd2_unbiased(rng.normal(size=(4, 1)), rng.normal(size=(4, 1)),
                          KernelSpec())


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


def _peak_bytes(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMMDValueOnly:
    """Both paths sum the Grams in strips of 512 rows; grad=False must return
    the gradient path's value byte for byte, also at and across strip
    boundaries."""

    @staticmethod
    def _same(x, y, k):
        full, value = mmd2_unbiased(x, y, k)[0], mmd2_unbiased(x, y, k, grad=False)[0]
        return np.float64(full).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 5), (511, 512), (512, 512),
                                     (513, 1025), (1200, 600)])
    def test_matches_gradient_path(self, rng, m, n):
        x = rng.normal(size=(m, 2))
        y = rng.normal(size=(n, 2)) + 0.5
        assert self._same(x, y, KernelSpec(0.8))

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
        (np.ones((4, 2)), np.ones((4, 2)), KernelSpec()),
    ], ids=["nan", "one-row", "dimension", "unresolved"])
    def test_rejects_what_the_gradient_path_rejects(self, x, y, kernel):
        with pytest.raises(ValidationError) as full:
            mmd2_unbiased(x, y, kernel)
        with pytest.raises(ValidationError, match=re.escape(str(full.value))):
            mmd2_unbiased(x, y, kernel, grad=False)

    def test_forms_no_square_gram(self, rng):
        # One 4096 x 4096 float64 matrix is 128 MiB; one 512 x 4096 strip is
        # 16 MiB. Holding the old strip while the next formed peaked at 32.
        x = rng.normal(size=(4096, 2))
        y = rng.normal(size=(4096, 2))
        peak = _peak_bytes(lambda: mmd2_unbiased(x, y, KernelSpec(1.0), grad=False))
        assert peak < 24 * 2**20


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
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (511, 511), (512, 512),
                                     (513, 513), (1000, 1000), (1025, 1025),
                                     (2048, 2048), (3, 1025), (1000, 513)])
    def test_mmd_at_block_and_buffer_sizes(self, rng, m, n):
        _check_mmd(rng.normal(size=(m, 2)), rng.normal(size=(n, 2)) + 0.5, 0.8)

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
        # 32.5 MiB. A 512 x 2048 Gram strip is 8 MiB; keeping the old strip
        # while the next formed peaked at 16.4.
        x, y = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 2))
        assert _peak_bytes(lambda: mmd2_unbiased(x, y, KernelSpec(1.0))) < 12 * 2**20

    def test_resolve_indexes_the_triangle_with_a_mask(self, rng):
        # The 2000-point pool's squared distances are 30.5 MiB and the upper
        # triangle's distances 15 MiB; np.triu_indices' two index arrays
        # (15 MiB each) took the peak to 76 MiB.
        a, b = rng.normal(size=(3000, 2)), rng.normal(size=(3000, 2))
        assert _peak_bytes(lambda: KernelSpec().resolve(a, b)) < 68 * 2**20

    def test_hsic_holds_two_grams(self, rng):
        # With centred copies it peaked at 80 MiB; two 1024-row Grams are 16.
        u, v = rng.normal(size=(1024, 2)), rng.normal(size=(1024, 1))
        assert _peak_bytes(lambda: hsic_biased(u, v, KernelSpec(1.0),
                                               KernelSpec(1.0))) < 24 * 2**20

    def test_gan_value_only_keeps_no_activations(self, rng):
        # Keeping every layer's pre- and post-activations for both views
        # peaked at 214 MiB. Forward only, at most two 2048 x 1024 layer
        # outputs (16 MiB each) are alive at once.
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, rng=rng)
        u, v = rng.normal(size=(2048, 2)), rng.normal(size=(2048, 2))
        assert _peak_bytes(
            lambda: gan_value_and_grads(f, u, v, grads="none")) < 48 * 2**20


class TestHSIC:
    def test_constant_input_zero(self, rng):
        u = rng.normal(size=(20, 2))
        v = np.full((20, 1), 3.14)
        value, gu, gv = hsic_biased(u, v)
        assert abs(value) <= 1e-12
        assert np.allclose(gu, 0.0) and np.allclose(gv, 0.0)

    def test_dependence_beats_shuffle(self):
        for t in range(100):
            r = substream(t, "tests", "hsic-dep")
            u = r.normal(size=(40, 1))
            dep = hsic_biased(u, u.copy())[0]
            indep = hsic_biased(u, u[r.permutation(40)])[0]
            assert dep > indep

    def test_nonnegative(self, rng):
        for _ in range(20):
            u = rng.normal(size=(15, 2))
            v = rng.normal(size=(15, 3))
            assert hsic_biased(u, v)[0] >= -1e-12

    def test_permutation_invariance(self, rng):
        u = rng.normal(size=(18, 2))
        v = rng.normal(size=(18, 2))
        ku, kv = KernelSpec(1.0), KernelSpec(1.2)
        v0 = hsic_biased(u, v, ku, kv)[0]
        p = rng.permutation(18)
        v1 = hsic_biased(u[p], v[p], ku, kv)[0]
        assert abs(v0 - v1) <= 1e-12

    def test_row_mismatch(self, rng):
        with pytest.raises(ValidationError):
            hsic_biased(rng.normal(size=(8, 1)), rng.normal(size=(9, 1)))

    def test_too_few_rows(self, rng):
        with pytest.raises(ValidationError):
            hsic_biased(rng.normal(size=(3, 1)), rng.normal(size=(3, 1)))


class TestDiscriminator:
    def test_output_in_unit_interval(self, rng):
        f = Discriminator(3, hidden=(16, 8), rng=rng)
        p = f.forward(rng.normal(size=(40, 3)) * 50.0)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_parameter_count(self, rng):
        f = Discriminator(2, hidden=(1024, 521, 512, 256, 128, 64), rng=rng)
        dims = [2, 1024, 521, 512, 256, 128, 64, 1]
        expected = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
        assert f.n_params == expected

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

    def test_input_dropout_train_only(self):
        rng = substream(6, "tests", "gan-drop")
        f = Discriminator(4, hidden=(8,), input_dropout=0.5, rng=rng)
        x = rng.normal(size=(30, 4))
        assert np.array_equal(f.forward(x), f.forward(x))
        a = f._forward(x, train=True)[0]
        b = f._forward(x, train=True)[0]
        assert not np.array_equal(a, b)

    def test_permutation_invariance(self, rng):
        f = Discriminator(2, hidden=(6,), rng=rng)
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
        # The default network, with dropout so that a train=True call also
        # shows whether every selection draws the same masks. A scaled output
        # layer and a wide second view put some outputs into the probability
        # clamp at both ends.
        f = Discriminator(2, hidden=DEFAULT_HIDDEN, input_dropout=0.3, rng=rng)
        f.weights[-1] *= 1000.0
        return f, rng.normal(size=(48, 2)), 6.0 * rng.normal(size=(40, 2)) + 1.0

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("grads,kept", [("none", ()), ("params", (1,)),
                                            ("inputs", (2, 3))])
    def test_selected_gradients_are_the_full_call_bytes(self, rng, grads, kept,
                                                        train):
        f, u, v = self._net_and_views(rng)
        g = copy.deepcopy(f)  # the same weights and dropout stream
        full = gan_value_and_grads(f, u, v, 0.2, train)
        part = gan_value_and_grads(g, u, v, 0.2, train, grads=grads)
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
        _, grads, _, _ = gan_value_and_grads(g, u, v, g.label_smoothing,
                                             train=True)
        params = [a for pair in zip(g.weights, g.biases) for a in pair]
        for adam, p, grad in zip(g.adam, params, grads):
            p[...] = adam.step(p, -grad)
        for a, b in zip(f.weights + f.biases, g.weights + g.biases):
            assert a.tobytes() == b.tobytes()

    def test_forward_keeps_no_cache_and_matches_the_cached_pass(self, rng):
        f, u, _ = self._net_and_views(rng)
        p, _, cache = f._forward(u)
        assert cache is None
        assert f.forward(u).tobytes() == p.tobytes()
        assert f._forward(u, keep=True)[0].tobytes() == p.tobytes()
