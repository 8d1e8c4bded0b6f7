import json

import numpy as np
import pytest
from scipy import integrate, special

from unisca import datagen, matio
from unisca.datagen import (DistributionSpec, LatentSpec, MixingModel,
                            generate_dataset, preset, sample_anchors,
                            save_dataset, load_dataset)
from unisca.numerics import ValidationError, substream

from conftest import rewrite_archive


def _vonmises_moments(mu, kappa):
    """Linear mean/variance/4th central moment of the wrapped density on
    [-pi, pi], by quadrature (independent of the sampler)."""
    norm = 2.0 * np.pi * special.i0(kappa)
    pdf = lambda x: np.exp(kappa * np.cos(x - mu)) / norm
    m = integrate.quad(lambda x: x * pdf(x), -np.pi, np.pi)[0]
    var = integrate.quad(lambda x: (x - m) ** 2 * pdf(x), -np.pi, np.pi)[0]
    m4 = integrate.quad(lambda x: (x - m) ** 4 * pdf(x), -np.pi, np.pi)[0]
    return m, var, m4


def _analytic_moments(spec):
    """(mean, variance) oracles for each marginal kind."""
    k, p = spec.kind, spec.params
    if k == "normal":
        return p[0], p[1] ** 2
    if k == "uniform":
        return (p[0] + p[1]) / 2.0, (p[1] - p[0]) ** 2 / 12.0
    if k == "laplace":
        return p[0], 2.0 * p[1] ** 2
    if k == "gamma":
        return p[0] * p[1], p[0] * p[1] ** 2
    if k == "beta":
        a, b = p
        return a / (a + b), a * b / ((a + b) ** 2 * (a + b + 1.0))
    if k == "vonmises":
        m, var, _ = _vonmises_moments(*p)
        return m, var
    mean = sum(w * m for w, m, _ in p)
    var = sum(w * (s * s + m * m) for w, m, s in p) - mean ** 2
    return mean, var


MOMENT_SPECS = [
    DistributionSpec("normal", (1.5, 2.0)),
    DistributionSpec("uniform", (-10.0, 10.0)),
    DistributionSpec("laplace", (1.0, 6.5)),
    DistributionSpec("gamma", (1.0, 3.0)),
    DistributionSpec("gamma", (0.5, 3.0)),
    DistributionSpec("beta", (1.0, 3.0)),
    DistributionSpec("vonmises", (2.5, 2.0)),
    DistributionSpec("mixture", [(0.2, -4.0, 1.0), (0.5, 0.0, 2.0), (0.3, 5.0, 1.5)]),
]


class TestDistributions:
    @pytest.mark.parametrize("spec", MOMENT_SPECS, ids=lambda s: s.kind)
    def test_moments_within_3se(self, spec):
        n = 1_000_000
        x = spec.sample(n, substream(99, "tests", f"moments-{spec.kind}"))
        mean, var = _analytic_moments(spec)
        s = x.std()
        assert abs(x.mean() - mean) <= 3.0 * s / np.sqrt(n)
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = np.sqrt(max(m4 - s ** 4, 0.0) / n)
        assert abs(x.var() - var) <= 3.0 * se_var

    def test_uniform_example_bounds(self):
        x = DistributionSpec("uniform", (-10, 10)).sample(
            1_000_000, substream(1, "tests", "unif"))
        assert abs(x.mean()) < 0.05
        assert abs(x.var() / (100.0 / 3.0) - 1.0) < 0.02

    def test_gamma_example_bounds(self):
        x = DistributionSpec("gamma", (1, 3)).sample(
            1_000_000, substream(1, "tests", "gamma"))
        assert abs(x.mean() / 3.0 - 1.0) < 0.02
        assert abs(x.var() / 9.0 - 1.0) < 0.02

    def test_degenerate_mixture_is_standard_normal(self):
        x = DistributionSpec("mixture", [(1.0, 0.0, 1.0)]).sample(
            200_000, substream(2, "tests", "mix1"))
        assert abs(x.mean()) < 0.01 and abs(x.var() - 1.0) < 0.02

    def test_vonmises_support(self):
        x = DistributionSpec("vonmises", (2.5, 2.0)).sample(
            10_000, substream(3, "tests", "vm"))
        assert np.all(x >= -np.pi) and np.all(x <= np.pi)

    @pytest.mark.parametrize("bad", [
        lambda: DistributionSpec("normal", (0, -1)),
        lambda: DistributionSpec("uniform", (3, 3)),
        lambda: DistributionSpec("laplace", (0, 0)),
        lambda: DistributionSpec("gamma", (-1, 1)),
        lambda: DistributionSpec("beta", (1, 0)),
        lambda: DistributionSpec("vonmises", (0, -2)),
        lambda: DistributionSpec("mixture", [(0.5, 0, 1), (0.4, 1, 1)]),
        lambda: DistributionSpec("mixture", [(1.0, 0, -1)]),
        lambda: DistributionSpec("mixture", [(float("nan"), 0, 1)]),
        lambda: DistributionSpec("mixture", [(1.0, 0, float("nan"))]),
        lambda: DistributionSpec("mixture", [(1.0, float("nan"), 1)]),
        lambda: DistributionSpec("mixture", [(1.0, float("inf"), 1)]),
        lambda: DistributionSpec("cauchy", (0.0, 1.0)),
    ])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValidationError):
            bad()

    @pytest.mark.parametrize("spec", [s for s in MOMENT_SPECS if s.kind != "mixture"],
                             ids=lambda s: s.kind)
    def test_draws_are_the_numpy_method_of_the_same_name(self, spec):
        n = 1000
        x = spec.sample(n, substream(99, "tests", f"draws-{spec.kind}"))
        rng = substream(99, "tests", f"draws-{spec.kind}")
        assert x.tobytes() == getattr(rng, spec.kind)(*spec.params, size=n).tobytes()

    def test_mixture_draws_are_pinned(self):
        spec = MOMENT_SPECS[-1]
        x = spec.sample(6, substream(99, "tests", "draws-mixture"))
        assert x.tolist() == [-3.6133473461251278, 3.712837392167184,
                              5.003580654753307, -1.6961083912868318,
                              -4.271716268735741, -1.531559181182231]

    def test_roundtrip_dict(self):
        for spec in MOMENT_SPECS:
            assert DistributionSpec.from_dict(spec.to_dict()) == spec
        # Integer params are stored, and so written, as floats.
        gamma = DistributionSpec("gamma", (1, 3))
        assert gamma == DistributionSpec("gamma", (1.0, 3.0))
        assert json.dumps(gamma.to_dict()) == '{"kind": "gamma", "params": [1.0, 3.0]}'
        mixture = DistributionSpec.from_dict({"kind": "mixture", "params": [[1, 0, 2]]})
        assert mixture == DistributionSpec.from_dict(mixture.to_dict())
        assert json.dumps(mixture.to_dict()) == ('{"kind": "mixture", '
                                                 '"params": [[1.0, 0.0, 2.0]]}')

    def test_sampling_deterministic(self):
        spec = DistributionSpec("laplace", (1.0, 6.5))
        a = spec.sample(100, substream(7, "t", "d"))
        b = spec.sample(100, substream(7, "t", "d"))
        assert np.array_equal(a, b)


def test_a_latent_without_shared_components_names_the_field():
    # One check, LatentSpec.__post_init__'s, serves direct construction and
    # from_dict, which puts its path in front.
    with pytest.raises(ValidationError,
                       match=r"^shared: need at least one component$"):
        LatentSpec(shared=())
    with pytest.raises(ValidationError,
                       match=r"^latent/shared: need at least one component$"):
        LatentSpec.from_dict({"shared": [], "private1": []})


class TestMixingModel:
    def test_rank_check(self):
        a = np.ones((3, 2))  # duplicate columns
        with pytest.raises(ValidationError):
            MixingModel(a, np.eye(3)[:, :2])

    def test_homogeneous_requires_equality(self):
        latent = LatentSpec(shared=(DistributionSpec("normal", (0, 1)),),
                            private1=(DistributionSpec("normal", (0, 1)),),
                            private2=(DistributionSpec("normal", (0, 1)),))
        m = MixingModel.random(latent, substream(1, "t", "m"), homogeneous=True)
        assert np.array_equal(m.a1, m.a2)
        with pytest.raises(ValidationError):
            MixingModel(m.a1, m.a1 + 1.0, homogeneous=True)

    @pytest.mark.parametrize("dims,message", [
        ({"d1": 1}, "d1=1 is below modality 1's latent count 3"),
        ({"d2": 2}, "d2=2 is below modality 2's latent count 3"),
    ], ids=["d1", "d2"])
    def test_fewer_observed_than_latent_dims_is_rejected(self, dims, message):
        latent, _ = preset("thm1a", substream(0, "datagen", "preset"))
        with pytest.raises(ValidationError, match=message):
            MixingModel.random(latent, substream(2, "t", "m"), **dims)

    def test_default_square(self):
        latent = LatentSpec(shared=(DistributionSpec("normal", (0, 1)),) * 2,
                            private1=(DistributionSpec("normal", (0, 1)),))
        m = MixingModel.random(latent, substream(2, "t", "m"))
        assert m.a1.shape == (3, 3)
        assert m.a2.shape == (2, 2)


class TestGenerateDataset:
    def test_reconstruction_and_centering(self):
        ds, _ = _quick_dataset(800)
        z1 = np.hstack([ds.c, ds.p1])
        raw1 = z1 @ ds.mixing.a1.T
        assert np.max(np.abs(ds.x1 + ds.mean1 - raw1)) <= 1e-10
        z2 = np.hstack([ds.c, ds.p2])
        raw2 = z2 @ ds.mixing.a2.T
        assert np.max(np.abs(ds.x2[ds.alignment] + ds.mean2 - raw2)) <= 1e-10
        assert np.max(np.abs(ds.x1.mean(axis=0))) <= 1e-10
        assert np.max(np.abs(ds.x2.mean(axis=0))) <= 1e-10

    def test_row_counts(self):
        ds, _ = _quick_dataset(1000)
        assert ds.x1.shape[0] == 1000
        assert ds.x1_test.shape[0] == 50
        assert ds.x2_test.shape[0] == 50

    def test_identity_mixing_no_private(self):
        latent = LatentSpec(shared=(DistributionSpec("normal", (0, 1)),
                                    DistributionSpec("gamma", (1, 3))))
        mixing = MixingModel(np.eye(2), np.eye(2))
        ds = generate_dataset(latent, mixing, 500, substream(4, "t", "gen"))
        np.testing.assert_allclose(ds.x1, ds.c - ds.c.mean(axis=0), atol=1e-12)

    def test_deterministic(self):
        a, _ = _quick_dataset(300)
        b, _ = _quick_dataset(300)
        assert np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)

    def test_alignment_is_permutation(self):
        ds, _ = _quick_dataset(400)
        assert sorted(ds.alignment.tolist()) == list(range(400))

    def test_too_few_samples(self):
        latent = LatentSpec(shared=(DistributionSpec("normal", (0, 1)),))
        with pytest.raises(ValidationError):
            generate_dataset(latent, MixingModel(np.eye(1), np.eye(1)), 1,
                             substream(0, "t", "g"))


def _quick_dataset(n, seed=17):
    latent, tmpl = preset("thm1b", substream(seed, "datagen", "preset"))
    mixing = tmpl.realize(latent, substream(seed, "datagen", "mixing"))
    return generate_dataset(latent, mixing, n,
                            substream(seed, "datagen", "samples")), latent


class TestPresets:
    def test_thm3_laplace(self):
        latent, _ = preset("thm3-laplace", substream(0, "datagen", "preset"))
        assert latent.d_c == 3
        assert all(s == DistributionSpec("laplace", (0.0, 6.5)) for s in latent.shared)
        assert latent.private1[0].kind == "uniform"
        assert latent.private2[0] == DistributionSpec("gamma", (0.5, 3.0))

    def test_private_appxg(self):
        latent, _ = preset("private-appxG", substream(0, "datagen", "preset"))
        assert latent.private1[0] == DistributionSpec("beta", (1.0, 3.0))
        assert all(s == DistributionSpec("vonmises", (2.5, 2.0)) for s in latent.shared)

    def test_thm1b_vonmises(self):
        latent, _ = preset("thm1b", substream(0, "datagen", "preset"))
        assert all(s.kind == "vonmises" for s in latent.shared)

    def test_thm1a_mixture_fixed_per_seed(self):
        a, _ = preset("thm1a", substream(9, "datagen", "preset"))
        b, _ = preset("thm1a", substream(9, "datagen", "preset"))
        assert a.shared[0] == b.shared[0]
        c, _ = preset("thm1a", substream(10, "datagen", "preset"))
        assert a.shared[0] != c.shared[0]

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="thm1a"):
            preset("nope", substream(0, "datagen", "preset"))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        ds, _ = _quick_dataset(200)
        save_dataset(ds, str(tmp_path / "d"), seed=17)
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "arrays.npz", "manifest.json"]
        back = load_dataset(str(tmp_path / "d"))
        for field in ("x1", "x2", "c", "p1", "p2", "x1_test", "x2_test",
                      "c_test", "p1_test", "p2_test", "alignment", "mean1",
                      "mean2"):
            want, got = getattr(ds, field), getattr(back, field)
            assert (got.shape, got.dtype) == (want.shape, want.dtype), field
            assert got.tobytes() == want.tobytes(), field
        for q in ("a1", "a2"):
            want, got = getattr(ds.mixing, q), getattr(back.mixing, q)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert back.latent == ds.latent

    def test_refuses_directory_without_private_test_codes(self, tmp_path):
        ds, _ = _quick_dataset(200)
        save_dataset(ds, str(tmp_path / "d"), seed=17)
        path = rewrite_archive(tmp_path / "d" / matio.ARCHIVE, lambda a: {
            k: v for k, v in a.items() if k != "P1_test"})
        with pytest.raises(ValidationError) as info:
            load_dataset(str(tmp_path / "d"))
        assert str(info.value) == f"{path}: missing arrays ['P1_test']"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_refuses_an_alignment_that_is_not_int64(self, tmp_path, dtype):
        ds, _ = _quick_dataset(100)
        save_dataset(ds, str(tmp_path / "d"))
        path = rewrite_archive(tmp_path / "d" / matio.ARCHIVE, lambda a: {
            **a, "alignment": a["alignment"].astype(dtype)})
        with pytest.raises(ValidationError) as info:
            load_dataset(str(tmp_path / "d"))
        assert str(info.value) == (f"{path}: alignment: expected int64, "
                                   f"got {np.dtype(dtype)}")

    @pytest.mark.parametrize("version", [1, 3, None])
    def test_refuses_another_version_and_says_how_to_rebuild(self, tmp_path,
                                                            version):
        ds, _ = _quick_dataset(100)
        save_dataset(ds, str(tmp_path / "d"))
        path = tmp_path / "d" / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "version": version}))
        with pytest.raises(ValidationError) as info:
            load_dataset(str(tmp_path / "d"))
        assert str(info.value) == (
            f"{path}: version {version!r} is not 2; regenerate it with "
            f"`unisca gen --config {tmp_path / 'd' / 'config.json'} "
            f"--out <new directory>`")

    def test_manifest_contents(self, tmp_path):
        ds, _ = _quick_dataset(150)
        save_dataset(ds, str(tmp_path / "d"), seed=41)
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["kind"] == "unisca-dataset"
        assert manifest["version"] == 2
        assert manifest["seed"] == 41
        assert manifest["n_train"] == 150
        assert manifest["d_c"] == 2
        assert manifest["homogeneous"] is False


class TestAnchors:
    def test_sampled_pairs_are_aligned(self):
        ds, _ = _quick_dataset(300)
        pairs = sample_anchors(ds, 5, substream(3, "t", "a"))
        assert pairs.shape == (5, 2)
        for i, j in pairs:
            assert ds.alignment[i] == j

    def test_too_many(self):
        ds, _ = _quick_dataset(50)
        with pytest.raises(ValidationError):
            sample_anchors(ds, 51, substream(3, "t", "a"))
