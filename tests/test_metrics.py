import numpy as np
import pytest

from unisca import datagen
from unisca.metrics import (abs_pearson, evaluate_fit, leakage,
                            pair_match_error, retrieval_precision,
                            theta_consistency)
from unisca.numerics import ValidationError, substream
from unisca.solver import FitResult, Projection

from conftest import small_dataset


class TestLeakage:
    def test_annihilated_private(self, rng):
        theta = rng.normal(size=(2, 2))
        a = np.eye(3)
        q = np.hstack([theta, np.zeros((2, 1))])  # QA = [Theta, 0]
        assert leakage(q, a, 2) == 0.0

    def test_pure_private(self):
        q = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        assert leakage(q, np.eye(3), 2) == 1.0

    def test_half_mass(self):
        q = np.hstack([np.eye(2), np.eye(2)])  # QA = [I, I], d_C = d_P = 2
        assert abs(leakage(q, np.eye(4), 2) - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_permutation_free(self, rng):
        q = rng.normal(size=(2, 4))
        a = rng.normal(size=(4, 3))
        assert leakage(q, a, 2) == leakage(q.copy(), a.copy(), 2)


class TestThetaConsistency:
    def test_equal(self, rng):
        q = rng.normal(size=(2, 3))
        a = rng.normal(size=(3, 3))
        assert theta_consistency(q, a, q, a, 2) == 0.0

    def test_negated_gives_two(self, rng):
        q = rng.normal(size=(2, 3))
        a = np.eye(3)
        assert abs(theta_consistency(q, a, -q, a, 2) - 2.0) < 1e-12


class TestPairMatchError:
    def test_identical(self, rng):
        q = rng.normal(size=(2, 3))
        x = rng.normal(size=(50, 3))
        assert pair_match_error(q, x, q, x) == 0.0

    def test_negated_gives_two(self, rng):
        q = rng.normal(size=(2, 3))
        x = rng.normal(size=(50, 3))
        assert abs(pair_match_error(q, x, -q, x) - 2.0) < 1e-12

    def test_joint_rotation_invariance(self, rng):
        q1 = rng.normal(size=(2, 3))
        q2 = rng.normal(size=(2, 4))
        x1 = rng.normal(size=(40, 3))
        x2 = rng.normal(size=(40, 4))
        r, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        base = pair_match_error(q1, x1, q2, x2)
        rotated = pair_match_error(r @ q1, x1, r @ q2, x2)
        assert abs(base - rotated) < 1e-9

    def test_distributions_match_but_pairs_do_not(self, rng):
        # mismatched reflections of a symmetric cloud: same pushforward law,
        # large pair error
        x = rng.normal(size=(500, 2))
        q1 = np.eye(2)
        q2 = np.diag([-1.0, 1.0])
        assert pair_match_error(q1, x, q2, x) > 0.5

    def test_no_held_out_rows_is_an_error(self, rng):
        # Data generated with test_fraction 0 has empty test blocks; the
        # mean over no pairs would be NaN.
        q = rng.normal(size=(2, 3))
        x = np.zeros((0, 3))
        with pytest.raises(ValidationError, match="no held-out test rows"):
            pair_match_error(q, x, q, x)


def _csls_oracle(queries, references, k_csls):
    """Naive per-pair CSLS scores, straight from the definition."""
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    rn = references / np.linalg.norm(references, axis=1, keepdims=True)
    nq, nr = len(qn), len(rn)
    cos = np.array([[float(qn[i] @ rn[j]) for j in range(nr)] for i in range(nq)])
    scores = np.zeros((nq, nr))
    for i in range(nq):
        r2 = np.mean(sorted(cos[i], reverse=True)[:min(k_csls, nr)])
        for j in range(nr):
            r1 = np.mean(sorted(cos[:, j], reverse=True)[:min(k_csls, nq)])
            scores[i, j] = 2.0 * cos[i, j] - r2 - r1
    return scores


class TestRetrieval:
    def test_identity(self, rng):
        e = rng.normal(size=(20, 5))
        d = {i: {i} for i in range(20)}
        assert retrieval_precision(e, e, d, 1, "nn") == 100.0
        assert retrieval_precision(e, e, d, 1, "csls") == 100.0

    def test_hub_demotion_hand_instance(self):
        ang = np.deg2rad
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        references = np.array([
            [np.cos(ang(-50)), np.sin(ang(-50))],   # true match of q0
            [np.cos(ang(140)), np.sin(ang(140))],   # true match of q1
            [np.cos(ang(45)), np.sin(ang(45))],     # hub, nearest to both
        ])
        d = {0: {0}, 1: {1}}
        assert retrieval_precision(queries, references, d, 1, "nn") == 0.0
        assert retrieval_precision(queries, references, d, 1, "csls") == 100.0
        scores = _csls_oracle(queries, references, 10)
        assert scores[0, 0] > scores[0, 2]
        assert scores[1, 1] > scores[1, 2]

    def test_monotone_in_k(self, rng):
        q = rng.normal(size=(40, 6))
        ref = rng.normal(size=(60, 6))
        d = {i: {int(x)} for i, x in enumerate(rng.integers(0, 60, size=40))}
        for scorer in ("nn", "csls"):
            ps = [retrieval_precision(q, ref, d, k, scorer) for k in (1, 5, 15, 60)]
            assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_nn_scale_invariance(self, rng):
        q = rng.normal(size=(15, 4))
        ref = rng.normal(size=(25, 4))
        d = {i: {i} for i in range(15)}
        scale = rng.uniform(0.1, 10.0, size=(15, 1))
        a = retrieval_precision(q, ref, d, 3, "nn")
        b = retrieval_precision(q * scale, ref, d, 3, "nn")
        assert a == b

    @pytest.mark.parametrize("k,k_csls", [(0, 10), (1, 0)])
    @pytest.mark.parametrize("scorer", ["nn", "csls"])
    def test_k_below_one_rejected(self, rng, scorer, k, k_csls):
        e = rng.normal(size=(5, 3))
        with pytest.raises(ValidationError, match="k and k_csls must be >= 1"):
            retrieval_precision(e, e, {0: {0}}, k, scorer, k_csls=k_csls)

    @pytest.mark.parametrize("kind,bad", [("query", 3), ("query", -1),
                                          ("reference", 99), ("reference", -1)])
    def test_out_of_range_ids_rejected(self, rng, kind, bad):
        e = rng.normal(size=(3, 2))
        d = {0: {0}, 1: {1}, **({bad: {2}} if kind == "query" else {2: {bad}})}
        with pytest.raises(ValidationError,
                           match=f"dictionary {kind} id {bad} out of range"):
            retrieval_precision(e, e, d, 1, "nn")

    def test_zero_norm_rejected(self, rng):
        q = rng.normal(size=(4, 3))
        q[1] = 0.0
        with pytest.raises(ValidationError):
            retrieval_precision(q, rng.normal(size=(5, 3)), {0: {0}}, 1, "nn")


class TestAbsPearson:
    def test_exact_scaling(self, rng):
        u = rng.normal(size=200)
        assert abs(abs_pearson(u, 3.0 * u) - 1.0) < 1e-12
        assert abs(abs_pearson(u, -u) - 1.0) < 1e-12

    def test_independent(self):
        r = substream(1, "tests", "pearson")
        u = r.normal(size=100000)
        v = r.normal(size=100000)
        assert abs_pearson(u, v) <= 0.02

    def test_constant_rejected(self, rng):
        with pytest.raises(ValidationError):
            abs_pearson(np.ones(10), rng.normal(size=10))


def _oracle_fit(ds, private: bool) -> FitResult:
    """The shared rows of A^-1 as the shared heads and, with private, its
    private rows as the private heads."""
    heads = []
    for x, a in ((ds.x1, ds.mixing.a1), (ds.x2, ds.mixing.a2)):
        inv, sigma = np.linalg.inv(a), x.T @ x / x.shape[0]
        heads.append((Projection(inv[:ds.d_c], sigma),
                      Projection(inv[ds.d_c:], sigma)))
    (q1, qp1), (q2, qp2) = heads
    return FitResult(q1=q1, q2=q2, qp1=qp1 if private else None,
                     qp2=qp2 if private else None)


@pytest.mark.parametrize("preset", ["thm1a", "private-appxG"])
def test_evaluate_fit_scores_the_oracle_heads_at_round_off(preset):
    # The shared rows of A^-1 map each view to its shared codes and the
    # private rows to its private codes, so an identified fit reads 0 on
    # every distance and 1 on each private correlation.
    ds = small_dataset(seed=1, n=600, preset=preset)
    private = preset == "private-appxG"
    report = evaluate_fit(_oracle_fit(ds, private), ds)
    assert max(report.leakage1, report.leakage2) <= 1e-12
    assert report.theta_rel_diff <= 1e-12
    assert report.pair_match_error <= 1e-12
    assert len(report.private_pearson) == (2 if private else 0)
    for r in report.private_pearson:
        assert abs(r - 1.0) <= 1e-12


def test_evaluate_fit_reports_no_private_pearson_past_one_private_code():
    # View 1 has one private code and view 2 two. Pooling view 2's two head
    # outputs and two codes into one sample read 0.995 on these oracle
    # heads, whose every column correlates at 1, so no pair is reported.
    normal = datagen.DistributionSpec("normal", (0.0, 1.0))
    latent = datagen.LatentSpec(
        shared=(datagen.DistributionSpec("laplace", (0.0, 1.0)),
                datagen.DistributionSpec("gamma", (1.0, 3.0))),
        private1=(datagen.DistributionSpec("uniform", (-3.0, 3.0)),),
        private2=(normal, datagen.DistributionSpec("beta", (1.0, 3.0))))
    mixing = datagen.MixingTemplate().realize(
        latent, substream(1, "tests", "mixing"))
    ds = datagen.generate_dataset(latent, mixing, 600,
                                  substream(1, "tests", "samples"))
    result = _oracle_fit(ds, private=True)
    assert result.qp1.matrix.shape[0] == 1 and result.qp2.matrix.shape[0] == 2
    report = evaluate_fit(result, ds)
    assert report.private_pearson == []
    assert max(report.leakage1, report.leakage2) <= 1e-12
