import numpy as np
import pytest

from unisca.numerics import (AdamState, DegenerateCovarianceError,
                             ValidationError, empirical_covariance,
                             grad_check, substream, sym_eig, whitening_matrix)


class TestCovariance:
    def test_zero_variance_rows(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert np.array_equal(empirical_covariance(x), np.zeros((2, 2)))

    def test_hand_computed(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(empirical_covariance(x, center=True),
                                   [[1.0, 0.0], [0.0, 0.0]])

    def test_standard_normal_identity(self, rng):
        x = rng.normal(size=(100000, 4))
        s = empirical_covariance(x)
        assert np.max(np.abs(s - np.eye(4))) < 0.05

    def test_too_few_rows(self):
        with pytest.raises(ValidationError):
            empirical_covariance(np.ones((1, 3)))

    def test_rejects_nan(self):
        x = np.ones((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValidationError):
            empirical_covariance(x)


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))

    def test_diagonal_sorted(self):
        w, v = sym_eig(np.diag([9.0, 4.0]))
        np.testing.assert_allclose(w, [9.0, 4.0])
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n", [5, 64, 512])
    def test_reconstruction(self, n, rng):
        a = rng.normal(size=(n, n))
        s = a + a.T
        w, v = sym_eig(s)
        resid = np.linalg.norm(s @ v - v * w) / np.linalg.norm(s)
        assert resid <= 1e-8
        assert np.all(np.diff(w) <= 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestWhitening:
    def test_identity(self):
        np.testing.assert_allclose(whitening_matrix(np.eye(3)), np.eye(3))

    def test_diagonal_convention(self):
        w = whitening_matrix(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(w, np.diag([0.5, 1.0 / 3.0]))

    def test_rank_deficient(self):
        w = whitening_matrix(np.diag([1.0, 0.0]))
        assert w.shape == (1, 2)
        np.testing.assert_allclose(w @ np.diag([1.0, 0.0]) @ w.T, [[1.0]])

    def test_full_rank_product(self, rng):
        for _ in range(5):
            a = rng.normal(size=(6, 6))
            s = a @ a.T + 0.1 * np.eye(6)
            w = whitening_matrix(s)
            assert np.linalg.norm(w @ s @ w.T - np.eye(6)) <= 1e-6

    def test_degenerate(self):
        with pytest.raises(DegenerateCovarianceError):
            whitening_matrix(np.zeros((2, 2)))


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        state = AdamState(lr=0.1)
        p = np.array([1.0, -2.0])
        for _ in range(5):
            p = state.step(p, np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, -2.0])

    def test_one_step_hand_value(self):
        state = AdamState(lr=0.1)
        p = state.step(np.array([0.0]), np.array([1.0]))
        # m_hat = 1, v_hat = 1 -> step = 0.1 / (1 + 1e-8)
        np.testing.assert_allclose(p, [-0.1 / (1.0 + 1e-8)], rtol=1e-12)
        assert state.t == 1

    def test_deterministic_trajectories(self, rng):
        grads = rng.normal(size=(10, 3, 2))
        outs = []
        for _ in range(2):
            state = AdamState(lr=0.01)
            p = np.zeros((3, 2))
            for g in grads:
                p = state.step(p, g)
            outs.append(p.copy())
        assert np.array_equal(outs[0], outs[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            AdamState(lr=0.1).step(np.zeros(2), np.zeros(3))


class TestGradCheck:
    def test_quadratic(self, rng):
        x0 = rng.normal(size=(3, 2))
        err = grad_check(lambda x: (0.5 * float(np.sum(x * x)), x), x0)
        assert err <= 1e-8

    def test_nonfinite_probe(self):
        def f(x):
            return (np.inf if x[0] > 0 else 1.0), np.zeros(1)
        with pytest.raises(ValidationError):
            grad_check(f, np.array([0.0]))


class TestSubstream:
    def test_replay_identical(self):
        a = substream(42, "m", "p").normal(size=8)
        b = substream(42, "m", "p").normal(size=8)
        assert np.array_equal(a, b)

    def test_purposes_decorrelated(self):
        a = substream(42, "m", "p1").normal(size=8)
        b = substream(42, "m", "p2").normal(size=8)
        assert not np.array_equal(a, b)
