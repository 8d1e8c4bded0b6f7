import numpy as np
import pytest

from unisca import numerics
from unisca.numerics import (AdamState, DegenerateCovarianceError,
                             ValidationError, blas_threads,
                             empirical_covariance, grad_check, substream,
                             sym_eig, whitening_matrix)


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

    def test_in_place_moments_give_the_expressions_bytes(self, rng):
        # The moments update in place; the parameter, m and v must be the
        # bytes of the expressions they replace, step by step, from the
        # first step on, through a zero gradient and gradients whose scales
        # span nine decades.
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.009
        state = AdamState(lr=lr)
        p = rng.normal(size=(7, 5))
        m, v = np.zeros_like(p), np.zeros_like(p)
        want = p
        for t in range(1, 51):
            g = rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 3)
            if t == 20:
                g = np.zeros_like(p)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1 ** t), v / (1.0 - b2 ** t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
            p = state.step(p, g)
            assert p.tobytes() == want.tobytes(), t
            assert state.m.tobytes() == m.tobytes(), t
            assert state.v.tobytes() == v.tobytes(), t

    def test_step_leaves_its_arguments_alone(self, rng):
        p, g = rng.normal(size=4), rng.normal(size=4)
        p0, g0 = p.copy(), g.copy()
        state = AdamState(lr=0.1)
        out = state.step(p, g)
        assert out is not p and out is not state.m and out is not state.v
        assert np.array_equal(p, p0) and np.array_equal(g, g0)


class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def cores(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(numerics, "usable_cores", lambda: 6)

    def test_unset_is_the_usable_cores(self):
        assert blas_threads() == 6

    def test_openblas_comes_first(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        assert blas_threads() == 1

    @pytest.mark.parametrize("value", ["", "0", "-2", "two", "1.5"])
    def test_a_value_that_is_no_positive_integer_is_passed_over(
            self, monkeypatch, value):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert blas_threads() == 6
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert blas_threads() == 3


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
