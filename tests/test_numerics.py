import os
import signal
import sys
import threading
import time
import types
import weakref

import numpy as np
import pytest

from unisca import numerics
from unisca.numerics import (AdamState, ValidationError, blas_threads,
                             blas_workers, grad_check, side_by_side, substream, sym_eig,
                             whitening_matrix)


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

    @pytest.mark.parametrize("diagonal,rows", [
        ([1e-300, 0.0], 1), ([1e300, 1.0], 1), ([1e300, 1e295], 2)])
    def test_any_scale_keeps_its_top_direction(self, diagonal, rows):
        # The largest eigenvalue always passes the relative rank threshold,
        # however small or large it is.
        s = np.diag(diagonal)
        w = whitening_matrix(s)
        assert w.shape == (rows, 2)
        assert np.max(np.abs(w @ s @ w.T - np.eye(rows))) <= 1e-15

    def test_degenerate(self):
        with pytest.raises(ValidationError,
                           match="^covariance has no positive eigenvalues$"):
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

    def test_a_float32_parameter_stays_float32(self, rng):
        # The discriminator's parameters are float32: its moments, its
        # temporaries and the result stay float32, and follow the float64
        # update of the same float32 values to float32 round-off. Over these
        # 50 steps each of p, m and v stayed within 3.6e-7 (3 float32 eps)
        # of its float64 twin's largest entry.
        eps = np.finfo(np.float32).eps
        s32, s64 = AdamState(lr=0.009), AdamState(lr=0.009)
        p32 = rng.normal(size=(7, 5)).astype(np.float32)
        p64 = p32.astype(np.float64)
        for t in range(1, 51):
            g = rng.normal(size=p32.shape) * 10.0 ** rng.uniform(-6, 3)
            g = g.astype(np.float32) if t != 20 else np.zeros_like(p32)
            p32, p64 = s32.step(p32, g), s64.step(p64, g)
            assert p32.dtype == s32.m.dtype == s32.v.dtype == np.float32, t
            assert p64.dtype == s64.m.dtype == s64.v.dtype == np.float64, t
            for a, b in ((p32, p64), (s32.m, s64.m), (s32.v, s64.v)):
                assert np.abs(a - b).max() <= 8 * eps * np.abs(b).max(), t

    def test_other_parameters_are_taken_as_float64(self):
        state = AdamState(lr=0.1)
        p = state.step([1, 2], np.array([1.0, -1.0], dtype=np.float32))
        assert p.dtype == state.m.dtype == np.float64
        with pytest.raises(ValidationError, match="dtype"):
            state.step(p.astype(np.float32), np.ones(2))

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


class TestBlasWorkers:
    @pytest.mark.parametrize("cores,threads,workers", [
        (2, "1", 2), (2, "2", 1), (2, "8", 1), (2, None, 1),
        (1, "1", 1), (1, "2", 1), (1, None, 1)])
    def test_usable_cores_over_blas_threads(self, monkeypatch, cores,
                                            threads, workers):
        # Unset, OpenBLAS takes every usable core: one worker.
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        if threads is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        monkeypatch.setattr(numerics, "usable_cores", lambda: cores)
        assert blas_workers() == workers


class TestSideBySide:
    @pytest.fixture(autouse=True)
    def own_pool(self, fresh_pool):
        return fresh_pool

    @pytest.fixture
    def both_threads(self):
        """An fn that blocks until a second thread has taken an item too, so
        a call that returns ran its items on two threads; it returns (item,
        the thread's name)."""
        barrier = threading.Barrier(2)

        def fn(item):
            barrier.wait(timeout=30)
            return item, threading.current_thread().name
        return fn

    def test_results_come_back_in_item_order(self):
        def square(i):
            time.sleep(0.002 * (10 - i))  # early items finish last
            return i * i
        assert side_by_side(square, range(10), 4) == [i * i for i in range(10)]

    def test_first_failure_in_item_order_is_raised(self):
        # Item 1 fails first; item 0 fails only once it has, and wins.
        failed = threading.Event()

        def fail(i):
            if i == 1:
                failed.set()
                raise KeyError(1)
            assert failed.wait(timeout=30)
            raise ValueError(0)
        with pytest.raises(ValueError):
            side_by_side(fail, range(2), 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_item_is_taken_after_a_failure(self, workers):
        # Two threads take items 0 and 1, and item 1 outlasts item 0's
        # failure; no thread takes item 2.
        taken, second = [], threading.Event()
        if workers == 1:
            second.set()  # one thread fails at item 0 before item 1

        def work(i):
            taken.append(i)
            if i == 0:
                assert second.wait(timeout=30)
                raise ValueError(0)
            second.set()
            time.sleep(0.2)
        with pytest.raises(ValueError):
            side_by_side(work, range(6), workers)
        assert sorted(taken) == list(range(workers))

    def test_one_worker_starts_no_thread(self, own_pool):
        before = set(threading.enumerate())
        name = threading.current_thread().name
        got = side_by_side(lambda i: threading.current_thread().name,
                           range(5), 1)
        got += side_by_side(lambda i: threading.current_thread().name,
                            range(1), 4)
        assert got == [name] * 6
        assert set(threading.enumerate()) == before and not own_pool

    def test_numpy_error_state_reaches_the_helpers(self, both_threads):
        def state(item):
            return both_threads(item)[1], np.geterr()["divide"]
        with np.errstate(divide="raise"):
            got = side_by_side(state, range(2), 2)
        assert len({thread for thread, _ in got}) == 2
        assert [divide for _, divide in got] == ["raise", "raise"]
        assert np.geterr()["divide"] != "raise"

    def test_a_nested_call_on_a_busy_pool_finishes(self, own_pool,
                                                   both_threads):
        # One helper thread, which takes one outer item while the caller
        # takes the other: each outer item runs a nested call, which finds
        # no idle helper while the other item runs and drains its items on
        # its own thread.
        own_pool[os.getpid()] = numerics._Pool(1)

        def outer(i):
            both_threads(i)
            return side_by_side(lambda j: 10 * i + j, range(4), 4)
        done = []
        runner = threading.Thread(
            target=lambda: done.append(side_by_side(outer, range(2), 2)),
            daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert done == [[[0, 1, 2, 3], [10, 11, 12, 13]]]

    def test_a_helper_is_idle_before_it_reports_its_job_done(
            self, own_pool, monkeypatch):
        # Each helper lingers 50 ms after it reports its job done; the next
        # job must find it idle all the same, so the pool, with room for
        # four, starts one thread for three jobs one after the other.
        class Lingering(threading.Event):
            def set(self):
                super().set()
                time.sleep(0.05)
        monkeypatch.setattr(numerics, "threading", types.SimpleNamespace(
            Event=Lingering, Lock=threading.Lock, Thread=threading.Thread))
        pool = own_pool[os.getpid()] = numerics._Pool(4)
        for _ in range(3):
            pool.lend(lambda: None).wait()
        assert len(pool.threads) == 1

    def test_many_callers_at_once_share_the_pool(self, own_pool):
        # Eight threads make 30 calls each at once on a three-helper pool,
        # with a thread switch every microsecond: every result is right, at
        # most three helpers start, and once every call has returned each
        # helper is counted idle, which a lost update to the count breaks.
        pool = own_pool[os.getpid()] = numerics._Pool(3)
        errors = []

        def caller(k):
            try:
                for j in range(30):
                    got = side_by_side(lambda i: k * i + j, range(5), 4)
                    assert got == [k * i + j for i in range(5)]
            except BaseException as exc:
                errors.append(exc)
        callers = [threading.Thread(target=caller, args=(k,), daemon=True)
                   for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert not errors
        assert 1 <= len(pool.threads) <= 3 and pool.idle == len(pool.threads)

    def test_a_helper_holds_no_results_once_its_call_returns(
            self, both_threads):
        # A helper waits for its next job with the last one's call dropped:
        # holding it kept the adversarial views' arrays alive into the next
        # step and raised a fit's peak RSS.
        class Result:
            pass

        def make(item):
            both_threads(item)
            return Result()
        got = side_by_side(make, range(2), 2)
        refs = [weakref.ref(r) for r in got]
        del got
        assert [r() for r in refs] == [None, None]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self, both_threads):
        # The child inherits the parent's pool but not its thread: items
        # given to that pool would never run, and the barrier would break.
        def threads():
            return len({name for _, name in side_by_side(both_threads,
                                                         range(2), 2)})
        assert threads() == 2
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            try:
                os._exit(0 if threads() == 2 else 1)
            except BaseException:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


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
