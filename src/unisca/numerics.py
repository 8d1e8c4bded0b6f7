"""Input checks, eigendecomposition and whitening, seeded randomness, Adam,
the cores and BLAS threads a process may use, the one pool that runs work
side by side, and a finite-difference oracle.

Everything downstream (data generation, matchers, solvers) builds on
the helpers here. Matrices are float64 numpy arrays, rows = samples; a
float32 one keeps its dtype only where a caller asks (`check_matrix`'s
float32=True, which MMD and HSIC pass, and `AdamState` for the
discriminator).
A view's covariance is formed where its data is checked, in the solver.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """Input violates a documented precondition (shape, symmetry, finiteness)."""


def check_matrix(a: np.ndarray, name: str = "matrix",
                 float32: bool = False) -> np.ndarray:
    """`a` as a 2-D float64 array of finite entries, or a ValidationError
    naming `name`. With float32=True a float32 array keeps its dtype."""
    keep = float32 and getattr(a, "dtype", None) == np.float32
    a = np.asarray(a, dtype=np.float32 if keep else np.float64)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def check_keys(doc, where: str, required=(), optional=()) -> None:
    """Raise ValidationError("<where>: ...") unless doc is a dict holding
    every `required` key and no key outside `required` and `optional`."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected an object, got {doc!r}")
    for fault, keys in (("missing", set(required) - set(doc)),
                        ("unknown", set(doc) - {*required, *optional})):
        if keys:
            raise ValidationError(f"{where}: {fault} keys {sorted(keys)}")


_NULL = type(None)
_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
          str: "a string", dict: "an object", list: "an array", _NULL: "null"}


def check_value(value, types: tuple, where: str, key: str, bounds=(),
                choices=None):
    """Return `value` once it has one of `types`, passes each of `bounds`
    ((comparison, symbol, {key: limit}) triples) that names `key`, and is one
    of `choices[key]` if there is such an entry; otherwise raise
    ValidationError("<where>: <reason>").

    A bool is no number, an integer is a float, a numpy integer is an integer
    and comes back as an int; np.float64 is a float, other numpy floats are
    not. A list or tuple is an array of integers, each bound by `key`'s
    bounds, and comes back as a tuple."""
    if isinstance(value, bool):
        typed = bool in types
    elif isinstance(value, (int, np.integer)):
        value, typed = int(value), int in types or float in types
    else:
        typed = (isinstance(value, types)
                 or list in types and isinstance(value, tuple))
    if not typed:
        expected = " or ".join(_NAMES[t] for t in types)
        raise ValidationError(f"{where}: expected {expected}, got {value!r}")
    if isinstance(value, (list, tuple)):
        return tuple(check_value(item, (int,), f"{where}/{i}", key, bounds)
                     for i, item in enumerate(value))
    if value is not None:
        for holds, symbol, limits in bounds:
            if key in limits and not holds(value, limits[key]):
                raise ValidationError(
                    f"{where}: {value!r} is not {symbol} {limits[key]}")
    if choices and key in choices and value not in choices[key]:
        raise ValidationError(f"{where}: expected one of "
                              f"{list(choices[key])}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Cores, BLAS threads and side-by-side runs
# ---------------------------------------------------------------------------

def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity), or the
    machine's count where the platform reports no affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> int:
    """The threads each BLAS product runs on: the first of
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to a positive integer, or
    else the usable cores, which is OpenBLAS's default."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return usable_cores()


def blas_workers() -> int:
    """How many threads' BLAS products fit side by side on the usable cores."""
    return max(1, usable_cores() // blas_threads())


class _Pool:
    """Up to `size` helper threads, kept once started: threads started per
    call grew glibc's malloc arenas and RSS."""

    def __init__(self, size: int):
        self.size, self.threads, self.idle = size, [], 0
        self.lock, self.jobs = threading.Lock(), queue.SimpleQueue()

    def lend(self, fn):
        """Have an idle helper, or a new one while fewer than `size` exist,
        run fn(); return an Event set once it has and the helper is idle
        again (so the next call reuses it), or None if all are busy."""
        with self.lock:
            if self.idle:
                self.idle -= 1
            elif len(self.threads) < self.size:
                self.threads.append(threading.Thread(
                    target=self._serve, daemon=True,
                    name=f"unisca-helper_{len(self.threads)}"))
                self.threads[-1].start()
            else:
                return None
        done = threading.Event()
        self.jobs.put((fn, done))
        return done

    def _serve(self):
        for fn, done in iter(self.jobs.get, None):
            try:
                fn()
            finally:
                del fn  # and the results its call holds, till the next job
                with self.lock:
                    self.idle += 1
                done.set()


_POOLS = {}  # the process-wide helper pool, by the pid that made it


def _helpers() -> _Pool:
    """The pool of max(1, usable_cores() - 1) helpers, made on first use and
    again in a forked child, which has none of the parent's threads."""
    return _POOLS.get(os.getpid()) or _POOLS.setdefault(
        os.getpid(), _Pool(max(1, usable_cores() - 1)))  # one if threads race


def side_by_side(fn, items, workers: int) -> list:
    """[fn(item) for item in items], computed on up to `workers` threads: the
    calling thread and the idle helpers of one process-wide pool.

    Each thread takes the next item in order and runs fn on it in a copy of
    the caller's contextvars context, numpy's error state included. No item
    is taken once a call has failed; the caller waits for its helpers and
    raises the first failure in item order, as a plain loop does. So when
    fn(item) depends on its item alone, results and errors do not depend on
    the worker count, and the GIL-free numpy work of several items runs on
    several cores. As the caller drains the items itself, a call that finds
    every helper busy, nested or not, finishes alone. workers <= 1, or one
    item, starts no thread. The warm start's restarts ask for the usable
    cores; a discriminator call's two views and `unisca sweep`'s seeds ask
    for `blas_workers()`."""
    items = list(items)
    results, failures = [None] * len(items), {}
    todo = iter(enumerate(items))
    lock = threading.Lock()
    context = contextvars.copy_context()

    def drain():
        while True:
            with lock:
                taken = None if failures else next(todo, None)
            if taken is None:
                return
            i, item = taken
            try:
                results[i] = context.copy().run(fn, item)
            except BaseException as exc:  # re-raised by the caller below
                with lock:
                    failures[i] = exc

    lent = [_helpers().lend(drain)
            for _ in range(min(workers, len(items)) - 1)]
    drain()
    for done in filter(None, lent):
        done.wait()
    if failures:
        raise failures[min(failures)]
    return results


# ---------------------------------------------------------------------------
# Seeded randomness with named substreams
# ---------------------------------------------------------------------------

def substream(seed: int, module: str, purpose: str) -> np.random.Generator:
    """Return a PCG64 generator for the (module, purpose) substream of `seed`.

    Substreams are derived by mixing CRC32 digests of the labels into a
    SeedSequence, so the same (seed, module, purpose) triple yields a
    bit-identical stream on every run while distinct labels decorrelate.
    """
    key = zlib.crc32(f"{module}/{purpose}".encode("utf-8"))
    ss = np.random.SeedSequence(entropy=[int(seed) & 0xFFFFFFFFFFFFFFFF, key])
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# Eigendecomposition, whitening
# ---------------------------------------------------------------------------

_SYM_TOL = 1e-8    # the asymmetry sym_eig accepts, relative to S's largest entry
_RANK_TOL = 1e-10  # whitening_matrix drops eigenvalues below this x the largest


def sym_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, so that
    S = V diag(w) V^T up to round-off.
    """
    S = check_matrix(S, "S")
    if S.shape[0] != S.shape[1]:
        raise ValidationError(f"S must be square, got shape {S.shape}")
    # Max-abs entries, not norms: a norm of entries near 1e154 overflows to
    # inf, which would pass any S.
    asymmetry = np.max(np.abs(S - S.T), initial=0.0)
    if asymmetry > _SYM_TOL * np.max(np.abs(S), initial=0.0):
        raise ValidationError("S is not symmetric within tolerance")
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def whitening_matrix(S: np.ndarray) -> np.ndarray:
    """Spectral whitening W = L_r^{-1/2} V_r^T over the retained spectrum.

    Eigenvalues below _RANK_TOL * lambda_max are truncated, so W has one row
    per retained direction, the largest's at least, and W S W^T = I on that
    subspace; an S with no positive eigenvalue is a ValidationError, and
    sym_eig checks S.
    """
    w, V = sym_eig(S)
    wmax = float(np.max(w, initial=0.0))
    if wmax <= 0.0:
        raise ValidationError("covariance has no positive eigenvalues")
    keep = w > _RANK_TOL * wmax
    return V[:, keep].T / np.sqrt(w[keep])[:, None]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and guard


@dataclass
class AdamState:
    """Per-parameter Adam accumulators (bias-corrected update); only lr is set."""

    lr: float
    t: int = field(default=0, init=False)
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)

    def step(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """The updated parameter, param - lr m_hat / (sqrt(v_hat) + eps), as
        a new array. The moments update in place, in the order of operations
        of m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g, and the
        update in that of the expression, so the bytes are the expressions'
        while the only arrays formed are two temporaries the size of param.
        A float32 param (the discriminator's) keeps its moments, temporaries
        and result in float32; any other is taken as float64."""
        param = np.asarray(param)
        dtype = np.float32 if param.dtype == np.float32 else np.float64
        param = param.astype(dtype, copy=False)
        grad = np.asarray(grad, dtype=dtype)
        if param.shape != grad.shape:
            raise ValidationError(
                f"param shape {param.shape} != grad shape {grad.shape}")
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        if self.m.shape != param.shape or self.m.dtype != dtype:
            raise ValidationError(
                "Adam state shape or dtype does not match parameter")
        self.t += 1
        m, v = self.m, self.v
        m *= _BETA1
        m += (1.0 - _BETA1) * grad
        v *= _BETA2
        buf = (1.0 - _BETA2) * grad
        buf *= grad
        v += buf
        step = m / (1.0 - _BETA1 ** self.t)  # m_hat
        step *= self.lr
        np.divide(v, 1.0 - _BETA2 ** self.t, out=buf)  # v_hat
        np.sqrt(buf, out=buf)
        buf += _EPS
        step /= buf
        return np.subtract(param, step, out=step)


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle
# ---------------------------------------------------------------------------

def grad_check(f, x0: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between f's analytic gradient and central differences.

    `f` maps an array to (value, gradient). The error at each entry is
    |g_an - g_fd| / max(1, |g_fd|); the maximum over entries is returned.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    _, g_an = f(x0)
    g_an = np.asarray(g_an, dtype=np.float64)
    if g_an.shape != x0.shape:
        raise ValidationError(
            f"analytic gradient shape {g_an.shape} != parameter shape {x0.shape}")
    g_fd = np.zeros_like(x0)
    flat = x0.ravel()
    fd = g_fd.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp, _ = f(x0)
        flat[i] = orig - h
        fm, _ = f(x0)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValidationError("objective is non-finite at a probe point")
        fd[i] = (fp - fm) / (2.0 * h)
    denom = np.maximum(1.0, np.abs(g_fd))
    return float(np.max(np.abs(g_an - g_fd) / denom))
