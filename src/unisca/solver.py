"""Fitting procedures for shared/private component recovery.

All modes minimize a matcher divergence between the two projected views plus
a squared whitening penalty per projection; the weakly supervised mode adds a
squared anchor-pair penalty, the private mode adds whitening and HSIC terms
for the private heads, and the homogeneous mode ties the two projections to a
single matrix. One loop, `_train`, minimizes any such list of terms, in every
mode and in the warm start; the same terms give the checkpoint objective,
recorded at epoch 0, every checkpoint_every epochs and after the last epoch. A
checkpoint reads only values, so its MMD and HSIC are the value-only ones and
its adversarial value runs the discriminator forward only. A training step
forms only the gradients it reads: the discriminator's own step its parameter
gradients, the projection update the discriminator's input gradients. A
step whose term is not finite, or whose whitening penalty passes a bound no
working fit comes near, raises DivergenceError naming the term, the epoch
and the phase: a warm-start restart or the traced training.

Optimization runs in whitened coordinates (Q = Q~ W with W the data whitening
matrix), which makes Adam's step size meaningful across data scales, and in
two stages: a cheap multi-restart warm start that matches sorted quantiles
along random slices (a Wasserstein-style realization of the same
distribution-matching constraint), followed by the configured matcher as the
traced training phase. A quantile step sorts its slices with the default-kind
argsort, which is a quarter of the stable one's cost, and falls back to the
stable sort only when a slice holds equal values, so its order and its bytes
are the stable sort's. Restart selection uses a value-only MMD on a large
deterministic subsample under the two-scale kernel k_sigma + k_{sigma/2},
sigma frozen, which is the sum of the MMD at both bandwidths. Every MMD is
summed over Gram strips of a fixed size (see distmatch), so none forms an
n x n Gram matrix. Every MMD a fit makes (training step, checkpoint,
restart score) and every HSIC (training step, checkpoint) takes the
projected views rounded to float32, so its strips compute in float32.
Covariances are frozen before the first step and kernel bandwidths are
fixed by the data's float64 probe projections. The MMD kernel is a cached
thunk that resolves its bandwidth on its first call, from the warm start's
score or the MMD term, so an adversarial fit without a warm start never
resolves it. Every run is replay-deterministic under its seed.
"""

from __future__ import annotations

import functools
import logging
import operator
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import matio, numerics
from .distmatch import (DEFAULT_HIDDEN, Discriminator, KernelSpec,
                        discriminator_step, gan_value_and_grads, hsic_biased,
                        mmd2_unbiased)
from .numerics import (AdamState, ValidationError, check_matrix, check_value,
                       substream, whitening_matrix)

log = logging.getLogger("unisca")

MODES = ("unaligned", "homogeneous", "weakly_supervised", "with_private")
MATCHERS = ("mmd", "adversarial")
_CHOICES = {"mode": MODES, "matcher": MATCHERS}  # SolverConfig's str fields

TRACE_COLUMNS = ("epoch", "matcher", "rq1", "rq2", "anchor", "hsic", "total")

# Per-step sums behind a trace row: its weighted terms, whose sum is `total`.
_SUMS = TRACE_COLUMNS[1:-1]

# SolverConfig's declaration, read by its own check and the config file's:
# bounds on its numeric fields, (comparison a valid value passes, its symbol,
# {field: bound}); a tuple field is bound item by item.
_BOUNDS = (
    (operator.ge, ">=", {
        "d_c": 1, "batch": 2, "epochs": 1, "restarts": 1, "warm_epochs": 0,
        "warm_batch": 2, "checkpoint_every": 1, "checkpoint_rows": 4,
        "select_rows": 4, "d_p1": 0, "d_p2": 0, "disc_hidden": 1}),
)
# The types each annotation of SolverConfig takes; a tuple is an array.
_ANNOTATED = {"int": (int,), "str": (str,), "tuple": (list,)}

# Scale of the noise added to the whitening-block starting point of each
# head, and the number of random slices a warm-start quantile step matches.
_INIT_NOISE = 0.01
_WARM_SLICES = 24

# The objective's weights and Adam's step sizes, the synthetic study's values.
# No caller varies them, so they are constants: a study of one edits it here.
# _LAMBDA weighs the shared heads' whitening penalty and _OMEGA the private
# heads'; _BETA weighs the anchor penalty and _RHO the HSIC term; _LR_Q is
# the shared heads' step size and _LR_P the private heads'. The
# discriminator's step size is Discriminator's own default, and it takes one
# step per training step.
_LAMBDA = 0.1
_OMEGA = 10.0
_BETA = 0.01
_RHO = 50.0
_LR_Q = 0.009
_LR_P = 0.001


class DivergenceError(RuntimeError):
    """Training lost numerical footing; the message names the offending term."""


@dataclass
class SolverConfig:
    """Everything a fit depends on besides the data itself.

    Defaults follow the synthetic-study settings (batch 1000, 50 epochs).
    `restarts`/`warm_epochs` control the quantile warm start that chooses the
    starting point for the traced epochs; restarts=1 with warm_epochs=0
    reduces to plain whitening-plus-noise initialization. Each restart draws
    from its own random stream and the training batches from theirs, so
    neither setting moves the training batches. No worker count is a
    setting or CLI flag. Mode-specific fields are ignored by other modes. The
    MMD kernel's bandwidth (the median heuristic), the starting point's noise
    (`_INIT_NOISE`), the warm start's slice count (`_WARM_SLICES`), the
    discriminator's label smoothing and step size, the penalty weights
    (`_LAMBDA`, `_OMEGA`, `_BETA`, `_RHO`) and the heads' step sizes
    (`_LR_Q`, `_LR_P`) are fixed, not settings; so is precision: the
    discriminator and the MMD's and HSIC's Gram strips compute in float32,
    the rest of a fit (projections, whitening, anchors, kernel bandwidths,
    quantile steps, Adam on the heads) in float64.

    Each field is checked against its annotation (`_ANNOTATED`), `_BOUNDS`
    and `_CHOICES` by `numerics.check_value`, which the config file's solver
    section passes through too. A fault raises ValidationError("<field>:
    <reason>"), e.g. "d_c: 0 is not >= 1" or "disc_hidden/0: expected an
    integer, got 8.5"; the config file reports it as "config invalid at
    solver/<field>: <reason>". A numpy integer is kept as an int and
    `disc_hidden` as a tuple.
    """

    d_c: int
    mode: str = "unaligned"
    matcher: str = "mmd"
    batch: int = 1000
    epochs: int = 50
    seed: int = 0
    d_p1: int = 0
    d_p2: int = 0
    disc_hidden: tuple = DEFAULT_HIDDEN
    restarts: int = 8
    warm_epochs: int = 30
    warm_batch: int = 1000
    checkpoint_every: int = 10
    checkpoint_rows: int = 2048
    select_rows: int = 4096

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, check_value(
                getattr(self, f.name), _ANNOTATED[f.type], f.name, f.name,
                _BOUNDS, _CHOICES))

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["disc_hidden"] = list(self.disc_hidden)
        return d


@dataclass(frozen=True)
class Projection:
    """A learned projection and the frozen covariance it was whitened against."""

    matrix: np.ndarray
    covariance: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.matrix.shape[1]:
            raise ValidationError(f"data has {x.shape[-1]} columns, the "
                                  f"projection expects {self.matrix.shape[1]}")
        return x @ self.matrix.T

    def whitening_residual(self) -> float:
        m = self.matrix @ self.covariance @ self.matrix.T
        return float(np.linalg.norm(m - np.eye(m.shape[0])))


@dataclass(frozen=True)
class AnchorSet:
    """Index pairs (i, j) asserting x1[i] and x2[j] share a latent code."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError("anchor pairs must have shape (L, 2)")
        if len(np.unique(pairs[:, 0])) != len(pairs):
            raise ValidationError("repeated left index in anchor set")
        if len(np.unique(pairs[:, 1])) != len(pairs):
            raise ValidationError("repeated right index in anchor set")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass
class FitResult:
    """Learned projections plus the per-epoch loss trace and config echo.

    In homogeneous mode q1 and q2 are the same object. The trace has one row
    per traced epoch with the weighted loss terms (columns TRACE_COLUMNS),
    `total` being their sum. Checkpoints hold (epoch, objective) pairs: every
    term of the fit evaluated on a fixed leading subsample at epoch 0, every
    checkpoint_every epochs and after the last epoch, in every mode.
    """

    q1: Projection
    q2: Projection
    qp1: Projection | None = None
    qp2: Projection | None = None
    trace: np.ndarray = field(default_factory=lambda: np.zeros((0, 7)))
    checkpoints: list = field(default_factory=list)
    wall_clock: float = 0.0
    config: SolverConfig | None = None
    discriminator: Discriminator | None = None

    @property
    def homogeneous(self) -> bool:
        return self.q1 is self.q2


# ---------------------------------------------------------------------------
# Penalties
# ---------------------------------------------------------------------------

def whitening_penalty(q: np.ndarray, sigma: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """||Q S Q^T - I||_F^2 and its gradient 4 (Q S Q^T - I) Q S."""
    q = check_matrix(q, "Q")
    sigma = check_matrix(sigma, "Sigma")
    if q.shape[1] != sigma.shape[0] or sigma.shape[0] != sigma.shape[1]:
        raise ValidationError(
            f"shape mismatch: Q {q.shape} vs Sigma {sigma.shape}")
    qs = q @ sigma
    m = qs @ q.T - np.eye(q.shape[0])
    return float(np.sum(m * m)), 4.0 * (m @ qs)


def anchor_penalty(q1: np.ndarray, q2: np.ndarray, x1a: np.ndarray,
                   x2a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Sum of squared projected anchor mismatches and gradients w.r.t. Q1, Q2."""
    d = x1a @ q1.T - x2a @ q2.T
    value = float(np.sum(d * d))
    return value, 2.0 * d.T @ x1a, -2.0 * d.T @ x2a


def _ranked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column of `a` in ascending order: the flat index into `a` of
    every rank, and the sorted values. The order is the stable argsort's,
    from the default-kind argsort when every column's sorted values rise
    strictly (the permutation is then unique); ties, signed zeros and NaN
    fall back to the stable sort."""
    k = a.shape[1]
    cols = np.arange(k)
    index = np.argsort(a, axis=0) * k + cols
    values = a.ravel()[index]
    if not np.all(values[1:] > values[:-1]):
        index = np.argsort(a, axis=0, kind="stable") * k + cols
        values = a.ravel()[index]
    return index.ravel(), values


def quantile_match(u: np.ndarray, v: np.ndarray, directions: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean squared sorted-quantile gap over 1-D slices, with gradients.

    Projects both sample sets on every unit direction at once, sorts all
    slices of a set in one argsort (`_ranked`: equal values keep their row
    order), and penalizes the squared gap between equal ranks; requires
    equal sample counts. Each rank's gap goes back to the row it came from
    by one flat-index assignment, so each gradient is one product with the
    directions. Used as the warm-start surrogate: its gradient stays
    informative at every scale where the two pushforwards differ.
    """
    if u.shape[0] != v.shape[0]:
        raise ValidationError("quantile matching needs equal batch sizes")
    b, k = u.shape[0], directions.shape[0]
    i1, s1 = _ranked(u @ directions.T)
    i2, s2 = _ranked(v @ directions.T)
    gap = s1 - s2
    du, dv = np.empty_like(gap), np.empty_like(gap)
    du.ravel()[i1] = (2.0 * gap / b).ravel()
    dv.ravel()[i2] = (-2.0 * gap / b).ravel()
    value = float(np.sum(gap * gap)) / b
    return value / k, du @ directions / k, dv @ directions / k


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------

def _check_centered(x: np.ndarray, name: str) -> np.ndarray:
    """x, once each column's mean is within 1e-6 times its std or within
    the round-off of a sum of n entries of x's largest magnitude: centring a
    constant column leaves such a mean with std 0."""
    x = check_matrix(x, name)
    mean = np.abs(x.mean(axis=0))
    roundoff = x.shape[0] * np.finfo(np.float64).eps * np.max(np.abs(x), initial=0.0)
    if np.any(mean > np.maximum(1e-6 * x.std(axis=0), roundoff)):
        raise ValidationError(f"{name} is not centered (column mean too large)")
    return x


class _View:
    """One modality: its centred data, their frozen covariance (1/n) x^T x,
    symmetrized, and the whitening map and whitened data that `whiten` sets.
    Dividing by n, not n - 1, lets a whitening W of it give W S W^T = I on
    the data exactly."""

    def __init__(self, x: np.ndarray, name: str):
        self.x = _check_centered(x, name)
        self.n = x.shape[0]
        if self.n < 2:
            raise ValidationError(
                f"{name}: covariance needs at least 2 rows, got {self.n}")
        s = self.x.T @ self.x / self.n
        self.sigma = 0.5 * (s + s.T)

    def whiten(self, w: np.ndarray) -> None:
        self.w = w
        self.z = self.x @ w.T
        self.rank = w.shape[0]
        # covariance of z; identity up to whitening round-off, kept exact so
        # the reported penalty equals the original-space R(Q)
        self.sz = w @ self.sigma @ w.T


def _prepare_views(x1: np.ndarray, x2: np.ndarray, homogeneous: bool
                   ) -> tuple[_View, _View, np.ndarray | None]:
    """Per-view whitened coordinates; homogeneous mode shares a map of the
    pooled covariance so that one parameter matrix is one original-space
    projection."""
    if homogeneous and x1.shape[1] != x2.shape[1]:
        raise ValidationError("homogeneous mode requires equal data dimensions")
    v1, v2 = _View(x1, "X1"), _View(x2, "X2")
    pooled = 0.5 * (v1.sigma + v2.sigma) if homogeneous else None
    shared = None if pooled is None else whitening_matrix(pooled)
    for v in (v1, v2):
        v.whiten(whitening_matrix(v.sigma) if shared is None else shared)
    return v1, v2, pooled


def _block_init(rank: int, rows: slice, noise: float,
                rng: np.random.Generator, what: str) -> np.ndarray:
    if rows.stop > rank:
        raise ValidationError(
            f"{what}: covariance rank {rank} < required {rows.stop}")
    q = np.zeros((rows.stop - rows.start, rank))
    q[:, rows] = np.eye(rows.stop - rows.start)
    return q + noise * rng.normal(size=q.shape)


def _haar_init(rank: int, k: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(rank, k))
    q, _ = np.linalg.qr(a)
    return q[:, :k].T


def _epoch_batches(n1: int, n2: int, batch: int, rng: np.random.Generator):
    """Independent without-replacement minibatch index streams for one epoch."""
    b = min(batch, n1, n2)
    steps = max(1, min(n1, n2) // b)
    perm1 = rng.permutation(n1)
    perm2 = rng.permutation(n2)
    for s in range(steps):
        yield perm1[s * b:(s + 1) * b], perm2[s * b:(s + 1) * b]


def _resolve_anchors(anchors, cfg, n1, n2):
    """The anchor pairs of a weakly_supervised fit, checked against the row
    counts; None in every other mode, which takes no anchors."""
    given = anchors is not None and len(anchors) > 0
    if cfg.mode != "weakly_supervised":
        if given:
            raise ValidationError(f"{cfg.mode} mode takes no anchors; only "
                                  "weakly_supervised mode does")
        return None
    if not given:
        raise ValidationError("weakly_supervised mode requires anchors")
    pairs = anchors.pairs
    if pairs[:, 0].max() >= n1 or pairs[:, 1].max() >= n2 or pairs.min() < 0:
        raise ValidationError("anchor index out of range")
    return pairs


# Largest R(Q1) + R(Q2) a whitening term may reach. R(Q) = sum_i (l_i - 1)^2
# over the eigenvalues l_i >= 0 of Q S Q^T, the projected codes' covariance,
# which the penalty drives to I; an eigenvalue below 1 adds at most 1. Past
# this bound one head's R exceeds 5e5, so at d_c <= 50 some l_i exceeds 100:
# a projected standard deviation ten times the whitened scale at which the
# matcher's kernel bandwidth was frozen. Fits at the defaults stay below 1
# (at most 0.83, homogeneous); a step size that throws the projections
# about passes 1e8 in its first epoch.
_WHITENING_LIMIT = 1e6


def _guard(term: str, value: float, epoch: int, phase: str,
           limit: float) -> None:
    if not np.isfinite(value):
        raise DivergenceError(
            f"{term} became non-finite at epoch {epoch} of {phase}")
    if value > limit:
        raise DivergenceError(
            f"{term} reached {value:.3g}, above its bound {limit:.3g}, "
            f"at epoch {epoch} of {phase}")


# ---------------------------------------------------------------------------
# Objective terms
#
# A term is a _Term. fn(p, b1, b2, train) sees the parameters p by slot (q1,
# q2, qp1, qp2) and a batch of whitened rows b1, b2 of each view; it returns
# its weighted value, its shares of the _SUMS columns and (slot, gradient)
# pairs. train=False evaluates a checkpoint, where only the value is read:
# the matcher and HSIC then compute no gradients. Gradients add per slot in
# term order, which fixes the floating-point sums. A training step whose
# value is not finite or exceeds the term's limit raises DivergenceError.
# ---------------------------------------------------------------------------

class _Term(NamedTuple):
    name: str
    fn: Callable
    limit: float = np.inf


def _float32(u: np.ndarray, v: np.ndarray) -> tuple:
    """The views rounded to float32, the dtype the MMD's and HSIC's strips
    compute in, or as they are if either overflows it. Only a diverging
    fit's views do (entries past 3.4e38); its MMD or HSIC then runs in
    float64, and the whitening term after it names the divergence."""
    with np.errstate(over="ignore"):  # an overflow is the case handled here
        low = u.astype(np.float32), v.astype(np.float32)
    return low if all(np.isfinite(a).all() for a in low) else (u, v)


def _mmd_term(kernel: Callable[[], KernelSpec]):
    """The MMD matcher at the kernel `kernel()` returns, on the views in
    float32 (`_float32`); value-only at a checkpoint."""
    def term(p, b1, b2, train):
        u, v = _float32(b1 @ p["q1"].T, b2 @ p["q2"].T)
        value, gu, gv = mmd2_unbiased(u, v, kernel(), grad=train)
        if not train:
            return value, {"matcher": value}, ()
        return value, {"matcher": value}, (("q1", gu.T @ b1), ("q2", gv.T @ b2))
    return _Term("matcher", term)


def _adversarial_term(disc: Discriminator):
    """The adversarial matcher: one discriminator step before each training
    step (parameter gradients only), then the value and the gradients at
    the projected views (input gradients only); at a checkpoint the value
    from forward passes alone."""
    def term(p, b1, b2, train):
        u, v = b1 @ p["q1"].T, b2 @ p["q2"].T
        if not train:
            value = gan_value_and_grads(disc, u, v, grads="none")[0]
            return value, {"matcher": value}, ()
        discriminator_step(disc, u, v)
        value, _, gu, gv = gan_value_and_grads(disc, u, v, grads="inputs")
        return value, {"matcher": value}, (("q1", gu.T @ b1), ("q2", gv.T @ b2))
    return _Term("matcher", term)


def _quantile_term(cfg: SolverConfig, rng: np.random.Generator):
    """The warm-start matcher: quantile_match along fresh random slices."""
    def term(p, b1, b2, train):
        dirs = rng.normal(size=(_WARM_SLICES, cfg.d_c))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        value, gu, gv = quantile_match(b1 @ p["q1"].T, b2 @ p["q2"].T, dirs)
        return value, {"matcher": value}, (("q1", gu.T @ b1), ("q2", gv.T @ b2))
    return _Term("warm-start quantile matcher", term)


def _whitening_term(name: str, w: float, s1: str, s2: str, v1: _View,
                    v2: _View):
    """w * (R(Q_s1) + R(Q_s2)) for one head per view; R(Q_s1) + R(Q_s2)
    past _WHITENING_LIMIT is a divergence."""
    def term(p, b1, b2, train):
        r1, g1 = whitening_penalty(p[s1], v1.sz)
        r2, g2 = whitening_penalty(p[s2], v2.sz)
        return (w * (r1 + r2), {"rq1": w * r1, "rq2": w * r2},
                ((s1, w * g1), (s2, w * g2)))
    return _Term(name, term, w * _WHITENING_LIMIT)


def _anchor_term(pairs: np.ndarray, v1: _View, v2: _View):
    """_BETA * sum over anchor pairs of ||Q1 x1_l - Q2 x2_l||^2."""
    x1a, x2a = v1.z[pairs[:, 0]], v2.z[pairs[:, 1]]

    def term(p, b1, b2, train):
        value, g1, g2 = anchor_penalty(p["q1"], p["q2"], x1a, x2a)
        return (_BETA * value, {"anchor": _BETA * value},
                (("q1", _BETA * g1), ("q2", _BETA * g2)))
    return _Term("anchor penalty", term)


def _hsic_term(p0: dict, v1: _View, v2: _View):
    """_RHO * sum over views of HSIC(shared, private projection); bandwidths
    frozen from the float64 projections p0; checkpoints are value-only, on
    at most 1024 rows. Each call takes its views in float32 (`_float32`),
    so its Gram strips compute in float32."""
    kc1, kp1, kc2, kp2 = (KernelSpec.resolve(v.z[:1000] @ p0[slot].T)
                          for v, slot in ((v1, "q1"), (v1, "qp1"),
                                          (v2, "q2"), (v2, "qp2")))

    def term(p, b1, b2, train):
        if not train:
            b1, b2 = b1[:1024], b2[:1024]
        h1, gc1, gp1 = hsic_biased(*_float32(b1 @ p["q1"].T, b1 @ p["qp1"].T),
                                   kc1, kp1, grad=train)
        h2, gc2, gp2 = hsic_biased(*_float32(b2 @ p["q2"].T, b2 @ p["qp2"].T),
                                   kc2, kp2, grad=train)
        value = _RHO * (h1 + h2)
        if not train:
            return value, {"hsic": value}, ()
        return value, {"hsic": value}, (
            ("q1", _RHO * gc1.T @ b1), ("qp1", _RHO * gp1.T @ b1),
            ("q2", _RHO * gc2.T @ b2), ("qp2", _RHO * gp2.T @ b2))
    return _Term("hsic", term)


def _constraints(v1: _View, v2: _View, pairs) -> list:
    """The terms every phase adds to its matcher: shared-head whitening and,
    with anchors (weakly_supervised mode), the anchor penalty."""
    terms = [_whitening_term("whitening penalty", _LAMBDA, "q1", "q2", v1, v2)]
    if pairs is not None:
        terms.append(_anchor_term(pairs, v1, v2))
    return terms


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------

def _shared_blocks(tied: bool) -> list:
    """(slots, AdamState) blocks of the shared heads; a tied block (q1 and q2
    in homogeneous mode) steps on the sum of their gradients."""
    if tied:
        return [(("q1", "q2"), AdamState(lr=_LR_Q))]
    return [(("q1",), AdamState(lr=_LR_Q)), (("q2",), AdamState(lr=_LR_Q))]


def _train(p: dict, blocks: list, terms: list, v1: _View, v2: _View,
           rng_batch: np.random.Generator, batch: int, epochs: int,
           phase: str, checkpoint: tuple[int, int] | None = None):
    """Adam on the sum of `terms`, updating the parameters `p` in place.

    Returns the trace (TRACE_COLUMNS) and, with checkpoint=(every, rows),
    the (epoch, objective) checkpoints on the leading `rows` rows. Each phase
    numbers its epochs from 0, so a DivergenceError ends with `phase`.
    """
    checkpoints = []

    def record(epoch: int) -> None:
        rows = min(checkpoint[1], v1.n, v2.n)
        z1, z2 = v1.z[:rows], v2.z[:rows]
        value = 0.0
        for term in terms:
            value += term.fn(p, z1, z2, False)[0]
        checkpoints.append((epoch, value))

    if checkpoint:
        record(0)
    trace = np.zeros((epochs, len(TRACE_COLUMNS)))
    for epoch in range(epochs):
        sums = np.zeros(len(_SUMS))
        steps = 0
        for idx1, idx2 in _epoch_batches(v1.n, v2.n, batch, rng_batch):
            b1, b2 = v1.z[idx1], v2.z[idx2]
            row, grads = np.zeros(len(_SUMS)), {}
            for name, term, limit in terms:
                value, columns, term_grads = term(p, b1, b2, True)
                _guard(name, value, epoch, phase, limit)
                for column, share in columns.items():
                    row[_SUMS.index(column)] += share
                for slot, g in term_grads:
                    grads[slot] = grads[slot] + g if slot in grads else g
            for slots, adam in blocks:
                first, *rest = slots
                g = sum((grads[slot] for slot in rest), grads[first])
                p.update(dict.fromkeys(slots, adam.step(p[first], g)))
            sums += row
            steps += 1
        mean = sums / steps
        trace[epoch] = (epoch, *mean, mean.sum())
        if checkpoint and ((epoch + 1) % checkpoint[0] == 0
                           or epoch == epochs - 1):
            record(epoch + 1)
    return trace, checkpoints


def _warm_start(cfg: SolverConfig, v1: _View, v2: _View,
                kernel: Callable[[], KernelSpec], pairs, homogeneous: bool,
                rng_init: np.random.Generator):
    """Multi-restart quantile warm start; returns the best starting point.

    Restart 0 starts from the whitening-plus-noise block drawn from
    rng_init; later restarts use random orthonormal frames. Restart r takes
    all its other draws (its frame, its quantile slices and its warm
    batches) from its own substream (seed, "solver", "restart r"), so its
    result depends neither on the other restarts nor on the order they run
    in, and they run side by side on up to the usable cores
    (`numerics.side_by_side`).

    Candidates are scored by the MMD at the frozen kernel `kernel()`
    returns (its first call resolves the bandwidth) plus a half-bandwidth
    MMD on a large leading subsample, which separates true matches from
    scale-local spurious ones: one value-only MMD under the two-scale
    kernel k_sigma + k_{sigma/2}. After the search, each restart's score
    and then the chosen restart are logged at DEBUG, in restart order; ties
    go to the lower restart.
    """
    d_c = cfg.d_c
    q1_spec = _block_init(v1.rank, slice(0, d_c), _INIT_NOISE, rng_init,
                          "Q1" if not homogeneous else "Q")
    q2_spec = q1_spec if homogeneous else _block_init(
        v2.rank, slice(0, d_c), _INIT_NOISE, rng_init, "Q2")
    if cfg.warm_epochs == 0 and cfg.restarts == 1:
        return q1_spec, q2_spec

    two_scale = KernelSpec(kernel().bandwidth, two_scale=True)
    ns = min(cfg.select_rows, v1.n, v2.n)

    def search(restart: int):
        rng = substream(cfg.seed, "solver", f"restart {restart}")
        if restart == 0:
            q1, q2 = q1_spec, q2_spec
        elif homogeneous:
            q1 = q2 = _haar_init(min(v1.rank, v2.rank), d_c, rng)
        else:
            q1 = _haar_init(v1.rank, d_c, rng)
            q2 = _haar_init(v2.rank, d_c, rng)
        p = {"q1": q1, "q2": q2}
        terms = [_quantile_term(cfg, rng), *_constraints(v1, v2, pairs)]
        _train(p, _shared_blocks(homogeneous), terms, v1, v2, rng,
               cfg.warm_batch, cfg.warm_epochs, f"warm-start restart {restart}")
        u, v = v1.z[:ns] @ p["q1"].T, v2.z[:ns] @ p["q2"].T
        return p, mmd2_unbiased(*_float32(u, v), two_scale, grad=False)[0]

    results = numerics.side_by_side(search, range(cfg.restarts),
                                    numerics.usable_cores())

    best, best_score, best_restart = None, np.inf, -1
    for restart, (p, s) in enumerate(results):
        log.debug("warm start restart %d: score %.6g", restart, s)
        if s < best_score:
            best, best_score, best_restart = (p["q1"], p["q2"]), s, restart
    log.debug("warm start chose restart %d of %d (score %.6g)",
              best_restart, cfg.restarts, best_score)
    return best


# ---------------------------------------------------------------------------
# Public fits
# ---------------------------------------------------------------------------

def fit(x1: np.ndarray, x2: np.ndarray, cfg: SolverConfig,
        anchors: AnchorSet | None = None) -> FitResult:
    """Learn the shared-component projections by distribution matching.

    Minimizes matcher(Q1 x1, Q2 x2) + _LAMBDA (R(Q1) + R(Q2)), plus
    _BETA * sum_l ||Q1 x1_l - Q2 x2_l||^2 over the anchor pairs in
    weakly_supervised mode, the only mode that takes anchors. Homogeneous
    mode trains a single matrix against both covariance penalties;
    with_private mode adds the private heads (see fit_with_private). The
    MMD kernel bandwidth is frozen from the initial projections; the warm
    start (see SolverConfig) picks the starting point, after which the
    configured matcher drives the traced epochs.
    """
    t0 = time.perf_counter()
    homogeneous = cfg.mode == "homogeneous"
    private = cfg.mode == "with_private"
    if private and (cfg.d_p1 < 1 or cfg.d_p2 < 1):
        raise ValidationError("with_private requires d_p1 >= 1 and d_p2 >= 1")
    v1, v2, pooled = _prepare_views(x1, x2, homogeneous)
    if private and min(cfg.batch, v1.n, v2.n) < 4:
        raise ValidationError(
            f"with_private's HSIC needs 4 rows a step; got batch "
            f"{cfg.batch}, {v1.n} rows in X1, {v2.n} in X2")
    pairs = _resolve_anchors(anchors, cfg, v1.n, v2.n)

    # Draw order is part of the replay contract. rng_init draws the probes,
    # the private heads and restart 0's block start, in that order; each
    # warm-start restart draws the rest of its search from its own stream
    # (see _warm_start), and rng_batch draws the training batches alone, so
    # neither restarts nor warm_epochs move them.
    rng_init = substream(cfg.seed, "solver", "init")
    rng_batch = substream(cfg.seed, "solver", "batches")
    rng_disc = substream(cfg.seed, "solver", "disc")

    d_c = cfg.d_c
    probe1 = _block_init(v1.rank, slice(0, d_c), 0.0, rng_init, "Q1")
    probe2 = probe1 if homogeneous else _block_init(
        v2.rank, slice(0, d_c), 0.0, rng_init, "Q2")
    u0, v0 = v1.z[:1000] @ probe1.T, v2.z[:1000] @ probe2.T
    kernel = functools.cache(lambda: KernelSpec.resolve(u0, v0))
    disc = None if cfg.matcher == "mmd" else Discriminator(
        d_c, hidden=cfg.disc_hidden, rng=rng_disc)
    p = {}
    if private:
        p["qp1"] = _block_init(v1.rank, slice(d_c, d_c + cfg.d_p1),
                               _INIT_NOISE, rng_init, "QP1")
        p["qp2"] = _block_init(v2.rank, slice(d_c, d_c + cfg.d_p2),
                               _INIT_NOISE, rng_init, "QP2")
    p["q1"], p["q2"] = _warm_start(cfg, v1, v2, kernel, pairs,
                                   homogeneous, rng_init)

    blocks = _shared_blocks(homogeneous)
    terms = [_mmd_term(kernel) if disc is None else _adversarial_term(disc),
             *_constraints(v1, v2, pairs)]
    if private:
        blocks += [(("qp1",), AdamState(lr=_LR_P)),
                   (("qp2",), AdamState(lr=_LR_P))]
        terms += [_whitening_term("private whitening penalty", _OMEGA,
                                  "qp1", "qp2", v1, v2),
                  _hsic_term(p, v1, v2)]
    trace, checkpoints = _train(p, blocks, terms, v1, v2, rng_batch,
                                cfg.batch, cfg.epochs, "training",
                                (cfg.checkpoint_every, cfg.checkpoint_rows))

    proj1 = Projection(p["q1"] @ v1.w, pooled if homogeneous else v1.sigma)
    proj2 = proj1 if homogeneous else Projection(p["q2"] @ v2.w, v2.sigma)
    result = FitResult(q1=proj1, q2=proj2, trace=trace,
                       checkpoints=checkpoints, config=replace(cfg),
                       discriminator=disc)
    if private:
        result.qp1 = Projection(p["qp1"] @ v1.w, v1.sigma)
        result.qp2 = Projection(p["qp2"] @ v2.w, v2.sigma)
    result.wall_clock = time.perf_counter() - t0
    return result


def fit_with_private(x1: np.ndarray, x2: np.ndarray,
                     cfg: SolverConfig) -> FitResult:
    """Jointly learn shared projections and per-modality private heads.

    Objective: matcher on the shared projections + _LAMBDA R(Q_C) terms +
    _OMEGA R(Q_P) terms + _RHO * HSIC(Q_C x, Q_P x) per modality. The private
    heads start from the next whitening rows and only join once the warm
    start has placed the shared heads; HSIC kernel bandwidths are frozen from
    the initial projections. Requires mode 'with_private'.
    """
    if cfg.mode != "with_private":
        raise ValidationError(
            f"fit_with_private requires mode 'with_private', got '{cfg.mode}'")
    return fit(x1, x2, cfg)


# ---------------------------------------------------------------------------
# Model directory serialization
# ---------------------------------------------------------------------------

def save_model(result: FitResult, directory: str) -> None:
    """Write arrays.npz, holding Q1, Sigma1 and, unless homogeneous, Q2,
    Sigma2, and QP1, QP2 and disc_W<i>, disc_b<i> when the fit has them;
    loss_trace.csv; and model.json: kind, version, config, checkpoints,
    wall_clock_seconds. Every array is float64: the discriminator's float32
    layers are upcast, which is exact."""
    os.makedirs(directory, exist_ok=True)
    arrays = {"Q1": result.q1.matrix, "Sigma1": result.q1.covariance}
    if not result.homogeneous:
        arrays.update(Q2=result.q2.matrix, Sigma2=result.q2.covariance)
    for name, proj in (("QP1", result.qp1), ("QP2", result.qp2)):
        if proj is not None:
            arrays[name] = proj.matrix
    if result.discriminator is not None:
        f = result.discriminator
        for i, (wt, bs) in enumerate(zip(f.weights, f.biases)):
            arrays[f"disc_W{i}"] = wt.astype(np.float64)
            arrays[f"disc_b{i}"] = bs.astype(np.float64)
    matio.write_arrays(os.path.join(directory, matio.ARCHIVE), arrays)
    matio.write_csv(os.path.join(directory, "loss_trace.csv"), result.trace,
                    list(TRACE_COLUMNS))
    meta = {
        "kind": "unisca-model",
        "version": matio.VERSION,
        "config": result.config.to_dict(),
        "checkpoints": [[int(e), float(v)] for e, v in result.checkpoints],
        "wall_clock_seconds": result.wall_clock,
    }
    matio.write_json(os.path.join(directory, "model.json"), meta)


def _checkpoints(doc, where: str) -> list:
    """model.json's checkpoints as (epoch, value) tuples, once `doc` is an
    array of [integer, number] pairs; otherwise a ValidationError."""
    if not isinstance(doc, list):
        raise ValidationError(f"{where}: expected an array, got {doc!r}")
    pairs = []
    for i, pair in enumerate(doc):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError(
                f"{where}/{i}: expected an [epoch, value] pair, got {pair!r}")
        pairs.append((check_value(pair[0], (int,), f"{where}/{i}/0", "epoch"),
                      check_value(pair[1], (float,), f"{where}/{i}/1", "value")))
    return pairs


def load_model(directory: str) -> FitResult:
    """Read what save_model wrote. Which arrays are read is derived from the
    config: q2 is q1 if homogeneous, private heads if with_private, and an
    adversarial matcher's discriminator has its disc_hidden; other arrays
    in the archive are ignored. A ValidationError naming the file refuses a
    model.json of another version (refit the model), one without a
    config, checkpoints or wall_clock_seconds, or with a config, checkpoint
    or wall clock of the wrong type; an archive lacking an array the config
    implies, or holding one of another dtype or shape (Q<i> has d_c rows,
    QP<i> d_p<i>, Sigma<i> is square with Q<i>'s columns, the discriminator
    follows disc_hidden); and a loss_trace.csv whose columns are not
    TRACE_COLUMNS. The discriminator's layers are rounded to float32, the
    dtype a fit's discriminator computes in; this is exact for an archive
    save_model wrote from a fit's float32 layers."""
    path = os.path.join(directory, "model.json")
    meta = matio.read_json(path)
    if not isinstance(meta, dict) or meta.get("kind") != "unisca-model":
        raise ValidationError(f"{directory} is not a model directory")
    matio.check_version(meta, path, "refit the model")
    numerics.check_keys(meta, path,
                        required=("checkpoints", "wall_clock_seconds"),
                        optional=meta)
    if not meta.get("config"):
        raise ValidationError(f"{directory}: model.json holds no config; "
                              "refit the model")
    config = check_value(meta["config"], (dict,), f"{path}: config", "config")
    unknown = sorted(set(config).difference(SolverConfig.__dataclass_fields__))
    if unknown:
        raise ValidationError(
            f"{directory}: model config has unknown keys {unknown}; "
            "refit the model")
    cfg = SolverConfig(**config)
    checkpoints = _checkpoints(meta["checkpoints"], f"{path}: checkpoints")
    wall_clock = check_value(meta["wall_clock_seconds"], (float,),
                             f"{path}: wall_clock_seconds", "wall_clock")
    tied, private = cfg.mode == "homogeneous", cfg.mode == "with_private"
    layers = len(cfg.disc_hidden) + 1 if cfg.matcher == "adversarial" else 0
    archive = os.path.join(directory, matio.ARCHIVE)
    a = matio.read_arrays(archive, [
        "Q1", "Sigma1", *(() if tied else ("Q2", "Sigma2")),
        *(("QP1", "QP2") if private else ()),
        *(f"disc_{p}{i}" for i in range(layers) for p in "Wb")])
    shapes = {}
    for i in (1,) if tied else (1, 2):
        d = a[f"Q{i}"].shape[-1:]  # the head's columns, its data's
        shapes.update({f"Q{i}": (cfg.d_c, *d), f"Sigma{i}": (*d, *d),
                       f"QP{i}": (getattr(cfg, f"d_p{i}"), *d)})
    dims = (cfg.d_c, *cfg.disc_hidden, 1)
    for i in range(layers):
        shapes.update({f"disc_W{i}": (dims[i + 1], dims[i]),
                       f"disc_b{i}": (dims[i + 1],)})
    matio.check_shapes(archive, a, shapes)
    q1 = Projection(a["Q1"], a["Sigma1"])
    q2 = q1 if tied else Projection(a["Q2"], a["Sigma2"])
    qp1 = Projection(a["QP1"], q1.covariance) if private else None
    qp2 = Projection(a["QP2"], q2.covariance) if private else None
    disc = Discriminator.from_layers(
        [a[f"disc_W{i}"].astype(np.float32) for i in range(layers)],
        [a[f"disc_b{i}"].astype(np.float32) for i in range(layers)]
    ) if layers else None
    trace_path = os.path.join(directory, "loss_trace.csv")
    trace, columns = matio.read_csv(trace_path)
    if columns != list(TRACE_COLUMNS):
        raise ValidationError(f"{trace_path}: expected the columns "
                              f"{list(TRACE_COLUMNS)}, got {columns}")
    return FitResult(q1=q1, q2=q2, qp1=qp1, qp2=qp2, trace=trace,
                     checkpoints=checkpoints, wall_clock=wall_clock,
                     config=cfg, discriminator=disc)
