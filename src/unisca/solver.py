"""Fitting procedures for shared/private component recovery.

All modes minimize a matcher divergence between the two projected views plus
a squared whitening penalty per projection; the weakly supervised mode adds a
squared anchor-pair penalty, the private mode adds whitening and HSIC terms
for the private heads, a classifier fit adds the cross-entropy of a softmax
head on view 1, and the homogeneous mode ties the two projections to a single
matrix. One loop, `_train`, minimizes any such list of terms, in every mode
and in the warm start; the same terms give the checkpoint objective, recorded
at epoch 0, every checkpoint_every epochs and after the last epoch. A
checkpoint reads only values, so its MMD is the value-only one and its
adversarial value runs the discriminator forward only. A training step forms
only the gradients it reads: the discriminator's own step its parameter
gradients, the projection update the discriminator's input gradients.

Optimization runs in whitened coordinates (Q = Q~ W with W the data whitening
matrix), which makes Adam's step size meaningful across data scales, and in
two stages: a cheap multi-restart warm start that matches sorted quantiles
along random slices (a Wasserstein-style realization of the same
distribution-matching constraint), followed by the configured matcher as the
traced training phase. Restart selection uses a frozen two-bandwidth MMD
score on a large deterministic subsample; the score is value-only. Every
MMD, a step's value and gradients included, is summed over 512-row strips,
so no MMD call forms an n x n Gram matrix. Covariances are frozen before the
first step and kernel bandwidths are fixed by the data's probe projections,
resolved on first read (an adversarial fit without a warm start never reads
the MMD one), so every run is replay-deterministic under its seed.
"""

from __future__ import annotations

import functools
import logging
import operator
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import matio
from .distmatch import (DEFAULT_HIDDEN, Discriminator, KernelSpec,
                        discriminator_step, gan_value_and_grads, hsic_biased,
                        mmd2_unbiased)
from .numerics import (AdamState, ValidationError, check_matrix,
                       empirical_covariance, substream, whitening_matrix)

log = logging.getLogger("unisca")

MODES = ("unaligned", "homogeneous", "weakly_supervised", "with_private")
MATCHERS = ("mmd", "adversarial")
_CHOICES = {"mode": MODES, "matcher": MATCHERS}  # SolverConfig's str fields

TRACE_COLUMNS = ("epoch", "matcher", "rq1", "rq2", "anchor", "hsic", "total")

# Per-step sums behind a trace row: the weighted terms of TRACE_COLUMNS plus
# the classifier's cross-entropy, which only enters `total`.
_SUMS = TRACE_COLUMNS[1:-1] + ("classifier",)

# Bounds on the numeric fields of SolverConfig, from which the config schema
# is derived: (comparison a valid value passes, its symbol, its JSON Schema
# keyword, {field: bound}). A tuple field is checked item by item; a None
# field is unset and skipped.
_BOUNDS = (
    (operator.ge, ">=", "minimum", {
        "d_c": 1, "batch": 2, "epochs": 1, "restarts": 1, "warm_epochs": 0,
        "warm_batch": 2, "warm_slices": 1, "checkpoint_every": 1,
        "checkpoint_rows": 4, "select_rows": 4, "lambda_whiten": 0,
        "beta": 0, "omega": 0, "rho": 0, "gamma": 0, "d_p1": 0, "d_p2": 0,
        "disc_hidden": 1, "disc_steps": 1, "disc_input_dropout": 0,
        "label_smoothing": 0, "init_noise": 0}),
    (operator.gt, ">", "exclusiveMinimum", {
        "lr_q": 0, "lr_f": 0, "lr_p": 0, "lr_clf": 0, "clf_decay": 0,
        "bandwidth": 0}),
    (operator.le, "<=", "maximum",
     {"disc_input_dropout": 0.99, "label_smoothing": 0.5}),
)


class DivergenceError(RuntimeError):
    """Training lost numerical footing; the message names the offending term."""


@dataclass
class SolverConfig:
    """Everything a fit depends on besides the data itself.

    Defaults follow the synthetic-study settings (lr 0.009 / 0.00008, batch
    1000, 50 epochs, lambda 0.1, beta 0.01, omega 10, rho 50, gamma 0.1).
    `restarts`/`warm_epochs` control the quantile warm start that chooses the
    starting point for the traced epochs; restarts=1 with warm_epochs=0
    reduces to plain whitening-plus-noise initialization. Mode-specific
    fields are ignored by the other modes.
    """

    d_c: int
    mode: str = "unaligned"
    matcher: str = "mmd"
    lambda_whiten: float = 0.1
    beta: float = 0.01
    omega: float = 10.0
    rho: float = 50.0
    gamma: float = 0.1
    lr_q: float = 0.009
    lr_f: float = 0.00008
    lr_p: float = 0.001
    lr_clf: float = 0.02
    clf_decay: float = 0.75
    batch: int = 1000
    epochs: int = 50
    seed: int = 0
    d_p1: int = 0
    d_p2: int = 0
    bandwidth: float | None = None
    disc_hidden: tuple = DEFAULT_HIDDEN
    disc_steps: int = 1
    disc_input_dropout: float = 0.0
    label_smoothing: float = 0.2
    init_noise: float = 0.01
    restarts: int = 8
    warm_epochs: int = 30
    warm_slices: int = 24
    warm_batch: int = 1000
    checkpoint_every: int = 10
    checkpoint_rows: int = 2048
    select_rows: int = 4096

    def __post_init__(self):
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValidationError(f"{name} must be one of {choices}, "
                                      f"got '{getattr(self, name)}'")
        self.disc_hidden = tuple(int(h) for h in self.disc_hidden)
        for holds, symbol, _, bounds in _BOUNDS:
            for name, bound in bounds.items():
                value = getattr(self, name)
                values = value if isinstance(value, tuple) else (value,)
                if not all(v is None or holds(v, bound) for v in values):
                    raise ValidationError(f"{name} must be {symbol} {bound}")

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
        return np.asarray(x, dtype=np.float64) @ self.matrix.T

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
    per traced epoch with the weighted loss terms (columns TRACE_COLUMNS);
    `total` additionally absorbs the classifier term when one is trained.
    Checkpoints hold (epoch, objective) pairs: every term of the fit,
    classifier included, evaluated on a fixed leading subsample at epoch 0,
    every checkpoint_every epochs and after the last epoch, in every mode.
    """

    q1: Projection
    q2: Projection
    qp1: Projection | None = None
    qp2: Projection | None = None
    classifier: tuple[np.ndarray, np.ndarray] | None = None
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


def quantile_match(u: np.ndarray, v: np.ndarray, directions: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean squared sorted-quantile gap over 1-D slices, with gradients.

    Projects both sample sets on every unit direction at once, sorts all
    slices in one stable argsort per set, and penalizes the squared gap
    between equal ranks; requires equal sample counts. Each rank's gap goes
    back to the row it came from, so each gradient is one product with the
    directions. Used as the warm-start surrogate: its gradient stays
    informative at every scale where the two pushforwards differ.
    """
    if u.shape[0] != v.shape[0]:
        raise ValidationError("quantile matching needs equal batch sizes")
    b, k = u.shape[0], directions.shape[0]
    a1 = u @ directions.T
    a2 = v @ directions.T
    o1 = np.argsort(a1, axis=0, kind="stable")
    o2 = np.argsort(a2, axis=0, kind="stable")
    gap = np.take_along_axis(a1, o1, 0) - np.take_along_axis(a2, o2, 0)
    du, dv = np.empty_like(gap), np.empty_like(gap)
    np.put_along_axis(du, o1, 2.0 * gap / b, 0)
    np.put_along_axis(dv, o2, -2.0 * gap / b, 0)
    value = float(np.sum(gap * gap)) / b
    return value / k, du @ directions / k, dv @ directions / k


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------

def _check_centered(x: np.ndarray, name: str) -> np.ndarray:
    x = check_matrix(x, name)
    mean = np.abs(x.mean(axis=0))
    std = x.std(axis=0)
    if np.any(mean > 1e-6 * np.maximum(std, 1e-300)):
        raise ValidationError(f"{name} is not centered (column mean too large)")
    return x


class _View:
    """One modality: frozen covariance, whitening map, whitened data; the
    map is set by `whiten`."""

    def __init__(self, x: np.ndarray, name: str):
        self.x = _check_centered(x, name)
        self.n = x.shape[0]
        self.sigma = empirical_covariance(self.x, center=False)

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
    if cfg.mode == "weakly_supervised":
        if anchors is None or len(anchors) == 0:
            raise ValidationError("weakly_supervised mode requires anchors")
    if anchors is None or len(anchors) == 0 or cfg.beta == 0.0:
        return None
    pairs = anchors.pairs
    if pairs[:, 0].max() >= n1 or pairs[:, 1].max() >= n2 or pairs.min() < 0:
        raise ValidationError("anchor index out of range")
    return pairs


def _guard(term: str, value: float, epoch: int) -> None:
    if not np.isfinite(value):
        raise DivergenceError(f"{term} became non-finite at epoch {epoch}")


# ---------------------------------------------------------------------------
# Objective terms
#
# A term is a (name, fn) pair. fn(p, b1, b2, rows, train) sees the parameters
# p by slot (q1, q2, qp1, qp2, W, b) and whitened rows b1 = z1[rows], b2 of
# each view; it returns its weighted value, its shares of the _SUMS columns
# and (slot, gradient) pairs. train=False evaluates a checkpoint, where only
# the value is read: the matcher then computes no gradients. Gradients
# add per slot in term order, which fixes the floating-point sums.
# ---------------------------------------------------------------------------

class _Matcher:
    """The configured divergence between the projected shared views.

    The adversarial one trains its discriminator before each training step
    (parameter gradients only), then takes the value and the gradients at
    the projected views (input gradients only). At a checkpoint either
    matcher is value-only: the MMD summed in row blocks, the adversarial
    value from forward passes alone. `kernel` is the MMD kernel, its
    bandwidth resolved from the probe projections u0, v0 on first read; the
    MMD matcher and the warm start's restart score read it.
    """

    def __init__(self, cfg: SolverConfig, u0: np.ndarray, v0: np.ndarray,
                 rng: np.random.Generator):
        self._bandwidth, self._u0, self._v0 = cfg.bandwidth, u0, v0
        if cfg.matcher == "mmd":
            self.disc = None
        else:
            self.disc = Discriminator(
                cfg.d_c, hidden=cfg.disc_hidden, lr=cfg.lr_f,
                label_smoothing=cfg.label_smoothing,
                input_dropout=cfg.disc_input_dropout, rng=rng)
            self.steps = cfg.disc_steps

    @functools.cached_property
    def kernel(self) -> KernelSpec:
        return KernelSpec(self._bandwidth).resolve(self._u0, self._v0)

    def __call__(self, p, b1, b2, rows, train):
        u, v = b1 @ p["q1"].T, b2 @ p["q2"].T
        if not train:
            if self.disc is None:
                value = mmd2_unbiased(u, v, self.kernel, grad=False)[0]
            else:
                value = gan_value_and_grads(self.disc, u, v, grads="none")[0]
            return value, {"matcher": value}, ()
        if self.disc is None:
            value, gu, gv = mmd2_unbiased(u, v, self.kernel)
        else:
            for _ in range(self.steps):
                discriminator_step(self.disc, u, v)
            value, _, gu, gv = gan_value_and_grads(self.disc, u, v,
                                                   grads="inputs")
        return value, {"matcher": value}, (("q1", gu.T @ b1), ("q2", gv.T @ b2))


def _quantile_term(cfg: SolverConfig, rng: np.random.Generator):
    """The warm-start matcher: quantile_match along fresh random slices."""
    def term(p, b1, b2, rows, train):
        dirs = rng.normal(size=(cfg.warm_slices, cfg.d_c))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        value, gu, gv = quantile_match(b1 @ p["q1"].T, b2 @ p["q2"].T, dirs)
        return value, {"matcher": value}, (("q1", gu.T @ b1), ("q2", gv.T @ b2))
    return "warm-start quantile matcher", term


def _whitening_term(name: str, w: float, s1: str, s2: str, v1: _View,
                    v2: _View):
    """w * (R(Q_s1) + R(Q_s2)) for one head per view."""
    def term(p, b1, b2, rows, train):
        r1, g1 = whitening_penalty(p[s1], v1.sz)
        r2, g2 = whitening_penalty(p[s2], v2.sz)
        return (w * (r1 + r2), {"rq1": w * r1, "rq2": w * r2},
                ((s1, w * g1), (s2, w * g2)))
    return name, term


def _anchor_term(beta: float, pairs: np.ndarray, v1: _View, v2: _View):
    """beta * sum over anchor pairs of ||Q1 x1_l - Q2 x2_l||^2."""
    x1a, x2a = v1.z[pairs[:, 0]], v2.z[pairs[:, 1]]

    def term(p, b1, b2, rows, train):
        value, g1, g2 = anchor_penalty(p["q1"], p["q2"], x1a, x2a)
        return (beta * value, {"anchor": beta * value},
                (("q1", beta * g1), ("q2", beta * g2)))
    return "anchor penalty", term


def _hsic_term(rho: float, p0: dict, v1: _View, v2: _View):
    """rho * sum over views of HSIC(shared, private projection); bandwidths
    frozen from the projections p0; checkpoints use at most 1024 rows."""
    kc1, kp1, kc2, kp2 = (KernelSpec().resolve(v.z[:1000] @ p0[slot].T)
                          for v, slot in ((v1, "q1"), (v1, "qp1"),
                                          (v2, "q2"), (v2, "qp2")))

    def term(p, b1, b2, rows, train):
        if not train:
            b1, b2 = b1[:1024], b2[:1024]
        h1, gc1, gp1 = hsic_biased(b1 @ p["q1"].T, b1 @ p["qp1"].T, kc1, kp1)
        h2, gc2, gp2 = hsic_biased(b2 @ p["q2"].T, b2 @ p["qp2"].T, kc2, kp2)
        value = rho * (h1 + h2)
        return value, {"hsic": value}, (
            ("q1", rho * gc1.T @ b1), ("qp1", rho * gp1.T @ b1),
            ("q2", rho * gc2.T @ b2), ("qp2", rho * gp2.T @ b2))
    return "hsic", term


def _classifier_term(gamma: float, labels: np.ndarray):
    """gamma * softmax cross-entropy of the linear head W u + b on view 1."""
    def term(p, b1, b2, rows, train):
        u = b1 @ p["q1"].T
        ce, d_logits = _cross_entropy(u, p["W"], p["b"], labels[rows])
        return gamma * ce, {"classifier": gamma * ce}, (
            ("W", gamma * d_logits.T @ u), ("b", gamma * d_logits.sum(axis=0)),
            ("q1", (gamma * d_logits @ p["W"]).T @ b1))
    return "classifier cross-entropy", term


def _constraints(cfg: SolverConfig, v1: _View, v2: _View, pairs) -> list:
    """The terms every phase adds to its matcher: shared-head whitening and,
    with anchors, the anchor penalty."""
    terms = [_whitening_term("whitening penalty", cfg.lambda_whiten, "q1",
                             "q2", v1, v2)]
    if pairs is not None:
        terms.append(_anchor_term(cfg.beta, pairs, v1, v2))
    return terms


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------

class _Block:
    """One Adam state for the parameters in `slots`; a tied block (q1 and q2
    in homogeneous mode) steps on the sum of their gradients. The learning
    rate at epoch e is lr * decay**e."""

    def __init__(self, slots: tuple, lr: float, decay: float = 1.0):
        self.slots, self.lr, self.decay = slots, lr, decay
        self.adam = AdamState(lr=lr)


def _shared_blocks(lr: float, tied: bool) -> list:
    if tied:
        return [_Block(("q1", "q2"), lr)]
    return [_Block(("q1",), lr), _Block(("q2",), lr)]


def _train(p: dict, blocks: list, terms: list, v1: _View, v2: _View,
           rng_batch: np.random.Generator, batch: int, epochs: int,
           checkpoint: tuple[int, int] | None = None):
    """Adam on the sum of `terms`, updating the parameters `p` in place.

    Returns the trace (TRACE_COLUMNS) and, with checkpoint=(every, rows),
    the (epoch, objective) checkpoints on the leading `rows` rows.
    """
    checkpoints = []

    def record(epoch: int) -> None:
        rows = min(checkpoint[1], v1.n, v2.n)
        z1, z2 = v1.z[:rows], v2.z[:rows]
        value = 0.0
        for _, term in terms:
            value += term(p, z1, z2, slice(0, rows), False)[0]
        checkpoints.append((epoch, value))

    if checkpoint:
        record(0)
    trace = np.zeros((epochs, len(TRACE_COLUMNS)))
    for epoch in range(epochs):
        for blk in blocks:
            blk.adam.lr = blk.lr * (blk.decay ** epoch)
        sums = np.zeros(len(_SUMS))
        steps = 0
        for idx1, idx2 in _epoch_batches(v1.n, v2.n, batch, rng_batch):
            b1, b2 = v1.z[idx1], v2.z[idx2]
            row, grads = np.zeros(len(_SUMS)), {}
            for name, term in terms:
                value, columns, term_grads = term(p, b1, b2, idx1, True)
                _guard(name, value, epoch)
                for column, share in columns.items():
                    row[_SUMS.index(column)] += share
                for slot, g in term_grads:
                    grads[slot] = grads[slot] + g if slot in grads else g
            for blk in blocks:
                first, *rest = blk.slots
                g = sum((grads[slot] for slot in rest), grads[first])
                p.update(dict.fromkeys(blk.slots, blk.adam.step(p[first], g)))
            sums += row
            steps += 1
        mean = sums / steps
        trace[epoch] = (epoch, *mean[:-1], mean.sum())
        if checkpoint and ((epoch + 1) % checkpoint[0] == 0
                           or epoch == epochs - 1):
            record(epoch + 1)
    return trace, checkpoints


def _warm_start(cfg: SolverConfig, v1: _View, v2: _View, matcher: _Matcher,
                pairs, homogeneous: bool, rng_init: np.random.Generator,
                rng_batch: np.random.Generator):
    """Multi-restart quantile warm start; returns the best starting point.

    Restart 0 starts from the whitening-plus-noise block; later restarts use
    seeded random orthonormal frames. Candidates are scored by the MMD at
    the matcher's frozen kernel plus a half-bandwidth MMD on a large leading
    subsample, which separates true matches from scale-local spurious ones.
    The score is value-only: each MMD is summed in row blocks without
    gradients or n x n Gram matrices. Each restart's score and the chosen
    restart are logged at DEBUG.
    """
    d_c = cfg.d_c
    q1_spec = _block_init(v1.rank, slice(0, d_c), cfg.init_noise, rng_init,
                          "Q1" if not homogeneous else "Q")
    q2_spec = q1_spec if homogeneous else _block_init(
        v2.rank, slice(0, d_c), cfg.init_noise, rng_init, "Q2")
    if cfg.warm_epochs == 0 and cfg.restarts == 1:
        return q1_spec, q2_spec

    kernel = matcher.kernel
    fine = KernelSpec(kernel.require() * 0.5)
    ns = min(cfg.select_rows, v1.n, v2.n)

    def score(q1, q2):
        u, v = v1.z[:ns] @ q1.T, v2.z[:ns] @ q2.T
        return (mmd2_unbiased(u, v, kernel, grad=False)[0]
                + mmd2_unbiased(u, v, fine, grad=False)[0])

    best, best_score, best_restart = None, np.inf, -1
    for restart in range(cfg.restarts):
        if restart == 0:
            q1, q2 = q1_spec, q2_spec
        elif homogeneous:
            q1 = _haar_init(min(v1.rank, v2.rank), d_c, rng_init)
            q2 = q1
        else:
            q1 = _haar_init(v1.rank, d_c, rng_init)
            q2 = _haar_init(v2.rank, d_c, rng_init)
        p = {"q1": q1, "q2": q2}
        terms = [_quantile_term(cfg, rng_batch),
                 *_constraints(cfg, v1, v2, pairs)]
        _train(p, _shared_blocks(cfg.lr_q, homogeneous), terms, v1, v2,
               rng_batch, cfg.warm_batch, cfg.warm_epochs)
        s = score(p["q1"], p["q2"])
        log.debug("warm start restart %d: score %.6g", restart, s)
        if s < best_score:
            best, best_score, best_restart = (p["q1"], p["q2"]), s, restart
    log.debug("warm start chose restart %d of %d (score %.6g)",
              best_restart, cfg.restarts, best_score)
    return best


def _fit(x1: np.ndarray, x2: np.ndarray, cfg: SolverConfig,
         anchors: AnchorSet | None = None,
         labels1: np.ndarray | None = None) -> FitResult:
    """Set up the views, the warm start and the term list for cfg.mode (plus
    a classifier head when labels1 is given), then train."""
    t0 = time.perf_counter()
    homogeneous = cfg.mode == "homogeneous"
    private = cfg.mode == "with_private"
    if private and (cfg.d_p1 < 1 or cfg.d_p2 < 1):
        raise ValidationError("with_private requires d_p1 >= 1 and d_p2 >= 1")
    v1, v2, pooled = _prepare_views(x1, x2, homogeneous)
    pairs = _resolve_anchors(anchors, cfg, v1.n, v2.n)

    # Draw order is part of the replay contract: probes, private heads, then
    # the warm start's draws from rng_init.
    rng_init = substream(cfg.seed, "solver", "init")
    rng_batch = substream(cfg.seed, "solver", "batches")
    rng_disc = substream(cfg.seed, "solver", "disc")

    d_c = cfg.d_c
    probe1 = _block_init(v1.rank, slice(0, d_c), 0.0, rng_init, "Q1")
    probe2 = probe1 if homogeneous else _block_init(
        v2.rank, slice(0, d_c), 0.0, rng_init, "Q2")
    matcher = _Matcher(cfg, v1.z[:1000] @ probe1.T, v2.z[:1000] @ probe2.T,
                       rng_disc)
    p = {}
    if private:
        p["qp1"] = _block_init(v1.rank, slice(d_c, d_c + cfg.d_p1),
                               cfg.init_noise, rng_init, "QP1")
        p["qp2"] = _block_init(v2.rank, slice(d_c, d_c + cfg.d_p2),
                               cfg.init_noise, rng_init, "QP2")
    p["q1"], p["q2"] = _warm_start(cfg, v1, v2, matcher, pairs,
                                   homogeneous, rng_init, rng_batch)

    blocks = _shared_blocks(cfg.lr_q, homogeneous)
    terms = [("matcher", matcher), *_constraints(cfg, v1, v2, pairs)]
    if private:
        blocks += [_Block(("qp1",), cfg.lr_p), _Block(("qp2",), cfg.lr_p)]
        terms += [_whitening_term("private whitening penalty", cfg.omega,
                                  "qp1", "qp2", v1, v2),
                  _hsic_term(cfg.rho, p, v1, v2)]
    if labels1 is not None:
        n_classes = int(labels1.max()) + 1
        p["W"], p["b"] = np.zeros((n_classes, d_c)), np.zeros(n_classes)
        blocks += [_Block(("W",), cfg.lr_clf, cfg.clf_decay),
                   _Block(("b",), cfg.lr_clf, cfg.clf_decay)]
        terms.append(_classifier_term(cfg.gamma, labels1))
    trace, checkpoints = _train(p, blocks, terms, v1, v2, rng_batch,
                                cfg.batch, cfg.epochs,
                                (cfg.checkpoint_every, cfg.checkpoint_rows))

    proj1 = Projection(p["q1"] @ v1.w, pooled if homogeneous else v1.sigma)
    proj2 = proj1 if homogeneous else Projection(p["q2"] @ v2.w, v2.sigma)
    result = FitResult(q1=proj1, q2=proj2, trace=trace,
                       checkpoints=checkpoints, config=replace(cfg),
                       discriminator=matcher.disc)
    if private:
        result.qp1 = Projection(p["qp1"] @ v1.w, v1.sigma)
        result.qp2 = Projection(p["qp2"] @ v2.w, v2.sigma)
    if labels1 is not None:
        result.classifier = (p["W"], p["b"])
    result.wall_clock = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# Public fits
# ---------------------------------------------------------------------------

def fit(x1: np.ndarray, x2: np.ndarray, cfg: SolverConfig,
        anchors: AnchorSet | None = None) -> FitResult:
    """Learn the shared-component projections by distribution matching.

    Minimizes matcher(Q1 x1, Q2 x2) + lambda (R(Q1) + R(Q2)), plus
    beta * sum_l ||Q1 x1_l - Q2 x2_l||^2 over anchor pairs when provided.
    Homogeneous mode trains a single matrix against both covariance
    penalties; with_private mode adds the private heads (see
    fit_with_private). The MMD kernel bandwidth is frozen from the initial
    projections; the warm start (see SolverConfig) picks the starting
    point, after which the configured matcher drives the traced epochs.
    """
    return _fit(x1, x2, cfg, anchors=anchors)


def fit_with_private(x1: np.ndarray, x2: np.ndarray,
                     cfg: SolverConfig) -> FitResult:
    """Jointly learn shared projections and per-modality private heads.

    Objective: matcher on the shared projections + lambda R(Q_C) terms +
    omega R(Q_P) terms + rho * HSIC(Q_C x, Q_P x) per modality. The private
    heads start from the next whitening rows and only join once the warm
    start has placed the shared heads; HSIC kernel bandwidths are frozen from
    the initial projections. Requires mode 'with_private'.
    """
    if cfg.mode != "with_private":
        raise ValidationError(
            f"fit_with_private requires mode 'with_private', got '{cfg.mode}'")
    return _fit(x1, x2, cfg)


def fit_with_classifier(x1: np.ndarray, labels1: np.ndarray, x2: np.ndarray,
                        cfg: SolverConfig) -> FitResult:
    """Homogeneous fit with a jointly trained linear softmax head on view 1.

    Adds gamma * CE(softmax(W Q x1 + b), labels) to the matching objective;
    the classifier learning rate decays by clf_decay each epoch. The returned
    classifier predicts labels for projected view-2 data.
    """
    if cfg.mode != "homogeneous":
        raise ValidationError("fit_with_classifier requires homogeneous mode")
    labels1 = np.asarray(labels1)
    if labels1.ndim != 1 or labels1.shape[0] != x1.shape[0] \
            or labels1.dtype.kind not in "iu":
        raise ValidationError("labels must be one integer per row of X1")
    if labels1.min() < 0:
        raise ValidationError("labels must be non-negative")
    return _fit(x1, x2, cfg, labels1=labels1)


def _cross_entropy(u: np.ndarray, w: np.ndarray, b: np.ndarray,
                   labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and gradient w.r.t. the logits."""
    if labels.max() >= w.shape[0]:
        raise ValidationError("label out of range for classifier head")
    logits = u @ w.T + b
    logits -= logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    n = u.shape[0]
    ce = -float(np.mean(np.log(np.maximum(probs[np.arange(n), labels], 1e-300))))
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    return ce, d_logits / n


def classify(result: FitResult, x: np.ndarray) -> np.ndarray:
    """Predict labels for (centered) observations using the trained head."""
    if result.classifier is None:
        raise ValidationError("fit result has no classifier head")
    w, b = result.classifier
    logits = result.q1.apply(x) @ w.T + b
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------------
# Model directory serialization
# ---------------------------------------------------------------------------

def save_model(result: FitResult, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    matio.write_matrix(directory, "Q1", result.q1.matrix, role="shared projection 1")
    matio.write_matrix(directory, "Sigma1", result.q1.covariance,
                       role="frozen covariance 1")
    if not result.homogeneous:
        matio.write_matrix(directory, "Q2", result.q2.matrix,
                           role="shared projection 2")
        matio.write_matrix(directory, "Sigma2", result.q2.covariance,
                           role="frozen covariance 2")
    for name, proj in (("QP1", result.qp1), ("QP2", result.qp2)):
        if proj is not None:
            matio.write_matrix(directory, name, proj.matrix,
                               role=f"private projection {name[-1]}")
    if result.classifier is not None:
        w, b = result.classifier
        matio.write_matrix(directory, "clf_W", w, role="classifier weights")
        matio.write_matrix(directory, "clf_b", b.reshape(1, -1),
                           role="classifier bias")
    if result.discriminator is not None:
        f = result.discriminator
        for i, (wt, bs) in enumerate(zip(f.weights, f.biases)):
            matio.write_matrix(directory, f"disc_W{i}", wt, role="discriminator")
            matio.write_matrix(directory, f"disc_b{i}", bs.reshape(1, -1),
                               role="discriminator")
    matio.write_csv(os.path.join(directory, "loss_trace.csv"), result.trace,
                    list(TRACE_COLUMNS))
    meta = {
        "kind": "unisca-model",
        "version": 1,
        "homogeneous": result.homogeneous,
        "has_private": result.qp1 is not None,
        "has_classifier": result.classifier is not None,
        "has_discriminator": result.discriminator is not None,
        "disc_hidden": (list(result.discriminator.hidden)
                        if result.discriminator else None),
        "config": result.config.to_dict() if result.config else None,
        "checkpoints": [[int(e), float(v)] for e, v in result.checkpoints],
    }
    matio.write_json(os.path.join(directory, "model.json"), meta)
    matio.write_json(os.path.join(directory, "timing.json"),
                     {"wall_clock_seconds": result.wall_clock})


def load_model(directory: str) -> FitResult:
    meta = matio.read_json(os.path.join(directory, "model.json"))
    if meta.get("kind") != "unisca-model":
        raise ValidationError(f"{directory} is not a model directory")
    cfg = SolverConfig(**meta["config"]) if meta.get("config") else None
    q1 = Projection(matio.read_matrix(directory, "Q1")[0],
                    matio.read_matrix(directory, "Sigma1")[0])
    if meta["homogeneous"]:
        q2 = q1
    else:
        q2 = Projection(matio.read_matrix(directory, "Q2")[0],
                        matio.read_matrix(directory, "Sigma2")[0])
    qp1 = qp2 = None
    if meta.get("has_private"):
        qp1 = Projection(matio.read_matrix(directory, "QP1")[0], q1.covariance)
        qp2 = Projection(matio.read_matrix(directory, "QP2")[0], q2.covariance)
    classifier = None
    if meta.get("has_classifier"):
        classifier = (matio.read_matrix(directory, "clf_W")[0],
                      matio.read_matrix(directory, "clf_b")[0].reshape(-1))
    disc = None
    if meta.get("has_discriminator") and cfg is not None:
        disc = Discriminator(q1.matrix.shape[0], hidden=tuple(meta["disc_hidden"]),
                             lr=cfg.lr_f, label_smoothing=cfg.label_smoothing,
                             input_dropout=cfg.disc_input_dropout,
                             rng=substream(cfg.seed, "solver", "disc-reload"))
        for i in range(len(disc.weights)):
            disc.weights[i] = matio.read_matrix(directory, f"disc_W{i}")[0]
            disc.biases[i] = matio.read_matrix(directory, f"disc_b{i}")[0].reshape(-1)
    trace = matio.read_csv(os.path.join(directory, "loss_trace.csv"))[0]
    checkpoints = [tuple(c) for c in meta.get("checkpoints", [])]
    return FitResult(q1=q1, q2=q2, qp1=qp1, qp2=qp2, classifier=classifier,
                     trace=trace, checkpoints=checkpoints, config=cfg,
                     discriminator=disc)
