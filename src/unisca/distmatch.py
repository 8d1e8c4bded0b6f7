"""Distribution-divergence estimators with exact analytic gradients.

Three matchers/penalties:
  * unbiased kernel MMD^2 (U-statistic) between two sample sets,
  * an adversarial binary discriminator (fully-connected net, backprop by hand),
  * biased HSIC as an independence penalty.

All gradients returned here are exact derivatives of the returned value, so
they can be verified against central finite differences.

MMD and HSIC form every RBF Gram in place through `_gram` and read it only
through products with a few columns, so no centred or rescaled copy of a
Gram is made. Every MMD value and gradient comes from one loop over strips
of at most _BLOCK rows, `_gram_sum`, so no MMD call forms an n x n Gram.

The discriminator's backward pass forms only what its caller reads
(`gan_value_and_grads(..., grads=...)`): `discriminator_step` takes the
parameter gradients, the projection update the input gradients, and a
checkpoint the value alone, from forward passes that keep no activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import AdamState, ValidationError, check_matrix

_PROB_FLOOR = 1e-7
_RESOLVE_POOL = 2000  # most points KernelSpec.resolve pools for its median
_LEAK = 0.2  # negative-side slope of the discriminator's leaky ReLU


# ---------------------------------------------------------------------------
# Gaussian RBF kernel, its Gram engine, unbiased MMD^2 and biased HSIC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel; bandwidth None means median heuristic at resolve."""

    bandwidth: float | None = None

    def __post_init__(self):
        b = self.bandwidth
        if b is not None and not (np.isfinite(b) and b > 0):
            raise ValidationError("kernel bandwidth must be finite and > 0")

    def resolve(self, *sample_sets: np.ndarray) -> "KernelSpec":
        """Freeze the bandwidth: median pairwise distance over a pooled subsample.

        Each set contributes its leading rows so the pool has at most
        _RESOLVE_POOL points; with zero median distance (e.g. constant inputs)
        the bandwidth falls back to 1.0.
        """
        if self.bandwidth is not None:
            return self
        per = max(1, _RESOLVE_POOL // max(1, len(sample_sets)))
        pool = np.vstack([np.asarray(s, dtype=np.float64)[:per] for s in sample_sets])
        p2 = _sqnorms(pool)
        d2 = np.maximum(p2[:, None] + p2[None, :] - 2.0 * (pool @ pool.T), 0.0)
        dists = np.sqrt(d2[np.triu(np.ones(d2.shape, dtype=bool), 1)])
        med = float(np.median(dists)) if dists.size else 0.0
        return KernelSpec(bandwidth=med if med > 0 else 1.0)

    def require(self) -> float:
        if self.bandwidth is None:
            raise ValidationError("kernel bandwidth is unresolved; call resolve()")
        return self.bandwidth


_BLOCK = 512  # rows of a Gram strip in every MMD value and gradient


def _sqnorms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _gram(x: np.ndarray, y: np.ndarray, x2: np.ndarray, y2: np.ndarray,
          sig: float) -> np.ndarray:
    """exp(-|x_i - y_j|^2 / (2 sig^2)) from the rows' squared norms x2, y2,
    formed in place in the buffer of x @ y.T."""
    out = x @ y.T
    out *= -2.0
    out += x2[:, None]
    out += y2[None, :]
    np.maximum(out, 0.0, out=out)
    out /= -2.0 * sig * sig
    np.exp(out, out=out)
    return out


def _gram_sum(x: np.ndarray, sig: float, y: np.ndarray | None = None,
              xe: np.ndarray | None = None, ye: np.ndarray | None = None):
    """(sum of K, K @ ye, K.T @ xe) for the Gram K of x against y, from
    strips of _BLOCK rows of x; the products are None without xe. With y
    None, K is x's Gram less its diagonal: only strips on or above it are
    formed, and their strictly upper part counts twice and, transposed,
    gives the later rows their products; both products are then K @ xe."""
    within = y is None
    x2 = _sqnorms(x)
    y, y2, ye = (x, x2, xe) if within else (y, _sqnorms(y), ye)
    px = None if xe is None else np.zeros((x.shape[0], ye.shape[1]))
    py = px if within or px is None else np.zeros((y.shape[0], xe.shape[1]))
    total = 0.0
    for i in range(0, x.shape[0], _BLOCK):
        j = i if within else 0
        out = _gram(x[i:i + _BLOCK], y[j:], x2[i:i + _BLOCK], y2[j:], sig)
        rows = out.shape[0]
        k = rows if within else 0  # y's rows j + k on take this strip's K.T
        if within:
            diag = out[:, :rows]
            total += 2.0 * out[:, rows:].sum() + (diag.sum() - np.trace(diag))
            np.fill_diagonal(diag, 0.0)
        else:
            total += out.sum()
        if px is not None:
            px[i:i + rows] += out @ ye[j:]
            py[j + k:] += out[:, k:].T @ xe[i:i + rows]
        out = diag = None  # free this strip before the next one forms
    return total, px, py


def _pull(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j k(a_i, b_j) (a_i - b_j), from p = K @ [b, ..., 1]."""
    return p[:, -1:] * a - p[:, :a.shape[1]]


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                  grad: bool = True
                  ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """U-statistic estimate of MMD^2 and its gradients w.r.t. both sample sets.

    Off-diagonal within-set kernel means minus twice the cross mean; may be
    negative. Every value comes from `_gram_sum`'s strips, so grad=False
    returns the same value, with no gradients. Gradients treat the (frozen)
    bandwidth as a constant and come from the same strips' products with
    [x, 1] and [y, 1], which give K x and the row sums.
    """
    x, y = check_matrix(x, "X"), check_matrix(y, "Y")
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ValidationError("MMD needs at least 2 samples per set")
    if x.shape[1] != y.shape[1]:
        raise ValidationError("sample sets must share a dimension")
    sig = kernel.require()
    cxx, cyy, cxy = 1.0 / (m * (m - 1)), 1.0 / (n * (n - 1)), 2.0 / (m * n)
    xe, ye = ((np.hstack([x, np.ones((m, 1))]), np.hstack([y, np.ones((n, 1))]))
              if grad else (None, None))
    sxx, pxx, _ = _gram_sum(x, sig, xe=xe)
    syy, pyy, _ = _gram_sum(y, sig, xe=ye)
    sxy, pxy, pyx = _gram_sum(x, sig, y, xe, ye)
    value = float(cxx * sxx + cyy * syy - cxy * sxy)
    if not grad:
        return value, None, None
    # d k(a,b)/da = -k(a,b) (a-b)/sigma^2; within-set terms pick up a factor 2.
    inv = 1.0 / (sig * sig)
    grad_x = inv * (cxy * _pull(pxy, x) - 2.0 * cxx * _pull(pxx, x))
    grad_y = inv * (cxy * _pull(pyx, y) - 2.0 * cyy * _pull(pyy, y))
    return value, grad_x, grad_y


def _hsic_grad(u, sig, klp, kp, r):
    """d/du of tr(K H L H)/m^2, K the Gram of u and r = L 1, from
    klp = (K o L) @ [u, ..., 1] and kp = K @ [u, 1, r o u, r]: with c = 1/m,
    HLH o K = K o L + (c^2 1.r - c r_i - c r_j) K_ij."""
    d, c = u.shape[1], 1.0 / u.shape[0]
    g = _pull(klp, u) - c * _pull(kp[:, d + 1:], u)
    g += (c * c * r.sum() - c * r)[:, None] * _pull(kp[:, :d + 1], u)
    return (-2.0 * c * c / (sig * sig)) * g


def hsic_biased(u: np.ndarray, v: np.ndarray,
                kernel_u: KernelSpec | None = None,
                kernel_v: KernelSpec | None = None
                ) -> tuple[float, np.ndarray, np.ndarray]:
    """Biased (V-statistic) HSIC tr(K H L H)/m^2 with gradients w.r.t. u and v.

    Kernels default to the median heuristic resolved on the inputs; pass
    frozen KernelSpecs when the penalty must stay stationary across steps.
    No centred matrix is formed: with s = K 1 and r = L 1, tr(KHLH) =
    sum(K o L) - (2/m) s.r + (1.s)(1.r)/m^2, and the gradients come from
    K @ [u, 1, r o u, r], L @ [v, 1, s o v, s] and (K o L) @ [u, v, 1].
    """
    u, v = check_matrix(u, "U"), check_matrix(v, "V")
    m = u.shape[0]
    if v.shape[0] != m:
        raise ValidationError("HSIC inputs must have equal row counts")
    if m < 4:
        raise ValidationError("HSIC needs at least 4 rows")
    sig_u = (kernel_u or KernelSpec()).resolve(u).require()
    sig_v = (kernel_v or KernelSpec()).resolve(v).require()
    u2, v2 = _sqnorms(u), _sqnorms(v)
    k, l = _gram(u, u, u2, u2, sig_u), _gram(v, v, v2, v2, sig_v)
    s, r = k.sum(axis=1), l.sum(axis=1)
    one = np.ones((m, 1))
    kp = k @ np.hstack([u, one, r[:, None] * u, r[:, None]])
    lp = l @ np.hstack([v, one, s[:, None] * v, s[:, None]])
    k *= l
    klp = k @ np.hstack([u, v, one])
    t = klp[:, -1].sum()
    value = (t - 2.0 * (s @ r) / m + s.sum() * r.sum() / (m * m)) / (m * m)
    grad_u = _hsic_grad(u, sig_u, klp, kp, r)
    grad_v = _hsic_grad(v, sig_v, klp[:, u.shape[1]:], lp, s)
    return float(value), grad_u, grad_v


# ---------------------------------------------------------------------------
# Adversarial discriminator (manual backprop MLP)
# ---------------------------------------------------------------------------

DEFAULT_HIDDEN = (1024, 521, 512, 256, 128, 64)


class Discriminator:
    """Fully connected net mapping features to a probability in (0, 1).

    Hidden activations are leaky ReLU (slope _LEAK), the output is a
    sigmoid, and weights start at Glorot-uniform scale. Forward/backward are
    written out by hand so gradients w.r.t. both parameters and inputs are
    exact; the backward pass forms only the ones asked for. It reads only
    the post-activations: since 0 < _LEAK < 1, a hidden unit's output is
    max(z, _LEAK z), positive exactly where its pre-activation z is, so its
    sign gives the slope. Optional input dropout is applied only when
    `train=True`.
    """

    def __init__(self, in_dim: int, hidden: tuple = DEFAULT_HIDDEN,
                 lr: float = 8e-5, label_smoothing: float = 0.2,
                 input_dropout: float = 0.0, *, rng: np.random.Generator):
        self.in_dim = int(in_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.label_smoothing = float(label_smoothing)
        self.input_dropout = float(input_dropout)
        self._rng = rng
        dims = [self.in_dim, *self.hidden, 1]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self.adam = [AdamState(lr=lr) for _ in range(2 * len(self.weights))]

    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def _forward(self, x: np.ndarray, train: bool = False, keep: bool = False):
        """(clamped probabilities, raw sigmoid, cache). With keep the cache
        holds what the backward pass reads: the post-activations, the
        (dropped-out) input first, and the dropout scale. Without it the
        cache is None and each layer's output is dropped once the next one
        is formed."""
        x = check_matrix(x, "discriminator input")
        if x.shape[1] != self.in_dim:
            raise ValidationError(
                f"discriminator expects {self.in_dim} features, got {x.shape[1]}")
        drop = None
        if train and self.input_dropout > 0.0:
            keep_p = 1.0 - self.input_dropout
            drop = (self._rng.random(x.shape) < keep_p) / keep_p
            x = x * drop
        acts, a = [x], x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T
            a += b
            if i < len(self.weights) - 1:
                np.maximum(a, _LEAK * a, out=a)
                if keep:
                    acts.append(a)
        p_raw = 1.0 / (1.0 + np.exp(-a[:, 0]))
        p = np.clip(p_raw, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        return p, p_raw, ((acts, drop) if keep else None)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in (0, 1), strictly clamped away from the endpoints."""
        return self._forward(x)[0]

    def _backward(self, cache, dz_out: np.ndarray, params: bool = True,
                  inputs: bool = True):
        """Backprop a gradient at the output pre-activation down to the input.

        Returns (param_grads, input_grad) where param_grads interleaves
        (dW_0, db_0, dW_1, db_1, ...) matching self.adam's layout. With
        params False the dz.T @ acts products are skipped and param_grads is
        None; with inputs False the pass stops before the product with the
        first layer's weights and input_grad is None.
        """
        acts, drop = cache
        grads = [None] * (2 * len(self.weights)) if params else None
        dz = dz_out[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            if params:
                grads[2 * i] = dz.T @ acts[i]
                grads[2 * i + 1] = dz.sum(axis=0)
            if i == 0 and not inputs:
                return grads, None
            dz = dz @ self.weights[i]
            if i > 0:
                dz *= np.maximum(acts[i] > 0, _LEAK)
        return grads, (dz if drop is None else dz * drop)


def _half_loss_and_dz(p: np.ndarray, p_raw: np.ndarray, real: bool,
                      smoothing: float, count: int):
    """One expectation of the adversarial value and its output-gradient.

    real=True contributes mean log f, real=False contributes mean log(1-f);
    with smoothing s the targets become (1-s) / s. Entries where the raw
    probability was clamped get zero gradient.
    """
    s = smoothing
    inside = (p_raw > _PROB_FLOOR) & (p_raw < 1.0 - _PROB_FLOOR)
    if real:
        loss = np.sum((1.0 - s) * np.log(p) + s * np.log1p(-p)) / count
        dz = ((1.0 - s) - p) / count
    else:
        loss = np.sum((1.0 - s) * np.log1p(-p) + s * np.log(p)) / count
        dz = (s - p) / count
    return float(loss), dz * inside


# gan_value_and_grads' grads= -> (parameter grads formed, input grads formed)
_GRADS = {"all": (True, True), "params": (True, False),
          "inputs": (False, True), "none": (False, False)}


def gan_value_and_grads(f: Discriminator, u: np.ndarray, v: np.ndarray,
                        smoothing: float = 0.0, train: bool = False, *,
                        grads: str = "all"):
    """Adversarial value mean log f(u) + mean log(1 - f(v)) and its gradients.

    Returns (loss, param_grads, grad_u, grad_v). `grads` names what is
    formed: "all", "params" (the discriminator's own step), "inputs" (the
    projection update) or "none" (a checkpoint's value: forward passes only,
    no cache kept); a slot not formed is None. The value and every formed
    gradient are the same bytes whichever are asked for. Each view is
    forwarded and backpropagated before the next, so one view's cache is held
    at a time. `smoothing` > 0 smooths the targets (used for the
    discriminator's own update); the projection update uses the plain value.
    `train=True` enables input dropout.
    """
    params, inputs = _GRADS[grads]

    def side(x, real):
        p, p_raw, cache = f._forward(x, train=train, keep=params or inputs)
        loss, dz = _half_loss_and_dz(p, p_raw, real, smoothing, x.shape[0])
        if cache is None:
            return loss, None, None
        return (loss, *f._backward(cache, dz, params, inputs))

    lu, gu, din_u = side(u, True)
    lv, gv, din_v = side(v, False)
    param_grads = [a + b for a, b in zip(gu, gv)] if params else None
    return lu + lv, param_grads, din_u, din_v


def discriminator_step(f: Discriminator, u: np.ndarray, v: np.ndarray) -> float:
    """One ascent step on the label-smoothed adversarial value; returns it.
    Only the parameter gradients are formed."""
    loss, param_grads, _, _ = gan_value_and_grads(
        f, u, v, smoothing=f.label_smoothing, train=True, grads="params")
    params = [a for pair in zip(f.weights, f.biases) for a in pair]
    for adam, p, g in zip(f.adam, params, param_grads):
        p[...] = adam.step(p, -g)
    return loss
