"""Distribution-divergence estimators with exact analytic gradients.

Three matchers/penalties:
  * unbiased kernel MMD^2 (U-statistic) between two sample sets,
  * an adversarial binary discriminator (fully-connected net, backprop by hand),
  * biased HSIC as an independence penalty.

All gradients returned here are exact derivatives of the returned value, so
they can be verified against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import AdamState, ValidationError, check_matrix

_PROB_FLOOR = 1e-7
_RESOLVE_POOL = 2000  # most points KernelSpec.resolve pools for its median
_LEAK = 0.2  # negative-side slope of the discriminator's leaky ReLU


# ---------------------------------------------------------------------------
# Gaussian RBF kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel; bandwidth None means median heuristic at resolve."""

    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth is not None:
            if not np.isfinite(self.bandwidth) or self.bandwidth <= 0:
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
        d2 = _sqdist(pool, pool)
        iu = np.triu_indices(pool.shape[0], k=1)
        dists = np.sqrt(d2[iu])
        med = float(np.median(dists)) if dists.size else 0.0
        return KernelSpec(bandwidth=med if med > 0 else 1.0)

    def require(self) -> float:
        if self.bandwidth is None:
            raise ValidationError("kernel bandwidth is unresolved; call resolve()")
        return self.bandwidth


def _sqdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x2 = np.einsum("ij,ij->i", x, x)
    y2 = np.einsum("ij,ij->i", y, y)
    d2 = x2[:, None] + y2[None, :] - 2.0 * (x @ y.T)
    return np.maximum(d2, 0.0)


def rbf_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(_sqdist(x, y) / (-2.0 * sigma * sigma))


# ---------------------------------------------------------------------------
# Unbiased MMD^2
# ---------------------------------------------------------------------------

# Rows of a Gram block formed at once by the value-only MMD path.
_BLOCK = 512


def _gram_sum(x: np.ndarray, sig: float, y: np.ndarray | None = None) -> float:
    """Sum of the RBF Gram k(x_i, y_j), built _BLOCK rows at a time in place.

    With y None the sum is over pairs i != j of x; only blocks on or above the
    diagonal are formed, and the strictly upper part is counted twice.
    """
    within = y is None
    y = x if within else y
    x2 = np.einsum("ij,ij->i", x, x)
    y2 = x2 if within else np.einsum("ij,ij->i", y, y)
    total = 0.0
    for i in range(0, x.shape[0], _BLOCK):
        j = i if within else 0
        out = x[i:i + _BLOCK] @ y[j:].T
        out *= -2.0
        out += x2[i:i + _BLOCK, None]
        out += y2[None, j:]
        np.maximum(out, 0.0, out=out)
        out /= -2.0 * sig * sig
        np.exp(out, out=out)
        if within:
            rows = out.shape[0]
            diag = out[:, :rows]
            total += 2.0 * out[:, rows:].sum() + (diag.sum() - np.trace(diag))
        else:
            total += out.sum()
    return total


def mmd2_unbiased(x: np.ndarray, y: np.ndarray, kernel: KernelSpec,
                  grad: bool = True
                  ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """U-statistic estimate of MMD^2 and its gradients w.r.t. both sample sets.

    Off-diagonal within-set kernel means minus twice the cross mean; may be
    negative. Gradients treat the (frozen) bandwidth as a constant. With
    grad=False only the value is computed, as blocked sums that never hold an
    n x n matrix, and both gradients are None; the value then agrees with the
    gradient path's to within a few ulps, not bit for bit.
    """
    x = check_matrix(x, "X")
    y = check_matrix(y, "Y")
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ValidationError("MMD needs at least 2 samples per set")
    if x.shape[1] != y.shape[1]:
        raise ValidationError("sample sets must share a dimension")
    sig = kernel.require()
    cxx = 1.0 / (m * (m - 1))
    cyy = 1.0 / (n * (n - 1))
    cxy = 2.0 / (m * n)
    if not grad:
        value = (cxx * _gram_sum(x, sig) + cyy * _gram_sum(y, sig)
                 - cxy * _gram_sum(x, sig, y))
        return float(value), None, None

    kxx = rbf_kernel(x, x, sig)
    np.fill_diagonal(kxx, 0.0)
    kyy = rbf_kernel(y, y, sig)
    np.fill_diagonal(kyy, 0.0)
    kxy = rbf_kernel(x, y, sig)
    value = cxx * kxx.sum() + cyy * kyy.sum() - cxy * kxy.sum()

    inv = 1.0 / (sig * sig)
    # d k(a,b)/da = -k(a,b) (a-b)/sigma^2; within-set terms pick up a factor 2.
    sx = kxx.sum(axis=1)
    grad_x = -2.0 * cxx * inv * (sx[:, None] * x - kxx @ x)
    grad_x += cxy * inv * (kxy.sum(axis=1)[:, None] * x - kxy @ y)
    sy = kyy.sum(axis=1)
    grad_y = -2.0 * cyy * inv * (sy[:, None] * y - kyy @ y)
    grad_y += cxy * inv * (kxy.sum(axis=0)[:, None] * y - kxy.T @ x)
    return float(value), grad_x, grad_y


# ---------------------------------------------------------------------------
# Biased HSIC
# ---------------------------------------------------------------------------

def hsic_biased(u: np.ndarray, v: np.ndarray,
                kernel_u: KernelSpec | None = None,
                kernel_v: KernelSpec | None = None
                ) -> tuple[float, np.ndarray, np.ndarray]:
    """Biased (V-statistic) HSIC tr(K H L H)/m^2 with gradients w.r.t. u and v.

    Kernels default to the median heuristic resolved on the inputs; pass
    frozen KernelSpecs when the penalty must stay stationary across steps.
    """
    u = check_matrix(u, "U")
    v = check_matrix(v, "V")
    m = u.shape[0]
    if v.shape[0] != m:
        raise ValidationError("HSIC inputs must have equal row counts")
    if m < 4:
        raise ValidationError("HSIC needs at least 4 rows")
    ku = (kernel_u or KernelSpec()).resolve(u)
    kv = (kernel_v or KernelSpec()).resolve(v)
    sig_u, sig_v = ku.require(), kv.require()

    k = rbf_kernel(u, u, sig_u)
    l = rbf_kernel(v, v, sig_v)
    hk = k - k.mean(axis=0, keepdims=True)
    hkh = hk - hk.mean(axis=1, keepdims=True)
    hl = l - l.mean(axis=0, keepdims=True)
    hlh = hl - hl.mean(axis=1, keepdims=True)
    value = float(np.sum(k * hlh)) / (m * m)

    gu = hlh / (m * m)          # d value / d K, symmetric
    mu = gu * k
    su = mu.sum(axis=1)
    grad_u = (-2.0 / (sig_u * sig_u)) * (su[:, None] * u - mu @ u)
    gv = hkh / (m * m)
    mv = gv * l
    sv = mv.sum(axis=1)
    grad_v = (-2.0 / (sig_v * sig_v)) * (sv[:, None] * v - mv @ v)
    return value, grad_u, grad_v


# ---------------------------------------------------------------------------
# Adversarial discriminator (manual backprop MLP)
# ---------------------------------------------------------------------------

DEFAULT_HIDDEN = (1024, 521, 512, 256, 128, 64)


class Discriminator:
    """Fully connected net mapping features to a probability in (0, 1).

    Hidden activations are leaky ReLU (slope _LEAK), the output is a
    sigmoid, and weights start at Glorot-uniform scale. Forward/backward are
    written out by hand so gradients w.r.t. both parameters and inputs are
    exact. Optional input dropout is applied only when `train=True`.
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

    def _forward(self, x: np.ndarray, train: bool = False):
        x = check_matrix(x, "discriminator input")
        if x.shape[1] != self.in_dim:
            raise ValidationError(
                f"discriminator expects {self.in_dim} features, got {x.shape[1]}")
        drop = None
        if train and self.input_dropout > 0.0:
            keep = 1.0 - self.input_dropout
            drop = (self._rng.random(x.shape) < keep) / keep
            x = x * drop
        acts = [x]
        pre = []
        a = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            pre.append(z)
            if i < len(self.weights) - 1:
                a = np.where(z > 0, z, _LEAK * z)
                acts.append(a)
        p_raw = 1.0 / (1.0 + np.exp(-pre[-1][:, 0]))
        p = np.clip(p_raw, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
        return p, (acts, pre, p_raw, drop)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in (0, 1), strictly clamped away from the endpoints."""
        p, _ = self._forward(x)
        return p

    def _backward(self, cache, dz_out: np.ndarray):
        """Backprop a gradient at the output pre-activation down to the input.

        Returns (param_grads, input_grad) where param_grads interleaves
        (dW_0, db_0, dW_1, db_1, ...) matching self.adam's layout.
        """
        acts, pre, _, drop = cache
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        dz = dz_out[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            grads[2 * i] = dz.T @ acts[i]
            grads[2 * i + 1] = dz.sum(axis=0)
            da = dz @ self.weights[i]
            if i > 0:
                dz = da * np.where(pre[i - 1] > 0, 1.0, _LEAK)
            else:
                dinput = da
        if drop is not None:
            dinput = dinput * drop
        return grads, dinput


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


def gan_value_and_grads(f: Discriminator, u: np.ndarray, v: np.ndarray,
                        smoothing: float = 0.0, train: bool = False):
    """Adversarial value mean log f(u) + mean log(1 - f(v)) and all gradients.

    Returns (loss, param_grads, grad_u, grad_v). `smoothing` > 0 smooths the
    targets (used for the discriminator's own update); the projection update
    uses the plain value. `train=True` enables input dropout.
    """
    pu, cache_u = f._forward(u, train=train)
    pv, cache_v = f._forward(v, train=train)
    lu, dzu = _half_loss_and_dz(pu, cache_u[2], True, smoothing, u.shape[0])
    lv, dzv = _half_loss_and_dz(pv, cache_v[2], False, smoothing, v.shape[0])
    grads_u, din_u = f._backward(cache_u, dzu)
    grads_v, din_v = f._backward(cache_v, dzv)
    param_grads = [gu + gv for gu, gv in zip(grads_u, grads_v)]
    return lu + lv, param_grads, din_u, din_v


def discriminator_step(f: Discriminator, u: np.ndarray, v: np.ndarray) -> float:
    """One ascent step on the label-smoothed adversarial value; returns it."""
    loss, param_grads, _, _ = gan_value_and_grads(
        f, u, v, smoothing=f.label_smoothing, train=True)
    params = []
    for w, b in zip(f.weights, f.biases):
        params.extend((w, b))
    for i, (p, g) in enumerate(zip(params, param_grads)):
        updated = f.adam[i].step(p, -g)
        p[...] = updated
    return loss
