"""Distribution-divergence estimators with exact analytic gradients.

Three matchers/penalties:
  * unbiased kernel MMD^2 (U-statistic) between two sample sets,
  * an adversarial binary discriminator (fully-connected net, backprop by hand),
  * biased HSIC as an independence penalty.

All gradients returned here are exact derivatives of the returned value, so
they can be verified against central finite differences.

MMD and HSIC form every RBF Gram through `_gram`: one augmented product
that gives its exponent in base 2, -|x_i - y_j|^2 log2(e) / (2 sigma^2),
directly, then a clamp and an exp2, both in place. They read it only
through products with a few columns, so no centred or rescaled copy of a
Gram is made: even a strip's sum is one matrix-vector product with a
weight vector, its row sums added in float64. Every MMD value and gradient
comes from one loop over Gram strips of at most _STRIP entries,
`_gram_sum`, so no MMD call forms an n x n Gram. HSIC takes one pass over
full-width strips of its two Grams, each formed in one of two buffers that
every strip reuses, so no HSIC call forms an m x m Gram either. grad=False
runs the same strips and the same sum products as the gradient path, so it
returns that path's value bytes.

MMD and HSIC compute in the dtype of their inputs, which is not a setting.
A fit rounds its projected views to float32, so the augmented factors, each
strip's product, clamp, exp2 and two-scale squares, the weighted sums'
products and the strips' products with a few columns (K @ [x, 1]; HSIC's
row sums K @ 1 and L @ 1, and its K @ [u, 1], L @ [v, 1] and
(K o L) @ [u, v, 1]) are float32. Each strip's row sums are added into a
float64 total and each product into float64 sums, and the value is
returned as a float and the gradients as float64. A float32 strip's
exponents are floored at _FLOOR32, so no entry of it is subnormal. Float64
inputs run the same code in float64. `KernelSpec.resolve` computes in
float64.

`KernelSpec.resolve` takes the median heuristic's median over the squared
distances of up to _RESOLVE_POOL points in two passes over strips of at
most _STRIP entries: one counts the distances by the top bits of their
IEEE 754 patterns, and one keeps only those in the bucket(s) of the middle
rank(s). No call holds the n(n-1)/2 distances unless most of them share
that bucket.

The discriminator runs each view in one loop over row strips of
`_strip_rows(widest layer)` rows: a strip's forward pass, its backward pass
and its share of the gradients, so no pass holds a whole view's
activations and no strip's layer output or temporary passes 1 MiB. The
backward pass forms only what its caller reads
(`gan_value_and_grads(..., grads=...)`): `discriminator_step` takes the
parameter gradients, summed over the strips in one reused product buffer,
the projection update the input gradients, and a checkpoint the value
alone, from forward passes that keep no activations.

The discriminator computes in float32, which is not a setting: its layers,
Adam moments, activations and parameter gradients are float32, and a strip
is rounded to float32 on entry. Its output sigmoid, the probability clamp
and the adversarial value and its gradient at the output stay float64, as
do the input gradients it returns, so the projections around the net stay
float64. A net built from float64 layers (`Discriminator.from_layers`) runs
the same code in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import AdamState, ValidationError, check_matrix

_PROB_FLOOR = 1e-7
_RESOLVE_POOL = 2000  # most points KernelSpec.resolve pools for its median
_LEAK = 0.2  # negative-side slope of the discriminator's leaky ReLU
_LABEL_SMOOTHING = 0.2  # target smoothing of the discriminator's own step


# ---------------------------------------------------------------------------
# Gaussian RBF kernel, its Gram engine, unbiased MMD^2 and biased HSIC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Gaussian RBF kernel of a fixed, finite bandwidth > 0; `resolve`
    builds one from data by the median heuristic.

    two_scale=True is the kernel k_sigma + k_{sigma/2}, whose MMD^2 is the
    sum of the MMD^2 at both bandwidths. It is value-only.
    """

    bandwidth: float
    two_scale: bool = False

    def __post_init__(self):
        # Kept as a Python float: a numpy float64 would lift the float32
        # column factor (`_cols`), and so every strip of float32 views.
        b = float(self.bandwidth)
        if not (np.isfinite(b) and b > 0):
            raise ValidationError("kernel bandwidth must be finite and > 0")
        object.__setattr__(self, "bandwidth", b)

    @staticmethod
    def resolve(*sample_sets: np.ndarray) -> "KernelSpec":
        """The one-scale kernel whose bandwidth is the median pairwise
        distance over a pooled subsample of the sets.

        Each set contributes its leading rows so the pool has at most
        _RESOLVE_POOL points; with zero median distance (e.g. constant inputs)
        the bandwidth falls back to 1.0, as it does when a distance is NaN.
        As sqrt is monotone, the median distance is the mean of the square
        roots of the one or two middle squared distances, which is what
        np.median of all distances returns.

        The squared distances above the diagonal come in two passes over
        the same strips (`_sq_distance_strips`), so the n(n-1)/2 of them are
        never held at once. Non-negative doubles order as their bit patterns
        do, so the top 16 bits of a distance's pattern name its bucket
        (`_buckets`): _BUCKETS of them, 16 to an octave. The first pass
        counts the distances in each bucket (`_bucket_counts`), and the
        counts name the bucket(s) that hold the middle rank(s) and how many
        distances lie below them. The second keeps only the distances in
        those buckets (`_in_buckets`), 0.5-1.5% of the triangle on the
        benchmark's workloads, and partitions them at the middle ranks less
        that count. Strips are not clamped at 0: a negative entry, or -0.0,
        is counted in bucket 0, where the clamp puts it, and only the kept
        distances are clamped, to the bytes a clamped strip holds. When
        most distances share the middle bucket (a constant or heavily
        duplicated pool) the second pass keeps up to the whole triangle,
        which is the one buffer of n(n-1)/2 resolve held before.
        """
        per = max(1, _RESOLVE_POOL // max(1, len(sample_sets)))
        pool = np.vstack([np.asarray(s, dtype=np.float64)[:per] for s in sample_sets])
        pairs = pool.shape[0] * (pool.shape[0] - 1) // 2
        if not pairs:
            return KernelSpec(bandwidth=1.0)
        counts = _bucket_counts(pool)
        if counts is None:
            return KernelSpec(bandwidth=1.0)
        h = pairs // 2
        middle = np.array([h - 1, h] if pairs % 2 == 0 else [h])
        upto = np.cumsum(counts)
        first, last = np.searchsorted(upto, middle[[0, -1]], side="right")
        below = upto[first] - counts[first]
        kept = _in_buckets(pool, first, last, upto[last] - below)
        kept.partition(middle - below)
        med = float(np.mean(np.sqrt(kept[middle - below])))
        return KernelSpec(bandwidth=med if med > 0 else 1.0)


# Entries of a Gram strip in every MMD value and gradient, of each of HSIC's
# two strips and of resolve's distances: 2^17 float64 is 1 MiB, half a 2 MiB
# per-core L2 cache, where a strip stays through the product, clamp, exp2,
# sum and gradient products.
# Chosen over 2^16 and the 512-row strips it replaced by timing MMD calls at
# 1000, 2048 and 4096 rows; CHANGES.md has the times. It is a constant, not
# read from the host: the strips fix the grouping of every sum, and a fit's
# bytes must not depend on the machine's cache size.
_STRIP = 2**17


def _strip_rows(columns: int) -> int:
    """Rows of a strip of `columns` columns that holds at most _STRIP
    entries, and at least one row."""
    return max(1, _STRIP // max(1, columns))


def _sqnorms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


# Buckets of non-negative doubles in KernelSpec.resolve's select, one for
# each value of the top 16 bits of their patterns: 16 to an octave.
_BUCKETS = 2**15


def _buckets(d2: np.ndarray) -> np.ndarray:
    """The top 16 bits of each double's pattern: for a non-negative double
    its bucket, which orders as the doubles do; _BUCKETS or more for one
    whose sign bit is set."""
    return (d2.view(np.uint64) >> 48).view(np.int64)


def _bucket_range(first: int, last: int) -> tuple[float, float]:
    """The least and greatest doubles that, clamped at 0, fall in buckets
    first through last: -inf when first is 0, which takes the negatives,
    and inf when last is inf's bucket, whose other patterns are NaNs."""
    lo, hi = np.array([first << 48, ((last + 1) << 48) - 1]).view(np.float64)
    return (-np.inf if first == 0 else lo), (hi if hi <= np.inf else np.inf)


def _bucket_counts(pool: np.ndarray) -> np.ndarray | None:
    """How many of the pool's pair distances fall in each bucket once
    clamped at 0, or None if one is NaN. Each strip's diagonal block is
    filled with 0.0 on and below the diagonal, and that count comes off
    bucket 0 with the patterns whose sign bit is set put in it."""
    counts = np.zeros(2 * _BUCKETS, dtype=np.int64)
    for d2 in _sq_distance_strips(pool, 0.0):
        if np.isnan(d2.max()):
            return None
        strip = np.bincount(_buckets(d2).ravel())
        counts[:strip.size] += strip
    n = pool.shape[0]
    filled = counts.sum() - n * (n - 1) // 2
    counts[0] += counts[_BUCKETS:].sum() - filled
    return counts[:_BUCKETS]


def _in_buckets(pool: np.ndarray, first: int, last: int,
                size: int) -> np.ndarray:
    """The `size` pair distances of the pool in buckets first through last,
    clamped at 0. Each strip's diagonal block is filled with NaN on and
    below the diagonal, which no range of buckets keeps. The strips are
    formed again, so they must keep exactly the `size` distances
    `_bucket_counts` counted there; any other number is a RuntimeError,
    not a median taken over unset or missing entries."""
    lo, hi = _bucket_range(first, last)
    kept = np.empty(size)
    start = 0
    for d2 in _sq_distance_strips(pool, np.nan):
        keep = d2[(d2 >= lo) & (d2 <= hi)]
        if start + keep.size <= size:
            kept[start:start + keep.size] = keep
        start += keep.size
    if start != size:
        raise RuntimeError(f"resolve: the second pass kept {start} distances "
                           f"where the first counted {size}")
    return np.maximum(kept, 0.0, out=kept)


def _sq_distance_strips(pool: np.ndarray, fill: float):
    """|x_i - x_j|^2 over the pool's pairs i < j, before the clamp at 0, in
    strips of `_strip_rows` rows; the n x n matrix is never formed.

    Strip i is rows i + r of the pool against columns i + c, c >= 0: a
    full-width product pool[rows] @ pool.T (at most _STRIP entries), its
    columns from i on doubled and subtracted from p2_i + p2_j. The entries
    at c <= r, on or below the diagonal, are set to `fill`; those above it
    are the pair distances. A BLAS may round a dot by where it falls in a
    product's tiles, so a strip spans every column, as the square product
    pool @ pool.T did. At 1000 and 2000 points (the pools of fits whose
    views have 1000 rows or more) and at one strip's rows or fewer, every
    entry equals the square product's; a strip of only the columns right of
    its first row, or one dot per row, differs in some. At other sizes
    OpenBLAS rounds a few entries of a ragged last column tile differently
    (21 of 133,386 at 517 points).

    Every strip is a view of one buffer, which the next strip overwrites.
    """
    n = pool.shape[0]
    p2 = _sqnorms(pool)
    step = min(_strip_rows(n), n)
    product = np.empty((step, n))
    # Over one column numpy's matmul runs its own loop, about four times
    # slower than np.dot, which calls the BLAS; wider, matmul is the faster.
    # A product over one column is one rounding, the same bytes either way.
    dot = np.dot if pool.shape[1] == 1 else np.matmul
    # A diagonal block's entries on and below its diagonal, row by row: a
    # strip of k rows takes the first k(k + 1)/2.
    lower = np.tril_indices(step)
    for i in range(0, n, step):
        rows = slice(i, i + step)
        k = min(step, n - i)
        d2 = dot(pool[rows], pool.T, out=product[:k])[:, i:]
        d2 *= 2.0
        np.subtract(p2[rows, None] + p2[None, i:], d2, out=d2)
        m = k * (k + 1) // 2
        d2[lower[0][:m], lower[1][:m]] = fill
        yield d2


def _rows(x: np.ndarray) -> np.ndarray:
    """[x, |x|^2, 1]: the row side of the one-product Gram, in x's dtype."""
    return np.hstack([x, _sqnorms(x)[:, None],
                      np.ones((x.shape[0], 1), x.dtype)])


# log2(e), which _cols folds into the Gram's exponent so that _gram takes it
# in base 2. A Python float: a numpy float64 would lift float32 factors.
_LOG2E = float(np.log2(np.e))


def _cols(y: np.ndarray, sig: float) -> np.ndarray:
    """c [-2y, 1, |y|^2] with c = -log2(e)/(2 sig^2): the column side of the
    one-product Gram, in y's dtype, so that _rows(x) @ _cols(y, sig).T holds
    -|x_i - y_j|^2 log2(e) / (2 sig^2), the Gram's exponent in base 2."""
    c = -0.5 * _LOG2E / (sig * sig)
    return np.hstack([(-2.0 * c) * y, np.full((y.shape[0], 1), c, y.dtype),
                      c * _sqnorms(y)[:, None]])


# The least base-2 exponent a float32 Gram strip keeps. Products, exps and
# squares that form or read float32 subnormals run 13-300x slower on an
# Intel Xeon (Sapphire Rapids; a 131,072-entry strip: exp2 11,400-13,400 us
# against 37-60, exp 1040-1090 against 66-76, the two squares 1060 against
# 52, a product with it 1019 against 16), and numpy cannot set flush-to-zero.
# -31.45 is the natural exponent -21.8 in base 2, -21.8 log2(e) = -31.4508,
# rounded up: the entry 2^-31.45 = 3.4e-10 and its fourth power, the
# two-scale score's sigma/2 entry, 2^-125.8 = 1.35e-38, are both normal
# (FLT_MIN is 2^-126 = 1.18e-38). Raising farther entries to it moves a Gram
# mean by at most 3.4e-10, below float32's round-off of a strip sum.
_FLOOR32 = -31.45


def _gram(xa: np.ndarray, ya: np.ndarray,
          buf: np.ndarray | None = None) -> np.ndarray:
    """exp(-|x_i - y_j|^2 / (2 sig^2)) from xa = _rows(x), ya = _cols(y,
    sig): one augmented product, which gives the exponent in base 2, a
    clamp at 0 (a distance is never negative) and an exp2, both in the
    product's buffer. That buffer is new, or the head of `buf`, a flat
    array of at least len(xa) * len(ya) entries. In float32 the clamp also
    raises the exponent to _FLOOR32."""
    if buf is not None:
        buf = buf[:xa.shape[0] * ya.shape[0]].reshape(xa.shape[0], ya.shape[0])
    out = np.matmul(xa, ya.T, out=buf)
    if out.dtype == np.float32:
        np.clip(out, _FLOOR32, 0.0, out=out)
    else:
        np.minimum(out, 0.0, out=out)
    np.exp2(out, out=out)
    return out


def _row_total(out: np.ndarray, w: np.ndarray) -> float:
    """sum_j w_j out_ij summed over the rows, as a float: one matrix-vector
    product in the strip's dtype, its row sums added in float64."""
    return float(np.sum(out @ w, dtype=np.float64))


def _gram_sum(x: np.ndarray, sig: float, y: np.ndarray | None = None,
              xe: np.ndarray | None = None, ye: np.ndarray | None = None,
              two_scale: bool = False):
    """(sum of K, K @ ye, K.T @ xe) for the Gram K of x against y, from
    strips of `_strip_rows` rows of x, at most _STRIP entries at K's full
    width; the products are None without xe. With y None, K is x's Gram
    less its diagonal: only strips on or above it are formed, and their
    strictly upper part counts twice and, transposed, gives the later rows
    their products; both products are then K @ xe.

    Each strip is one augmented product, clamp and exp2 (`_gram`) over
    n x (d + 2) arrays formed once here. Within one set its diagonal is
    then zeroed, and its sum is one product with weights (`_row_total`): 1
    over the diagonal block and 2 right of it, so the strip stands for its
    mirror too; across sets all 1. With two_scale, K is the sigma Gram plus
    the sigma/2 one: each strip is summed, squared twice in place and
    summed again. It takes no extension columns.

    The strips and their products are in the inputs' dtype; each strip's
    row sums are added into a float64 total and each product into float64
    sums.
    """
    within = y is None
    xa = _rows(x)
    ya = _cols(x if within else y, sig)
    ye = xe if within else ye
    px = None if xe is None else np.zeros((x.shape[0], ye.shape[1]))
    py = px if within or px is None else np.zeros((ya.shape[0], xe.shape[1]))
    total = 0.0
    step = _strip_rows(ya.shape[0])
    # The strip at row i takes w's first n - i entries: `step` ones over a
    # full diagonal block, and a last strip of fewer rows holds no more.
    w = np.ones(ya.shape[0], x.dtype)
    if within:
        w[step:] = 2.0
    for i in range(0, x.shape[0], step):
        j = i if within else 0
        out = _gram(xa[i:i + step], ya[j:])
        rows = out.shape[0]
        k = rows if within else 0  # y's rows j + k on take this strip's K.T
        if within:
            np.fill_diagonal(out[:, :rows], 0.0)
        ws = w[:out.shape[1]]
        total += _row_total(out, ws)
        if two_scale:
            out *= out
            out *= out
            total += _row_total(out, ws)
        if px is not None:
            px[i:i + rows] += out @ ye[j:]
            py[j + k:] += out[:, k:].T @ xe[i:i + rows]
        out = None  # free this strip before the next one forms
    return total, px, py


def _in_one_dtype(x, y, x_name: str, y_name: str):
    """(x, y, dtype): both checked (`check_matrix`) and in one dtype,
    float32 when both are float32 and float64 otherwise."""
    x = check_matrix(x, x_name, float32=True)
    y = check_matrix(y, y_name, float32=True)
    dtype = np.result_type(x, y)
    return x.astype(dtype, copy=False), y.astype(dtype, copy=False), dtype


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
    [x, 1] and [y, 1], which give K x and the row sums. A two-scale kernel
    gives the MMD^2 at its bandwidth plus that at half of it, value-only:
    grad=True with it is a ValidationError.

    The strips compute in the inputs' dtype: float32 when x and y both are
    (a fit's views are), float64 otherwise. Either way the value is a
    float and the gradients are float64.
    """
    x, y, dtype = _in_one_dtype(x, y, "X", "Y")
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise ValidationError("MMD needs at least 2 samples per set")
    if x.shape[1] != y.shape[1]:
        raise ValidationError("sample sets must share a dimension")
    sig, two = kernel.bandwidth, kernel.two_scale
    if grad and two:
        raise ValidationError("the two-scale kernel is value-only; "
                              "call with grad=False")
    cxx, cyy, cxy = 1.0 / (m * (m - 1)), 1.0 / (n * (n - 1)), 2.0 / (m * n)
    xe, ye = ((np.hstack([x, np.ones((m, 1), dtype)]),
               np.hstack([y, np.ones((n, 1), dtype)])) if grad else (None, None))
    sxx, pxx, _ = _gram_sum(x, sig, xe=xe, two_scale=two)
    syy, pyy, _ = _gram_sum(y, sig, xe=ye, two_scale=two)
    sxy, pxy, pyx = _gram_sum(x, sig, y, xe, ye, two_scale=two)
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


def hsic_biased(u: np.ndarray, v: np.ndarray, kernel_u: KernelSpec,
                kernel_v: KernelSpec, grad: bool = True
                ) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Biased (V-statistic) HSIC tr(K H L H)/m^2 with gradients w.r.t. u and v.

    Both kernels are one-scale, with bandwidths frozen by the caller
    (`KernelSpec.resolve`), so the penalty stays stationary across steps.
    No centred matrix is formed: with s = K 1 and r = L 1, tr(KHLH) =
    sum(K o L) - (2/m) s.r + (1.s)(1.r)/m^2, and the gradients come from
    K @ [u, 1, r o u, r], L @ [v, 1, s o v, s] and (K o L) @ [u, v, 1].

    All of these come from one pass over full-width strips of
    `_strip_rows(m)` rows, each a strip of K and the same rows of L
    (`_gram`), so neither m x m Gram is formed. A strip gives its rows' s
    and r as one matrix-vector product each, with a ones vector, and their
    K @ [u, 1], L @ [v, 1] and (K o L) @ [u, v, 1] as products. As K and L
    are symmetric, a strip's transpose times its rows' r o [u, 1]
    (s o [v, 1] for L) adds those rows' share of the weighted halves to all
    m rows, so they need no second pass. grad=False forms the same strips,
    row sums and (K o L) products, and so returns the gradient path's value
    bytes, with no gradients.

    The strips compute in the inputs' dtype: float32 when u and v both are
    (a fit's views are), float64 otherwise. So are the augmented factors,
    the ones vector, the [u, 1], [v, 1] and [u, v, 1] columns and the
    strips' products with them; the weighted halves' right factors are
    rounded to it. The row sums s and r are kept in float64, as are the
    products' sums and the value, and so are the returned gradients.
    """
    u, v, dtype = _in_one_dtype(u, v, "U", "V")
    m = u.shape[0]
    if v.shape[0] != m:
        raise ValidationError("HSIC inputs must have equal row counts")
    if m < 4:
        raise ValidationError("HSIC needs at least 4 rows")
    if kernel_u.two_scale or kernel_v.two_scale:
        raise ValidationError("HSIC takes one-scale kernels")
    sig_u, sig_v = kernel_u.bandwidth, kernel_v.bandwidth
    ua, uc, va, vc = _rows(u), _cols(u, sig_u), _rows(v), _cols(v, sig_v)
    one = np.ones(m, dtype)
    ue, ve = np.hstack([u, one[:, None]]), np.hstack([v, one[:, None]])
    uv1 = np.hstack([u, v, one[:, None]])
    wu, wv = ue.shape[1], ve.shape[1]
    s, r, klp = np.empty(m), np.empty(m), np.empty(uv1.shape)
    if grad:
        kp, lp = np.zeros((m, 2 * wu)), np.zeros((m, 2 * wv))
    step = _strip_rows(m)
    # Every strip is formed in the same two buffers. glibc gives each freed
    # 1 MiB array back to the OS, so a new pair of strips at every step is
    # faulted in page by page again: a 1000-row call then took 11.7 ms with
    # gradients and 9.7 without, against 8.6 and 6.2 with the buffers
    # reused, and peaked at 4.3 MiB, not 2.4, as the next pair formed
    # before the last was freed. With glibc's mmap and trim thresholds
    # raised past the strips' size, the two took the same time.
    kbuf, lbuf = np.empty((2, min(step, m) * m), dtype)
    for i in range(0, m, step):
        rows = slice(i, i + step)
        k, l = _gram(ua[rows], uc, kbuf), _gram(va[rows], vc, lbuf)
        s[rows], r[rows] = k @ one, l @ one
        if grad:
            kp[rows, :wu] = k @ ue
            lp[rows, :wv] = l @ ve
            # Rounded to the strips' dtype, or numpy would upcast k.T.
            ru = (r[rows, None] * ue[rows]).astype(dtype, copy=False)
            sv = (s[rows, None] * ve[rows]).astype(dtype, copy=False)
            kp[:, wu:] += k.T @ ru
            lp[:, wv:] += l.T @ sv
        k *= l
        klp[rows] = k @ uv1
    t = klp[:, -1].sum()
    value = (t - 2.0 * (s @ r) / m + s.sum() * r.sum() / (m * m)) / (m * m)
    if not grad:
        return float(value), None, None
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
    sign gives the slope.

    Every pass runs over row strips of `_strip_rows(widest layer)` rows,
    the input and output layers counted (`_strips`), so no layer output or
    elementwise temporary of a strip passes _STRIP entries (1 MiB).

    The net computes in the dtype of its layers: float32 as built here,
    where the float64 Glorot draws are rounded to float32, or whatever
    `from_layers` is given. The input strips, activations, parameter
    gradients and Adam moments take that dtype; the probabilities and the
    input gradients are float64 either way.
    """

    def __init__(self, in_dim: int, hidden: tuple = DEFAULT_HIDDEN,
                 lr: float = 8e-5, *, rng: np.random.Generator):
        dims = [int(in_dim), *(int(h) for h in hidden), 1]
        weights = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in))
                           .astype(np.float32))
        self._take_layers(weights, [np.zeros(d, np.float32) for d in dims[1:]],
                          lr)

    @classmethod
    def from_layers(cls, weights: list, biases: list) -> "Discriminator":
        """A discriminator with these layers, weights[i] of shape (fan_out,
        fan_in) and biases[i] of (fan_out,), and a fresh Adam state. It
        computes in the layers' dtype."""
        f = cls.__new__(cls)
        f._take_layers(weights, biases)
        return f

    def _take_layers(self, weights: list, biases: list,
                     lr: float = 8e-5) -> None:
        self.weights, self.biases = list(weights), list(biases)
        self.in_dim = self.weights[0].shape[1]
        self.hidden = tuple(w.shape[0] for w in self.weights[:-1])
        self.adam = [AdamState(lr=lr) for _ in range(2 * len(self.weights))]

    def _strips(self, x: np.ndarray, name: str):
        """(x as a checked float matrix, slices of its consecutive strips of
        `_strip_rows` rows of the widest layer). A non-finite x, or one of
        the wrong width, is a ValidationError naming `name`."""
        x = check_matrix(x, name)
        if x.shape[1] != self.in_dim:
            raise ValidationError(
                f"discriminator expects {self.in_dim} features, got {x.shape[1]}")
        step = _strip_rows(max(self.in_dim, *self.hidden, 1))
        return x, [slice(i, i + step) for i in range(0, x.shape[0], step)]

    def _forward(self, x: np.ndarray, keep: bool = False):
        """(clamped probabilities, cache) of one strip of rows (`_strips`),
        the strip taken in the layers' dtype and the probabilities float64.
        With keep the cache holds what the backward pass reads: the
        post-activations, the input first, at most _STRIP entries each.
        Without it the cache is None and each layer's output is dropped once
        the next one is formed."""
        a = x.astype(self.weights[0].dtype, copy=False)
        acts = [a]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w.T
            a += b
            if i < len(self.weights) - 1:
                np.maximum(a, _LEAK * a, out=a)
                if keep:
                    acts.append(a)
        p = 1.0 / (1.0 + np.exp(-a[:, 0].astype(np.float64)))
        return np.clip(p, _PROB_FLOOR, 1.0 - _PROB_FLOOR), (acts if keep else None)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probabilities in (0, 1), strictly clamped away from the endpoints."""
        x, strips = self._strips(x, "discriminator input")
        p = np.empty(x.shape[0])
        for rows in strips:
            p[rows] = self._forward(x[rows])[0]
        return p

    def _backward(self, acts: list, dz_out: np.ndarray, grads: list | None,
                  buf: np.ndarray | None, din: np.ndarray | None) -> None:
        """Backprop one strip's gradient at the output pre-activation, a
        float64 array, down to its input, in the layers' dtype.

        With `grads` (dW_0, db_0, dW_1, db_1, ..., matching self.adam's
        layout) the strip's parameter gradients are added into it; each
        dz.T @ acts[i] is formed in the head of `buf`, a flat array of the
        layers' dtype and at least the largest weight's size, so a view's
        strips reuse one buffer. Forming each product anew, a 1000-row
        training call of the default net (float64) peaked at 34.4 MiB side
        by side, against 28.3 with the buffer, and was no faster. With
        `din` the strip's input gradient is written into it; without, the
        pass stops before the first layer's weights. Each hidden activation
        in `acts` is dropped (set to None) once the pass has read it; its
        sign is kept for the slope.
        """
        dz = dz_out.astype(self.weights[0].dtype, copy=False)[:, None]
        for i in range(len(self.weights) - 1, -1, -1):
            if grads is not None:
                w = self.weights[i]
                grads[2 * i] += np.matmul(dz.T, acts[i],
                                          out=buf[:w.size].reshape(w.shape))
                grads[2 * i + 1] += dz.sum(axis=0)
            if i == 0:
                if din is not None:
                    np.matmul(dz, self.weights[0], out=din)
                return
            positive = acts[i] > 0
            acts[i] = None
            dz = dz @ self.weights[i]
            dz *= np.maximum(positive, _LEAK, dtype=dz.dtype)


def _half_loss(p: np.ndarray, a: float, b: float) -> float:
    """One view's expectation of the adversarial value: the mean of
    a log f + b log(1 - f) over its probabilities p, a and b the view's
    target weights."""
    return float(np.sum(a * np.log(p) + b * np.log1p(-p)) / p.shape[0])


def _half_dz(p: np.ndarray, a: float, count: int) -> np.ndarray:
    """_half_loss's gradient at the output pre-activation, (a - f) / count,
    for a strip of a view of `count` rows whose target weights sum to 1.
    Entries the clamp set to a bound (the raw sigmoid at or past it, or
    NaN) get zero gradient."""
    inside = (p > _PROB_FLOOR) & (p < 1.0 - _PROB_FLOOR)
    return (a - p) / count * inside


# gan_value_and_grads' grads= -> (parameter grads formed, input grads formed)
_GRADS = {"all": (True, True), "params": (True, False),
          "inputs": (False, True), "none": (False, False)}


def gan_value_and_grads(f: Discriminator, u: np.ndarray, v: np.ndarray,
                        smoothing: float = 0.0, *, grads: str = "all"):
    """Adversarial value mean log f(u) + mean log(1 - f(v)) and its gradients.

    Returns (loss, param_grads, grad_u, grad_v): the loss a float, the
    parameter gradients in the net's dtype and the input gradients float64.
    `grads` names what is formed: "all", "params" (the discriminator's own
    step), "inputs" (the projection update) or "none" (a checkpoint's value:
    forward passes only, no cache kept); a slot not formed is None. The
    value and every formed gradient are the same bytes whichever are asked
    for. Smoothing s gives each view target weights (a, b) in the mean of
    a log f + b log(1 - f) (`_half_loss`): (1 - s, s) for the real u and
    (s, 1 - s) for the fake v. s > 0 is the discriminator's own update;
    the projection update uses the plain value, s = 0.

    Each view, the real u and the fake v, is one loop over its row strips
    (`Discriminator._strips`), in every mode: a strip is forwarded, keeping
    its activations when gradients are asked for, and backpropagated
    before the next one forms. So a view holds one strip's activations,
    not its own. A strip adds its parameter gradients into the view's
    arrays, so they are sums over the strips, and writes its input
    gradients into its rows; the value is taken from the whole view's
    probabilities once the loop ends. The views only read the
    discriminator and run side by side (`numerics.side_by_side`) when each
    has cores of its own for its BLAS threads (`numerics.blas_workers`);
    the parameter gradients add as u + v, in u's arrays.
    """
    params, inputs = _GRADS[grads]

    def side(view):
        x, name, a, b = view
        x, strips = f._strips(x, name)
        n = x.shape[0]
        p = np.empty(n)
        pgrads = buf = din = None
        if params:
            pgrads = [np.zeros_like(t) for layer in zip(f.weights, f.biases)
                      for t in layer]
            buf = np.empty(max(w.size for w in f.weights), f.weights[0].dtype)
        if inputs:
            din = np.empty(x.shape)
        for rows in strips:
            p[rows], cache = f._forward(x[rows], keep=params or inputs)
            if cache is not None:
                f._backward(cache, _half_dz(p[rows], a, n), pgrads, buf,
                            None if din is None else din[rows])
        return _half_loss(p, a, b), pgrads, din

    s = smoothing
    (lu, gu, din_u), (lv, gv, din_v) = numerics.side_by_side(
        side, ((u, "discriminator input u", 1.0 - s, s),
               (v, "discriminator input v", s, 1.0 - s)),
        numerics.blas_workers())
    if params:
        for a, b in zip(gu, gv):
            a += b
    return lu + lv, gu, din_u, din_v


def discriminator_step(f: Discriminator, u: np.ndarray, v: np.ndarray) -> float:
    """One ascent step on the label-smoothed adversarial value; returns it.
    Only the parameter gradients are formed."""
    loss, param_grads, _, _ = gan_value_and_grads(
        f, u, v, smoothing=_LABEL_SMOOTHING, grads="params")
    params = [a for pair in zip(f.weights, f.biases) for a in pair]
    for adam, p, g in zip(f.adam, params, param_grads):
        p[...] = adam.step(p, -g)
    return loss
