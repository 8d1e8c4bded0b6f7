"""Synthetic two-modality data: latent sampling, linear mixing, serialization.

Each sample is built from one shared code and one private code per modality;
the observation is the mixed latent vector. Generated datasets keep the hidden
ground truth (latents, mixing matrices, row alignment) so downstream metrics
can score identification quality, but the solver itself only ever sees the
centered observation matrices.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import matio
from .numerics import ValidationError, check_keys, check_matrix, check_value

# Each kind's parameter check and the message raised when it fails. A kind
# other than mixture takes two parameters and is drawn by the numpy Generator
# method of the same name, called with them in the order named here.
_KINDS = {
    "normal": (lambda mu, sigma: sigma > 0, "normal sigma must be > 0"),
    "uniform": (lambda a, b: a < b, "uniform requires a < b"),
    "laplace": (lambda mu, b: b > 0, "laplace scale must be > 0"),
    "gamma": (lambda shape, scale: shape > 0 and scale > 0,
              "gamma shape and scale must be > 0"),
    "beta": (lambda a, b: a > 0 and b > 0, "beta shape parameters must be > 0"),
    "vonmises": (lambda mu, kappa: kappa > 0, "vonmises concentration must be > 0"),
    "mixture": (lambda *rows: all(w > 0 and s > 0 for w, _, s in rows)
                and abs(sum(w for w, _, _ in rows) - 1.0) <= 1e-9,
                "mixture weights must be positive and sum to 1, "
                "and each sigma must be > 0"),
}


def _rows(kind: str, params) -> tuple | None:
    """params as a tuple of float rows: one row of two, or a mixture's one or
    more (w, mu, sigma) rows; None unless every entry is a finite number."""
    width = 3 if kind == "mixture" else 2
    rows = params if width == 3 else [params]
    if not (isinstance(rows, (list, tuple)) and rows and all(
            isinstance(r, (list, tuple)) and len(r) == width
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) for v in r) for r in rows)):
        return None
    return tuple(tuple(float(v) for v in r) for r in rows)


@dataclass(frozen=True)
class DistributionSpec:
    """Declarative 1-D marginal: a kind tag plus its parameter tuple.

    Kinds are the names of numpy Generator methods, and a kind other than
    mixture is drawn by that method with its two parameters in order:
      normal(mu, sigma)     uniform(a, b)       laplace(mu, b)
      gamma(shape, scale)   beta(a, b)          vonmises(mu, kappa)
    mixture(((w, mu, sigma), ...)) is a Gaussian mixture: each draw picks a
    component with probability w, then draws normal(mu, sigma).

    Von Mises samples follow the usual wrapped convention and land in
    [-pi, pi]. Parameters are validated at construction, a fault naming its
    field ("kind: ..." or "params: ..."), and stored as floats, so
    DistributionSpec("gamma", (1, 3)) == DistributionSpec("gamma", (1.0, 3.0)).
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValidationError(f"kind: {self.kind!r} is not one of "
                                  f"{tuple(_KINDS)}")
        rows = _rows(self.kind, self.params)
        if rows is None:
            shape = "(w, mu, sigma) rows" if self.kind == "mixture" else "2 parameters"
            raise ValidationError(f"params: {self.kind} expects {shape} of finite "
                                  f"numbers, got {self.params!r}")
        params = rows if self.kind == "mixture" else rows[0]
        check, message = _KINDS[self.kind]
        if not check(*params):
            raise ValidationError(f"params: {message}")
        object.__setattr__(self, "params", params)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind != "mixture":
            return getattr(rng, self.kind)(*self.params, size=n)
        weights, mus, sigmas = np.array(self.params).T
        comp = rng.choice(len(weights), size=n, p=weights)
        return rng.normal(mus[comp], sigmas[comp])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": [list(c) if isinstance(c, tuple) else c
                                              for c in self.params]}

    @classmethod
    def from_dict(cls, d: dict, where: str = "distribution") -> "DistributionSpec":
        """Build from {"kind": ..., "params": [...]}, a mixture's params being
        [w, mu, sigma] rows; a fault raises ValidationError("<where>/kind: ...")
        or ("<where>/params: ...")."""
        check_keys(d, where, required=("kind", "params"))
        try:
            return cls(d["kind"], d["params"])
        except ValidationError as exc:
            raise ValidationError(f"{where}/{exc}") from exc


@dataclass(frozen=True)
class LatentSpec:
    """Marginals of the shared code and of each modality's private code."""

    shared: tuple
    private1: tuple = ()
    private2: tuple = ()

    def __post_init__(self):
        if len(self.shared) < 1:
            raise ValidationError("need at least one shared component")

    @property
    def d_c(self) -> int:
        return len(self.shared)

    def d_p(self, q: int) -> int:
        return len(self.private1) if q == 1 else len(self.private2)

    def to_dict(self) -> dict:
        return {name: [s.to_dict() for s in getattr(self, name)]
                for name in ("shared", "private1", "private2")}

    @classmethod
    def from_dict(cls, d: dict, where: str = "latent") -> "LatentSpec":
        """Build from {"shared": [...], "private1": [...], "private2": [...]},
        only shared required; a fault raises ValidationError("<where>...: ...")."""
        check_keys(d, where, required=("shared",), optional=("private1", "private2"))
        for name, specs in d.items():
            if not isinstance(specs, list) or not specs and name == "shared":
                raise ValidationError(f"{where}/{name}: expected an array of "
                                      f"distributions (one at least in shared), "
                                      f"got {specs!r}")
        return cls(**{name: tuple(DistributionSpec.from_dict(s, f"{where}/{name}/{i}")
                                  for i, s in enumerate(specs))
                      for name, specs in d.items()})


def _check_full_column_rank(a: np.ndarray, name: str) -> None:
    sv = np.linalg.svd(a, compute_uv=False)
    if a.shape[0] < a.shape[1] or sv[-1] <= 1e-8 * sv[0]:
        raise ValidationError(f"{name} is not full column rank")


_RANK_RETRIES = 20  # draws MixingModel.random tries for full column rank


@dataclass
class MixingModel:
    """Ground-truth mixing matrices, one per modality (identical if homogeneous)."""

    a1: np.ndarray
    a2: np.ndarray
    homogeneous: bool = False

    def __post_init__(self):
        self.a1 = check_matrix(self.a1, "A1")
        self.a2 = check_matrix(self.a2, "A2")
        _check_full_column_rank(self.a1, "A1")
        _check_full_column_rank(self.a2, "A2")
        if self.homogeneous:
            if self.a1.shape != self.a2.shape or not np.array_equal(self.a1, self.a2):
                raise ValidationError("homogeneous mixing requires A1 == A2")

    @classmethod
    def random(cls, latent: LatentSpec, rng: np.random.Generator,
               d1: int | None = None, d2: int | None = None,
               homogeneous: bool = False) -> "MixingModel":
        """Draw standard-normal mixing matrices, redrawing on rank failure.

        Observation dims default to the latent dims (square mixing).
        """
        k1 = latent.d_c + latent.d_p(1)
        k2 = latent.d_c + latent.d_p(2)
        d1 = k1 if d1 is None else int(d1)
        d2 = k2 if d2 is None else int(d2)
        for q, d, k in ((1, d1, k1), (2, d2, k2)):
            if d < k:  # a d x k matrix has rank at most d
                raise ValidationError(
                    f"d{q}={d} is below modality {q}'s latent count {k} "
                    f"(d_c + d_p); its mixing matrix cannot have full column rank")
        if homogeneous and (k1 != k2 or d1 != d2):
            raise ValidationError("homogeneous mixing requires equal dimensions")
        for _ in range(_RANK_RETRIES):
            a1 = rng.normal(size=(d1, k1))
            a2 = a1.copy() if homogeneous else rng.normal(size=(d2, k2))
            try:
                return cls(a1, a2, homogeneous=homogeneous)
            except ValidationError:
                continue
        raise ValidationError("could not draw full-column-rank mixing matrices")


@dataclass(frozen=True)
class MixingTemplate:
    """Dimensions-only description of a mixing model, realized per dataset."""

    d1: int | None = None
    d2: int | None = None
    homogeneous: bool = False

    def realize(self, latent: LatentSpec, rng: np.random.Generator) -> MixingModel:
        return MixingModel.random(latent, rng, d1=self.d1, d2=self.d2,
                                  homogeneous=self.homogeneous)


@dataclass
class SyntheticDataset:
    """Centered two-view observations plus hidden ground truth.

    Training rows of x2 are shuffled: x2[alignment[i]] was generated from the
    same shared code as x1[i]. The held-out test block is kept aligned
    row-by-row and centered with the training means, so it can serve as an
    oracle for pair-level metrics without ever touching training.
    """

    x1: np.ndarray
    x2: np.ndarray
    c: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    alignment: np.ndarray
    x1_test: np.ndarray
    x2_test: np.ndarray
    c_test: np.ndarray
    p1_test: np.ndarray
    p2_test: np.ndarray
    mixing: MixingModel
    mean1: np.ndarray
    mean2: np.ndarray
    latent: LatentSpec

    @property
    def d_c(self) -> int:
        return self.c.shape[1]


def generate_dataset(latent: LatentSpec, mixing: MixingModel, n: int,
                     rng: np.random.Generator, test_fraction: float = 0.05
                     ) -> SyntheticDataset:
    """Draw shared codes, mix both views from the same code per row, center.

    The training matrices have exactly n rows; an extra ceil(test_fraction*n)
    aligned rows are drawn as the held-out block, reserved before the training
    rows of view 2 are shuffled.
    """
    if n < 2:
        raise ValidationError("need at least 2 samples")
    d_c, d_p1, d_p2 = latent.d_c, latent.d_p(1), latent.d_p(2)
    if mixing.a1.shape[1] != d_c + d_p1 or mixing.a2.shape[1] != d_c + d_p2:
        raise ValidationError("mixing matrix columns do not match latent dims")

    n_test = int(math.ceil(test_fraction * n)) if test_fraction > 0 else 0
    n_train = n
    total = n_train + n_test

    c = np.column_stack([s.sample(total, rng) for s in latent.shared])
    p1 = (np.column_stack([s.sample(total, rng) for s in latent.private1])
          if d_p1 else np.zeros((total, 0)))
    p2 = (np.column_stack([s.sample(total, rng) for s in latent.private2])
          if d_p2 else np.zeros((total, 0)))

    x1_raw = np.hstack([c, p1]) @ mixing.a1.T
    x2_raw = np.hstack([c, p2]) @ mixing.a2.T

    mean1 = x1_raw[:n_train].mean(axis=0)
    mean2 = x2_raw[:n_train].mean(axis=0)
    x1 = x1_raw[:n_train] - mean1
    x2_aligned = x2_raw[:n_train] - mean2

    perm = rng.permutation(n_train)
    alignment = np.argsort(perm)
    x2 = x2_aligned[perm]

    return SyntheticDataset(
        x1=x1, x2=x2,
        c=c[:n_train], p1=p1[:n_train], p2=p2[:n_train],
        alignment=alignment,
        x1_test=x1_raw[n_train:] - mean1,
        x2_test=x2_raw[n_train:] - mean2,
        c_test=c[n_train:],
        p1_test=p1[n_train:], p2_test=p2[n_train:],
        mixing=mixing, mean1=mean1, mean2=mean2, latent=latent,
    )


def sample_anchors(dataset: SyntheticDataset, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Pick `count` aligned training pairs (i in x1, j in x2) without repeats."""
    n = dataset.x1.shape[0]
    if count > n:
        raise ValidationError(f"cannot sample {count} anchors from {n} rows")
    left = rng.choice(n, size=count, replace=False)
    return np.column_stack([left, dataset.alignment[left]]).astype(np.int64)


# ---------------------------------------------------------------------------
# Presets mirroring the synthetic study configurations
# ---------------------------------------------------------------------------

PRESET_NAMES = ("thm1a", "thm1b", "thm3-laplace", "private-appxG")


def preset(name: str, rng: np.random.Generator
           ) -> tuple[LatentSpec, MixingTemplate]:
    """Return the named synthetic setup (latent marginals + mixing template).

    thm1a's first shared marginal is a 3-component Gaussian mixture whose
    component means are themselves random draws, taken from `rng`: the
    caller's stream fixes them, so each seed maps to its own mixture. The
    other presets draw nothing from it.
    """
    d = DistributionSpec
    vm, gamma = d("vonmises", (2.5, 2.0)), d("gamma", (0.5, 3.0))
    if name == "thm1a":
        mus = rng.normal(0.0, np.sqrt(10.0), size=3)
        shared = (d("mixture", [(1.0 / 3.0, m, np.sqrt(2.0)) for m in mus]),
                  d("gamma", (1.0, 3.0)))
        private = d("laplace", (1.0, 6.5)), d("uniform", (-10.0, 10.0))
    elif name == "thm1b":
        shared, private = (vm, vm), (d("laplace", (1.0, 6.5)), gamma)
    elif name == "thm3-laplace":
        shared = (d("laplace", (0.0, 6.5)),) * 3
        private = d("uniform", (-10.0, 10.0)), gamma
    elif name == "private-appxG":
        shared, private = (vm, vm), (d("beta", (1.0, 3.0)), gamma)
    else:
        raise ValidationError(f"unknown preset '{name}'; valid presets: "
                              f"{', '.join(PRESET_NAMES)}")
    return LatentSpec(shared, private[:1], private[1:]), MixingTemplate()


# ---------------------------------------------------------------------------
# Directory serialization
# ---------------------------------------------------------------------------

# Each array of a dataset's archive and the SyntheticDataset field it fills;
# A1 and A2 fill its mixing model.
_FIELDS = {"X1": "x1", "X2": "x2", "C": "c", "P1": "p1", "P2": "p2",
           "alignment": "alignment", "X1_test": "x1_test",
           "X2_test": "x2_test", "C_test": "c_test", "P1_test": "p1_test",
           "P2_test": "p2_test", "mean1": "mean1", "mean2": "mean2"}


def save_dataset(dataset: SyntheticDataset, directory: str,
                 seed: int | None = None) -> None:
    """Write arrays.npz, holding each array of _FIELDS and A1, A2, and
    manifest.json: kind, version, seed, row counts, d_c, d_p, homogeneous
    and the latent spec. The config is not kept here; `gen` and `sweep`
    write it beside as config.json."""
    os.makedirs(directory, exist_ok=True)
    arrays = {name: getattr(dataset, f) for name, f in _FIELDS.items()}
    arrays.update(A1=dataset.mixing.a1, A2=dataset.mixing.a2)
    matio.write_arrays(os.path.join(directory, matio.ARCHIVE), arrays)
    manifest = {
        "kind": "unisca-dataset",
        "version": matio.VERSION,
        "seed": seed,
        "n_train": int(dataset.x1.shape[0]),
        "n_test": int(dataset.x1_test.shape[0]),
        "d_c": int(dataset.d_c),
        "d_p": [int(dataset.p1.shape[1]), int(dataset.p2.shape[1])],
        "homogeneous": bool(dataset.mixing.homogeneous),
        "latent": dataset.latent.to_dict(),
    }
    matio.write_json(os.path.join(directory, "manifest.json"), manifest)


def load_dataset(directory: str) -> SyntheticDataset:
    """Read what save_dataset wrote; the mixing's homogeneity and the latent
    spec come from manifest.json. Refused, with a ValidationError naming
    the file: a manifest that is no object or of another version (regenerate
    the directory from its config.json with `unisca gen`), or whose row
    counts and latent widths are not integers; and an archive that lacks an
    array, holds one that is not float64, or an alignment that is not
    int64, an array whose shape disagrees with the manifest's n_train,
    n_test, d_c and d_p and with A1's and A2's rows, or an alignment that
    is not a permutation of range(n_train)."""
    path = os.path.join(directory, "manifest.json")
    manifest = check_value(matio.read_json(path), (dict,), path, "manifest")
    if manifest.get("kind") != "unisca-dataset":
        raise ValidationError(f"{directory} is not a dataset directory")
    matio.check_version(manifest, path, "regenerate it with `unisca gen "
                        f"--config {os.path.join(directory, 'config.json')} "
                        "--out <new directory>`")
    n, n_test, d_c = (check_value(manifest.get(key), (int,), f"{path}: {key}",
                                  key) for key in ("n_train", "n_test", "d_c"))
    d_p = check_value(manifest.get("d_p"), (list,), f"{path}: d_p", "d_p")
    if len(d_p) != 2:
        raise ValidationError(f"{path}: d_p: expected 2 integers, got "
                              f"{list(d_p)}")
    archive = os.path.join(directory, matio.ARCHIVE)
    arrays = matio.read_arrays(archive, [*_FIELDS, "A1", "A2"],
                               integers=("alignment",))
    shapes = {}
    for q, k in ((1, d_p[0]), (2, d_p[1])):
        d = arrays[f"A{q}"].shape[:1]  # the view's columns
        shapes.update({f"A{q}": (*d, d_c + k), f"X{q}": (n, *d),
                       f"X{q}_test": (n_test, *d), f"mean{q}": d,
                       f"P{q}": (n, k), f"P{q}_test": (n_test, k)})
    shapes.update(C=(n, d_c), C_test=(n_test, d_c), alignment=(n,))
    matio.check_shapes(archive, arrays, shapes)
    if not np.array_equal(np.sort(arrays["alignment"]), np.arange(n)):
        raise ValidationError(f"{archive}: alignment: not a permutation of "
                              f"range({n})")
    homogeneous = check_value(manifest.get("homogeneous"), (bool,),
                              f"{path}: homogeneous", "homogeneous")
    mixing = MixingModel(arrays["A1"], arrays["A2"], homogeneous=homogeneous)
    return SyntheticDataset(
        **{f: arrays[name] for name, f in _FIELDS.items()}, mixing=mixing,
        latent=LatentSpec.from_dict(manifest.get("latent"), f"{path}: latent"))
