"""Identifiability and retrieval metrics.

The synthetic metrics score a fit against hidden ground truth: how much
private-subspace mass survives in Q A (leakage), whether both modalities
landed on the same shared transform (theta consistency), and whether held-out
aligned pairs project to the same point (pair match error). The retrieval
metric (NN/CSLS precision@k) operates on embeddings alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import ValidationError, check_matrix


def leakage(q: np.ndarray, a: np.ndarray, d_c: int) -> float:
    """Frobenius fraction of Q A mass on the private columns; 0 iff annihilated."""
    q = check_matrix(q, "Q")
    a = check_matrix(a, "A")
    if q.shape[1] != a.shape[0]:
        raise ValidationError(f"Q {q.shape} does not left-multiply A {a.shape}")
    if d_c > a.shape[1]:
        raise ValidationError("d_c exceeds latent dimension")
    h = q @ a
    total = np.linalg.norm(h)
    if total == 0.0:
        raise ValidationError("Q A is identically zero")
    return float(np.linalg.norm(h[:, d_c:]) / total)


def theta_consistency(q1: np.ndarray, a1: np.ndarray, q2: np.ndarray,
                      a2: np.ndarray, d_c: int) -> float:
    """Relative Frobenius gap between the two recovered shared transforms."""
    t1 = (check_matrix(q1, "Q1") @ check_matrix(a1, "A1"))[:, :d_c]
    t2 = (check_matrix(q2, "Q2") @ check_matrix(a2, "A2"))[:, :d_c]
    if t1.shape != t2.shape:
        raise ValidationError("shared transforms have mismatched shapes")
    denom = max(np.linalg.norm(t1), np.linalg.norm(t2))
    if denom == 0.0:
        raise ValidationError("both shared transforms are zero")
    return float(np.linalg.norm(t1 - t2) / denom)


def pair_match_error(q1: np.ndarray, x1_test: np.ndarray, q2: np.ndarray,
                     x2_test: np.ndarray) -> float:
    """Mean projected mismatch of aligned test pairs, relative to signal size."""
    u = check_matrix(x1_test, "X1_test") @ check_matrix(q1, "Q1").T
    v = check_matrix(x2_test, "X2_test") @ check_matrix(q2, "Q2").T
    if u.shape != v.shape:
        raise ValidationError("test views disagree after projection")
    if u.shape[0] == 0:
        raise ValidationError("no held-out test rows to score pairs on; "
                              "generate the data with data.test_fraction > 0")
    num = np.linalg.norm(u - v, axis=1).mean()
    den = np.linalg.norm(u, axis=1).mean()
    if den == 0.0:
        raise ValidationError("projected test data is identically zero")
    return float(num / den)


def _l2_normalize(e: np.ndarray, name: str) -> np.ndarray:
    e = check_matrix(e, name)
    norms = np.linalg.norm(e, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError(f"{name} has a zero-norm row")
    return e / norms[:, None]


def retrieval_precision(queries: np.ndarray, references: np.ndarray,
                        dictionary: dict, k: int, scorer: str = "csls",
                        k_csls: int = 10) -> float:
    """Precision@k (0..100) for cross-domain retrieval.

    scorer "nn" ranks references by cosine similarity; scorer "csls" uses
    2 cos(x, y) - r2(x) - r1(y), where r2(x) is x's mean cosine to its k_csls
    nearest references and r1(y) is y's mean cosine to its k_csls nearest
    queries, which demotes hub vectors. A query counts as correct if any of
    its dictionary translations appears in the top k. A dictionary id outside
    the queries' or references' rows is an error.
    """
    if scorer not in ("nn", "csls"):
        raise ValidationError(f"unknown scorer '{scorer}'")
    if k < 1 or k_csls < 1:
        raise ValidationError(f"k and k_csls must be >= 1, got {k} and {k_csls}")
    if not dictionary:
        raise ValidationError("empty retrieval dictionary")
    eq = _l2_normalize(queries, "queries")
    er = _l2_normalize(references, "references")
    sim = eq @ er.T
    if scorer == "csls":
        kq = min(k_csls, er.shape[0])
        kr = min(k_csls, eq.shape[0])
        r2 = np.sort(sim, axis=1)[:, -kq:].mean(axis=1)
        r1 = np.sort(sim, axis=0)[-kr:, :].mean(axis=0)
        sim = 2.0 * sim - r2[:, None] - r1[None, :]
    k_eff = min(k, er.shape[0])
    top = np.argpartition(-sim, kth=k_eff - 1, axis=1)[:, :k_eff]
    hits = 0
    total = 0
    for qi, correct in dictionary.items():
        qi = int(qi)
        if qi < 0 or qi >= eq.shape[0]:
            raise ValidationError(f"dictionary query id {qi} out of range")
        targets = {int(t) for t in (correct if isinstance(correct, (set, list, tuple))
                                    else [correct])}
        for t in sorted(targets):
            if t < 0 or t >= er.shape[0]:
                raise ValidationError(f"dictionary reference id {t} out of range")
        total += 1
        if targets & set(top[qi].tolist()):
            hits += 1
    return 100.0 * hits / total


def abs_pearson(u: np.ndarray, v: np.ndarray) -> float:
    """|Pearson correlation| of two 1-D samples; sign-invariant by design."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ValidationError("vectors must have equal length")
    su, sv = u.std(), v.std()
    if su == 0.0 or sv == 0.0:
        raise ValidationError("constant vector has undefined correlation")
    return float(abs(np.mean((u - u.mean()) * (v - v.mean())) / (su * sv)))


@dataclass
class IdentReport:
    """Distance of a fit from the exact-identification conclusion."""

    leakage1: float
    leakage2: float
    theta_rel_diff: float
    pair_match_error: float
    whitening_residual1: float
    whitening_residual2: float
    private_pearson: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "leakage": [self.leakage1, self.leakage2],
            "theta_rel_diff": self.theta_rel_diff,
            "pair_match_error": self.pair_match_error,
            "whitening_residual": [self.whitening_residual1,
                                   self.whitening_residual2],
            "private_pearson": list(self.private_pearson),
        }


def evaluate_fit(result, dataset) -> IdentReport:
    """Score a fitted model against a dataset's hidden ground truth.

    private_pearson holds each view's |Pearson| between its private head and
    its private code when both views have exactly one private code and one
    private head, and is empty otherwise: with more, heads and codes would
    first have to be matched column by column.
    """
    d_c = dataset.d_c
    q1 = result.q1.matrix
    q2 = result.q2.matrix
    a1, a2 = dataset.mixing.a1, dataset.mixing.a2
    report = IdentReport(
        leakage1=leakage(q1, a1, d_c),
        leakage2=leakage(q2, a2, d_c),
        theta_rel_diff=theta_consistency(q1, a1, q2, a2, d_c),
        pair_match_error=pair_match_error(q1, dataset.x1_test, q2,
                                          dataset.x2_test),
        whitening_residual1=result.q1.whitening_residual(),
        whitening_residual2=result.q2.whitening_residual(),
    )
    views = ((result.qp1, dataset.x1_test, dataset.p1_test),
             (result.qp2, dataset.x2_test, dataset.p2_test))
    if all(qp is not None and qp.matrix.shape[0] == 1 and p.shape[1] == 1
           for qp, _, p in views):
        report.private_pearson = [abs_pearson(x @ qp.matrix.T, p)
                                  for qp, x, p in views]
    return report
