"""Readers for real-world embedding data.

Covers the word-vector text layout (header "N d", then one token and d values
per line) and two-column retrieval dictionaries. Readers are lossless:
centering and any other modeling steps happen downstream in the solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import ValidationError


@dataclass
class EmbeddingTable:
    tokens: list
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.tokens) != self.matrix.shape[0]:
            raise ValidationError("token count must equal row count")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValidationError("tokens must be unique")


def read_vec_text(path: str) -> EmbeddingTable:
    """Parse a word-vector text file; duplicate tokens keep the first row.

    Trailing whitespace on a line (a final space, a CRLF line end) is ignored.
    """
    tokens: list = []
    seen = set()
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValidationError(f"{path}: malformed header {header!r}")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric header") from exc
        for lineno, line in enumerate(fh, start=2):
            if len(tokens) >= count:
                break
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise ValidationError(
                    f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
            token = parts[0]
            try:
                values = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: non-numeric field") from exc
            if token in seen:
                warnings.warn(f"{path}:{lineno}: duplicate token '{token}' skipped")
                continue
            seen.add(token)
            tokens.append(token)
            rows.append(values)
    matrix = np.array(rows, dtype=np.float64) if rows else np.zeros((0, dim))
    return EmbeddingTable(tokens=tokens, matrix=matrix)


def read_dictionary(path: str) -> dict:
    """Two-column text (query_id, reference_id) to {query: set(references)}."""
    mapping: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(
                    f"{path}: expected 2 columns on line {lineno}")
            try:
                qi, ri = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: non-integer id on line {lineno}") from exc
            mapping.setdefault(qi, set()).add(ri)
    if not mapping:
        raise ValidationError(f"{path}: empty dictionary file")
    return mapping
