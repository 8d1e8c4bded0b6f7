"""Readers for real-world embedding data.

Covers the word-vector text layout (header "N d", then one token and d values
per line) and two-column retrieval dictionaries. Readers are lossless:
centering and any other modeling steps happen downstream in the solver.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import ValidationError


@dataclass
class EmbeddingTable:
    tokens: list
    matrix: np.ndarray


def read_vec_text(path: str) -> EmbeddingTable:
    """Parse a word-vector text file; duplicate tokens keep the first row.

    The header's row count is the number of data lines read, duplicates
    included; lines after them are ignored, and a file that ends before them
    is an error, as is a header of 0 rows. Trailing whitespace on a line (a
    final space, a CRLF line end) is ignored. A non-numeric or non-finite
    value (nan, inf, or a number past float64's range) is an error naming
    its line.
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
        if count < 0 or dim < 0:
            raise ValidationError(f"{path}: negative size in header {header!r}")
        if count == 0:
            raise ValidationError(f"{path}: header states 0 rows; no vectors")
        lineno = 1
        for lineno, line in enumerate(itertools.islice(fh, count), start=2):
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
            if not all(map(math.isfinite, values)):
                raise ValidationError(f"{path}:{lineno}: non-finite value")
            if token in seen:
                warnings.warn(f"{path}:{lineno}: duplicate token '{token}' skipped")
                continue
            seen.add(token)
            tokens.append(token)
            rows.append(values)
        if lineno - 1 < count:
            raise ValidationError(
                f"{path}: header states {count} rows, file ends after {lineno - 1}")
    return EmbeddingTable(tokens=tokens,
                          matrix=np.array(rows, dtype=np.float64))


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
