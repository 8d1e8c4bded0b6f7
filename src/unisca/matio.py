"""Shared on-disk matrix format: raw little-endian float64 plus a JSON header.

A matrix named `foo` in directory `d` is stored as `d/foo.bin` (row-major
float64, little-endian) and `d/foo.json` describing shape, dtype and role.
Datasets and fitted models reuse this format, so a header is enough to reload
any artifact. Every JSON file the package writes or reads goes through
`write_json` and `read_json`, and every CSV file through `write_csv` and
`read_csv`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .numerics import ValidationError, check_keys

DTYPE = "<f8"


def write_json(path: str, doc) -> None:
    """Write `doc` indented by 2 with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def write_matrix(directory: str, name: str, a: np.ndarray, role: str = "",
                 dtype: str = DTYPE) -> None:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.dtype(dtype)))
    os.makedirs(directory, exist_ok=True)
    header = {
        "name": name,
        "shape": list(a.shape),
        "dtype": dtype,
        "order": "C",
        "role": role,
    }
    write_json(os.path.join(directory, name + ".json"), header)
    a.tofile(os.path.join(directory, name + ".bin"))


def read_matrix(directory: str, name: str) -> tuple[np.ndarray, dict]:
    """Load a matrix and its header; validates the byte count against shape."""
    path_json = os.path.join(directory, name + ".json")
    path_bin = os.path.join(directory, name + ".bin")
    if not os.path.exists(path_json) or not os.path.exists(path_bin):
        raise FileNotFoundError(f"matrix '{name}' not found in {directory}")
    header = read_json(path_json)
    check_keys(header, path_json, required=("shape",), optional=header)
    shape = tuple(int(s) for s in header["shape"])
    data = np.fromfile(path_bin, dtype=np.dtype(header.get("dtype", DTYPE)))
    expected = int(np.prod(shape)) if shape else data.size
    if data.size != expected:
        raise ValidationError(
            f"matrix '{name}': file holds {data.size} values, header says {expected}")
    return data.reshape(shape), header


def write_csv(path: str, a: np.ndarray, columns: list[str]) -> None:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != len(columns):
        raise ValidationError(
            f"CSV export: array shape {a.shape} does not match {len(columns)} columns")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path: str) -> tuple[np.ndarray, list[str]]:
    """The array and column names of a file `write_csv` wrote; a file with
    only its header gives zero rows."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if not lines:
        raise ValidationError(f"{path}: CSV file has no header")
    columns = lines[0].split(",")
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric CSV value") from exc
    if any(len(row) != len(columns) for row in rows):
        raise ValidationError(f"{path}: a row does not hold {len(columns)} values")
    return np.array(rows, dtype=np.float64).reshape(-1, len(columns)), columns
