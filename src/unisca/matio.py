"""The files of a dataset or model directory, and the package's JSON and CSV.

A directory keeps its arrays in one uncompressed numpy archive, `ARCHIVE`,
each under its name; the format records each array's shape and dtype, and
zip checks a CRC-32 on each. Beside it a JSON file names the directory's
kind and layout `VERSION`. Every JSON file the package writes or reads goes
through `write_json` and `read_json`, and every CSV file through `write_csv`
and `read_csv`.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .numerics import ValidationError

ARCHIVE = "arrays.npz"
# The layout save_dataset and save_model write; version 1 kept each array
# in a .bin file of its own beside a .json header.
VERSION = 2


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


def check_version(doc: dict, path: str, remedy: str) -> None:
    """Refuse a directory whose `path` (its manifest.json or model.json)
    names another layout version than VERSION; `remedy` says how to rebuild."""
    if doc.get("version") != VERSION:
        raise ValidationError(f"{path}: version {doc.get('version')!r} is not "
                              f"{VERSION}; {remedy}")


def write_arrays(path: str, arrays: dict) -> None:
    """Write `arrays` ({name: array}) as one uncompressed numpy archive."""
    np.savez(path, **arrays)


def read_arrays(path: str, names, integers=()) -> dict:
    """The arrays `names` of the archive at `path`, each float64, or int64
    for those in `integers`; an archive may hold others. A missing,
    truncated or corrupt file, a missing name, an object array or another
    dtype raises ValidationError naming the file. Nothing is unpickled."""
    try:
        # The archive np.load returns for a zip, made directly: np.load would
        # read another file as a pickle or a lone array, and leaves a file it
        # opened open when its zip is bad.
        with (open(path, "rb") as fh,
              np.lib.npyio.NpzFile(fh, allow_pickle=False) as archive):
            # A member that is no .npy file is read as bytes.
            arrays = {name: np.asarray(archive[name]) for name in names
                      if name in archive.files}
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ValidationError(f"{path}: not a numpy archive of numeric "
                              f"arrays: {exc}") from exc
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ValidationError(f"{path}: missing arrays {missing}")
    for name, a in arrays.items():
        dtype = np.dtype(np.int64 if name in integers else np.float64)
        if a.dtype != dtype:
            raise ValidationError(f"{path}: {name}: expected {dtype}, "
                                  f"got {a.dtype}")
    return arrays


def check_shapes(path: str, arrays: dict, shapes: dict) -> None:
    """Refuse, with a ValidationError naming the archive at `path`, each
    array of `arrays` whose shape is not its entry in `shapes`; a name
    `arrays` lacks is passed over."""
    for name, shape in shapes.items():
        if name in arrays and arrays[name].shape != shape:
            raise ValidationError(f"{path}: {name}: expected shape {shape}, "
                                  f"got {arrays[name].shape}")


def write_csv(path: str, a: np.ndarray, columns: list[str]) -> None:
    a = np.asarray(a, dtype=np.float64)
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
