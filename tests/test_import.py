"""What importing the package and its command line loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _import_without(package: str, module: str) -> None:
    subprocess.run(
        [sys.executable, "-c",
         f"import sys, {package}; assert {module!r} not in sys.modules"],
        env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=120)


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency (pyproject.toml), so the package must
    # import without it.
    _import_without("unisca", "scipy")


def test_import_leaves_jsonschema_out():
    # The config is checked against declarations in the package itself, so
    # not even the command line, which loads unisca.config, needs jsonschema.
    _import_without("unisca.cli", "jsonschema")


def test_import_leaves_concurrent_futures_out():
    # The side-by-side helper pool is numerics' own, and `sweep` runs its
    # seeds through it, so neither the package nor its command line loads
    # concurrent.futures.
    _import_without("unisca", "concurrent.futures")
    _import_without("unisca.cli", "concurrent.futures")
