"""What `import unisca` loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _import_unisca_without(module: str) -> None:
    subprocess.run(
        [sys.executable, "-c",
         f"import sys, unisca; assert {module!r} not in sys.modules"],
        env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=120)


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency (pyproject.toml), so the package must
    # import without it.
    _import_unisca_without("scipy")


def test_import_leaves_jsonschema_out():
    # Only the config schema (unisca.config, loaded by the CLI) needs
    # jsonschema; the solver settings it checks are declared in unisca.solver.
    _import_unisca_without("jsonschema")
