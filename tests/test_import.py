"""What `import unisca` loads."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency (pyproject.toml), so the package must
    # import without it.
    subprocess.run(
        [sys.executable, "-c",
         "import sys, unisca; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": SRC}, check=True, timeout=120)
