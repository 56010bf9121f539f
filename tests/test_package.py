"""Package-level facts: the version and what ``import repro`` loads."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert match is not None
    assert repro.__version__ == match.group(1)


def test_import_does_not_load_scipy_signal():
    """Folding matrices are composed in NumPy; ``scipy.signal`` (slow to
    import) is not needed to import the package."""
    code = "import sys, repro; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "False"
