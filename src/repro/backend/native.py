"""Build C source into a cached shared library for ``ctypes`` to load.

The library is compiled by the C compiler found on ``PATH`` with
:data:`CFLAGS` — no ``-march=native`` and no fast-math, and
``-ffp-contract=off`` so that the compiled arithmetic rounds exactly where
the NumPy code it mirrors does.  The ``.so`` is named by a hash of the
source, the flags and the machine type and kept in the user cache directory
(``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``), so later
processes only ``dlopen`` it.  A build is written to a temporary file and
``os.replace``-d into place: processes racing to build the same library
each leave a complete file.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

#: Compiler flags of every build.
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


class NativeBuildError(RuntimeError):
    """The C compiler rejected a source; the message is its first error line."""


def find_c_compiler() -> Optional[str]:
    """Path of the first of ``cc``, ``gcc``, ``clang`` on ``PATH``, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_dir() -> Path:
    """Directory the built libraries are cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def build_library(name: str, source: str, compiler: str) -> Path:
    """Compile ``source`` into ``<cache>/<name>-<hash>.so`` unless already there.

    Raises :class:`NativeBuildError` with the compiler's first error line when
    the compile fails, and :class:`OSError` when the cache is not writable.
    """
    key = "\0".join((source, " ".join(CFLAGS), platform.machine()))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    target = cache_dir() / f"{name}-{digest}.so"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        src = Path(tmp) / f"{name}.c"
        src.write_text(source)
        built = Path(tmp) / f"{name}.so"
        proc = subprocess.run(
            [compiler, *CFLAGS, "-o", str(built), str(src)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            errors = [line for line in lines if "error" in line]
            detail = (errors or lines or [f"{compiler} exited with {proc.returncode}"])[0]
            raise NativeBuildError(detail.strip())
        os.replace(built, target)
    return target
