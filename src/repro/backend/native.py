"""Build C source into a cached shared library for ``ctypes`` to load.

The library is compiled by the C compiler found on ``PATH`` with
:data:`CFLAGS` plus the caller's ``flags`` — no ``-march=native`` and no
fast-math, and ``-ffp-contract=off`` so that the compiled arithmetic rounds
exactly where the NumPy code it mirrors does.  The ``.so`` is named by a
hash of the source, the flags and the machine type and kept in the user
cache directory (``$XDG_CACHE_HOME/repro``, by default ``~/.cache/repro``),
so later processes only ``dlopen`` it.  A build is written to a temporary
file and ``os.replace``-d into place: processes racing to build the same
library each leave a complete file.

Two libraries are built here, both with ISA flags :func:`isa_flags` picks:
the fold kernel behind the default ``run()`` (:mod:`repro.core.fold_kernel`),
with the widest flag the host supports, and one library per IR program of
the ``kernel`` backend (:mod:`repro.backend.codegen`), with the plan ISA's
flags, reduced to what the host supports.  A tiny probe library, built
without ISA flags, asks ``__builtin_cpu_supports`` once per compiler and
process, so a host without AVX-512 never loads AVX-512 code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

#: Compiler flags of every build.
CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

#: ``__builtin_cpu_supports`` feature and compiler flag of each plan ISA's
#: code, widest first: an ISA whose feature the host lacks builds for the
#: next one it has, or for the baseline with no flag.
ISA_FLAGS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "avx512": (("avx512f", "-mavx512f"), ("avx2", "-mavx2")),
    "avx2": (("avx2", "-mavx2"),),
}

_FEATURES = tuple(sorted({feature for ladder in ISA_FLAGS.values() for feature, _ in ladder}))


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


def build_library(name: str, source: str, compiler: str, flags: Sequence[str] = ()) -> Path:
    """Compile ``source`` with :data:`CFLAGS` and ``flags`` into
    ``<cache>/<name>-<hash>.so`` unless already there.

    Raises :class:`NativeBuildError` with the compiler's first error line when
    the compile fails, and :class:`OSError` when the cache is not writable.
    """
    cflags = (*CFLAGS, *flags)
    key = "\0".join((source, " ".join(cflags), platform.machine()))
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
            [compiler, *cflags, "-o", str(built), str(src)],
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


# --------------------------------------------------------------------------- #
# the host's vector ISA
# --------------------------------------------------------------------------- #
_PROBE_SOURCE = (
    "int repro_cpu_features(void)\n{\n"
    "#if defined(__x86_64__) || defined(__i386__)\n"
    "    __builtin_cpu_init();\n"
    "    return "
    + " | ".join(
        f'(__builtin_cpu_supports("{feature}") ? {1 << bit} : 0)'
        for bit, feature in enumerate(_FEATURES)
    )
    + ";\n#else\n    return 0;\n#endif\n}\n"
)

_probe_lock = threading.Lock()
#: compiler -> (host features, why the probe failed or "").
_probed: Dict[str, Tuple[FrozenSet[str], str]] = {}


def _fresh_probe_lock() -> None:
    """A forked child may inherit the lock held by a background build."""
    global _probe_lock
    _probe_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_probe_lock)


def host_features(compiler: str) -> Tuple[FrozenSet[str], str]:
    """``(features, reason)``: the :data:`ISA_FLAGS` features the host's CPU
    supports, and why the probe found none when it could not run.

    The probe is built with ``compiler`` and no ISA flags, so it runs on any
    host of the machine type; it runs once per compiler and process.
    """
    with _probe_lock:
        found = _probed.get(compiler)
        if found is None:
            try:
                path = build_library("cpu_probe", _PROBE_SOURCE, compiler)
                probe = ctypes.CDLL(str(path)).repro_cpu_features
                probe.argtypes, probe.restype = [], ctypes.c_int
                mask = probe()
            except (NativeBuildError, OSError, AttributeError) as exc:
                found = (frozenset(), f"cpu probe failed: {exc}")
            else:
                found = (
                    frozenset(f for bit, f in enumerate(_FEATURES) if mask >> bit & 1),
                    "",
                )
            _probed[compiler] = found
        return found


def isa_flags(isa_name: str, compiler: str) -> Tuple[Tuple[str, ...], str]:
    """``(flags, note)`` for code of the ISA called ``isa_name``.

    The flags are the widest :data:`ISA_FLAGS` entry of the ISA the host
    supports — none when it supports none of them, or for an ISA without
    entries.  ``note`` says what was left out and why, or is empty.
    """
    ladder = ISA_FLAGS.get(isa_name, ())
    if not ladder:
        return (), ""
    features, reason = host_features(compiler)
    lacked = []
    for feature, flag in ladder:
        if feature in features:
            return (flag,), f"host lacks {', '.join(lacked)}" if lacked else ""
        lacked.append(feature)
    return (), reason or f"host lacks {', '.join(lacked)}"


def describe_build(path: Path, flags: Sequence[str], note: str) -> str:
    """``<path>, <flags>`` or ``<path>, no ISA flags``, then ``; <note>``
    when :func:`isa_flags` left a flag out."""
    detail = " ".join(flags) or "no ISA flags"
    return f"{path}, {detail}{'; ' + note if note else ''}"
