"""The fold kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The Dirichlet band packs the columns near each row end into strips padded
with ghost cells, and the reference step reads padded cut copies of the
rows: both read past the values they keep by design.  A read past what was
allocated must stop the process rather than return plausible bits, so this
script builds ``fold_kernel.c`` with ``-O1 -g -fsanitize=address,undefined
-fno-omit-frame-pointer`` (and undefined behaviour made fatal), once with no
ISA flag and once with each ISA flag the host's CPU supports.  It loads each
build as a :class:`~repro.core.fold_kernel.FoldKernel` and checks its fold,
reference step and band bit for bit against the process's regular build, on
every linear library stencil at m = 1-4: narrow grids, one-plane grids and
grids thinner than the band.  A sanitizer report aborts the run; a wrong
bit exits 1.

The sanitizer runtime must be loaded before the interpreter starts::

    LD_PRELOAD=$(gcc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \\
        PYTHONPATH=src python benchmarks/fold_kernel_sanitized.py

It is not a test module: pytest does not collect it, and without the
preloaded runtime the sanitized builds fail to load.
"""

from __future__ import annotations

import ctypes
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.backend import native
from repro.core import fold_kernel
from repro.core.fold_kernel import FoldKernel, load_fold_kernel
from repro.core.vectorized_folding import FoldingSchedule
from repro.stencils import library
from repro.stencils.boundary import BoundaryCondition

SANITIZE = (
    "-O1",
    "-g",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
)

STENCILS = (
    "heat_1d",
    "box_1d5p",
    "heat_2d",
    "box_2d9p",
    "symmetric_box_2d9p",
    "general_box_2d9p",
    "heat_3d",
    "box_3d27p",
)

#: Per dimensionality: one-point and narrow rows, one-row and one-plane
#: grids, rows shorter than a vector, grids thinner than a band of m = 4
#: (6 points for the radius-2 1d5p), and a few rows of several vectors.
SHAPES: Dict[int, List[Tuple[int, ...]]] = {
    1: [(1,), (3,), (7,), (13,), (45,), (200,)],
    2: [(1, 9), (2, 3), (3, 40), (5, 5), (9, 17), (16, 33)],
    3: [(1, 5, 9), (2, 3, 1), (1, 12, 40), (3, 9, 40), (7, 9, 11), (9, 10, 34)],
}


def sanitized_builds() -> Dict[str, FoldKernel]:
    compiler = native.find_c_compiler()
    if compiler is None:
        sys.exit("no C compiler on PATH")
    features, _ = native.host_features(compiler)
    pairs = {pair for ladder in native.ISA_FLAGS.values() for pair in ladder}
    flags = sorted(flag for feature, flag in pairs if feature in features)
    source = fold_kernel._SOURCE.read_text()
    builds = {}
    for isa in [(), *((flag,) for flag in flags)]:
        path = native.build_library("fold_kernel_sanitized", source, compiler, (*SANITIZE, *isa))
        builds[" ".join(isa) or "no ISA flags"] = FoldKernel(ctypes.CDLL(str(path)), path)
    return builds


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.int64)


def results(kernel: FoldKernel, schedule: FoldingSchedule, values: np.ndarray):
    """``(what, array)`` of ``kernel``'s fold and reference step on both
    boundaries, and of its band."""
    fold, taps = schedule.fold_tables(), schedule.step_tables()
    for boundary in BoundaryCondition:
        yield f"fold {boundary.value}", kernel(fold, values, boundary)
        yield f"step {boundary.value}", kernel.step(taps, values, boundary)
    folded = schedule.numpy_fold(values, BoundaryCondition.DIRICHLET)
    yield "band", kernel.band(taps, values, folded, schedule.m, schedule.spec.radius)


def main() -> int:
    regular = load_fold_kernel()
    if regular is None:
        sys.exit(f"no regular fold kernel to compare with: {fold_kernel.fold_kernel_status()}")
    builds = sanitized_builds()
    rng = np.random.default_rng(1)
    checked = failed = 0
    for name in STENCILS:
        spec = getattr(library, name)()
        for m in (1, 2, 3, 4):
            schedule = FoldingSchedule(spec, m)
            for shape in SHAPES[spec.dims]:
                values = rng.standard_normal(shape)
                expected = dict(results(regular, schedule, values))
                for flags, build in builds.items():
                    for what, got in results(build, schedule, values):
                        checked += 1
                        if not np.array_equal(bits(got), bits(expected[what])):
                            failed += 1
                            print(f"{name} m={m} {shape} {flags}: {what} differs")
    names = ", ".join(builds)
    print(f"{checked} results of the sanitized builds ({names}) checked, {failed} differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
