"""Measured vs estimated: time the kernel backend, compare to the model.

Run with::

    python examples/measured_vs_estimated.py

The example puts the two halves of the reproduction side by side:

1. compile a plan for each benchmark stencil and run its schedule IR on the
   kernel backend (``backend="kernel"``): native SIMD code the system C
   compiler built from the IR, or IR replay on NumPy on a host without one
   (``p.explain()`` says which),
2. check the kernel's output is bit-identical to the instruction-level
   interpreter on the same grid,
3. measure the kernel's wall-clock cycles per point update
   (:func:`repro.measured_vs_estimated`) and print it next to the analytic
   cost model's estimate for the paper's Xeon Gold 6140.

The measured column times whole ``run()`` calls on grids of 1024 points, so
each call's fixed cost (argument checks, layout transforms, the ``ctypes``
call) is a large share, and it runs on this host rather than the modelled
Xeon; on NumPy replay it sits orders of magnitude higher.  The point is the
shared axis (cycles per point) and the per-stencil *shape* of the two
columns, not parity.  The same numbers are available from the command line
via ``repro-measure <stencil> --isa avx512 --optimize``.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.stencils.grid import Grid
from repro.utils.tables import format_table

CASES = (
    ("1d-heat", (64 * 16,)),
    ("2d9p", (32, 32)),
    ("3d-heat", (4, 16, 16)),
)


def main() -> None:
    rows = []
    for key, shape in CASES:
        case = repro.get_benchmark(key)
        p = repro.plan(case.spec).method("folded").isa("avx2").unroll(2).compile()
        grid = Grid.random(shape, seed=0)
        steps = 2 * p.steps_per_update

        # The kernel must agree with the interpreter bit for bit.
        ref, _ = p.simulate(grid, steps, backend="interpret")
        out, _ = p.simulate(grid, steps, backend="kernel")
        assert np.array_equal(out, ref), key

        report = repro.measured_vs_estimated(p, grid, steps, repeats=5)
        rows.append(
            {
                "stencil": case.display_name,
                "points": report["points"],
                "estimated cyc/pt": report["estimated_cycles_per_point"],
                "measured cyc/pt": report["measured_cycles_per_point"],
                "ratio": report["measured_over_estimated"],
                "bound": report["bound"],
            }
        )
        print(f"{case.display_name}: kernel output bit-identical over {steps} steps")

    print()
    print(
        format_table(
            rows,
            title="Estimated (cost model) vs measured (kernel backend) cycles per point",
        )
    )


if __name__ == "__main__":
    main()
