"""2-D heat diffusion: every optimization path produces the same physics.

Run with::

    python examples/heat_diffusion_2d.py

A Gaussian temperature bump diffuses on a plate with cold (Dirichlet)
boundaries.  The same simulation is executed through three different paths
of the library — the naive reference, the DLT-layout baseline and the 2-step
folded plan — and the example reports each path's deviation from the
reference together with the physical diagnostics (total heat, peak
temperature) over time.  It exits non-zero when a deviation exceeds a
float64 bound fixed before any run: ``steps · npoints · eps · max(1,
max|reference|)``, the forward error of ``steps`` sums of ``npoints``
products.
"""

from __future__ import annotations

import numpy as np

import repro
from repro import Grid
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.library import heat_2d
from repro.stencils.reference import reference_run
from repro.utils.tables import format_table


def main() -> None:
    spec = heat_2d(alpha=0.125)
    shape = (96, 96)
    steps = 60
    grid = Grid.gaussian_bump(shape, boundary=BoundaryCondition.DIRICHLET, amplitude=100.0)
    print(f"Diffusing a {shape} plate for {steps} steps with the {spec.npoints}-point heat stencil")
    print(f"Initial peak temperature: {grid.values.max():.2f}, total heat: {grid.values.sum():.1f}")

    # Reference solution, and the largest deviation any path may show.
    reference = reference_run(spec, grid, steps)
    eps = float(np.finfo(np.float64).eps)
    tolerance = steps * spec.npoints * eps * max(1.0, float(np.max(np.abs(reference))))

    # DLT baseline (computes in the dimension-lifted layout).
    dlt_plan = repro.plan(spec).method("dlt").isa("avx2").compile()
    dlt_result = dlt_plan.run(grid, steps)

    # Our folded plan (2 steps per pass, exact Dirichlet band handling).
    folded_plan = repro.plan(spec).method("folded").isa("avx2").unroll(2).compile()
    folded_result = folded_plan.run(grid, steps)

    def deviation(result):
        return float(np.max(np.abs(result - reference)))

    rows = [
        {"path": "DLT layout", "max |Δ| vs reference": deviation(dlt_result)},
        {"path": "folded (m=2)", "max |Δ| vs reference": deviation(folded_result)},
    ]
    print()
    print(format_table(rows, float_fmt=".2e", title="Numerical agreement of the execution paths"))

    # Physical diagnostics over time (using the folded plan): repeated
    # run() calls, the later ones on the native program once it loaded.
    diag_rows = []
    snapshot = grid.copy()
    previous_checkpoint = 0
    for checkpoint in (0, 10, 20, 40, 60):
        if checkpoint > previous_checkpoint:
            snapshot = snapshot.with_values(
                folded_plan.run(snapshot, checkpoint - previous_checkpoint)
            )
            previous_checkpoint = checkpoint
        diag_rows.append(
            {
                "step": checkpoint,
                "peak temperature": float(snapshot.values.max()),
                "total heat": float(snapshot.values.sum()),
            }
        )
    print(format_table(diag_rows, title="Diffusion diagnostics (folded plan)"))
    print("Peak temperature decays and heat leaks through the cold boundary, as physics demands.")

    deviations = {row["path"]: row["max |Δ| vs reference"] for row in rows}
    deviations["folded (m=2), in four run() calls"] = deviation(snapshot.values)
    failed = [path for path, value in deviations.items() if not value <= tolerance]
    if failed:
        raise SystemExit(f"deviation above {tolerance:.2e}: {', '.join(failed)}")
    print(f"Every path is within {tolerance:.2e} of the reference.")


if __name__ == "__main__":
    main()
