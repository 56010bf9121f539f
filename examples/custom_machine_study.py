"""A custom study: sweep methods × ISAs on a machine that is not the 6140.

Demonstrates the declarative study API end to end:

1. describe your own machine as a :class:`repro.MachineSpec` (here: a small
   8-core part derived from the paper's Xeon Gold 6140);
2. declare the sweep axes with ``.over(...)`` — the first axis varies
   slowest, exactly like nested ``for`` loops;
3. route the analytic pipeline through the cell's memoization cache so
   repeated (method, ISA) cells are free;
4. query the immutable ResultSet: pivot the sweep into a figure-shaped
   matrix and find the winning method per ISA.

Run with ``PYTHONPATH=src python examples/custom_machine_study.py``.
"""

from __future__ import annotations

import dataclasses

import repro

# A machine we do not ship: 2 × 4 cores, half the L3, slower memory.
base = repro.machine_for_isa("avx2")
small = dataclasses.replace(
    base,
    name="Small Node (AVX-2)",
    cores_per_socket=4,
    sockets=2,
    memory_bandwidth_gbs=60.0,
    caches=tuple(
        dataclasses.replace(lvl, capacity_bytes=lvl.capacity_bytes // 2)
        if lvl.name == "L3"
        else lvl
        for lvl in base.caches
    ),
)

case = repro.get_benchmark("2d9p")
spec = case.spec


def metric(cell):
    """GFLOP/s of one (method, isa, cores) cell on the study's machine."""
    machine = repro.isa_variant(cell.machine, cell["isa"])
    profile = cell.cache.profile(cell["method"], spec, isa=cell["isa"], m=2)
    est = cell.cache.multicore(
        profile,
        grid_shape=case.problem_size,
        time_steps=case.time_steps,
        machine=machine,
        cores=cell["cores"],
        radius=spec.radius,
    )
    return {
        "method": cell["method"],
        "isa": cell["isa"],
        "cores": cell["cores"],
        "gflops": est.gflops,
    }


results = (
    repro.study("small-node-sweep")
    .over(
        method=repro.method_keys(),
        isa=("avx2", "avx512"),
        cores=repro.scalability_cores(small),
    )
    .on(small)
    .metric(metric)
    .run()
)

print(f"{results!r}\n")
full = results.filter(cores=small.total_cores)
for isa in ("avx2", "avx512"):
    matrix = full.filter(isa=isa).pivot("method", "cores", "gflops")
    print(f"-- {isa} at {small.total_cores} cores")
    for method, cells in matrix.items():
        print(f"  {method:<16}{cells[small.total_cores]:8.1f} GFLOP/s")
best = full.best("gflops", by="isa")
for isa, row in best.items():
    print(f"winner with {isa}: {row['method']} at {row['gflops']:.1f} GFLOP/s")
p = results.provenance
print(
    f"\n{p.cells} cells in {p.wall_seconds:.2f}s "
    f"(cache: {p.cache_hits} hits / {p.cache_misses} misses, config {p.config_hash})"
)

# The paper's own artefacts are studies too — any machine works:
from repro.harness.experiments import figure10  # noqa: E402

fig10 = figure10(benchmarks=("2d9p",), machine=small)
print(f"\nfigure10 on {small.name}: swept cores {sorted({r['cores'] for r in fig10.rows})}")
