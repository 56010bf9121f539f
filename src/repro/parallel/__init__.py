"""Multicore execution substrate.

Two pieces:

* :mod:`repro.parallel.executor` — the batch executor, which fans a
  compiled plan out over many grids on a thread pool
  (:func:`~repro.parallel.executor.run_plan_batch`),
* :mod:`repro.parallel.model` — the analytic multicore model (shared memory
  bandwidth, AVX-512 frequency throttling, stage-barrier overhead and load
  imbalance) that produces the scalability curves of the paper's Figure 10 /
  Table 3.

Python threads cannot demonstrate real 36-core speedups, so the experiments'
multicore numbers come from the model.  The model assumes what tessellate
tiling guarantees by construction: the tiles of one stage are independent,
so they may run concurrently and give the untiled result.  No executor runs
tiles; a tiled plan's ``run()`` executes untiled.
"""

from repro.parallel.executor import run_plan_batch
from repro.parallel.model import MulticoreConfig, multicore_estimate

__all__ = [
    "run_plan_batch",
    "MulticoreConfig",
    "multicore_estimate",
]
