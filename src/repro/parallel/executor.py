"""Batch executor: one compiled plan over many grids.

:func:`run_plan_batch` fans one compiled plan
(:class:`repro.core.plan.CompiledPlan`) out over many grids — the run-many
half of the compile-once/run-many API.  Because a plan's ``run`` is pure and
its folding schedule is frozen at compile time, the batch result is
bit-identical to the sequential loop for any worker count.  A pool pays
off here because the native sweeps behind ``run`` release the GIL.
Study cells run sequentially: their work holds the GIL, so threads only
add overhead to it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.stencils.grid import Grid


#: Default fan-out of :func:`run_plan_batch` when the plan itself is not
#: configured with a worker pool.
DEFAULT_BATCH_WORKERS = 8


def map_ordered(fn, items: Sequence[Any], workers: int) -> List[Any]:
    """Apply ``fn`` over ``items`` on a thread pool, preserving input order.

    The fan-out primitive of :func:`run_plan_batch`: ``workers`` is capped
    at the item count, ``workers=1`` degenerates to a plain sequential loop,
    and the result list matches ``[fn(item) for item in items]``
    element-for-element for any worker count — which is exactly the
    determinism contract the batch executor exposes.  ``fn`` must be pure
    (or at least thread-safe) for that contract to hold.
    """
    items = list(items)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not items:
        return []
    workers = min(workers, len(items))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map() preserves input order by contract.
        return list(pool.map(fn, items))


def run_plan_batch(
    plan: Any,
    grids: Sequence[Grid],
    steps: int,
    workers: Optional[int] = None,
) -> List[np.ndarray]:
    """Run one compiled plan over many grids on a thread pool.

    The schedule, profile and configuration were all resolved when the plan
    was compiled, so the per-grid work is a pure function of the grid — the
    expensive :class:`~repro.core.vectorized_folding.FoldingSchedule`
    construction is amortised across the whole batch and the results are
    bit-identical to ``[plan.run(g, steps) for g in grids]`` in input order.

    Parameters
    ----------
    plan:
        A :class:`repro.core.plan.CompiledPlan` (duck-typed: anything with a
        pure ``run(grid, steps)`` and a ``config.workers`` attribute works).
    grids:
        The grids to advance; results are returned in the same order.
    steps:
        Time steps to advance every grid by.
    workers:
        Thread-pool width; defaults to the plan's configured ``workers``
        (``plan(...).parallel(n)``, including an explicit sequential
        ``n=1``) or :data:`DEFAULT_BATCH_WORKERS` when the plan left it
        unconfigured, capped at the batch size.
    """
    grids = list(grids)
    if workers is None:
        configured = getattr(plan.config, "workers", None)
        workers = DEFAULT_BATCH_WORKERS if configured is None else int(configured)
    return map_ordered(lambda grid: plan.run(grid, steps), grids, workers)
