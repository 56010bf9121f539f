"""Staged configuration autotuning.

The paper tunes its stencil parameters (blocking sizes, unrolling factor) by
hand and defers automatic tuning to future work; this subpackage is that
future work: a staged search over the configuration space
``(method, m, isa, tiling)``:

* :mod:`repro.autotune.space` — declarative :class:`SearchSpace` with
  registry/stencil-derived defaults and deterministic candidate expansion,
* :mod:`repro.autotune.tuner` — the predict (IR cost model) → prune (pure
  function of predicted cost) → measure (kernel replay on the top-K)
  pipeline behind :func:`autotune` and ``repro.plan(spec).autotune()``,
* :mod:`repro.autotune.result` — the immutable :class:`TuneResult` ledger.
"""

from repro.autotune.result import CandidateRecord, TuneResult
from repro.autotune.space import (
    SearchSpace,
    TuningWorkload,
    expand_candidates,
    tiling_candidates,
)
from repro.autotune.tuner import OBJECTIVES, PRUNE_RATIO, autotune

__all__ = [
    "autotune",
    "SearchSpace",
    "TuningWorkload",
    "TuneResult",
    "CandidateRecord",
    "OBJECTIVES",
    "PRUNE_RATIO",
    "expand_candidates",
    "tiling_candidates",
]
