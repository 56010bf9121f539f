"""Analytic cache model.

The paper's performance arguments are about *data movement*: how many bytes
must cross each level of the cache hierarchy per stencil update, and how the
transpose layout / temporal folding / tessellate tiling change that number.
Real hardware counters are unavailable here, so :mod:`repro.cache.analytic`
provides a working-set traffic model at the paper's problem sizes: which
level a problem (or one sweep's reuse slab) is resident in, and the bytes per
point per step that cross each level boundary.  The cost model
(:mod:`repro.perfmodel`) reads it for every harness figure and for the tuner.
"""

from repro.cache.analytic import (
    TrafficEstimate,
    estimate_traffic,
    neighborhood_working_set_bytes,
    residency_level,
    sweep_reuse_level,
)

__all__ = [
    "TrafficEstimate",
    "estimate_traffic",
    "neighborhood_working_set_bytes",
    "residency_level",
    "sweep_reuse_level",
]
