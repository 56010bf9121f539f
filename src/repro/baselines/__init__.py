"""Baseline vectorization methods the paper compares against.

* :mod:`repro.baselines.multiple_loads` — the straightforward vectorization
  the compiler falls back to: one (mostly unaligned) vector load per stencil
  point, no data reorganisation,
* :mod:`repro.baselines.data_reorg` — aligned loads plus in-register
  reorganisation (shift/permute chains) to build the shifted operand
  vectors,
* :mod:`repro.baselines.dlt` — the dimension-lifted transpose of Henretty et
  al.: global layout transform, shuffle-free steady state, plus an honest
  NumPy executor that really computes in the DLT layout,
* :mod:`repro.baselines.sdsl` — the SDSL configuration used in the paper's
  multicore comparison: DLT-style vectorization combined with split tiling.

Each module exposes a ``profile(spec, isa)`` builder returning a
:class:`repro.perfmodel.profiles.MethodProfile`; the profiles are registered
with the method registry in :mod:`repro.methods`.
"""

from repro.baselines.multiple_loads import profile_multiple_loads
from repro.baselines.data_reorg import profile_data_reorg
from repro.baselines.dlt import profile_dlt, dlt_run
from repro.baselines.sdsl import profile_sdsl

__all__ = [
    "profile_multiple_loads",
    "profile_data_reorg",
    "profile_dlt",
    "dlt_run",
    "profile_sdsl",
]
