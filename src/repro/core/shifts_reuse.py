"""Shifts reusing (Section 3.4, Figure 6).

Two flavours of the same observation are used in the paper:

* **scalar / column reuse** — when the stencil slides by one point along the
  innermost dimension, all but one column of its neighbourhood were already
  read for the previous point.  Keeping the per-column partial sums alive
  turns a 9-reference 3×3 update into "3 new references + 1 combine" — the
  paper's ``|C(E_F)| = 9`` versus ``|C(E_G)| = 4`` and a reuse profitability
  of ``9 / 4 = 2.25``;
* **vector-set reuse** — in the vectorised folding scheme (Figure 5), the
  last ``m·r`` registers of the transposed counterpart of one computing
  square are exactly the leading dependence columns of the next square, so
  they are carried over in registers instead of being recomputed.  That
  saves the neighbours' vertical folds and transposes, not row loads: every
  square still loads all the rows its folds read.

This module quantifies the scalar flavour: :func:`shifts_reuse_report`
produces Figure 6's analysis for any stencil.
:meth:`~repro.core.vectorized_folding.FoldingSchedule.instruction_profile`
prices the vector-set flavour, with and without ``shifts_reuse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stencils.spec import StencilSpec


@dataclass(frozen=True)
class ShiftsReuseReport:
    """Scalar shifts-reuse analysis for one stencil.

    Attributes
    ----------
    stencil:
        Stencil name.
    collect_without:
        Point references per update without any reuse (the stencil's point
        count — 9 for a 3×3 box).
    collect_with:
        Point references per update when per-column partial sums are carried
        between adjacent points: the new column's references plus one combine
        (4 for a 3×3 box, matching Figure 6).
    profitability:
        ``collect_without / collect_with`` (2.25 for the 3×3 box).
    """

    stencil: str
    collect_without: int
    collect_with: int
    profitability: float


def shifts_reuse_report(spec: StencilSpec) -> ShiftsReuseReport:
    """Quantify scalar shifts reuse for ``spec`` (Figure 6's counting).

    The reusable unit is a *column* of the kernel (all offsets sharing the
    same innermost coordinate).  Moving one point along the innermost
    dimension brings exactly one new column into the neighbourhood, so the
    per-point work with reuse is the size of the densest column plus one
    combine of the per-column partial sums.

    1-D stencils have single-point columns, so the reuse degenerates (every
    "column" is one reference); the report still returns the formal counts.
    """
    kernel = spec.kernel
    without = spec.npoints
    if kernel.ndim == 1:
        new_column = 1
    else:
        # Columns are slices along the last (innermost) dimension.
        cols = kernel.reshape(-1, kernel.shape[-1])
        per_column = [int(np.count_nonzero(cols[:, j])) for j in range(cols.shape[1])]
        new_column = max(per_column) if per_column else 0
    with_reuse = new_column + 1
    return ShiftsReuseReport(
        stencil=spec.name,
        collect_without=without,
        collect_with=with_reuse,
        profitability=without / with_reuse,
    )
