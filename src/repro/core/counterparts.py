"""Vertical-folding counterparts and separability analysis (Section 3.3).

The vectorised folding scheme evaluates the folded update in two phases:

1. **vertical folding** — for every grid column, weighted sums over the rows
   of the folding matrix Λ.  The distinct column-weight vectors of Λ are the
   paper's *counterparts* ``c_n`` (Figure 5 / Equation 4); an ``m``-step
   update needs at most ``m·r + 1`` distinct counterparts for a symmetric
   stencil ("``m + 1`` counterparts at most" in the paper's ``r = 1``
   formulation).
2. **horizontal folding** — after the register transpose, each output point
   combines the ``2mr + 1`` per-column folded values of the counterpart that
   matches each relative position (Equation 5/6).

When Λ is an outer product of per-dimension factors (every column is a
scalar multiple of a single base vector), only one counterpart has to be
materialised and the scalar factors are absorbed into the horizontal weights
— the fast path that yields the paper's ``|C(E_Λ)| = 9``.  When it is not
(GB, star stencils), the regression plan of :mod:`repro.core.regression`
decides how each remaining counterpart is obtained most cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.regression import CounterpartPlan, plan_counterparts

#: Relative tolerance used when testing exact algebraic relations between
#: counterpart vectors (they are products of the input weights, so anything
#: beyond a few ULPs means "not actually equal").
_REL_TOL = 1e-9


def separate_kernel(kernel: np.ndarray, rtol: float = _REL_TOL) -> Optional[List[np.ndarray]]:
    """Factor ``kernel`` into per-dimension 1-D vectors, if possible.

    Returns a list of 1-D arrays whose outer product equals ``kernel`` (up to
    ``rtol``), ordered from the first dimension to the last, or ``None`` when
    the kernel is not separable.  Uniform box stencils and their folding
    matrices are separable; star stencils and the asymmetric GB kernel are
    not.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim == 1:
        return [kernel.copy()]
    mat = kernel.reshape(kernel.shape[0], -1)
    norms = np.linalg.norm(mat, axis=1)
    base_idx = int(np.argmax(norms))
    base = mat[base_idx]
    base_norm2 = float(base @ base)
    if base_norm2 == 0.0:
        return None
    coef = mat @ base / base_norm2
    reconstruction = np.outer(coef, base)
    scale = float(np.max(np.abs(mat))) or 1.0
    if not np.max(np.abs(reconstruction - mat)) <= rtol * scale:
        return None
    rest = separate_kernel(base.reshape(kernel.shape[1:]), rtol)
    if rest is None:
        return None
    return [np.asarray(coef, dtype=np.float64)] + rest


def column_vectors(matrix: np.ndarray) -> List[np.ndarray]:
    """Return the counterpart weight vectors: one per relative column position.

    For a 2-D folding matrix ``Λ`` of shape ``(rows, cols)``, entry ``t`` of
    the returned list is ``Λ[:, t]`` — the weights applied to the rows of
    grid column ``j + t - R`` during vertical folding.  1-D matrices return a
    single trivial vector per position (each "column" is one weight).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim == 1:
        return [np.array([w]) for w in matrix]
    if matrix.ndim == 2:
        return [matrix[:, t].copy() for t in range(matrix.shape[1])]
    # Higher dimensional matrices: treat the leading axes as "rows" and the
    # last axis as the horizontal (vectorised) dimension.
    flat = matrix.reshape(-1, matrix.shape[-1])
    return [flat[:, t].copy() for t in range(flat.shape[1])]


def unique_counterparts(
    vectors: Sequence[np.ndarray], rtol: float = _REL_TOL
) -> List[Tuple[np.ndarray, List[int]]]:
    """Group equal counterpart vectors.

    Returns a list of ``(vector, positions)`` pairs where ``positions`` are
    the relative column indices that use ``vector``.  Zero vectors are
    dropped (their columns contribute nothing).
    """
    groups: List[Tuple[np.ndarray, List[int]]] = []
    for pos, vec in enumerate(vectors):
        if not np.any(vec):
            continue
        scale = float(np.max(np.abs(vec)))
        matched = False
        for gvec, positions in groups:
            if gvec.shape == vec.shape and np.allclose(gvec, vec, rtol=0.0, atol=rtol * scale):
                positions.append(pos)
                matched = True
                break
        if not matched:
            groups.append((vec.copy(), [pos]))
    return groups


@dataclass(frozen=True)
class CounterpartAnalysis:
    """Result of analysing the counterparts of one folding matrix.

    Attributes
    ----------
    matrix:
        The folding matrix Λ.
    positions:
        Number of relative column positions with a non-zero counterpart.
    num_unique:
        Number of distinct counterpart vectors.
    proportional:
        ``True`` when every counterpart is a scalar multiple of a single base
        vector (the separable fast path of Section 3.3).
    base_vector:
        The base counterpart when ``proportional`` (otherwise the first
        unique counterpart).
    scale_factors:
        Per-position scale factor relative to ``base_vector`` when
        ``proportional`` (``None`` otherwise).
    plan:
        The counterpart-reuse plan (Section 3.5).
    collect_direct:
        Collect when every unique counterpart is computed from the grid
        directly (no reuse).
    collect_with_reuse:
        Collect under ``plan`` — the minimised ``|C(E_Λ)|``.
    """

    matrix: np.ndarray
    positions: int
    num_unique: int
    proportional: bool
    base_vector: np.ndarray
    scale_factors: Optional[np.ndarray]
    plan: CounterpartPlan
    collect_direct: int
    collect_with_reuse: int


def analyze_counterparts(matrix: np.ndarray, rtol: float = _REL_TOL) -> CounterpartAnalysis:
    """Analyse the counterpart structure of folding matrix ``matrix``.

    The returned analysis contains both the "everything from scratch" collect
    and the minimised collect under the counterpart-reuse plan, so callers
    (and tests) can quantify what Section 3.5 buys for a given stencil.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    vectors = column_vectors(matrix)
    groups = unique_counterparts(vectors, rtol)
    if not groups:
        raise ValueError("folding matrix has no non-zero counterpart")

    positions = sum(len(positions) for _, positions in groups)

    # Proportionality check (all counterparts scalar multiples of one base).
    base = max((g for g, _ in groups), key=lambda v: float(np.linalg.norm(v)))
    base_norm2 = float(base @ base)
    proportional = True
    scales = np.zeros(len(vectors))
    for pos, vec in enumerate(vectors):
        if not np.any(vec):
            continue
        coef = float(vec @ base) / base_norm2
        scale = float(np.max(np.abs(vec)))
        if not np.allclose(coef * base, vec, rtol=0.0, atol=rtol * max(scale, 1e-300)):
            proportional = False
            break
        scales[pos] = coef

    plan = plan_counterparts(matrix, rtol=rtol)
    collect_direct = sum(int(np.count_nonzero(g)) for g, _ in groups) + max(0, positions - 1)

    return CounterpartAnalysis(
        matrix=matrix,
        positions=positions,
        num_unique=len(groups),
        proportional=proportional,
        base_vector=base,
        scale_factors=scales if proportional else None,
        plan=plan,
        collect_direct=collect_direct,
        collect_with_reuse=plan.total_collect,
    )
