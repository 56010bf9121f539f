"""The paper's local transpose layout (Section 2.2, Figure 1).

Every aligned block of ``vl * vl`` contiguous elements of the innermost
dimension is viewed as a ``vl × vl`` matrix (rows = runs of ``vl``
consecutive elements) and transposed in place.  After the transform, the
``j``-th aligned SIMD vector of a block holds the elements whose in-block
offset is congruent to ``j`` mod ``vl`` — i.e. column ``j`` of the matrix
view.  Two properties follow:

* the elements of one vector lie within ``vl² `` positions of each other in
  the original array (data locality is preserved for cache tiling), and
* the left/right dependence vectors of a whole vector set can be assembled
  with one blend + one permute each (Figure 2), instead of one unaligned load
  per stencil point (multiple-loads) or a chain of inter-vector permutes
  (data reorganisation).

The transform is an involution (applying it twice restores the original
layout), which the paper exploits by storing results in the alternate array
with the inverse transform fused into the final "weighted transpose".

Trailing elements that do not fill a complete ``vl²`` block are left in
their original order; the execution schedules treat that tail scalarly, as a
real implementation would.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _check_vl(vl: int) -> None:
    if vl < 2:
        raise ValueError("vector length must be at least 2")


def to_transpose_layout(array: np.ndarray, vl: int) -> np.ndarray:
    """Return ``array`` with every ``vl²`` block of the innermost axis transposed.

    Parameters
    ----------
    array:
        1-D, 2-D or 3-D array; the transform is applied independently to each
        row of the innermost (contiguous) dimension.
    vl:
        SIMD vector length in elements (4 for AVX-2 doubles, 8 for AVX-512).

    Returns
    -------
    numpy.ndarray
        A new array of the same shape in transpose layout.
    """
    _check_vl(vl)
    arr = np.asarray(array, dtype=np.float64)
    out = np.empty(arr.shape)
    blocked = arr.shape[-1] // (vl * vl) * (vl * vl)
    shape = arr.shape[:-1] + (blocked // (vl * vl), vl, vl)
    # One pass: each block's transpose is written straight into the result
    # through a view (splitting the innermost axis never copies); only the
    # tail is copied as it is.
    out[..., :blocked].reshape(shape)[...] = arr[..., :blocked].reshape(shape).swapaxes(-1, -2)
    out[..., blocked:] = arr[..., blocked:]
    return out


def from_transpose_layout(array: np.ndarray, vl: int) -> np.ndarray:
    """Inverse of :func:`to_transpose_layout`.

    Because the per-block transpose is an involution, this simply applies the
    same transform again; the function exists for readability at call sites.
    """
    return to_transpose_layout(array, vl)


def transpose_layout_index(i: int, vl: int, n: int) -> int:
    """Map the original index ``i`` to its position in the transpose layout.

    Indices in the incomplete tail block map to themselves.

    Parameters
    ----------
    i:
        Original (row-major) index within the innermost dimension.
    vl:
        Vector length.
    n:
        Length of the innermost dimension.
    """
    _check_vl(vl)
    if not 0 <= i < n:
        raise IndexError(f"index {i} out of range for length {n}")
    block = vl * vl
    nblocks = n // block
    b, r = divmod(i, block)
    if b >= nblocks:
        return i
    row, col = divmod(r, vl)
    return b * block + col * vl + row


def vector_lane_indices(vector_index: int, vl: int, n: int) -> List[int]:
    """Original indices of the lanes of aligned vector ``vector_index``.

    Vector ``k`` occupies layout positions ``[k*vl, (k+1)*vl)``.  In a full
    block this corresponds to original indices ``base + j*vl + (k mod vl)``
    — the column of the matrix view — which is what makes the assembled
    neighbour construction of Figure 2 possible.
    """
    _check_vl(vl)
    start = vector_index * vl
    if start + vl > n:
        raise IndexError("vector extends past the end of the array")
    block = vl * vl
    nblocks = n // block
    b = start // block
    if b >= nblocks:
        return list(range(start, start + vl))
    col = (start - b * block) // vl
    return [b * block + j * vl + col for j in range(vl)]


def vector_element_spread(vl: int, n: int) -> int:
    """Maximum original-index distance between two lanes of one aligned vector.

    For the transpose layout this is ``vl * (vl - 1)`` (independent of the
    array length), versus ``(vl - 1) * n / vl`` for DLT — the quantitative
    form of the paper's locality argument.
    """
    _check_vl(vl)
    if n < vl * vl:
        return vl - 1
    return vl * (vl - 1)


def blocks_in(n: int, vl: int) -> Tuple[int, int]:
    """Return ``(complete_blocks, tail_elements)`` for an innermost length ``n``."""
    _check_vl(vl)
    block = vl * vl
    return n // block, n % block
