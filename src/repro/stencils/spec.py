"""Declarative stencil specifications.

A stencil in this package is described by a dense weight *kernel*: an
``ndarray`` of odd extent along every dimension whose centre element is the
weight of the updated point itself.  For the linear, constant-coefficient
stencils the paper evaluates (heat equations, box smoothers, the asymmetric
GB kernel) the kernel fully determines the computation:

``u_{t+1}[i] = sum_k  kernel[k] * u_t[i + k - centre]``

Two of the paper's benchmarks are not purely linear:

* **APOP** (American put option pricing) applies an elementwise ``max``
  against a static payoff array after the 3-point weighted sum,
* **Game of Life** maps the 8-neighbour count through Conway's survival rule.

Both are expressed with the same kernel machinery plus a *post-update rule*
(:attr:`StencilSpec.post_rule`), so every executor in the package handles
them uniformly.  Temporal computation folding (Section 3 of the paper)
requires linearity; :attr:`StencilSpec.foldable` captures that.

The central operation for the paper's Section 3 is :meth:`StencilSpec.compose`,
which returns the *folding kernel* for ``m`` fused time steps: the m-fold
discrete self-convolution of the kernel.  Its entries are exactly the
re-assigned weights ``λ`` of the paper's folding matrix (Figure 4/5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np


class StencilShape(enum.Enum):
    """Geometric classification of a stencil's neighbour pattern.

    ``STAR``
        Non-zero weights only along the coordinate axes (e.g. 5-point 2-D
        heat, 7-point 3-D heat).
    ``BOX``
        Non-zero weights on the full ``(2r+1)^d`` hypercube (e.g. 9-point 2-D
        box, 27-point 3-D box, Game of Life).
    ``GENERAL``
        Anything else.
    """

    STAR = "star"
    BOX = "box"
    GENERAL = "general"


#: Signature of a post-update rule applied after the linear weighted sum.
#: Arguments: ``linear_sum`` (the weighted neighbour sum), ``previous`` (the
#: grid before the update) and ``aux`` (the stencil's static auxiliary array,
#: e.g. the APOP payoff), returning the updated grid.
PostRule = Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]


def _classify(kernel: np.ndarray) -> StencilShape:
    """Classify ``kernel`` as star, box or general."""
    nz = np.argwhere(kernel != 0.0)
    if nz.size == 0:
        return StencilShape.GENERAL
    centre = np.array([(s - 1) // 2 for s in kernel.shape])
    offsets = nz - centre
    # Star: every non-zero offset has at most one non-zero coordinate.
    if all(np.count_nonzero(off) <= 1 for off in offsets):
        return StencilShape.STAR
    # Box: every position within the bounding radius is non-zero.
    if np.count_nonzero(kernel) == kernel.size:
        return StencilShape.BOX
    return StencilShape.GENERAL


def _full_convolve(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Exact full N-D convolution of ``a`` with ``kernel``.

    Every non-zero ``a[i]`` adds ``a[i] * kernel`` at offset ``i`` — direct
    summation, so zero weights stay exactly zero (an FFT convolution leaves
    round-off entries near 1e-17 that inflate the folded stencil's point
    count).
    """
    out = np.zeros(tuple(p + q - 1 for p, q in zip(a.shape, kernel.shape)))
    for index in zip(*np.nonzero(a)):
        window = tuple(slice(i, i + k) for i, k in zip(index, kernel.shape))
        out[window] += a[index] * kernel
    return out


@dataclass(frozen=True)
class StencilSpec:
    """Immutable description of a stencil computation.

    Attributes
    ----------
    name:
        Identifier used by the benchmark library and reports.
    kernel:
        Dense weight array of odd extent along each dimension, centred.
    linear:
        ``True`` when one time step is exactly the weighted sum (no post
        rule).  Only linear stencils can be temporally folded.
    post_rule:
        Optional elementwise nonlinearity applied after the weighted sum.
    aux_name:
        Name of the static auxiliary array consumed by ``post_rule`` (for
        reporting); ``None`` when no auxiliary input exists.
    description:
        One-line human readable description.
    """

    name: str
    kernel: np.ndarray
    linear: bool = True
    post_rule: Optional[PostRule] = None
    aux_name: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        kernel = np.asarray(self.kernel, dtype=np.float64)
        if kernel.ndim < 1 or kernel.ndim > 3:
            raise ValueError("only 1-D, 2-D and 3-D stencils are supported")
        if any(s % 2 == 0 for s in kernel.shape):
            raise ValueError(f"kernel extents must be odd, got {kernel.shape}")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel weights must be finite")
        object.__setattr__(self, "kernel", kernel)
        if not self.linear and self.post_rule is None:
            raise ValueError("non-linear stencils must provide a post_rule")

    # ------------------------------------------------------------------ #
    # basic geometry
    # ------------------------------------------------------------------ #
    @property
    def dims(self) -> int:
        """Number of spatial dimensions."""
        return self.kernel.ndim

    @property
    def radii(self) -> Tuple[int, ...]:
        """Per-dimension radius ``r`` such that the extent is ``2r + 1``."""
        return tuple((s - 1) // 2 for s in self.kernel.shape)

    @property
    def radius(self) -> int:
        """Maximum radius over all dimensions."""
        return max(self.radii)

    @property
    def centre(self) -> Tuple[int, ...]:
        """Index of the centre element inside :attr:`kernel`."""
        return self.radii

    @property
    def shape_class(self) -> StencilShape:
        """Star / box / general classification of the neighbour pattern."""
        return _classify(self.kernel)

    @property
    def npoints(self) -> int:
        """Number of non-zero weights (the 'points' of an n-point stencil)."""
        return int(np.count_nonzero(self.kernel))

    @property
    def foldable(self) -> bool:
        """Whether temporal computation folding applies (linear stencils only)."""
        return self.linear

    def offsets_and_weights(self) -> Dict[Tuple[int, ...], float]:
        """Return a mapping from neighbour offset (relative to centre) to weight.

        Only non-zero weights are included.  Offsets are tuples of length
        :attr:`dims`, e.g. ``(-1, 0)`` for the west neighbour of a 2-D stencil.
        """
        out: Dict[Tuple[int, ...], float] = {}
        centre = np.array(self.centre)
        for idx in np.argwhere(self.kernel != 0.0):
            off = tuple(int(v) for v in (idx - centre))
            out[off] = float(self.kernel[tuple(idx)])
        return out

    # ------------------------------------------------------------------ #
    # flop accounting
    # ------------------------------------------------------------------ #
    @property
    def flops_per_point(self) -> int:
        """Useful floating point operations per grid point per time step.

        Following the convention of the paper (and of the stencil literature
        in general) this counts one multiply per non-zero weight and one add
        per additional term of the weighted sum: ``2 * npoints - 1``.  The
        nonlinearity of APOP / Game of Life is not counted as useful flops,
        matching how GFLOP/s (GStencil/s-equivalent) figures are normally
        reported.
        """
        return 2 * self.npoints - 1

    # ------------------------------------------------------------------ #
    # temporal composition (the folding kernel of Section 3)
    # ------------------------------------------------------------------ #
    def compose(self, m: int) -> "StencilSpec":
        """Return the stencil that advances ``m`` time steps in one update.

        For a linear stencil applying the kernel ``K`` once per step, ``m``
        steps are equivalent to a single application of the m-fold discrete
        self-convolution of ``K``.  The returned spec's kernel is exactly the
        paper's *folding matrix* Λ (its entries are the re-assigned weights
        ``λ`` of Figure 4/5).

        Raises
        ------
        ValueError
            If the stencil is not linear (folding undefined) or ``m < 1``.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        if not self.linear:
            raise ValueError(f"stencil {self.name!r} is non-linear and cannot be folded")
        if m == 1:
            return self
        folded = self.kernel
        for _ in range(m - 1):
            folded = _full_convolve(folded, self.kernel)
        return replace(
            self,
            name=f"{self.name}@m{m}",
            kernel=folded,
            description=f"{m}-step folding of {self.name}",
        )

    # ------------------------------------------------------------------ #
    # convenience constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_offsets(
        name: str,
        offsets: Dict[Tuple[int, ...], float],
        dims: int,
        **kwargs: object,
    ) -> "StencilSpec":
        """Build a spec from an offset→weight mapping.

        Parameters
        ----------
        name:
            Stencil identifier.
        offsets:
            Mapping from relative offsets (tuples of length ``dims``) to
            weights.
        dims:
            Number of spatial dimensions (validates the offset tuples).
        kwargs:
            Forwarded to :class:`StencilSpec` (``linear``, ``post_rule``, ...).
        """
        if not offsets:
            raise ValueError("offsets mapping must not be empty")
        radius = [0] * dims
        for off in offsets:
            if len(off) != dims:
                raise ValueError(f"offset {off} does not have {dims} coordinates")
            for d, o in enumerate(off):
                radius[d] = max(radius[d], abs(int(o)))
        shape = tuple(2 * r + 1 for r in radius)
        kernel = np.zeros(shape, dtype=np.float64)
        centre = np.array(radius)
        for off, w in offsets.items():
            kernel[tuple(centre + np.array(off))] = w
        return StencilSpec(name=name, kernel=kernel, **kwargs)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StencilSpec(name={self.name!r}, dims={self.dims}, "
            f"points={self.npoints}, shape={self.shape_class.value}, "
            f"linear={self.linear})"
        )
