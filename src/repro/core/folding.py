"""Temporal computation folding: the folding matrix and its profitability.

Section 3.2 of the paper analyses the scalar arithmetic of updating one grid
point over ``m`` time steps:

* the **naive** expansion recomputes every intermediate-step neighbour: for
  the 9-point box stencil with ``m = 2`` it needs 10 subexpressions of 9
  weighted point references each, a *collect* ``|C(E)| = 90``;
* **folding** replaces the expansion by a single weighted sum over the
  ``(2mr+1)^d`` neighbourhood with re-assigned weights λ — the *folding
  matrix* Λ, which is the m-fold self-convolution of the stencil kernel —
  giving ``|C(E_Λ)| = 25``;
* exploiting the **separability** of Λ (vertical folding + horizontal
  folding, Section 3.3) reduces the collect further to 9, for a profitability
  index ``P(E, E_Λ) = 90 / 9 = 10``.

This module computes those quantities for arbitrary stencils so the paper's
numbers become testable properties rather than prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.counterparts import analyze_counterparts, separate_kernel
from repro.stencils.spec import StencilSpec


def folding_matrix(spec: StencilSpec, m: int) -> np.ndarray:
    """Return the folding matrix Λ for an ``m``-step update of ``spec``.

    Λ is the kernel of :meth:`repro.stencils.spec.StencilSpec.compose`; its
    entries are the re-assigned weights λ of the paper's Figure 4/5.  Raises
    for non-linear stencils, for which folding is undefined.
    """
    return spec.compose(m).kernel


def support_size(kernel: np.ndarray) -> int:
    """Number of non-zero weights of ``kernel``."""
    return int(np.count_nonzero(kernel))


def collect_naive(spec: StencilSpec, m: int) -> int:
    """``|C(E)|``: weighted point references of the naive ``m``-step expansion.

    Updating one point over ``m`` steps naively evaluates one subexpression
    per grid point needed at each intermediate level: the points of
    ``K^{*j}``'s support for level ``j`` (``j = 0`` is the final point
    itself), each subexpression touching every point of the kernel.  Hence

    ``|C(E)| = sum_{j=0}^{m-1} |support(K^{*j})| * npoints``.

    For the 2-step 9-point box this gives ``(1 + 9) * 9 = 90``, the number in
    the paper's Figure 4(a).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not spec.linear:
        raise ValueError("collects are defined for linear stencils only")
    total = 0
    for j in range(m):
        total += support_size(_support_of_power(spec, j)) * spec.npoints
    return total


def _support_of_power(spec: StencilSpec, j: int) -> np.ndarray:
    """Kernel of ``j`` self-compositions (``j = 0`` → the identity kernel)."""
    if j == 0:
        ident = np.zeros_like(spec.kernel)
        ident[spec.centre] = 1.0
        return ident
    return spec.compose(j).kernel


def collect_folded(spec: StencilSpec, m: int) -> int:
    """``|C(E_Λ)|`` of plain folding: the support size of the folding matrix.

    25 for the 2-step 9-point box (Figure 4(b)).
    """
    return support_size(folding_matrix(spec, m))


def collect_separable(spec: StencilSpec, m: int) -> Optional[int]:
    """``|C(E_Λ)|`` when Λ separates into per-dimension factors, else ``None``.

    A separable Λ of factor lengths ``(w_1, …, w_d)`` is evaluated as ``d``
    nested foldings (vertical folding, then horizontal folding after the
    register transpose, Section 3.3); each output point then references
    ``w_1`` points in the first folding and one already-folded value per
    remaining factor position, for a collect of ``sum(w_i) - (d - 1)``.
    For the 2-step 9-point box: ``5 + 5 - 1 = 9``, the paper's number.
    """
    matrix = folding_matrix(spec, m)
    factors = separate_kernel(matrix)
    if factors is None:
        return None
    lengths = [support_size(f.reshape(-1)) for f in factors]
    return int(sum(lengths) - (len(lengths) - 1))


def collect_best(spec: StencilSpec, m: int) -> int:
    """The smallest collect achievable by the paper's techniques for ``spec``.

    The separable fast path when Λ separates, otherwise the counterpart-reuse
    plan of :mod:`repro.core.regression` (computed via
    :func:`repro.core.counterparts.analyze_counterparts`).
    """
    sep = collect_separable(spec, m)
    if sep is not None:
        return sep
    analysis = analyze_counterparts(folding_matrix(spec, m))
    return analysis.collect_with_reuse


@dataclass(frozen=True)
class ProfitabilityReport:
    """Summary of the folding profitability analysis for one stencil.

    Attributes
    ----------
    stencil:
        Stencil name.
    m:
        Unrolling factor (number of folded time steps).
    collect_naive:
        ``|C(E)|`` of the naive expansion.
    collect_folded:
        ``|C(E_Λ)|`` of plain folding (support of Λ).
    collect_optimized:
        The best collect achieved (separable fast path or counterpart reuse).
    separable:
        Whether Λ separates into per-dimension factors.
    profitability_folded:
        ``collect_naive / collect_folded`` (3.6 for the paper's example).
    profitability_optimized:
        ``collect_naive / collect_optimized`` (10 for the paper's example).
    """

    stencil: str
    m: int
    collect_naive: int
    collect_folded: int
    collect_optimized: int
    separable: bool
    profitability_folded: float
    profitability_optimized: float

    def is_profitable(self, threshold: float = 1.0) -> bool:
        """Equation 3: folding is profitable when P ≥ ``threshold`` (θ ≥ 1)."""
        return self.profitability_optimized >= threshold


def arithmetically_profitable(spec: StencilSpec, m: int) -> bool:
    """Whether folding beats simply executing ``m`` single steps in registers.

    The paper's profitability index (Equation 3) compares the folded collect
    against the *naive expansion* that recomputes every intermediate
    neighbour.  A production implementation has a cheaper alternative
    available: keep the data in registers and apply the single-step kernel
    ``m`` times, which costs ``m · npoints`` references per point.  Folding
    only reduces arithmetic when its optimised collect stays below that —
    true for box stencils (9 ≤ 18 for the 2-step 9-point box), false for
    sparse star stencils whose folded support grows faster than their point
    count.  Only the cost model reads it: when it is false,
    :func:`~repro.methods.profile_folded` prices the folded method as
    :func:`~repro.methods.profile_transpose` with its loads and stores
    divided by ``m``.  Every engine still executes the folded schedule.
    """
    if not spec.linear:
        return False
    if m < 2:
        return False
    return collect_best(spec, m) <= m * spec.npoints


def profitability(spec: StencilSpec, m: int, optimized: bool = True) -> float:
    """Profitability index ``P(E, E_Λ)`` of Equation 3.

    Parameters
    ----------
    spec:
        Linear stencil.
    m:
        Unrolling factor.
    optimized:
        Use the best available evaluation scheme for the denominator
        (separable folding / counterpart reuse) instead of plain folding.
    """
    naive = collect_naive(spec, m)
    denom = collect_best(spec, m) if optimized else collect_folded(spec, m)
    return naive / denom


def analyze_folding(spec: StencilSpec, m: int) -> ProfitabilityReport:
    """Produce the full profitability report of Section 3.2 for ``spec``."""
    naive = collect_naive(spec, m)
    folded = collect_folded(spec, m)
    matrix = folding_matrix(spec, m)
    sep = collect_separable(spec, m)
    best = sep if sep is not None else analyze_counterparts(matrix).collect_with_reuse
    return ProfitabilityReport(
        stencil=spec.name,
        m=m,
        collect_naive=naive,
        collect_folded=folded,
        collect_optimized=int(best),
        separable=sep is not None,
        profitability_folded=naive / folded,
        profitability_optimized=naive / best,
    )
