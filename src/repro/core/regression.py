"""Counterpart-reuse planning — the generalisation of Section 3.5.

For stencils whose folding matrix Λ is not separable, the counterpart weight
vectors are not all multiples of a single base, so the single-counterpart
fast path of Section 3.3 does not apply.  The paper generalises by modelling
each further counterpart as a *linear regression* over the counterparts that
are already available:

``c_n = ω_{n-1} c_{n-1} + … + ω_1 c_1 + b_n``            (Equation 7)

and searching for the parameters ω (and bias ``b_n``, a direct contribution
of the original square ``s_o``) that minimise the total collect ``|C(E_Λ)|``
(Equations 8–9), subject to producing the exact result.

This module implements that search exactly: candidate subsets of previously
computed counterparts are fitted by least squares (the "machine learning
algorithm" of the paper, which for a linear model with a handful of unknowns
has a closed-form solution); a fit whose residual is numerically zero is an
exact reuse, otherwise the residual becomes the bias ``b_n`` and is charged
as direct grid references.  For the paper's 2-step 9-point box example the
plan reproduces ``ω₂ = (2)`` and ``ω₃ = (0, 3)``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

_REL_TOL = 1e-9

#: Memoized plans keyed by the folding-matrix content and search settings.
#: Every ``FoldingSchedule(spec, m)`` maps to one folding matrix, so this is
#: effectively a per-``(spec, m)`` cache: repeated plan compiles (parameter
#: sweeps, studies, batch set-up) stop re-deriving the regression search.
#: Bounded LRU; guarded by a lock so concurrent compiles stay safe.
_PLAN_CACHE: "OrderedDict[Tuple, CounterpartPlan]" = OrderedDict()
_PLAN_CACHE_LOCK = threading.Lock()
_PLAN_CACHE_MAX = 256


def clear_counterpart_cache() -> None:
    """Drop all memoized counterpart plans (test isolation hook), and the
    schedule memo that embeds them
    (:func:`~repro.core.vectorized_folding.clear_schedules`)."""
    from repro.core.vectorized_folding import clear_schedules

    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE.clear()
    clear_schedules()


def counterpart_cache_info() -> Tuple[int, int]:
    """Return ``(entries, capacity)`` of the counterpart-plan cache."""
    with _PLAN_CACHE_LOCK:
        return len(_PLAN_CACHE), _PLAN_CACHE_MAX


@dataclass(frozen=True)
class CounterpartStep:
    """How one unique counterpart is obtained.

    Attributes
    ----------
    index:
        Position of this counterpart in the plan (0-based; the paper's
        ``c_{index+1}``).
    vector:
        The counterpart weight vector (over the folding-matrix rows).
    positions:
        Relative column positions of Λ that use this counterpart.
    mode:
        ``"direct"`` (computed from the grid), ``"scaled"`` (a scalar multiple
        of one previous counterpart, absorbed into the horizontal weights at
        no cost) or ``"combination"`` (a linear combination of previous
        counterparts, possibly with a bias of direct grid references).
    omega:
        Coefficients over previous counterparts, keyed by their plan index
        (empty for ``"direct"``).
    bias:
        Residual weight vector applied directly to the grid (the paper's
        ``b_n``); all zeros when the reuse is exact.
    cost:
        Collect contribution of obtaining this counterpart once per grid
        column.
    """

    index: int
    vector: np.ndarray
    positions: Tuple[int, ...]
    mode: str
    omega: Dict[int, float]
    bias: np.ndarray
    cost: int


@dataclass(frozen=True)
class CounterpartPlan:
    """Complete counterpart evaluation plan for one folding matrix.

    Attributes
    ----------
    steps:
        One :class:`CounterpartStep` per unique counterpart, in evaluation
        order.
    horizontal_cost:
        Operations of the horizontal folding phase (one per non-zero column
        position, minus one because the first term needs no accumulation).
    total_collect:
        The minimised ``|C(E_Λ)|``: vertical costs plus horizontal cost.
    """

    steps: Tuple[CounterpartStep, ...]
    horizontal_cost: int
    total_collect: int

    def reconstruct_matrix(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Rebuild the folding matrix from the plan (used by validation tests).

        Every counterpart's weight vector is re-derived from its ω
        coefficients and bias, then scattered back to the column positions it
        serves; the result must equal the original Λ exactly (up to FP
        round-off), proving the plan computes the right thing.
        """
        vectors: List[np.ndarray] = []
        for step in self.steps:
            if step.mode == "direct":
                vec = step.vector.copy()
            else:
                vec = step.bias.copy()
                for j, w in step.omega.items():
                    vec = vec + w * vectors[j]
            vectors.append(vec)
        rows = self.steps[0].vector.shape[0]
        cols = int(np.prod(shape)) // rows if rows else 0
        matrix = np.zeros((rows, cols), dtype=np.float64)
        for step, vec in zip(self.steps, vectors):
            for pos in step.positions:
                matrix[:, pos] = vec
        return matrix.reshape(shape)


def _kept(vector: np.ndarray) -> np.ndarray:
    """Where the fold sums a weight: ``|w| > DBL_EPSILON`` (``ndimage``'s footprint)."""
    return np.abs(vector) > np.finfo(np.float64).eps


def _unique_columns(matrix: np.ndarray, rtol: float) -> List[Tuple[np.ndarray, List[int]]]:
    """Group equal (non-zero) columns of ``matrix`` preserving first-seen order."""
    if matrix.ndim == 1:
        flat = matrix.reshape(1, -1)
    else:
        flat = matrix.reshape(-1, matrix.shape[-1])
    groups: List[Tuple[np.ndarray, List[int]]] = []
    for pos in range(flat.shape[1]):
        vec = flat[:, pos]
        if not np.any(vec):
            continue
        scale = float(np.max(np.abs(vec)))
        for gvec, positions in groups:
            if np.allclose(gvec, vec, rtol=0.0, atol=rtol * scale):
                positions.append(pos)
                break
        else:
            groups.append((vec.copy(), [pos]))
    return groups


def _fit_combination(
    target: np.ndarray,
    basis: Sequence[np.ndarray],
    subset: Sequence[int],
    rtol: float,
) -> Tuple[Dict[int, float], np.ndarray]:
    """Least-squares fit of ``target`` over ``basis[subset]``; returns (ω, bias)."""
    if not subset:
        return {}, target.copy()
    mat = np.stack([basis[j] for j in subset], axis=1)
    coef, *_ = np.linalg.lstsq(mat, target, rcond=None)
    fitted = mat @ coef
    bias = target - fitted
    scale = float(np.max(np.abs(target))) or 1.0
    bias[np.abs(bias) <= rtol * scale] = 0.0
    # A term is numerically zero when its coefficient is, unless it still
    # contributes more than rtol of a small target.
    omega = {
        j: float(c)
        for j, c in zip(subset, coef)
        if abs(c) > rtol or abs(c) * float(np.max(np.abs(basis[j]))) > rtol * scale
    }
    return omega, bias


def plan_counterparts(
    matrix: np.ndarray,
    rtol: float = _REL_TOL,
    max_terms: int = 3,
) -> CounterpartPlan:
    """Find the cheapest way to obtain every counterpart of ``matrix``.

    Parameters
    ----------
    matrix:
        The folding matrix Λ (1-D, 2-D or higher; leading axes are treated as
        the vertical-fold rows, the last axis as the horizontal positions).
    rtol:
        Relative tolerance for "numerically zero" residuals.
    max_terms:
        Largest number of previous counterparts combined in one reuse step
        (the search is exhaustive over subsets up to this size; folding
        matrices have at most a handful of unique counterparts, so this is
        cheap).

    Returns
    -------
    CounterpartPlan
        Steps ordered so that the widest (most informative) counterpart is
        computed first — mirroring the paper, where ``c₁`` is the base the
        others reuse — plus the resulting minimised collect.  Plans are
        memoized by matrix content (see :func:`clear_counterpart_cache`);
        the returned object and its arrays must be treated as read-only.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    key = (matrix.shape, matrix.tobytes(), float(rtol), int(max_terms))
    with _PLAN_CACHE_LOCK:
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            _PLAN_CACHE.move_to_end(key)
            return cached
    plan = _plan_counterparts_uncached(matrix, rtol, max_terms)
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return plan


def _plan_counterparts_uncached(
    matrix: np.ndarray, rtol: float, max_terms: int
) -> CounterpartPlan:
    groups = _unique_columns(matrix, rtol)
    if not groups:
        raise ValueError("folding matrix has no non-zero column")

    # Order: compute the counterpart with the most taps first (it is the most
    # useful basis vector), then the rest by decreasing support.  Support
    # counts the weights the fold keeps, |w| > DBL_EPSILON: a base whose taps
    # the fold drops would lose them from every multiple of it as well.
    order = sorted(range(len(groups)), key=lambda i: -int(np.count_nonzero(_kept(groups[i][0]))))

    steps: List[CounterpartStep] = []
    computed_vectors: List[np.ndarray] = []
    for plan_index, gidx in enumerate(order):
        vector, positions = groups[gidx]
        direct_cost = int(np.count_nonzero(vector))
        best_mode = "direct"
        best_omega: Dict[int, float] = {}
        best_bias = np.zeros_like(vector)
        best_cost = direct_cost

        if computed_vectors:
            indices = list(range(len(computed_vectors)))
            for size in range(1, min(max_terms, len(indices)) + 1):
                for subset in itertools.combinations(indices, size):
                    omega, bias = _fit_combination(vector, computed_vectors, subset, rtol)
                    if not omega and np.count_nonzero(bias) == np.count_nonzero(vector):
                        continue
                    bias_cost = int(np.count_nonzero(bias))
                    if len(omega) == 1 and bias_cost == 0:
                        # A pure scalar multiple of one previous counterpart is
                        # absorbed into the horizontal weights: zero cost.
                        cost = 0
                        mode = "scaled"
                    else:
                        cost = len(omega) + bias_cost
                        mode = "combination"
                    if cost < best_cost:
                        best_cost = cost
                        best_mode = mode
                        best_omega = omega
                        best_bias = bias
        step = CounterpartStep(
            index=plan_index,
            vector=vector.copy(),
            positions=tuple(positions),
            mode=best_mode,
            omega=best_omega,
            bias=best_bias if best_mode != "direct" else np.zeros_like(vector),
            cost=int(best_cost),
        )
        steps.append(step)
        computed_vectors.append(vector)

    positions_total = sum(len(s.positions) for s in steps)
    horizontal_cost = max(0, positions_total - 1)
    total = int(sum(s.cost for s in steps) + horizontal_cost)
    for step in steps:
        # Cached plans are shared between schedules: freeze the arrays so an
        # accidental in-place edit cannot poison later cache hits.
        step.vector.setflags(write=False)
        step.bias.setflags(write=False)
    return CounterpartPlan(steps=tuple(steps), horizontal_cost=horizontal_cost, total_collect=total)
