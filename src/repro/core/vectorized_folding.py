"""Vectorised multi-step computation (paper Section 3.3, Figure 5).

A :class:`FoldingSchedule` bundles everything needed to execute an ``m``-step
folded update of a linear stencil:

* the folding matrix Λ (``m``-fold self-convolution of the kernel),
* the counterpart plan — which distinct vertical-fold weight vectors have to
  be materialised, which are reused via the Section 3.5 regression, and which
  horizontal weight each relative position contributes,
* three executors:

  - :meth:`FoldingSchedule.numpy_step` — the fast numeric path: the
    vertical-folding → horizontal-folding structure (including counterpart
    reuse), exact for periodic boundaries; the engine adds the Dirichlet
    boundary-band handling.  It runs the compiled fold kernel of
    :mod:`repro.core.fold_kernel` on the flat tables
    :meth:`FoldingSchedule.fold_tables` packs, which returns the same bits
    as the NumPy body :meth:`FoldingSchedule.numpy_fold`; that body runs
    instead when no kernel can be built or loaded,
  - :meth:`FoldingSchedule.simd_sweep_1d` — the register-level schedule for
    1-D stencils stored in the transpose layout, executed on the simulated
    SIMD machine (vector sets, assembled dependence vectors, Figure 2),
  - :meth:`FoldingSchedule.simd_sweep_squares` — the register-level
    schedule for 2-D and 3-D stencils in the original layout (load rows →
    vertical folding → register transpose → horizontal folding → weighted
    transpose → store, Figure 5), with shifts reuse between horizontally
    adjacent squares.  The vertical phase folds across the leading
    (plane, row) neighbourhood of each ``vl × vl`` square — a
    plane-factored counterpart planes first, then rows — and a 2-D grid is
    one plane of it.

* an analytic per-point instruction profile used by the performance model.

All SIMD sweeps are built from per-block pipeline pieces
(:meth:`FoldingSchedule._sweep_1d_block`,
:meth:`FoldingSchedule._sweep_vertical`,
:meth:`FoldingSchedule._sweep_square_horizontal`, ...) that take the target
machine plus abstract ``load``/``store`` callables.  The interpreted sweeps
bind them to concrete :class:`~repro.simd.machine.SimdMachine` memory
operations; the IR lowering in :mod:`repro.ir` runs the very same
pieces once against a recording proxy to capture the per-block instruction
trace it replays in bulk.  Because both backends execute the same schedule
code, they cannot drift apart.

``m = 1`` degenerates to the paper's Section 2 scheme (no temporal folding,
just the transpose-layout vectorisation), so the same class also serves as
"our method" without time folding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from repro.core.counterparts import separate_kernel
from repro.core.fold_kernel import load_fold_kernel
from repro.core.regression import CounterpartPlan, plan_counterparts
from repro.simd.isa import InstructionClass
from repro.simd.kernels import neighbor_vectors_1d
from repro.simd.machine import InstructionCounts, SimdMachine
from repro.simd.transpose import register_transpose, transpose_cost
from repro.stencils.boundary import BoundaryCondition, DIRICHLET_VALUE
from repro.stencils.spec import StencilSpec


@dataclass(frozen=True)
class MaterializedCounterpart:
    """A counterpart that is actually computed during vertical folding.

    Attributes
    ----------
    vector:
        Weight vector over the leading-dimension offsets (the rows of Λ for a
        2-D stencil, the flattened non-innermost offsets in general).
    mode:
        ``"direct"`` or ``"combination"`` (scaled counterparts are never
        materialised — their scale is absorbed into the horizontal weights).
    omega:
        For ``"combination"``: coefficients over previously *materialised*
        counterparts (indices into the materialised list).
    bias:
        For ``"combination"``: residual weights applied directly to the grid.
    factors:
        For a plane-factored ``"direct"`` counterpart of a 3-D stencil: the
        plane factor ``a`` and the row factor ``b``, with ``vector`` equal to
        ``outer(a, b)`` to rounding.  The vertical phase then folds planes
        first, ``Q[s] = Σ a[dz]·x[z + dz][s]`` for every row ``s`` it reads,
        then rows, ``Σ b[dy]·Q[y + dy]``.  ``None`` otherwise.
    """

    vector: np.ndarray
    mode: str
    omega: Dict[int, float]
    bias: np.ndarray
    factors: Optional[Tuple[np.ndarray, np.ndarray]] = None


#: ``ndimage.correlate`` drops weights with ``|w| <= DBL_EPSILON`` from its footprint.
_DBL_EPSILON = float(np.finfo(np.float64).eps)

# Counterpart modes of FoldTables.cp (the CP_* enum of fold_kernel.c).
_CP_DIRECT, _CP_COMBINATION, _CP_COMBINATION_BIAS, _CP_FACTORED = 0, 1, 2, 3

#: Relations between weights the fold relies on hold to within this fraction
#: of the largest weight, 4 ulps: equal and scaled counterparts, reuse fits,
#: and the ``outer(a, b)`` of a plane-factored counterpart.  Anything looser
#: shows in the folded grid beyond ``reference_run``'s rounding.
_EXACT_RTOL = 4 * _DBL_EPSILON
#: The lane width the factoring decision prices: the narrowest, so that a
#: counterpart that factors pays on every ISA.
_FACTOR_VL = 4


def _plane_factors(weights: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(a, b)`` with ``outer(a, b)`` equal to a 3-D counterpart's
    ``(plane, row)`` weights, or ``None`` unless folding it planes first, then
    rows, is both exact to rounding and cheaper.

    Exact: :func:`~repro.core.counterparts.separate_kernel` reproduces every
    weight to within :data:`_EXACT_RTOL` of the largest.  Cheaper: at
    :data:`_FACTOR_VL` lanes, the ``(vl + span_b)·n_a`` multiply-adds of the
    plane-combined rows plus the ``vl·n_b`` of the row fold are fewer than the
    ``vl·n_ab`` of the unfactored fold (``n`` counts the taps the fold keeps,
    ``span_b`` the rows between the first and last kept row tap).  A wider
    vector only makes the inequality more true.
    """
    factors = separate_kernel(weights, rtol=_EXACT_RTOL)
    if factors is None:
        return None
    a, b = factors
    if _n_kept(a) == 0 or _n_kept(b) == 0:
        return None
    vl = _FACTOR_VL
    if _factored_ops(a, b, vl) >= vl * _n_kept(weights):
        return None
    return a, b


def _n_kept(weights) -> int:
    """How many of ``weights`` the fold sums (``|w| > DBL_EPSILON``)."""
    return int(np.count_nonzero(np.abs(np.asarray(weights)) > _DBL_EPSILON))


def _factored_ops(a: np.ndarray, b: np.ndarray, vl: int) -> int:
    """Multiply-adds of one ``vl × vl`` square's plane-factored vertical
    phase: the plane-combined rows the row fold reads, then the row fold."""
    kept_b = np.flatnonzero(np.abs(b) > _DBL_EPSILON)
    span_b = int(kept_b[-1] - kept_b[0])
    return (vl + span_b) * _n_kept(a) + vl * kept_b.size


@dataclass(frozen=True)
class FoldTables:
    """One folded update as the flat tables ``fold_kernel.c`` executes.

    Attributes
    ----------
    cp:
        ``(ncp, 7)`` int64, per materialised counterpart: mode (direct,
        combination, combination with bias, plane-factored), then the
        ``[lo, hi)`` ranges of its taps (the direct weights, the bias or the
        row factor), of its reuse terms and of its plane-factor taps.
        Empty for 1-D stencils, which have no vertical phase.
    tap_off, tap_w:
        ``(ntaps, 2)`` (plane, row) offsets and the weights of the vertical
        taps, in C order over the leading offsets, ``|w| <= DBL_EPSILON``
        dropped.  A plane-factored counterpart's taps are its plane factor's
        ``(dz, 0)`` then its row factor's ``(0, dy)``; the row taps read the
        plane-combined rows.
    omega_src, omega_w:
        Reuse terms: the earlier counterpart read and its coefficient.
    pos, pos_w:
        ``(npos, 2)`` horizontal positions in order: source counterpart
        (``-1`` for the input row of a 1-D stencil) and column offset, with
        their weights.
    """

    cp: np.ndarray
    tap_off: np.ndarray
    tap_w: np.ndarray
    omega_src: np.ndarray
    omega_w: np.ndarray
    pos: np.ndarray
    pos_w: np.ndarray

    def __post_init__(self):
        _freeze(self)

    @cached_property
    def args(self) -> Tuple[int, ...]:
        """``repro_fold_update``'s arguments from ``ncp`` on: the counts and
        the tables' addresses, read once (:func:`_freeze`)."""
        return (
            len(self.cp),
            self.cp.ctypes.data,
            self.tap_off.ctypes.data,
            self.tap_w.ctypes.data,
            self.omega_src.ctypes.data,
            self.omega_w.ctypes.data,
            len(self.pos),
            self.pos.ctypes.data,
            self.pos_w.ctypes.data,
        )


@dataclass(frozen=True)
class StepTables:
    """One reference step of the schedule's stencil as the flat table
    ``fold_kernel.c``'s reference step and band recompute execute.

    Attributes
    ----------
    off:
        ``(ntaps, 3)`` int64 (plane, row, column) offsets of the kernel's
        taps, in C order, with the weights ``|w| <= DBL_EPSILON`` dropped
        (``ndimage.correlate``'s footprint); 1-D and 2-D stencils have zero
        leading offsets.
    w:
        The taps' weights.
    """

    off: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        _freeze(self)

    @cached_property
    def args(self) -> Tuple[int, ...]:
        """The reference step's and the band's ``ntaps``, ``off`` and ``w``
        arguments, read once (:func:`_freeze`)."""
        return len(self.w), self.off.ctypes.data, self.w.ctypes.data


def _freeze(tables) -> None:
    """Make the arrays of ``tables`` read-only: they are packed once per
    schedule and never written.  ``tables.args`` holds their addresses,
    valid as long as ``tables`` lives."""
    for field in fields(tables):
        getattr(tables, field.name).setflags(write=False)


@dataclass
class SquareWeights:
    """Broadcast weight registers of the square pipeline (the prologue).

    Attributes
    ----------
    zero:
        The ``+0.0`` register the output chains start from, and the value of
        a counterpart without taps.
    row:
        Per materialised counterpart, the broadcast vertical-fold weights
        (of a plane-factored counterpart: its row factor), ``None`` for a
        tap the fold drops (``|w| <= DBL_EPSILON``).
    plane:
        Per materialised counterpart, the broadcast plane factor of a
        plane-factored one (``None`` for a dropped tap), ``None`` for the
        others.
    bias:
        Per materialised counterpart, the broadcast bias weights (``None``
        for a dropped tap, and instead of the list when the counterpart has
        no bias).
    omega:
        Per materialised counterpart, broadcast reuse coefficients keyed by
        the materialised index they apply to.
    horiz:
        Per relative innermost position, ``(materialised index, broadcast
        weight)`` or ``None`` for unused positions.
    """

    zero: object
    row: List[List]
    plane: List[Optional[List]]
    bias: List[Optional[List]]
    omega: List[Dict[int, object]]
    horiz: List[Optional[Tuple[int, object]]]


def _broadcaster(machine: SimdMachine):
    """``(zero, bcast)``: the ``+0.0`` register the output chains start from,
    and ``bcast(w)``, a broadcast of ``w`` on ``machine`` that hands out
    ``zero`` for ``+0.0`` instead of broadcasting it again.

    Other equal weights are broadcast once per use, as the schedule names
    them; merging those is the ``cse`` pass's job.
    """
    zero = machine.broadcast(0.0)

    def bcast(w: float):
        w = float(w)
        if w == 0.0 and math.copysign(1.0, w) > 0:
            return zero
        return machine.broadcast(w)

    return zero, bcast


def _kept(w: float) -> bool:
    """Whether the fold sums a tap of weight ``w`` (``ndimage.correlate``'s
    footprint rule, which :meth:`FoldingSchedule.fold_tables` encodes)."""
    return abs(float(w)) > _DBL_EPSILON


def _taps(rows: Sequence, wvecs: Sequence) -> List[Tuple[object, object]]:
    """``(row, weight register)`` of the taps a fold keeps (``wvecs`` holds
    ``None`` for the dropped ones)."""
    return [(row, w) for row, w in zip(rows, wvecs) if w is not None]


def _loaded_rows(used: np.ndarray, vl: int) -> List[Tuple[int, int]]:
    """``(plane, row)`` indices into ``used`` (a ``(planes, rows)`` mask of
    the leading offsets some fold reads) of the rows one ``vl × vl`` square
    loads, in load order: per plane, the contiguous span from the first
    offset read to ``vl - 1`` rows past the last."""
    return [
        (dz, s)
        for dz, ts in enumerate(map(np.flatnonzero, used))
        if ts.size
        for s in range(int(ts[0]), int(ts[-1]) + vl)
    ]


def _chain(machine: SimdMachine, terms: Sequence[Tuple[object, object]], start=None):
    """``((start + w0·x0) + w1·x1) + ...`` over ``terms`` of ``(x, w)``
    registers, ``(w0·x0 + w1·x1) + ...`` without ``start``; ``None`` when
    there is neither.

    This is the fold's order of summation: the simulated ``fma`` rounds the
    product and the sum separately, like the fold's ``acc + w·x``.  The fold
    starts every sum from ``+0.0``; without that start only the sign of a
    zero sum can differ (``-0.0`` when every product is ``-0.0``), which
    never changes a non-zero value computed from it.  So the chains that
    produce a sweep's outputs start from the ``+0.0`` register and the
    intermediate ones need not.
    """
    acc = start
    for x, w in terms:
        acc = machine.mul(x, w) if acc is None else machine.fma(x, w, acc)
    return acc


class FoldingSchedule:
    """Executable plan for an ``m``-step folded update of a linear stencil.

    Parameters
    ----------
    spec:
        The (linear) stencil to fold.
    m:
        Unrolling factor — number of time steps advanced per update.
    """

    def __init__(self, spec: StencilSpec, m: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if not spec.linear:
            raise ValueError(f"stencil {spec.name!r} is non-linear; folding is undefined")
        self.spec = spec
        self.m = m
        self.folded = spec.compose(m)
        self.matrix = self.folded.kernel
        self.dims = self.matrix.ndim
        self.radius = self.folded.radius
        self.width = 2 * self.radius + 1
        self.plan: CounterpartPlan = plan_counterparts(self.matrix, rtol=_EXACT_RTOL)
        self._build_materialization()

    # ------------------------------------------------------------------ #
    # counterpart materialisation
    # ------------------------------------------------------------------ #
    def _build_materialization(self) -> None:
        """Derive materialised counterparts and the per-position horizontal map.

        A direct counterpart of a 3-D stencil is plane-factored when
        :func:`_plane_factors` finds factors for it: a decision of the
        stencil and ``m`` alone, which every engine follows.
        """
        steps = self.plan.steps
        # plan-step index -> (materialised index, scale) once resolved.
        resolved: Dict[int, Tuple[int, float]] = {}
        materialized: List[MaterializedCounterpart] = []

        for step in steps:
            if step.mode == "scaled":
                # Exactly one omega entry referencing a previous plan step.
                ((ref_plan_idx, scale),) = step.omega.items()
                base_idx, base_scale = resolved[ref_plan_idx]
                resolved[step.index] = (base_idx, scale * base_scale)
                continue
            omega_materialized: Dict[int, float] = {}
            if step.mode == "combination":
                for ref_plan_idx, w in step.omega.items():
                    base_idx, base_scale = resolved[ref_plan_idx]
                    omega_materialized[base_idx] = (
                        omega_materialized.get(base_idx, 0.0) + w * base_scale
                    )
            factors = None
            if self.dims == 3 and step.mode == "direct":
                factors = _plane_factors(step.vector.reshape(self.matrix.shape[:2]))
            materialized.append(
                MaterializedCounterpart(
                    vector=step.vector.copy(),
                    mode=step.mode,
                    omega=omega_materialized,
                    bias=step.bias.copy(),
                    factors=factors,
                )
            )
            resolved[step.index] = (len(materialized) - 1, 1.0)

        # Horizontal map: for every relative innermost position, which
        # materialised counterpart feeds it and with what weight.
        if self.dims > 1:
            flat = self.matrix.reshape(-1, self.matrix.shape[-1])
        else:
            flat = self.matrix.reshape(1, -1)
        position_map: List[Optional[Tuple[int, float]]] = [None] * flat.shape[1]
        for step in steps:
            mat_idx, scale = resolved[step.index]
            for pos in step.positions:
                position_map[pos] = (mat_idx, scale)
        self.materialized: Tuple[MaterializedCounterpart, ...] = tuple(materialized)
        self.position_map: Tuple[Optional[Tuple[int, float]], ...] = tuple(position_map)

    @property
    def num_materialized(self) -> int:
        """Number of counterparts that are actually computed per column."""
        return len(self.materialized)

    @property
    def separable_fast_path(self) -> bool:
        """True when a single materialised counterpart suffices (Section 3.3)."""
        return self.num_materialized == 1

    def describe_vertical_phase(self) -> Optional[str]:
        """How a 3-D sweep's vertical phase folds each materialised
        counterpart, in taps per output row (``None`` below 3-D):
        ``plane-factored vertical phase (5 + 5 taps per row instead of 25)``
        for 3d27p at ``m = 2``, ``vertical phases of 5, 1 (plane, row) taps
        per row`` for 3d-heat at ``m = 1``."""
        if self.dims != 3:
            return None
        if [cp.factors is not None for cp in self.materialized] == [True]:
            (cp,) = self.materialized
            a, b = cp.factors
            return (
                f"plane-factored vertical phase ({_n_kept(a)} + {_n_kept(b)} taps per row "
                f"instead of {_n_kept(cp.vector)})"
            )
        phrases = []
        for cp in self.materialized:
            if cp.factors is not None:
                a, b = cp.factors
                phrases.append(f"{_n_kept(a)} + {_n_kept(b)} plane-factored")
            elif cp.mode == "direct":
                phrases.append(f"{_n_kept(cp.vector)}")
            else:
                phrases.append(f"{len(cp.omega)} reuse + {_n_kept(cp.bias)} bias")
        plural = "s" if len(phrases) > 1 else ""
        return f"vertical phase{plural} of {', '.join(phrases)} (plane, row) taps per row"

    # ------------------------------------------------------------------ #
    # NumPy execution path
    # ------------------------------------------------------------------ #
    def _leading_kernel(self, vector: np.ndarray) -> np.ndarray:
        """Reshape a counterpart vector to a kernel over the leading dimensions.

        The returned kernel has the folded matrix's leading extents and a
        trailing extent of 1, so it can be fed to ``ndimage.correlate`` to
        perform the vertical folding over every grid column at once.
        """
        if self.dims == 1:
            return vector.reshape(1)
        leading_shape = self.matrix.shape[:-1]
        return vector.reshape(leading_shape + (1,))

    def numpy_step(self, values: np.ndarray, boundary: BoundaryCondition) -> np.ndarray:
        """Advance ``values`` by ``m`` time steps via vertical+horizontal folding.

        For periodic boundaries the result is exactly ``m`` applications of
        the single-step reference; for Dirichlet boundaries interior points at
        distance ``>= (m-1)·r`` from the boundary are exact and the engine
        recomputes the remaining band (see
        the folded executor in :mod:`repro.core.plan`).

        The update runs on the compiled fold kernel
        (:mod:`repro.core.fold_kernel`) fed with :meth:`fold_tables`, which
        returns the same bits as :meth:`numpy_fold`; the NumPy body runs
        when the process has no kernel (no C compiler, or a failed build or
        load).
        """
        values = self._grid_values(values)
        kernel = load_fold_kernel()
        if kernel is None:
            return self.numpy_fold(values, boundary)
        return kernel(self.fold_tables(), values, boundary)

    def _grid_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != self.dims:
            raise ValueError(
                f"grid has {values.ndim} dimensions, folded stencil has {self.dims}"
            )
        return values

    def numpy_fold(self, values: np.ndarray, boundary: BoundaryCondition) -> np.ndarray:
        """:meth:`numpy_step` in NumPy and ``scipy.ndimage``.

        The path of processes without a compiled fold kernel, and the
        reference the kernel is tested against bit for bit.  Its operation
        order is the contract :meth:`fold_tables` encodes: every
        ``ndimage.correlate`` sums ``0 + w·x`` over the kernel's weights with
        ``|w| > DBL_EPSILON`` in C order; a plane-factored counterpart is two
        correlations, its plane factor's across planes, then its row
        factor's across the result's rows; a combination adds its reuse
        terms to zero in ``omega`` order, then its bias correlation; the
        horizontal fold adds ``w·V[j + Δ]`` to zero in position order.
        """
        values = self._grid_values(values)
        mode = boundary.ndimage_mode

        if self.dims == 1:
            # 1-D: the "vertical" direction does not exist; the update is a
            # plain correlation with the folded kernel.
            return ndimage.correlate(values, self.matrix, mode=mode, cval=DIRICHLET_VALUE)

        # Vertical folding: one correlation per materialised counterpart
        # (combinations reuse previous results plus a sparse bias).
        vertical: List[np.ndarray] = []
        for cp in self.materialized:
            if cp.factors is not None:
                a, b = cp.factors
                planes = ndimage.correlate(
                    values, a.reshape(-1, 1, 1), mode=mode, cval=DIRICHLET_VALUE
                )
                vf = ndimage.correlate(planes, b.reshape(1, -1, 1), mode=mode, cval=DIRICHLET_VALUE)
            elif cp.mode == "direct":
                vf = ndimage.correlate(
                    values, self._leading_kernel(cp.vector), mode=mode, cval=DIRICHLET_VALUE
                )
            else:
                vf = np.zeros_like(values)
                for idx, w in cp.omega.items():
                    vf = vf + w * vertical[idx]
                if np.any(cp.bias):
                    vf = vf + ndimage.correlate(
                        values, self._leading_kernel(cp.bias), mode=mode, cval=DIRICHLET_VALUE
                    )
            vertical.append(vf)

        # Horizontal folding: shift each counterpart field along the innermost
        # axis and accumulate with the per-position weights.
        out = np.zeros_like(values)
        radius_last = (self.matrix.shape[-1] - 1) // 2
        axis = self.dims - 1
        for pos, entry in enumerate(self.position_map):
            if entry is None:
                continue
            mat_idx, weight = entry
            offset = pos - radius_last
            shifted = _shift_along_axis(vertical[mat_idx], offset, axis, boundary)
            out += weight * shifted
        return out

    def fold_tables(self) -> FoldTables:
        """:meth:`numpy_fold`'s operations as flat tables for the fold kernel.

        Packed on first use and cached on the schedule.
        """
        tables = getattr(self, "_fold_tables", None)
        if tables is None:
            tables = self._pack_fold_tables()
            self._fold_tables = tables
        return tables

    def step_tables(self) -> StepTables:
        """One :func:`~repro.stencils.reference.reference_step` of
        :attr:`spec` as the tap table of the fold kernel's reference step.

        Packed on first use and cached on the schedule.
        """
        tables = getattr(self, "_step_tables", None)
        if tables is None:
            kept = [
                (index, w) for index, w in np.ndenumerate(self.spec.kernel) if abs(w) > _DBL_EPSILON
            ]
            off = np.zeros((len(kept), 3), dtype=np.int64)
            if kept:
                off[:, 3 - self.dims :] = np.array([i for i, _ in kept]) - self.spec.centre
            tables = StepTables(off=off, w=np.array([w for _, w in kept], dtype=np.float64))
            self._step_tables = tables
        return tables

    def _pack_fold_tables(self) -> FoldTables:
        leading = self.matrix.shape[:-1]

        def footprint(weights, shape=leading) -> List[Tuple[int, int, float]]:
            """(plane, row) offsets and weights ndimage keeps, in C order."""
            kept = []
            for flat, w in enumerate(np.asarray(weights, dtype=np.float64).ravel()):
                if abs(w) > _DBL_EPSILON:
                    index = np.unravel_index(flat, shape)
                    dz, dy = ([0] + [int(i) - (k - 1) // 2 for i, k in zip(index, shape)])[-2:]
                    kept.append((dz, dy, float(w)))
            return kept

        cp_rows: List[Tuple[int, ...]] = []
        taps: List[Tuple[int, int, float]] = []
        omegas: List[Tuple[int, float]] = []
        # A 1-D fold has no vertical phase: it is one correlation of the input.
        for cp in self.materialized if self.dims > 1 else ():
            plane_lo = len(taps)
            if cp.factors is not None:
                a, b = cp.factors
                taps.extend(footprint(a, (len(a), 1)))
            tap_lo, omega_lo = len(taps), len(omegas)
            if cp.factors is not None:
                mode = _CP_FACTORED
                taps.extend(footprint(b, (1, len(b))))
            elif cp.mode == "direct":
                mode = _CP_DIRECT
                taps.extend(footprint(cp.vector))
            else:
                mode = _CP_COMBINATION_BIAS if np.any(cp.bias) else _CP_COMBINATION
                omegas.extend(cp.omega.items())
                if mode == _CP_COMBINATION_BIAS:
                    taps.extend(footprint(cp.bias))
            cp_rows.append((mode, tap_lo, len(taps), omega_lo, len(omegas), plane_lo, tap_lo))

        if self.dims == 1:
            # Source -1 is the input row, summed over the correlation's footprint.
            radius = (self.matrix.shape[0] - 1) // 2
            positions = [
                (-1, pos - radius, float(w))
                for pos, w in enumerate(self.matrix)
                if abs(w) > _DBL_EPSILON
            ]
        else:
            radius = (self.matrix.shape[-1] - 1) // 2
            positions = [
                (entry[0], pos - radius, float(entry[1]))
                for pos, entry in enumerate(self.position_map)
                if entry is not None
            ]
        return FoldTables(
            cp=np.array(cp_rows, dtype=np.int64).reshape(-1, 7),
            tap_off=np.array([t[:2] for t in taps], dtype=np.int64).reshape(-1, 2),
            tap_w=np.array([t[2] for t in taps], dtype=np.float64),
            omega_src=np.array([o[0] for o in omegas], dtype=np.int64),
            omega_w=np.array([o[1] for o in omegas], dtype=np.float64),
            pos=np.array([p[:2] for p in positions], dtype=np.int64).reshape(-1, 2),
            pos_w=np.array([p[2] for p in positions], dtype=np.float64),
        )

    # ------------------------------------------------------------------ #
    # simulated SIMD execution: 1-D (transpose layout)
    # ------------------------------------------------------------------ #
    def simd_sweep_1d(self, machine: SimdMachine, values_t: np.ndarray) -> np.ndarray:
        """One folded update of a 1-D grid stored in the transpose layout.

        Parameters
        ----------
        machine:
            The simulated SIMD machine (its ``vl`` defines the layout block).
        values_t:
            1-D array already in transpose layout (see
            :mod:`repro.layout.transpose_layout`); its length must be a
            multiple of ``vl²`` and the boundary is periodic.

        Returns
        -------
        numpy.ndarray
            The updated grid, still in transpose layout.
        """
        if self.dims != 1:
            raise ValueError("simd_sweep_1d applies to 1-D stencils only")
        vl = machine.vl
        n = values_t.size
        block = vl * vl
        if n % block != 0:
            raise ValueError(f"array length {n} must be a multiple of vl²={block}")
        radius = self.radius
        if radius > vl:
            raise ValueError(
                f"folded radius {radius} exceeds the vector length {vl}; "
                "the assembled-vector construction supports radius <= vl"
            )
        out_t = np.empty_like(values_t)
        nsets = n // block
        weight_vecs = self._sweep_1d_weight_vectors(machine)

        for s in range(nsets):
            base = s * block

            def load(delta: int, j: int, _s: int = s):
                return machine.load(values_t, ((_s + delta) % nsets) * block + j * vl)

            def store(j: int, vec, _base: int = base) -> None:
                machine.store(vec, out_t, _base + j * vl)

            self._sweep_1d_block(machine, weight_vecs, load, store)
        return out_t

    def _sweep_1d_weight_vectors(self, machine: SimdMachine) -> Tuple[object, List]:
        """Broadcast the folded kernel weights (the 1-D sweep prologue).

        Returns ``(zero, taps)``: the ``+0.0`` register and, per tap the fold
        sums, ``(tap index, broadcast weight)``.
        """
        zero, bcast = _broadcaster(machine)
        return zero, [(t, bcast(w)) for t, w in enumerate(self.matrix) if _kept(w)]

    def _sweep_1d_block(self, machine: SimdMachine, weight_vecs: Tuple, load, store) -> None:
        """Update one vector set given abstract memory operations.

        ``load(delta, j)`` must return register ``j`` of the vector set at
        ``delta`` ∈ {-1, 0, +1} sets from the current one; ``store(j, vec)``
        must store register ``j`` of the result set.  The interpreted sweep
        binds these to real machine loads/stores; the trace recorder binds
        them to tagged virtual registers.  Each output sums ``0 + w·x`` over
        the taps in order, which is :meth:`numpy_fold`'s correlation.
        """
        vl = machine.vl
        radius = self.radius

        def load_partial(delta: int, needed: Sequence[int]):
            """Load only the registers of a neighbouring set that assembly uses."""
            out_regs: List = [None] * vl
            for j in needed:
                out_regs[j] = load(delta, j)
            return out_regs

        prev_needed = sorted({(vl - k) % vl for k in range(1, radius + 1)})
        next_needed = sorted({k - 1 for k in range(1, radius + 1)})
        current = [load(0, j) for j in range(vl)]
        previous = load_partial(-1, prev_needed)
        nxt = load_partial(+1, next_needed)
        cols = neighbor_vectors_1d(machine, current, previous, nxt, radius)
        machine.note_live_registers(len(cols) + self.width + 1)
        zero, taps = weight_vecs
        for j in range(vl):
            store(j, _chain(machine, [(cols[j + t], wvec) for t, wvec in taps], start=zero))

    # ------------------------------------------------------------------ #
    # simulated SIMD execution: 2-D and 3-D (Figure 5 squares)
    # ------------------------------------------------------------------ #
    def simd_sweep_squares(self, machine: SimdMachine, values: np.ndarray) -> np.ndarray:
        """One folded update of a 2-D or 3-D grid via the Figure 5 square pipeline.

        The grid stays in the original row-major layout; each ``vl × vl``
        square of each plane is processed as: load its rows (plus the halo
        rows its folds read) → vertical folding into the materialised
        counterparts → register transpose → horizontal folding using the
        transposed counterparts of the previous / current / next square
        (shifts reuse) → transpose back → store.  The vertical phase folds
        over the square's leading (plane, row) neighbourhood, which is how
        Section 3.3 absorbs the extra grid dimension; a 2-D grid is one
        plane, viewed as ``(1, rows, cols)``.  Boundaries are periodic; the
        two innermost extents must be multiples of ``vl`` (the plane count
        is unconstrained).

        Parameters
        ----------
        machine:
            Simulated SIMD machine.
        values:
            2-D or 3-D ``float64`` grid, as many dimensions as the stencil.
        """
        if self.dims == 1:
            raise ValueError("simd_sweep_squares applies to 2-D and 3-D stencils only")
        values = self._grid_values(values)
        vl = machine.vl
        if values.shape[-2] % vl != 0 or values.shape[-1] % vl != 0:
            raise ValueError(
                f"grid shape {values.shape} must be a multiple of vl={vl} "
                "along its two innermost extents"
            )
        if self.radius > vl:
            raise ValueError("folded radius must not exceed the vector length")
        grid = values.reshape((-1,) + values.shape[-2:])
        out = np.empty_like(grid)
        planes, rows, cols = grid.shape
        n_col_blocks = cols // vl
        weights = self._sweep_square_weight_vectors(machine)

        for z in range(planes):
            for br in range(rows // vl):
                base_row = br * vl

                def vertical_and_transpose(
                    block_col: int, _z: int = z, _base_row: int = base_row
                ) -> List[List]:
                    col0 = block_col * vl

                    def load_row(dz: int, s: int):
                        return machine.load(grid[(_z + dz) % planes, (_base_row + s) % rows], col0)

                    return self._sweep_vertical(machine, weights, load_row)

                prev_t = vertical_and_transpose(n_col_blocks - 1)
                cur_t = vertical_and_transpose(0)
                for bc in range(n_col_blocks):
                    next_t = vertical_and_transpose((bc + 1) % n_col_blocks)
                    out_cols = self._sweep_square_horizontal(
                        machine, weights, prev_t, cur_t, next_t
                    )

                    def store(
                        oi: int, vec, _z: int = z, _base_row: int = base_row, _col0: int = bc * vl
                    ) -> None:
                        machine.store(vec, out[_z, _base_row + oi], _col0)

                    self._sweep_square_store(machine, out_cols, store)
                    prev_t, cur_t = cur_t, next_t
        return out.reshape(values.shape)

    def _sweep_square_weight_vectors(self, machine: SimdMachine) -> "SquareWeights":
        """Broadcast all weight vectors of the square pipeline (the prologue).

        A counterpart's ``vector``/``bias`` run over the flattened leading
        (plane, row) offsets, so the broadcasts are dimension-generic.  A
        plane-factored counterpart broadcasts its two factors instead of its
        weights.
        """
        zero, bcast = _broadcaster(machine)

        def taps(weights) -> List:
            return [bcast(w) if _kept(w) else None for w in weights]

        return SquareWeights(
            zero=zero,
            row=[
                taps(cp.vector if cp.factors is None else cp.factors[1]) for cp in self.materialized
            ],
            plane=[None if cp.factors is None else taps(cp.factors[0]) for cp in self.materialized],
            bias=[taps(cp.bias) if np.any(cp.bias) else None for cp in self.materialized],
            omega=[{idx: bcast(w) for idx, w in cp.omega.items()} for cp in self.materialized],
            horiz=[
                None if entry is None else (entry[0], bcast(entry[1]))
                for entry in self.position_map
            ],
        )

    def _square_vertical_folds(
        self, machine: SimdMachine, weights: "SquareWeights", window
    ) -> List[List]:
        """Every materialised counterpart's fold of one square, transposed.

        ``window(ci, oi)`` lists the rows output row ``oi`` of counterpart
        ``ci`` reads, aligned with its weights in ``weights.row``: loaded
        rows, or a plane-factored counterpart's plane-combined rows.  Each
        sum follows :meth:`numpy_fold` (see :func:`_chain`): a direct
        counterpart sums ``w·x`` over the taps it keeps; a combination sums
        its reuse terms, then adds its bias, summed on its own.
        """
        per_rows: List[List] = []
        per_cp: List[List] = []
        for ci, cp in enumerate(self.materialized):
            folded_rows = []
            for oi in range(machine.vl):
                rows = window(ci, oi)
                if cp.mode == "direct":
                    acc = _chain(machine, _taps(rows, weights.row[ci]))
                else:
                    # Counterpart reuse is a relation between *fields*, so the
                    # reused operands must keep the row orientation the bias
                    # terms (and the final transpose) expect.
                    acc = None
                    for idx, wvec in weights.omega[ci].items():
                        term = machine.mul(per_rows[idx][oi], wvec)
                        acc = term if acc is None else machine.add(acc, term)
                    bias = _chain(machine, _taps(rows, weights.bias[ci] or ()))
                    if bias is not None:
                        acc = bias if acc is None else machine.add(acc, bias)
                folded_rows.append(weights.zero if acc is None else acc)
            per_rows.append(folded_rows)
            per_cp.append(register_transpose(machine, folded_rows))
        return per_cp

    def _leading_use_mask(self) -> np.ndarray:
        """Boolean ``(planes, rows)`` mask over the leading offsets any
        materialised fold reads, a 2-D kernel being one plane.

        Direct counterparts read the rows their weight vector is non-zero
        on, plane-factored ones the rows of the planes and row offsets their
        factors keep; combination counterparts only touch the grid through
        their bias (the rest comes from counterpart reuse).
        """
        used = np.zeros(int(np.prod(self.matrix.shape[:-1])), dtype=bool)
        for cp in self.materialized:
            if cp.factors is not None:
                a, b = cp.factors
                used |= np.outer(np.abs(a) > _DBL_EPSILON, np.abs(b) > _DBL_EPSILON).ravel()
                continue
            src = cp.vector if cp.mode == "direct" else cp.bias
            used |= np.abs(np.asarray(src, dtype=np.float64)) > _DBL_EPSILON
        return used.reshape(-1, self.matrix.shape[-2])

    def _sweep_vertical(
        self, machine: SimdMachine, weights: "SquareWeights", load_row
    ) -> List[List]:
        """Vertical folds of one square, transposed, per materialised counterpart.

        The vertical phase folds over the square's leading (plane, row)
        neighbourhood: ``load_row(dz, s)`` must return the row vector at
        plane offset ``dz`` ∈ ``[-R, R]`` (always ``0`` in 2-D) and row
        offset ``s`` ∈ ``[-R, vl + R)`` from the square's (plane, top-row)
        origin, wrapping periodically.  Only the contiguous per-plane row
        spans some materialised counterpart (or bias) actually reads are
        loaded (:func:`_loaded_rows`).

        A plane-factored counterpart folds planes first: every loaded row
        ``s`` its row factor reads gets one plane-combined row
        ``Q[s] = Σ a[dz]·x[dz][s]``, and output row ``oi`` sums
        ``b[dy]·Q[oi + dy]``.  Every other counterpart sums all its
        (plane, row) taps per output row.
        """
        vl = machine.vl
        used = self._leading_use_mask()
        k0, k1 = used.shape
        r0, r1 = (k0 - 1) // 2, (k1 - 1) // 2
        loaded: List[List] = [[None] * (vl + 2 * r1) for _ in range(k0)]
        row_loads = _loaded_rows(used, vl)
        for dz, s in row_loads:
            loaded[dz][s] = load_row(dz - r0, s - r1)
        combined: Dict[int, List] = {}
        for ci, plane_w in enumerate(weights.plane):
            if plane_w is None:
                continue
            ts = [t for t, w in enumerate(weights.row[ci]) if w is not None]
            combined[ci] = [None] * (vl + 2 * r1)
            for s in range(ts[0], ts[-1] + vl):
                column = [loaded[dz][s] for dz in range(k0)]
                combined[ci][s] = _chain(machine, _taps(column, plane_w))
        n_combined = sum(row is not None for rows in combined.values() for row in rows)
        machine.note_live_registers(len(row_loads) + n_combined + vl + len(self.materialized) * vl)

        def window(ci: int, oi: int) -> List:
            if ci in combined:
                return combined[ci][oi : oi + k1]
            return [loaded[dz][oi + t] for dz in range(k0) for t in range(k1)]

        return self._square_vertical_folds(machine, weights, window)

    def _sweep_square_horizontal(
        self,
        machine: SimdMachine,
        weights: "SquareWeights",
        prev_t: List[List],
        cur_t: List[List],
        next_t: List[List],
    ) -> List:
        """Horizontal folding of one square (shifts reuse over three squares).

        Output column ``k`` uses transposed columns ``k - R .. k + R`` drawn
        from the previous / current / next squares' transposed counterparts.
        """
        vl = machine.vl
        radius = self.radius
        out_cols = []
        for k in range(vl):
            terms = []
            for pos, entry in enumerate(weights.horiz):
                if entry is None:
                    continue
                mat_idx, wvec = entry
                col = k + (pos - radius)
                if col < 0:
                    source = prev_t[mat_idx][vl + col]
                elif col >= vl:
                    source = next_t[mat_idx][col - vl]
                else:
                    source = cur_t[mat_idx][col]
                terms.append((source, wvec))
            out_cols.append(_chain(machine, terms, start=weights.zero))
        return out_cols

    def _sweep_square_store(self, machine: SimdMachine, out_cols: Sequence, store) -> None:
        """Transpose one square's result columns back to rows (the weighted
        transpose) and store row ``oi`` via ``store(oi, vec)``."""
        for oi, row in enumerate(register_transpose(machine, out_cols)):
            store(oi, row)

    # ------------------------------------------------------------------ #
    # analytic instruction profile
    # ------------------------------------------------------------------ #
    def instruction_profile(self, vl: int, shifts_reuse: bool = True) -> InstructionCounts:
        """Per-grid-point, per-*logical*-time-step instruction counts.

        The counts describe the steady-state inner loop of the register-level
        schedule (1-D stencils use the vector-set formulation, 2-D/3-D
        stencils the ``vl × vl`` square pipeline).  They are divided by
        ``vl² · m`` so the cost model can multiply by the number of points and
        time steps directly.

        Whenever the schedule can be lowered (``radius <= vl`` on a known
        ISA), the profile is derived from the typed IR after the default
        optimizing pass pipeline ran — the very ops
        ``simulate(..., optimize=True)`` replays and tallies — so the cost
        model's "estimated" counts and the trace backend's "simulated"
        counts come from one source and cannot drift apart.  (The pipeline's
        spill-aware re-scheduler matters here: the recorded program's
        conservative liveness would charge spills a well-scheduled kernel
        never pays.)  Schedules the register-level constructions cannot
        express (folded radius beyond the vector length) fall back to the
        closed-form model.

        Parameters
        ----------
        vl:
            Vector length of the target ISA (4 → AVX-2, 8 → AVX-512).
        shifts_reuse:
            Whether the trailing transposed counterparts of the previous
            square are reused (Section 3.4); disabling it charges the
            proportional share of the vertical phase again, which is what
            the ablation benchmark measures.
        """
        ir = self.schedule_ir(vl, optimize=True)
        if ir is not None:
            return self._ir_instruction_profile(ir, shifts_reuse)
        return self._analytic_instruction_profile(vl, shifts_reuse)

    def schedule_ir(self, vl: int, optimize: bool = False):
        """The schedule's cached :class:`~repro.ir.ops.ScheduleIR` for a lane width.

        This is the canonical per-schedule lowering cache — the instruction
        profile reads it and both compiled engines share it, so the
        recording runs once per (schedule, ISA).  Returns ``None`` when the
        register-level constructions cannot express the schedule (unknown
        lane width, or :func:`~repro.ir.lower.check_lowerable` rejects it:
        a folded radius beyond ``vl`` or radii that differ between axes).
        ``optimize=True``
        returns the default-pipeline-optimized program (cached separately
        from the raw recording, together with its pass reports).
        """
        lowered = self._lowered_ir(vl, optimize)
        return None if lowered is None else lowered[0]

    def _lowered_ir(self, vl: int, optimize: bool = False):
        """``(ir, pass reports)`` behind :meth:`schedule_ir`; the raw
        recording has no reports."""
        from repro.ir.lower import check_lowerable, lower_schedule
        from repro.simd.isa import AVX2, AVX512

        isa = {4: AVX2, 8: AVX512}.get(int(vl))
        if isa is None:
            return None
        try:
            check_lowerable(self, vl)
        except ValueError:
            return None
        cache = self.__dict__.setdefault("_ir_cache", {})
        raw, key = (isa.name, False), (isa.name, bool(optimize))
        if raw not in cache:
            cache[raw] = (lower_schedule(self, isa), ())
        if key not in cache:
            from repro.ir.passes import PassManager

            cache[key] = PassManager(True).run(cache[raw][0])
        return cache[key]

    def _ir_instruction_profile(self, ir, shifts_reuse: bool) -> InstructionCounts:
        """Steady-state per-point counts derived from the lowered IR.

        With shifts reuse this is exactly
        :meth:`~repro.ir.ops.ScheduleIR.steady_counts_per_point`.  Without
        it, every square recomputes the ``R`` leading transposed columns its
        successor would otherwise hand over, so the whole vertical phase
        (folds, transposes, row loads and its share of spill traffic) is
        charged again proportionally (``1 + R/vl``).
        """
        if shifts_reuse or self.dims == 1:
            return ir.steady_counts_per_point()
        vl = ir.vl
        counts = InstructionCounts()
        for seg in ir.segments:
            if seg.trip == "once":
                continue
            seg_counts = seg.counts()
            if seg.trip == "vertical":
                seg_counts = seg_counts.scaled(1.0 + self.radius / vl)
            counts = counts.merge(seg_counts)
        return counts.scaled(1.0 / (vl * vl * self.m))

    def _analytic_instruction_profile(
        self, vl: int, shifts_reuse: bool = True
    ) -> InstructionCounts:
        """Closed-form fallback profile for schedules the IR cannot express."""
        counts = InstructionCounts()
        radius = self.radius
        width = self.width
        n_mat = self.num_materialized

        if self.dims == 1:
            points_per_unit = vl * vl  # one vector set
            loads = float(vl)
            stores = float(vl)
            assembled = 2.0 * min(radius, vl)
            permutes = assembled  # one rotate per assembled vector
            blends = assembled  # one blend per assembled vector
            fma = float(vl * (width - 1))
            mul = float(vl)
            counts.add(InstructionClass.LOAD, loads)
            counts.add(InstructionClass.STORE, stores)
            counts.add(InstructionClass.PERMUTE, permutes)
            counts.add(InstructionClass.BLEND, blends)
            counts.add(InstructionClass.FMA, fma)
            counts.add(InstructionClass.ARITH, mul)
        else:
            # Vertical/horizontal square pipeline.  Rows loaded per square:
            # the contiguous per-plane row spans the materialised folds
            # actually read, exactly what _sweep_vertical loads.
            points_per_unit = vl * vl
            loads = float(len(_loaded_rows(self._leading_use_mask(), vl)))
            stores = float(vl)
            vertical_direct = 0.0
            vertical_reuse = 0.0
            for cp in self.materialized:
                if cp.factors is not None:
                    vertical_direct += float(_factored_ops(*cp.factors, vl))
                elif cp.mode == "direct":
                    vertical_direct += vl * float(np.count_nonzero(cp.vector))
                else:
                    vertical_reuse += vl * (len(cp.omega) + float(np.count_nonzero(cp.bias)))
            transposes = float(n_mat + 1) * transpose_cost(vl)
            horizontal_positions = sum(1 for e in self.position_map if e is not None)
            horizontal = float(vl * horizontal_positions)
            if not shifts_reuse:
                # Without shifts reuse the leading R transposed columns of the
                # square must be recomputed: charge the proportional share of
                # the vertical phase's row loads, folds and transposes again.
                extra_frac = radius / vl
                loads *= 1.0 + extra_frac
                vertical_direct *= 1.0 + extra_frac
                vertical_reuse *= 1.0 + extra_frac
                transposes *= 1.0 + extra_frac
            counts.add(InstructionClass.LOAD, loads)
            counts.add(InstructionClass.STORE, stores)
            counts.add(InstructionClass.FMA, vertical_direct + vertical_reuse + horizontal)
            counts.add(InstructionClass.PERMUTE, transposes * 0.5)
            counts.add(InstructionClass.SHUFFLE, transposes * 0.5)

        per_point = 1.0 / (points_per_unit * self.m)
        return counts.scaled(per_point)


def _shift_along_axis(
    array: np.ndarray, offset: int, axis: int, boundary: BoundaryCondition
) -> np.ndarray:
    """Return ``array`` sampled at ``index + offset`` along ``axis``.

    Periodic boundaries wrap; Dirichlet boundaries read the constant halo
    value for out-of-range positions.
    """
    if offset == 0:
        return array
    if boundary is BoundaryCondition.PERIODIC:
        return np.roll(array, -offset, axis=axis)
    out = np.full_like(array, DIRICHLET_VALUE)
    n = array.shape[axis]
    if abs(offset) >= n:
        # Every sample lies outside the grid.
        return out
    src = [slice(None)] * array.ndim
    dst = [slice(None)] * array.ndim
    if offset > 0:
        src[axis] = slice(offset, n)
        dst[axis] = slice(0, n - offset)
    else:
        src[axis] = slice(0, n + offset)
        dst[axis] = slice(-offset, n)
    out[tuple(dst)] = array[tuple(src)]
    return out
