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
  - :meth:`FoldingSchedule.simd_sweep_2d` — the register-level schedule for
    2-D stencils in the original layout (load rows → vertical folding →
    register transpose → horizontal folding → weighted transpose → store,
    Figure 5), with shifts reuse between horizontally adjacent squares,
  - :meth:`FoldingSchedule.simd_sweep_3d` — the same square pipeline applied
    plane by plane to 3-D stencils: the vertical phase folds across the full
    leading (plane, row) neighbourhood of each ``vl × vl`` square, the
    horizontal phase and the weighted transpose are shared with the 2-D
    sweep unchanged.

* an analytic per-point instruction profile used by the performance model.

All SIMD sweeps are built from per-block pipeline pieces
(:meth:`FoldingSchedule._sweep_1d_block`,
:meth:`FoldingSchedule._sweep_2d_vertical`,
:meth:`FoldingSchedule._sweep_3d_vertical`,
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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

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
    """

    vector: np.ndarray
    mode: str
    omega: Dict[int, float]
    bias: np.ndarray


#: ``ndimage.correlate`` drops weights with ``|w| <= DBL_EPSILON`` from its footprint.
_DBL_EPSILON = float(np.finfo(np.float64).eps)

# Counterpart modes of FoldTables.cp (the CP_* enum of fold_kernel.c).
_CP_DIRECT, _CP_COMBINATION, _CP_COMBINATION_BIAS = 0, 1, 2


@dataclass(frozen=True)
class FoldTables:
    """One folded update as the flat tables ``fold_kernel.c`` executes.

    Attributes
    ----------
    cp:
        ``(ncp, 5)`` int64, per materialised counterpart: mode (direct,
        combination, combination with bias), then the ``[lo, hi)`` ranges of
        its taps (the direct weights or the bias) and of its reuse terms.
        Empty for 1-D stencils, which have no vertical phase.
    tap_off, tap_w:
        ``(ntaps, 2)`` (plane, row) offsets and the weights of the vertical
        taps, in C order over the leading offsets, ``|w| <= DBL_EPSILON``
        dropped.
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


@dataclass
class SquareWeights:
    """Broadcast weight registers of the 2-D square pipeline (the prologue).

    Attributes
    ----------
    row:
        Per materialised counterpart, the broadcast vertical-fold weights.
    bias:
        Per materialised counterpart, the broadcast bias weights (``None``
        when the counterpart has no bias).
    omega:
        Per materialised counterpart, broadcast reuse coefficients keyed by
        the materialised index they apply to.
    horiz:
        Per relative innermost position, ``(materialised index, broadcast
        weight)`` or ``None`` for unused positions.
    """

    row: List[List]
    bias: List[Optional[List]]
    omega: List[Dict[int, object]]
    horiz: List[Optional[Tuple[int, object]]]


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
        self.plan: CounterpartPlan = plan_counterparts(self.matrix)
        self._build_materialization()

    # ------------------------------------------------------------------ #
    # counterpart materialisation
    # ------------------------------------------------------------------ #
    def _build_materialization(self) -> None:
        """Derive materialised counterparts and the per-position horizontal map."""
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
            materialized.append(
                MaterializedCounterpart(
                    vector=step.vector.copy(),
                    mode=step.mode,
                    omega=omega_materialized,
                    bias=step.bias.copy(),
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
        ``|w| > DBL_EPSILON`` in C order; a combination adds its reuse terms
        to zero in ``omega`` order, then its bias correlation; the
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
            if cp.mode == "direct":
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

    def _pack_fold_tables(self) -> FoldTables:
        leading = self.matrix.shape[:-1]
        centre = [(k - 1) // 2 for k in leading]

        def footprint(weights) -> List[Tuple[int, int, float]]:
            """(plane, row) offsets and weights ndimage keeps, in C order."""
            kept = []
            for flat, w in enumerate(np.asarray(weights, dtype=np.float64).ravel()):
                if abs(w) > _DBL_EPSILON:
                    index = np.unravel_index(flat, leading)
                    dz, dy = ([0] + [int(i) - c for i, c in zip(index, centre)])[-2:]
                    kept.append((dz, dy, float(w)))
            return kept

        cp_rows: List[Tuple[int, ...]] = []
        taps: List[Tuple[int, int, float]] = []
        omegas: List[Tuple[int, float]] = []
        # A 1-D fold has no vertical phase: it is one correlation of the input.
        for cp in self.materialized if self.dims > 1 else ():
            tap_lo, omega_lo = len(taps), len(omegas)
            if cp.mode == "direct":
                mode = _CP_DIRECT
                taps.extend(footprint(cp.vector))
            else:
                mode = _CP_COMBINATION_BIAS if np.any(cp.bias) else _CP_COMBINATION
                omegas.extend(cp.omega.items())
                if mode == _CP_COMBINATION_BIAS:
                    taps.extend(footprint(cp.bias))
            cp_rows.append((mode, tap_lo, len(taps), omega_lo, len(omegas)))

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
            cp=np.array(cp_rows, dtype=np.int64).reshape(-1, 5),
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
    def simd_sweep_1d(
        self,
        machine: SimdMachine,
        values_t: np.ndarray,
        out_t: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One folded update of a 1-D grid stored in the transpose layout.

        Parameters
        ----------
        machine:
            The simulated SIMD machine (its ``vl`` defines the layout block).
        values_t:
            1-D array already in transpose layout (see
            :mod:`repro.layout.transpose_layout`); its length must be a
            multiple of ``vl²`` and the boundary is periodic.
        out_t:
            Optional output array (also in transpose layout); a new array is
            allocated when omitted.

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
        if out_t is None:
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

    def _sweep_1d_weight_vectors(self, machine: SimdMachine) -> List:
        """Broadcast the folded kernel weights (the 1-D sweep prologue)."""
        return [machine.broadcast(float(w)) for w in self.matrix]

    def _sweep_1d_block(self, machine: SimdMachine, weight_vecs: Sequence, load, store) -> None:
        """Update one vector set given abstract memory operations.

        ``load(delta, j)`` must return register ``j`` of the vector set at
        ``delta`` ∈ {-1, 0, +1} sets from the current one; ``store(j, vec)``
        must store register ``j`` of the result set.  The interpreted sweep
        binds these to real machine loads/stores; the trace recorder binds
        them to tagged virtual registers.
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
        machine.note_live_registers(len(cols) + len(weight_vecs) + 1)
        for j in range(vl):
            window = cols[j : j + 2 * radius + 1]
            acc = machine.mul(window[0], weight_vecs[0])
            for t in range(1, len(window)):
                acc = machine.fma(window[t], weight_vecs[t], acc)
            store(j, acc)

    # ------------------------------------------------------------------ #
    # simulated SIMD execution: 2-D (Figure 5 squares)
    # ------------------------------------------------------------------ #
    def simd_sweep_2d(
        self,
        machine: SimdMachine,
        values: np.ndarray,
        out: Optional[np.ndarray] = None,
        transpose_back: bool = True,
    ) -> np.ndarray:
        """One folded update of a 2-D grid via the Figure 5 square pipeline.

        The grid stays in the original row-major layout; each ``vl × vl``
        square is processed as: load its rows (plus ``2R`` halo rows) →
        vertical folding into the materialised counterparts → register
        transpose → horizontal folding using the transposed counterparts of
        the previous / current / next square (shifts reuse) → transpose back →
        store.  Boundaries are periodic and both extents must be multiples of
        ``vl``.

        Parameters
        ----------
        machine:
            Simulated SIMD machine.
        values:
            2-D ``float64`` grid.
        out:
            Optional output grid.
        transpose_back:
            Store results in the original row orientation (the default).  The
            paper's "weighted transpose is optional" alternative — storing the
            transposed orientation and letting the next sweep consume it — is
            modelled by passing ``False`` (used by the ablation benchmarks).
        """
        if self.dims != 2:
            raise ValueError("simd_sweep_2d applies to 2-D stencils only")
        vl = machine.vl
        rows, cols = values.shape
        if rows % vl != 0 or cols % vl != 0:
            raise ValueError(f"grid shape {values.shape} must be a multiple of vl={vl}")
        radius = self.radius
        if radius > vl:
            raise ValueError("folded radius must not exceed the vector length")
        if out is None:
            out = np.empty_like(values)

        n_row_blocks = rows // vl
        n_col_blocks = cols // vl
        weights = self._sweep_square_weight_vectors(machine)

        def vertical_and_transpose(block_row: int, block_col: int) -> List[List]:
            base_row = block_row * vl
            col0 = block_col * vl

            def load_row(s: int):
                return machine.load(values[(base_row + s) % rows], col0)

            return self._sweep_2d_vertical(machine, weights, load_row)

        for br in range(n_row_blocks):
            prev_t = vertical_and_transpose(br, n_col_blocks - 1)
            cur_t = vertical_and_transpose(br, 0)
            for bc in range(n_col_blocks):
                next_t = vertical_and_transpose(br, (bc + 1) % n_col_blocks)
                out_cols = self._sweep_square_horizontal(machine, weights, prev_t, cur_t, next_t)
                base_row = br * vl
                col0 = bc * vl

                def store(oi: int, vec, _base_row: int = base_row, _col0: int = col0) -> None:
                    machine.store(vec, out[_base_row + oi], _col0)

                self._sweep_square_store(machine, out_cols, store, transpose_back)
                prev_t, cur_t = cur_t, next_t
        if not transpose_back:
            # The caller receives logically-transposed vl×vl tiles; undo them
            # here (outside the instruction accounting) so the numerical
            # result is comparable — a real implementation alternates layouts
            # between time steps instead.
            out = _untranspose_tiles(out, vl)
        return out

    def _sweep_square_weight_vectors(self, machine: SimdMachine) -> "SquareWeights":
        """Broadcast all weight vectors of the square pipeline (the prologue).

        Shared by the 2-D and 3-D sweeps: a counterpart's ``vector``/``bias``
        run over the flattened leading offsets (kernel rows in 2-D,
        (plane, row) pairs in 3-D), so the broadcasts are dimension-generic.
        """
        return SquareWeights(
            row=[[machine.broadcast(float(w)) for w in cp.vector] for cp in self.materialized],
            bias=[
                [machine.broadcast(float(w)) for w in cp.bias] if np.any(cp.bias) else None
                for cp in self.materialized
            ],
            omega=[
                {idx: machine.broadcast(float(w)) for idx, w in cp.omega.items()}
                for cp in self.materialized
            ],
            horiz=[
                None if entry is None else (entry[0], machine.broadcast(float(entry[1])))
                for entry in self.position_map
            ],
        )

    def _sweep_2d_vertical(
        self, machine: SimdMachine, weights: "SquareWeights", load_row
    ) -> List[List]:
        """Vertical folds of one square, transposed, per materialised counterpart.

        ``load_row(s)`` must return the row vector at offset ``s`` ∈
        ``[-R, vl + R)`` from the square's top row (wrapping periodically).
        """
        vl = machine.vl
        radius = self.radius
        loaded = [load_row(s) for s in range(-radius, vl + radius)]
        machine.note_live_registers(len(loaded) + vl + len(self.materialized) * vl)
        per_rows: List[List] = []
        per_cp: List[List] = []
        for ci, cp in enumerate(self.materialized):
            folded_rows = []
            for oi in range(vl):
                if cp.mode == "direct":
                    window = loaded[oi : oi + 2 * radius + 1]
                    acc = machine.mul(window[0], weights.row[ci][0])
                    for t in range(1, len(window)):
                        acc = machine.fma(window[t], weights.row[ci][t], acc)
                else:
                    # Counterpart reuse is a relation between *fields*, so the
                    # reused operands must keep the row orientation the bias
                    # terms (and the final transpose) expect.
                    acc = None
                    for idx, wvec in weights.omega[ci].items():
                        term = machine.mul(per_rows[idx][oi], wvec)
                        acc = term if acc is None else machine.add(acc, term)
                    if weights.bias[ci] is not None:
                        window = loaded[oi : oi + 2 * radius + 1]
                        for t in range(len(window)):
                            if float(cp.bias[t]) != 0.0:
                                if acc is None:
                                    acc = machine.mul(window[t], weights.bias[ci][t])
                                else:
                                    acc = machine.fma(window[t], weights.bias[ci][t], acc)
                    if acc is None:
                        acc = machine.broadcast(0.0)
                folded_rows.append(acc)
            per_rows.append(folded_rows)
            per_cp.append(register_transpose(machine, folded_rows))
        return per_cp

    def _leading_use_mask(self) -> np.ndarray:
        """Boolean mask over the leading offsets any materialised fold reads.

        Shaped like the folded kernel's leading extents
        (``matrix.shape[:-1]``).  Direct counterparts read the rows their
        weight vector is non-zero on; combination counterparts only touch the
        grid through their bias (the rest comes from counterpart reuse).
        """
        used = np.zeros(int(np.prod(self.matrix.shape[:-1])), dtype=bool)
        for cp in self.materialized:
            src = cp.vector if cp.mode == "direct" else cp.bias
            used |= np.asarray(src) != 0.0
        return used.reshape(self.matrix.shape[:-1])

    def _sweep_3d_vertical(
        self, machine: SimdMachine, weights: "SquareWeights", load_row
    ) -> List[List]:
        """Vertical folds of one 3-D square, transposed, per counterpart.

        The vertical phase of a 3-D square folds over the full leading
        (plane, row) neighbourhood: ``load_row(dz, s)`` must return the row
        vector at plane offset ``dz`` ∈ ``[-R, R]`` and row offset ``s`` ∈
        ``[-R, vl + R)`` from the square's (plane, top-row) origin, wrapping
        periodically.  Only the contiguous per-plane row spans some
        materialised counterpart (or bias) actually reads are loaded.
        """
        vl = machine.vl
        k0, k1 = self.matrix.shape[0], self.matrix.shape[1]
        r0, r1 = (k0 - 1) // 2, (k1 - 1) // 2
        used = self._leading_use_mask()
        loaded: List[List] = [[None] * (vl + 2 * r1) for _ in range(k0)]
        n_loads = 0
        for dz in range(k0):
            ts = np.flatnonzero(used[dz])
            if ts.size == 0:
                continue
            for s in range(int(ts[0]), int(ts[-1]) + vl):
                loaded[dz][s] = load_row(dz - r0, s - r1)
                n_loads += 1
        machine.note_live_registers(n_loads + vl + len(self.materialized) * vl)
        per_rows: List[List] = []
        per_cp: List[List] = []
        for ci, cp in enumerate(self.materialized):
            vec = np.asarray(cp.vector).reshape(k0, k1)
            bias = np.asarray(cp.bias).reshape(k0, k1)
            folded_rows = []
            for oi in range(vl):
                acc = None
                if cp.mode == "direct":
                    for dz in range(k0):
                        for t in range(k1):
                            if float(vec[dz, t]) == 0.0:
                                continue
                            wvec = weights.row[ci][dz * k1 + t]
                            src = loaded[dz][oi + t]
                            acc = (
                                machine.mul(src, wvec)
                                if acc is None
                                else machine.fma(src, wvec, acc)
                            )
                else:
                    for idx, wvec in weights.omega[ci].items():
                        term = machine.mul(per_rows[idx][oi], wvec)
                        acc = term if acc is None else machine.add(acc, term)
                    if weights.bias[ci] is not None:
                        for dz in range(k0):
                            for t in range(k1):
                                if float(bias[dz, t]) == 0.0:
                                    continue
                                wvec = weights.bias[ci][dz * k1 + t]
                                src = loaded[dz][oi + t]
                                acc = (
                                    machine.mul(src, wvec)
                                    if acc is None
                                    else machine.fma(src, wvec, acc)
                                )
                if acc is None:
                    acc = machine.broadcast(0.0)
                folded_rows.append(acc)
            per_rows.append(folded_rows)
            per_cp.append(register_transpose(machine, folded_rows))
        return per_cp

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
            acc = None
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
                if acc is None:
                    acc = machine.mul(source, wvec)
                else:
                    acc = machine.fma(source, wvec, acc)
            out_cols.append(acc)
        return out_cols

    def _sweep_square_store(
        self, machine: SimdMachine, out_cols: Sequence, store, transpose_back: bool
    ) -> None:
        """Store one square's result via ``store(oi, vec)`` (row ``oi`` of the square)."""
        vl = machine.vl
        if transpose_back:
            out_rows = register_transpose(machine, out_cols)
            for oi in range(vl):
                store(oi, out_rows[oi])
        else:
            for k in range(vl):
                store(k, out_cols[k])

    # ------------------------------------------------------------------ #
    # simulated SIMD execution: 3-D (plane-wise Figure 5 squares)
    # ------------------------------------------------------------------ #
    def simd_sweep_3d(
        self,
        machine: SimdMachine,
        values: np.ndarray,
        out: Optional[np.ndarray] = None,
        transpose_back: bool = True,
    ) -> np.ndarray:
        """One folded update of a 3-D grid via the plane-wise square pipeline.

        The grid stays in the original row-major layout; each ``vl × vl``
        square of each plane is processed exactly like the 2-D Figure 5
        pipeline except that the vertical phase folds over the full leading
        (plane, row) neighbourhood of the square — the extra grid dimension
        is absorbed into the vertical folds, the horizontal folding, shifts
        reuse and the weighted transpose are shared with the 2-D sweep
        unchanged.  Boundaries are periodic; the two innermost extents must
        be multiples of ``vl`` (the plane count is unconstrained).

        Parameters
        ----------
        machine:
            Simulated SIMD machine.
        values:
            3-D ``float64`` grid.
        out:
            Optional output grid.
        transpose_back:
            Store results in the original row orientation (the default), or
            leave each ``vl × vl`` tile transposed (the "weighted transpose
            is optional" ablation, as in :meth:`simd_sweep_2d`).
        """
        if self.dims != 3:
            raise ValueError("simd_sweep_3d applies to 3-D stencils only")
        vl = machine.vl
        planes, rows, cols = values.shape
        if rows % vl != 0 or cols % vl != 0:
            raise ValueError(
                f"grid shape {values.shape} must be a multiple of vl={vl} "
                "along its two innermost extents"
            )
        radius = self.radius
        if radius > vl:
            raise ValueError("folded radius must not exceed the vector length")
        if out is None:
            out = np.empty_like(values)

        n_row_blocks = rows // vl
        n_col_blocks = cols // vl
        weights = self._sweep_square_weight_vectors(machine)

        for z in range(planes):
            for br in range(n_row_blocks):
                base_row = br * vl

                def vertical_and_transpose(
                    block_col: int, _z: int = z, _base_row: int = base_row
                ) -> List[List]:
                    col0 = block_col * vl

                    def load_row(dz: int, s: int):
                        return machine.load(
                            values[(_z + dz) % planes, (_base_row + s) % rows], col0
                        )

                    return self._sweep_3d_vertical(machine, weights, load_row)

                prev_t = vertical_and_transpose(n_col_blocks - 1)
                cur_t = vertical_and_transpose(0)
                for bc in range(n_col_blocks):
                    next_t = vertical_and_transpose((bc + 1) % n_col_blocks)
                    out_cols = self._sweep_square_horizontal(
                        machine, weights, prev_t, cur_t, next_t
                    )
                    col0 = bc * vl

                    def store(
                        oi: int, vec, _z: int = z, _base_row: int = base_row, _col0: int = col0
                    ) -> None:
                        machine.store(vec, out[_z, _base_row + oi], _col0)

                    self._sweep_square_store(machine, out_cols, store, transpose_back)
                    prev_t, cur_t = cur_t, next_t
        if not transpose_back:
            # Undo the per-tile transpose outside the instruction accounting,
            # as in simd_sweep_2d (a real implementation alternates layouts).
            out = _untranspose_plane_tiles(out, vl)
        return out

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
        lane width, or folded radius beyond ``vl``).  ``optimize=True``
        returns the default-pipeline-optimized program (cached separately
        from the raw recording, together with its pass reports).
        """
        lowered = self._lowered_ir(vl, optimize)
        return None if lowered is None else lowered[0]

    def _lowered_ir(self, vl: int, optimize: bool = False):
        """``(ir, pass reports)`` behind :meth:`schedule_ir`; the raw
        recording has no reports."""
        from repro.simd.isa import AVX2, AVX512

        isa = {4: AVX2, 8: AVX512}.get(int(vl))
        if isa is None or self.radius > vl:
            return None
        cache = self.__dict__.setdefault("_ir_cache", {})
        raw, key = (isa.name, False), (isa.name, bool(optimize))
        if raw not in cache:
            from repro.ir.lower import lower_schedule

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
            elif seg.trip == "prime":
                # Software-pipelined form: the priming copy mirrors the
                # vertical stage op-for-op, so it carries exactly the extra
                # ``R/vl`` share the stage form bills on top of the merged
                # segment's one-per-square execution.
                seg_counts = seg_counts.scaled(self.radius / vl)
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
            # Vertical/horizontal square pipeline.  The leading dimensions of
            # a d-dimensional folded kernel contribute rows_per_column row
            # loads and MACs per vertical fold.
            points_per_unit = vl * vl
            if self.dims == 3:
                # Rows loaded per square: the contiguous per-plane (row) spans
                # the materialised folds actually read — exactly what
                # _sweep_3d_vertical loads.
                used = self._leading_use_mask()
                loads = 0.0
                for dz in range(used.shape[0]):
                    ts = np.flatnonzero(used[dz])
                    if ts.size:
                        loads += float(int(ts[-1]) - int(ts[0]) + vl)
                if not shifts_reuse:
                    # Recomputing the neighbour squares' verticals re-loads
                    # the proportional share of their rows.
                    loads *= 1.0 + radius / vl
            else:
                loads = float(vl + 2 * radius)
            stores = float(vl)
            vertical_direct = 0.0
            vertical_reuse = 0.0
            for cp in self.materialized:
                if cp.mode == "direct":
                    vertical_direct += vl * float(np.count_nonzero(cp.vector))
                else:
                    vertical_reuse += vl * (len(cp.omega) + float(np.count_nonzero(cp.bias)))
            transposes = float(n_mat + 1) * transpose_cost(vl)
            horizontal_positions = sum(1 for e in self.position_map if e is not None)
            horizontal = float(vl * horizontal_positions)
            if not shifts_reuse:
                # Without shifts reuse the leading R transposed columns of the
                # square must be recomputed: charge the proportional share of
                # the vertical folds and transposes again.
                extra_frac = radius / vl
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


def _untranspose_tiles(array: np.ndarray, vl: int) -> np.ndarray:
    """Transpose every ``vl × vl`` tile of a 2-D array (helper for ``transpose_back=False``)."""
    rows, cols = array.shape
    # axes: (row block, lane, col block, lane) -> swap the two lane axes.
    tiled = array.reshape(rows // vl, vl, cols // vl, vl).swapaxes(1, 3)
    return np.ascontiguousarray(tiled).reshape(rows, cols)


def _untranspose_plane_tiles(array: np.ndarray, vl: int) -> np.ndarray:
    """Transpose every ``vl × vl`` tile of every plane of a 3-D array."""
    planes, rows, cols = array.shape
    tiled = array.reshape(planes, rows // vl, vl, cols // vl, vl).swapaxes(2, 4)
    return np.ascontiguousarray(tiled).reshape(planes, rows, cols)
