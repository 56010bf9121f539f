"""Lowering: register-level folding schedules → :class:`~repro.ir.ops.ScheduleIR`.

Lowering runs the schedule's own per-block pipeline pieces
(:meth:`~repro.core.vectorized_folding.FoldingSchedule._sweep_1d_block`,
``_sweep_vertical``, ``_sweep_square_horizontal``,
``_sweep_square_store``) once against a
:class:`~repro.ir.recorder.TraceRecorder`, so the IR and the interpreted
sweeps execute the *same* schedule code and cannot drift apart.  The result
is produced once per ``(schedule, isa, dims)`` — recording is symbolic, its
cost is independent of any grid size.

Memory tags
-----------
* 1-D (transpose layout): loads ``("set", delta, j)`` — register ``j`` of the
  vector set ``delta`` sets away; stores ``("set", j)``.
* 2-D / 3-D (square pipeline): loads ``("row", dz, s)`` — the row vector at
  plane offset ``dz`` and row offset ``s`` from the square's origin (``dz``
  is always 0 for 2-D schedules); stores ``("out_row", oi)``; cross-block
  inputs ``("vt", delta, ci, k)`` — transposed column ``k`` of materialised
  counterpart ``ci`` of the square ``delta`` column-blocks away.
"""

from __future__ import annotations

from repro.ir.ops import ScheduleIR
from repro.ir.recorder import TraceRecorder
from repro.simd.isa import IsaSpec

__all__ = ["check_lowerable", "lower_schedule"]


def check_lowerable(schedule, vl: int) -> None:
    """Raise ``ValueError`` unless the register-level schedules can run
    ``schedule`` at ``vl`` lanes: the assembled vector and square
    constructions need a folded radius of at most ``vl``, the same along
    every axis."""
    if schedule.radius > vl:
        raise ValueError(
            f"folded radius {schedule.radius} exceeds the vector length {vl}; "
            "the register-level schedules support radius <= vl"
        )
    radii = schedule.folded.radii
    if len(set(radii)) > 1:
        raise ValueError(
            f"folded radii {radii} differ between axes; "
            "the register-level schedules support one radius along every axis"
        )


def lower_schedule(schedule, isa: IsaSpec) -> ScheduleIR:
    """Lower ``schedule`` for ``isa`` into a typed :class:`ScheduleIR`.

    Parameters
    ----------
    schedule:
        A :class:`~repro.core.vectorized_folding.FoldingSchedule` (1-D, 2-D
        or 3-D).
    isa:
        Target instruction set.

    Raises
    ------
    ValueError
        When :func:`check_lowerable` rejects the schedule.
    """
    vl = isa.vector_lanes
    check_lowerable(schedule, vl)
    rec = TraceRecorder(isa)
    source = f"{schedule.spec.name} m={schedule.m} {isa.name}"

    if schedule.dims == 1:
        rec.begin_segment("prologue", trip="once")
        weight_vecs = schedule._sweep_1d_weight_vectors(rec)
        rec.begin_segment("block", trip="block")
        schedule._sweep_1d_block(
            rec,
            weight_vecs,
            load=lambda delta, j: rec.emit_load(("set", delta, j)),
            store=lambda j, vec: rec.emit_store(("set", j), vec),
        )
        return ScheduleIR(
            isa=isa,
            dims=1,
            m=schedule.m,
            nregs=rec.nregs,
            segments=rec.segments,
            source=source,
        )

    rec.begin_segment("prologue", trip="once")
    weights = schedule._sweep_square_weight_vectors(rec)
    rec.begin_segment("vertical", trip="vertical")
    vt = schedule._sweep_vertical(
        rec, weights, load_row=lambda dz, s: rec.emit_load(("row", dz, s))
    )
    vt_out = tuple(tuple(reg.vid for reg in cols) for cols in vt)
    rec.begin_segment("horizontal", trip="horizontal")
    n_mat = len(vt)

    def stage_inputs(delta: int):
        return [
            [rec.emit_input(("vt", delta, ci, k)) for k in range(vl)]
            for ci in range(n_mat)
        ]

    prev_t, cur_t, next_t = stage_inputs(-1), stage_inputs(0), stage_inputs(+1)
    out_cols = schedule._sweep_square_horizontal(rec, weights, prev_t, cur_t, next_t)
    schedule._sweep_square_store(
        rec, out_cols, store=lambda oi, vec: rec.emit_store(("out_row", oi), vec)
    )
    return ScheduleIR(
        isa=isa,
        dims=schedule.dims,
        m=schedule.m,
        nregs=rec.nregs,
        segments=rec.segments,
        vt_out=vt_out,
        source=source,
    )
