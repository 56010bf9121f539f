"""The paper's vectorization methods, registered with the method registry.

The experiments compare five vectorization methods (plus tiling framework
combinations built on top of them):

=================  ==========================================================
key                description
=================  ==========================================================
``multiple_loads`` one unaligned load per stencil point (compiler fallback)
``data_reorg``     aligned loads + in-register shifts (compiler reorg)
``dlt``            dimension-lifted transpose (Henretty et al.)
``transpose``      the paper's transpose layout, single-step updates
``folded``         transpose layout + m-step temporal computation folding
=================  ==========================================================

Each method is described by a :class:`~repro.registry.MethodDescriptor` in
the pluggable registry (:mod:`repro.registry`); the baselines register
themselves in their own modules, and this module registers the paper's
``transpose`` and ``folded`` methods.  :func:`build_profile` dispatches
through the registry — there is no string ``if/elif`` — and
:data:`METHOD_KEYS` / :data:`METHOD_LABELS` are derived from it in the order
the paper's figures list the methods.
"""

from __future__ import annotations

from typing import Dict

# Importing the baseline modules registers their method descriptors.
from repro.baselines.data_reorg import profile_data_reorg  # noqa: F401
from repro.baselines.dlt import profile_dlt  # noqa: F401
from repro.baselines.multiple_loads import profile_multiple_loads  # noqa: F401
from repro.baselines.sdsl import profile_sdsl  # noqa: F401
from repro.baselines.common import (
    kernel_rows,
    post_rule_counts,
    streamed_arrays,
    weighted_sum_counts,
)
from repro.perfmodel.flops import useful_flops_per_point
from repro.perfmodel.profiles import MethodProfile
from repro.registry import (
    MethodDescriptor,
    get_method,
    method_labels,
    method_keys as _registry_method_keys,
    register,
    register_method,
)
from repro.simd.isa import InstructionClass, isa_for
from repro.simd.machine import InstructionCounts
from repro.stencils.spec import StencilSpec


@register_method(
    "transpose",
    label="Our",
    figure_order=3,
    supports_simulation=True,
    description="transpose layout, single-step vector-set updates",
)
def profile_transpose(spec: StencilSpec, isa: str = "avx2") -> MethodProfile:
    """Profile of the paper's transpose-layout vectorization (no folding).

    1-D stencils use the vector-set formulation (assembled dependence
    vectors, Figure 2); multi-dimensional stencils apply the layout along the
    innermost dimension, so each kernel row needs ``2·r`` assembled vectors
    per vector set instead of per output vector — the factor-``vl/2``
    reduction in data-organisation instructions over the data-reorganisation
    baseline.
    """
    isa_spec = isa_for(isa)
    vl = isa_spec.vector_lanes
    counts = InstructionCounts()
    rows = kernel_rows(spec)
    radius_inner = (spec.kernel.shape[-1] - 1) // 2
    counts.add(InstructionClass.LOAD, float(rows) / vl)
    counts.add(InstructionClass.STORE, 1.0 / vl)
    assembled = rows * 2 * radius_inner
    counts.add(InstructionClass.BLEND, float(assembled) / (vl * vl))
    counts.add(InstructionClass.PERMUTE, float(assembled) / (vl * vl))
    counts = counts.merge(weighted_sum_counts(spec, vl))
    counts = counts.merge(post_rule_counts(spec, vl))
    return MethodProfile(
        method="transpose",
        stencil=spec.name,
        isa=isa,
        counts_per_point=counts,
        flops_per_point=useful_flops_per_point(spec),
        sweeps_per_step=1.0,
        layout_overhead_sweeps=1.0 if spec.dims == 1 else 0.0,
        extra_arrays=0,
        arrays=streamed_arrays(spec),
        notes="transpose layout, assembled dependence vectors per vector set",
    )


@register_method(
    "folded",
    label="Our (2 steps)",
    figure_order=4,
    supports_simulation=True,
    uses_unroll=True,
    uses_schedule=True,
    description="transpose layout + m-step temporal computation folding",
)
def profile_folded(
    spec: StencilSpec,
    isa: str = "avx2",
    m: int = 2,
    shifts_reuse: bool = True,
    schedule: object = None,
) -> MethodProfile:
    """Profile of the transpose layout + ``m``-step temporal computation folding.

    Linear stencils use the full folding analysis (vertical/horizontal
    folding with counterpart reuse); the non-linear benchmarks (APOP, Game of
    Life) cannot fold their arithmetic, so the method degenerates to keeping
    ``m`` consecutive updates in registers — memory traffic and loads/stores
    drop by ``m`` while the arithmetic per logical step stays unchanged,
    which is exactly how such kernels behave in practice.

    ``schedule`` may carry an already-built
    :class:`~repro.core.vectorized_folding.FoldingSchedule` for this
    ``(spec, m)`` pair — compiled plans pass their cached one so profiling
    does not repeat the counterpart planning.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # Imported lazily to avoid a circular import through the repro.core
    # package (whose __init__ pulls in the plan machinery, which uses this
    # registry).
    from repro.core.folding import arithmetically_profitable
    from repro.core.vectorized_folding import FoldingSchedule

    isa_spec = isa_for(isa)
    vl = isa_spec.vector_lanes
    if schedule is not None and not (
        isinstance(schedule, FoldingSchedule) and schedule.m == m
    ):
        schedule = None
    if spec.linear and arithmetically_profitable(spec, m):
        schedule = schedule if schedule is not None else FoldingSchedule(spec, m)
        counts = schedule.instruction_profile(vl, shifts_reuse=shifts_reuse)
        counts = counts.merge(post_rule_counts(spec, vl))
        notes = (
            f"temporal folding m={m}, "
            f"{'separable fast path' if schedule.separable_fast_path else 'counterpart reuse'}"
        )
    else:
        # Folding does not pay off arithmetically (sparse star stencils) or
        # is undefined (non-linear stencils): keep m consecutive updates in
        # registers instead — loads/stores and memory sweeps drop by m while
        # the per-step arithmetic stays that of the transpose-layout scheme.
        base = profile_transpose(spec, isa)
        counts = InstructionCounts()
        for cls, value in base.counts_per_point.counts.items():
            if cls in (InstructionClass.LOAD, InstructionClass.STORE):
                counts.add(cls, value / m)
            else:
                counts.add(cls, value)
        reason = (
            "non-linear stencil" if not spec.linear else "folding not arithmetically profitable"
        )
        notes = f"in-register {m}-step update ({reason})"
    return MethodProfile(
        method="folded",
        stencil=spec.name,
        isa=isa,
        counts_per_point=counts,
        flops_per_point=useful_flops_per_point(spec),
        sweeps_per_step=1.0 / m,
        layout_overhead_sweeps=1.0 if spec.dims == 1 else 0.0,
        extra_arrays=0,
        arrays=streamed_arrays(spec),
        notes=notes,
    )


# Figure label for the tessellation baseline series (data_reorg vectorization
# under tessellate tiling): not an executable method of its own.
register(
    MethodDescriptor(
        key="tessellation",
        label="Tessellation",
        virtual=True,
        description="figure label for the data_reorg + tessellate-tiling lineup",
    )
)

# The naive reference executor: no vectorization model (profile-less), runs
# through the plan's generic numeric path.
register(
    MethodDescriptor(
        key="reference",
        label="Reference",
        description="naive single-step reference executor",
    )
)

#: Method keys in the order the paper's figures list them (snapshot of the
#: registry's figure line-up; plug-in methods live in the registry only).
METHOD_KEYS = _registry_method_keys()

#: Display names matching the paper's figures and tables.  A snapshot for
#: back-compat — prefer :func:`repro.registry.label_for` for live lookups.
METHOD_LABELS: Dict[str, str] = method_labels()


def build_profile(
    method: str,
    spec: StencilSpec,
    isa: str = "avx2",
    m: int = 2,
    shifts_reuse: bool = True,
    **extra: object,
) -> MethodProfile:
    """Build the :class:`MethodProfile` for ``method`` on ``spec``.

    Dispatches through the pluggable method registry; every registered
    method (built-in or plug-in) resolves uniformly.

    Parameters
    ----------
    method:
        A registered method key (see :data:`METHOD_KEYS` for the paper's
        line-up).
    spec:
        The stencil.
    isa:
        ``"avx2"`` or ``"avx512"``.
    m:
        Unrolling factor (consumed by methods that fold time steps).
    shifts_reuse:
        Whether the shifts-reuse optimisation is assumed (the ablation
        benchmarks switch it off); forwarded to methods that model it.
    extra:
        Additional keyword arguments for methods with richer profile
        builders (e.g. the SDSL baseline's tiling configuration).
    """
    return get_method(method).profile(
        spec, isa=isa, m=m, shifts_reuse=shifts_reuse, **extra
    )
