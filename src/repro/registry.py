"""Pluggable registry of vectorization methods.

Every execution method the library knows about — the paper's transpose
layout and temporal folding, the baselines it compares against, the plain
reference executor, and any backend a downstream user plugs in — is
described by one immutable :class:`MethodDescriptor` and registered here
under its string key.  The descriptor carries everything the rest of the
system needs to treat methods uniformly:

* ``profile_builder`` — builds the steady-state
  :class:`~repro.perfmodel.profiles.MethodProfile` (``None`` for methods
  without a vectorization model, such as the reference executor),
* ``executor`` — the numeric fast path invoked by
  :meth:`repro.core.plan.CompiledPlan.run` (``None`` means reference
  arithmetic, :func:`~repro.stencils.reference.reference_run`),
* capability flags (``supports_simulation``, ``uses_unroll``,
  ``uses_schedule``) consumed by the plan compiler.

Built-in methods register themselves when their defining module is imported
(:mod:`repro.methods` pulls in all of them); new methods register with the
:func:`register_method` decorator::

    from repro.registry import register_method

    @register_method("mybackend", label="My Backend", figure_order=None)
    def profile_mybackend(spec, isa="avx2"):
        ...

After that, ``repro.plan(spec).method("mybackend")`` and
``repro.build_profile("mybackend", spec)`` work like any built-in — there is
no string ``if/elif`` dispatch anywhere.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

#: ``profile_builder(spec, **kwargs) -> MethodProfile``.  Keyword arguments
#: the builder does not declare are filtered out before the call, so builders
#: only declare what they use (``isa``, ``m``, ``shifts_reuse``, ...).
ProfileBuilder = Callable[..., Any]

#: ``executor(plan, grid, steps) -> np.ndarray`` where ``plan`` is the
#: :class:`~repro.core.plan.CompiledPlan` being run (duck-typed so executors
#: can live in leaf modules without importing the plan machinery).
Executor = Callable[..., Any]

#: ``describe_path(plan) -> str`` — one human-readable line for
#: :meth:`~repro.core.plan.CompiledPlan.explain`.
PathDescriber = Callable[[Any], str]


@dataclass(frozen=True)
class MethodDescriptor:
    """Everything the system knows about one execution method.

    Attributes
    ----------
    key:
        Registry key (``"folded"``, ``"dlt"``, ...).
    label:
        Display name used in the paper's figures and in reports.
    profile_builder:
        Builds the steady-state instruction profile; ``None`` if the method
        has no vectorization model (e.g. the reference executor).
    executor:
        Numeric fast path ``(plan, grid, steps) -> ndarray``; ``None`` means
        :meth:`~repro.core.plan.CompiledPlan.run` calls
        :func:`~repro.stencils.reference.reference_run`.  A plan's tiling
        selects no path: the executor runs tiled and untiled plans alike.
    describe_path:
        Optional one-line description of the numeric path for
        :meth:`~repro.core.plan.CompiledPlan.explain`.
    supports_simulation:
        Whether the method can execute on the simulated SIMD machine
        (:meth:`~repro.core.plan.CompiledPlan.simulate`).  Such a method
        runs the built-in register-level schedules, which cover every
        stencil :class:`~repro.stencils.spec.StencilSpec` admits, 1-D to
        3-D.
    uses_unroll:
        Whether the method consumes the plan's temporal unrolling factor
        ``m``.
    uses_schedule:
        Whether the numeric executor needs a pre-built
        :class:`~repro.core.vectorized_folding.FoldingSchedule` (taken at
        compile time from the process's schedule memo, one per stencil
        weights and ``m``).
    profile_only:
        The method exists as a performance model only (e.g. the SDSL
        baseline): it can be profiled through the registry but cannot be
        compiled into an executable plan.
    virtual:
        Label-only entries (e.g. the ``"tessellation"`` series of Figure 9)
        that cannot be compiled or profiled.
    figure_order:
        Position in the paper's method line-up (:data:`repro.methods.METHOD_KEYS`);
        ``None`` keeps the method out of the line-up without hiding it from
        the registry.
    description:
        Free-form one-liner for tables and ``explain()`` output.
    """

    key: str
    label: str
    profile_builder: Optional[ProfileBuilder] = None
    executor: Optional[Executor] = None
    describe_path: Optional[PathDescriber] = None
    supports_simulation: bool = False
    uses_unroll: bool = False
    uses_schedule: bool = False
    profile_only: bool = False
    virtual: bool = False
    figure_order: Optional[int] = None
    description: str = ""

    def profile(self, spec: Any, isa: str = "avx2", **kwargs: Any) -> Any:
        """Build the method's :class:`MethodProfile` for ``spec``.

        Keyword arguments not declared by the underlying builder are dropped,
        so callers can uniformly pass ``m=...`` and ``shifts_reuse=...`` and
        each method picks up exactly the knobs it understands.
        """
        if self.profile_builder is None:
            raise ValueError(
                f"method {self.key!r} has no steady-state instruction profile"
            )
        accepted = _accepted_keywords(self.profile_builder)
        call_kwargs = dict(kwargs)
        call_kwargs["isa"] = isa
        if accepted is not None:
            call_kwargs = {k: v for k, v in call_kwargs.items() if k in accepted}
        return self.profile_builder(spec, **call_kwargs)


def _accepted_keywords(fn: Callable[..., Any]) -> Optional[Tuple[str, ...]]:
    """Keyword names ``fn`` accepts, or ``None`` if it takes ``**kwargs``."""
    params = inspect.signature(fn).parameters
    names = []
    for i, (name, param) in enumerate(params.items()):
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        if i == 0:
            continue  # the spec argument is always passed positionally
        names.append(name)
    return tuple(names)


#: Key → descriptor, in registration order.
_REGISTRY: Dict[str, MethodDescriptor] = {}


def register(descriptor: MethodDescriptor, overwrite: bool = False) -> MethodDescriptor:
    """Register ``descriptor``; raises on key collisions unless ``overwrite``."""
    key = descriptor.key.strip().lower()
    if not key:
        raise ValueError("method key must be a non-empty string")
    if key != descriptor.key:
        descriptor = replace(descriptor, key=key)
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"method {key!r} is already registered")
    _REGISTRY[key] = descriptor
    return descriptor


def register_method(
    key: str,
    *,
    label: str,
    executor: Optional[Executor] = None,
    describe_path: Optional[PathDescriber] = None,
    supports_simulation: bool = False,
    uses_unroll: bool = False,
    uses_schedule: bool = False,
    profile_only: bool = False,
    figure_order: Optional[int] = None,
    description: str = "",
    overwrite: bool = False,
) -> Callable[[ProfileBuilder], ProfileBuilder]:
    """Decorator registering the decorated function as a method's profile builder."""

    def decorator(fn: ProfileBuilder) -> ProfileBuilder:
        register(
            MethodDescriptor(
                key=key,
                label=label,
                profile_builder=fn,
                executor=executor,
                describe_path=describe_path,
                supports_simulation=supports_simulation,
                uses_unroll=uses_unroll,
                uses_schedule=uses_schedule,
                profile_only=profile_only,
                figure_order=figure_order,
                description=description,
            ),
            overwrite=overwrite,
        )
        return fn

    return decorator


def set_executor(
    key: str,
    executor: Optional[Executor],
    describe_path: Optional[PathDescriber] = None,
) -> None:
    """Attach (or replace) the numeric executor of an already registered method.

    Exists so executors can be registered from the module that defines their
    numeric machinery even when the profile builder lives elsewhere (the
    folded fast path is wired up by :mod:`repro.core.plan`, the DLT executor
    by :mod:`repro.baselines.dlt`).
    """
    descriptor = get_method(key)
    updated = replace(descriptor, executor=executor)
    if describe_path is not None:
        updated = replace(updated, describe_path=describe_path)
    _REGISTRY[descriptor.key] = updated


def unregister(key: str) -> None:
    """Remove a method (mainly for tests exercising plug-in registration)."""
    _REGISTRY.pop(key.strip().lower(), None)


def is_registered(key: str) -> bool:
    """Whether ``key`` names a registered method."""
    return key.strip().lower() in _REGISTRY


def get_method(key: str) -> MethodDescriptor:
    """Look up a descriptor; raises ``KeyError`` naming the known methods."""
    normalized = key.strip().lower()
    try:
        return _REGISTRY[normalized]
    except KeyError:
        known = tuple(k for k, d in _REGISTRY.items() if not d.virtual)
        raise KeyError(f"unknown method {key!r}; known: {known}") from None


def method_keys() -> Tuple[str, ...]:
    """Keys of the paper's method line-up, in figure order."""
    ordered = sorted(
        (d for d in _REGISTRY.values() if d.figure_order is not None),
        key=lambda d: d.figure_order,
    )
    return tuple(d.key for d in ordered)


def tunable_method_keys() -> Tuple[str, ...]:
    """Keys of the line-up methods an autotuner can both score and compile.

    The default method axis of :class:`repro.autotune.SearchSpace`: figure-order
    methods with a profile builder, excluding model-only (``profile_only``) and
    label-only (``virtual``) entries.
    """
    ordered = sorted(
        (
            d
            for d in _REGISTRY.values()
            if d.figure_order is not None
            and d.profile_builder is not None
            and not d.profile_only
            and not d.virtual
        ),
        key=lambda d: d.figure_order,
    )
    return tuple(d.key for d in ordered)


def registered_keys() -> Tuple[str, ...]:
    """Every registered key (including virtual labels), in registration order."""
    return tuple(_REGISTRY)


def method_labels() -> Dict[str, str]:
    """Key → display label for every registered method."""
    return {key: descriptor.label for key, descriptor in _REGISTRY.items()}


def label_for(key: str, default: Optional[str] = None) -> str:
    """Display label of ``key``; falls back to ``default`` (if given) or raises."""
    normalized = key.strip().lower()
    if normalized not in _REGISTRY:
        if default is not None:
            return default
        raise KeyError(f"unknown method {key!r}")
    return _REGISTRY[normalized].label
