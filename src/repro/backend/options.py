"""Validated execution options shared by every backend-selecting surface.

``CompiledPlan.run``/``simulate``/``measure``, the measurement harness, the
``repro-measure`` CLI and the service protocol all accept the same keyword
pair — ``backend=`` (which execution engine) and ``optimize=`` (which IR pass
pipeline).  :meth:`ExecutionOptions.normalize` is the single source of truth
for the allowed combinations:

* ``backend`` must name a registered execution backend
  (:data:`repro.backend.EXECUTION_BACKENDS`), plus ``"auto"`` where the
  context supports method-native execution (``run``, which ``measure``
  times);
* ``optimize`` only applies to backends that compile the typed IR (trace,
  kernel) — the interpreter executes the schedule as recorded, and the
  ``auto`` path has no IR to optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

__all__ = ["ExecutionOptions"]

#: Per-entry-point ``(default backend, noun used in error messages)``.  The
#: method-native ``"auto"`` engine is allowed exactly where it is the default.
_CONTEXTS: Dict[str, Tuple[str, str]] = {
    "run": ("auto", "execution"),
    "simulate": ("trace", "simulation"),
}


@dataclass(frozen=True)
class ExecutionOptions:
    """One validated (backend, pass-pipeline) execution decision.

    Attributes
    ----------
    backend:
        ``"auto"`` (method-native execution) or a registered execution
        backend key (``"kernel"``, ``"trace"``, ``"interpret"``).
    optimize:
        Normalized pass-pipeline selection: ``False`` (replay as recorded),
        ``True`` (the default optimizing pipeline) or a tuple of pass
        names/callables.  ``None`` and empty sequences normalize to
        ``False`` — one spelling, one cache entry.
    """

    backend: str = "auto"
    optimize: Union[bool, Tuple[Any, ...]] = False

    @classmethod
    def normalize(
        cls,
        backend: Optional[str] = None,
        optimize: Union[bool, Sequence, None] = False,
        context: str = "run",
    ) -> "ExecutionOptions":
        """Validate ``backend``/``optimize`` for ``context``.

        ``context`` is ``"run"`` or ``"simulate"`` — it picks the backend
        used for ``backend=None`` and whether ``"auto"`` is allowed.  Raises
        ``ValueError`` naming the offending keyword for every disallowed
        combination.
        """
        try:
            default, label = _CONTEXTS[context]
        except KeyError:
            raise ValueError(
                f"unknown execution context {context!r}; expected one of {tuple(_CONTEXTS)}"
            ) from None
        # False, None and an explicitly empty pass sequence all mean "no
        # optimization" — one spelling, one cache entry.
        if optimize is not True and not optimize:
            optimize = False
        elif optimize is not True:
            optimize = tuple(optimize)
        backend = default if backend is None else str(backend).strip().lower()
        allowed = cls.allowed_backends(context)
        if backend not in allowed:
            quoted = [f"'{name}'" for name in allowed]
            raise ValueError(
                f"unknown {label} backend {backend!r}; "
                f"expected {', '.join(quoted[:-1])} or {quoted[-1]}"
            )
        if optimize is not False:
            if backend == "auto":
                raise ValueError("optimize= requires an explicit execution backend")
            if backend == "interpret":
                raise ValueError("optimize= applies to the trace and kernel backends only")
        return cls(backend=backend, optimize=optimize)

    @classmethod
    def allowed_backends(cls, context: str = "run") -> Tuple[str, ...]:
        """Backends ``context`` accepts, default first (the single source of
        truth is the :data:`repro.backend.EXECUTION_BACKENDS` registry)."""
        from repro.backend import backend_keys

        ordered = [_CONTEXTS[context][0]]
        for key in reversed(backend_keys()):
            if key not in ordered:
                ordered.append(key)
        return tuple(ordered)

    @property
    def explicit(self) -> bool:
        """Whether a register-level engine was named (not method-native)."""
        return self.backend != "auto"
