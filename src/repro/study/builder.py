"""Declarative parameter sweeps over compiled-plan configurations.

The paper's whole evaluation section is a grid of sweeps — method × stencil
× ISA × storage level × core count.  :func:`study` is the sweep counterpart
of :func:`repro.plan`: a fluent builder collects the axes, the target
machine and the per-cell metric, then :meth:`StudyBuilder.run` expands the
cross-product, evaluates the cells in order, memoizes the expensive
pipeline stages through an :class:`~repro.study.cache.EvalCache`, and
returns an immutable :class:`~repro.study.resultset.ResultSet`::

    import repro

    rs = (
        repro.study("mystudy")
        .over(method=repro.method_keys(), isa=("avx2", "avx512"))
        .on(repro.machine_for_isa("avx2"))
        .metric(lambda cell: {
            "method": cell["method"],
            "isa": cell["isa"],
            "gflops": cell.cache.estimate(
                cell.cache.profile(cell["method"], spec, isa=cell["isa"]),
                npoints=1 << 20, time_steps=1000, machine=cell.machine,
            ).gflops,
        })
        .run()
    )

Axis order matters: the first ``over`` axis varies slowest (outermost loop),
exactly like nested ``for`` loops, so figure-shaped row orders fall out of
the axis declaration.  Cells run one after another: a cell's metric is
Python-level model arithmetic that holds the GIL, so threads would not run
them any faster.
"""

from __future__ import annotations

import itertools
import time
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.machine import MachineSpec
from repro.study.cache import EvalCache
from repro.study.hashing import config_hash
from repro.study.resultset import Provenance, ResultSet

__all__ = ["StudyCell", "StudyBuilder", "study"]

#: A metric maps one cell to its result rows: a dict (one row), a sequence
#: of dicts (several rows) or ``None`` (cell not applicable — e.g. SDSL on a
#: benchmark the package does not support).
Metric = Callable[["StudyCell"], Any]


class StudyCell:
    """One point of a study's cross-product, handed to the metric function.

    Attributes
    ----------
    axes:
        Read-only mapping of axis name → this cell's value (also reachable
        via ``cell["name"]``).
    index:
        Position of the cell in evaluation order (0-based, after ``where``
        filtering).
    machine:
        The study's target :class:`~repro.machine.MachineSpec` (``None``
        for machine-independent studies).
    cache:
        The run's :class:`~repro.study.cache.EvalCache`; metrics should
        route ``profile``/``estimate``/``multicore``/``folding`` calls
        through it so repeated cells are free.
    """

    __slots__ = ("axes", "index", "machine", "cache")

    def __init__(
        self,
        axes: Mapping[str, Any],
        index: int,
        machine: Optional[MachineSpec],
        cache: EvalCache,
    ):
        self.axes = MappingProxyType(dict(axes))
        self.index = index
        self.machine = machine
        self.cache = cache

    def __getitem__(self, name: str) -> Any:
        return self.axes[name]

    def get(self, name: str, default: Any = None) -> Any:
        """Axis value, or ``default`` when the axis does not exist."""
        return self.axes.get(name, default)

    def __repr__(self) -> str:
        return f"StudyCell(#{self.index}, {dict(self.axes)!r})"


class StudyBuilder:
    """Fluent configurator for a parameter sweep.

    Every setter returns the builder; nothing runs until :meth:`run`.
    """

    def __init__(self, name: str = "study"):
        self._name = str(name)
        self._axes: Dict[str, Tuple[Any, ...]] = {}
        self._machine: Optional[MachineSpec] = None
        self._metric: Optional[Metric] = None
        self._predicates: List[Callable[[Mapping[str, Any]], bool]] = []
        self._cache: Optional[EvalCache] = None

    def over(self, **axes: Sequence[Any]) -> "StudyBuilder":
        """Add sweep axes; the first declared axis varies slowest.

        Each value is an iterable of the axis's levels.  Re-declaring an
        axis is an error (axis order defines row order, so silent overrides
        would silently reorder results).
        """
        for name, values in axes.items():
            if name in self._axes:
                raise ValueError(f"axis {name!r} is already declared")
            levels = tuple(values)
            if not levels:
                raise ValueError(f"axis {name!r} has no values")
            self._axes[name] = levels
        return self

    def on(self, machine: MachineSpec) -> "StudyBuilder":
        """Target the sweep at ``machine`` (any :class:`MachineSpec`)."""
        if not isinstance(machine, MachineSpec):
            raise TypeError("on() expects a MachineSpec")
        self._machine = machine
        return self

    def metric(self, fn: Metric) -> "StudyBuilder":
        """Set the per-cell metric: ``fn(cell) -> dict | [dict, ...] | None``."""
        if not callable(fn):
            raise TypeError("metric() expects a callable")
        self._metric = fn
        return self

    def where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> "StudyBuilder":
        """Keep only cells whose axis mapping satisfies ``predicate``.

        Several ``where`` clauses conjoin.  Filtering happens before
        evaluation, so infeasible combinations cost nothing.
        """
        if not callable(predicate):
            raise TypeError("where() expects a callable")
        self._predicates.append(predicate)
        return self

    def cache(self, cache: Optional[EvalCache]) -> "StudyBuilder":
        """Share an existing :class:`EvalCache` (e.g. across several studies).

        ``None`` (the default) gives every :meth:`run` a fresh cache.
        """
        if cache is not None and not isinstance(cache, EvalCache):
            raise TypeError("cache() expects an EvalCache or None")
        self._cache = cache
        return self

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _expand_cells(self) -> List[Dict[str, Any]]:
        """Cross-product of the axes, in declaration order, after filtering."""
        names = list(self._axes)
        cells = []
        for combo in itertools.product(*(self._axes[n] for n in names)):
            axes = dict(zip(names, combo))
            if all(pred(axes) for pred in self._predicates):
                cells.append(axes)
        return cells

    def run(self) -> ResultSet:
        """Evaluate every cell, in cross-product order, and return the
        :class:`ResultSet`."""
        if self._metric is None:
            raise ValueError("study has no metric; call .metric(fn) before .run()")
        if not self._axes:
            raise ValueError("study has no axes; call .over(...) before .run()")
        cache = self._cache if self._cache is not None else EvalCache()
        stats_before = cache.stats

        started = time.perf_counter()
        combos = self._expand_cells()
        cells = [
            StudyCell(axes, index, self._machine, cache)
            for index, axes in enumerate(combos)
        ]
        results = [self._metric(cell) for cell in cells]

        rows: List[Mapping[str, Any]] = []
        for result in results:
            if result is None:
                continue
            if isinstance(result, Mapping):
                rows.append(result)
            else:
                for row in result:
                    if not isinstance(row, Mapping):
                        raise TypeError(
                            "metric must return a mapping, a sequence of mappings or None"
                        )
                    rows.append(row)
        elapsed = time.perf_counter() - started

        stats_after = cache.stats
        provenance = Provenance(
            study=self._name,
            machine=self._machine.name if self._machine is not None else None,
            config_hash=config_hash(
                self._name, self._axes, self._machine, self._metric, self._predicates
            ),
            cells=len(cells),
            rows=len(rows),
            wall_seconds=elapsed,
            cache_hits=stats_after.hits - stats_before.hits,
            cache_misses=stats_after.misses - stats_before.misses,
        )
        return ResultSet(rows, provenance)


def study(name: str = "study") -> StudyBuilder:
    """Start configuring a declarative parameter sweep named ``name``."""
    return StudyBuilder(name)
