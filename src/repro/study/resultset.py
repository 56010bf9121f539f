"""Immutable, queryable results of a study sweep.

A :class:`ResultSet` is what :meth:`repro.study.builder.StudyBuilder.run`
returns: an ordered, read-only collection of row mappings plus a
:class:`Provenance` record (machine, git-style configuration hash, timings,
cache accounting).  The query surface mirrors how the paper's artefacts are
consumed — select rows (:meth:`ResultSet.filter`), pull one column
(:meth:`ResultSet.series`), arrange a figure-style matrix
(:meth:`ResultSet.pivot`), find a winner (:meth:`ResultSet.best`) and
serialise everything (:meth:`ResultSet.to_json`).

Rows are exposed as read-only mapping views and every query returns a *new*
``ResultSet`` sharing the provenance, so derived views stay traceable to
the sweep that produced them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Provenance", "ResultSet"]


@dataclass(frozen=True)
class Provenance:
    """Where a :class:`ResultSet` came from and what producing it cost.

    Attributes
    ----------
    study:
        Name given to the study.
    machine:
        Name of the :class:`~repro.machine.MachineSpec` the sweep targeted
        (``None`` for machine-independent studies).
    config_hash:
        Git-style short hash of the full sweep configuration (axes, machine,
        metric) — two runs of the same sweep carry the same id.
    cells:
        Number of cross-product cells evaluated (after ``where`` filtering).
    rows:
        Number of result rows the cells produced.
    wall_seconds:
        Wall-clock time of the whole sweep.
    cache_hits / cache_misses:
        Memoization accounting accumulated *during this run* — repeated
        cells show up as hits.
    """

    study: str
    machine: Optional[str]
    config_hash: str
    cells: int
    rows: int
    wall_seconds: float
    cache_hits: int
    cache_misses: int


def _freeze_rows(rows: Sequence[Mapping[str, Any]]) -> Tuple[Mapping[str, Any], ...]:
    """Copy ``rows`` into read-only mapping views (defensive + immutable)."""
    return tuple(MappingProxyType(dict(row)) for row in rows)


class ResultSet:
    """Ordered, immutable rows of one sweep plus provenance.

    Supports ``len``, iteration, indexing and the query methods below; all
    derived views share the original :class:`Provenance`.
    """

    __slots__ = ("_rows", "_provenance", "_sealed")

    def __init__(self, rows: Sequence[Mapping[str, Any]], provenance: Provenance):
        self._rows = _freeze_rows(rows)
        self._provenance = provenance
        self._sealed = True

    def __setattr__(self, name: str, value: Any) -> None:
        if getattr(self, "_sealed", False):
            raise AttributeError("ResultSet is immutable; derive a new one via filter()")
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> Tuple[Mapping[str, Any], ...]:
        """The rows, in evaluation order, as read-only mappings."""
        return self._rows

    @property
    def provenance(self) -> Provenance:
        """Provenance of the sweep that produced these rows."""
        return self._provenance

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Mapping[str, Any]]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Mapping[str, Any]:
        return self._rows[index]

    def __repr__(self) -> str:
        p = self._provenance
        return (
            f"ResultSet({len(self._rows)} rows, study={p.study!r}, "
            f"machine={p.machine!r}, config={p.config_hash!r})"
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def filter(
        self,
        predicate: Optional[Callable[[Mapping[str, Any]], bool]] = None,
        **criteria: Any,
    ) -> "ResultSet":
        """Rows matching all ``column=value`` criteria (and ``predicate``).

        Returns a new :class:`ResultSet` sharing this one's provenance.
        """
        selected = []
        for row in self._rows:
            if criteria and not all(row.get(k) == v for k, v in criteria.items()):
                continue
            if predicate is not None and not predicate(row):
                continue
            selected.append(row)
        return ResultSet(selected, self._provenance)

    def series(self, key: str) -> List[Any]:
        """Column ``key`` across all rows (missing values become ``None``)."""
        return [row.get(key) for row in self._rows]

    def pivot(self, index: str, columns: str, value: str) -> Dict[Any, Dict[Any, Any]]:
        """Arrange ``value`` as a matrix: one row per ``index``, one column per ``columns``.

        Insertion order of both axes follows first appearance in the rows, so
        a pivot of a figure study reads exactly like the paper's figure.
        """
        table: Dict[Any, Dict[Any, Any]] = {}
        for row in self._rows:
            table.setdefault(row.get(index), {})[row.get(columns)] = row.get(value)
        return table

    def best(
        self,
        value: str,
        by: Optional[str] = None,
        mode: str = "max",
    ) -> Any:
        """The row maximising (or minimising) column ``value``.

        With ``by`` given, returns an ordered dict mapping each distinct
        ``by`` value to its best row — e.g. the winning method per storage
        level.  Rows without the ``value`` column are ignored; raises
        ``ValueError`` when nothing qualifies.
        """
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        better = (lambda a, b: a > b) if mode == "max" else (lambda a, b: a < b)
        if by is None:
            winner: Optional[Mapping[str, Any]] = None
            for row in self._rows:
                v = row.get(value)
                if v is None:
                    continue
                if winner is None or better(v, winner.get(value)):
                    winner = row
            if winner is None:
                raise ValueError(f"no row carries a value for {value!r}")
            return winner
        winners: Dict[Any, Mapping[str, Any]] = {}
        for row in self._rows:
            v = row.get(value)
            if v is None:
                continue
            group = row.get(by)
            current = winners.get(group)
            if current is None or better(v, current.get(value)):
                winners[group] = row
        if not winners:
            raise ValueError(f"no row carries a value for {value!r}")
        return winners

    # ------------------------------------------------------------------ #
    # serialisation / interop
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data representation (provenance + copied rows)."""
        return {
            "provenance": asdict(self._provenance),
            "rows": [dict(row) for row in self._rows],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON document with the provenance and every row."""
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_experiment(self, name: str, description: str, notes: str = "") -> Any:
        """Wrap the rows in a legacy :class:`~repro.harness.experiments.ExperimentResult`.

        Rows are copied into plain mutable dicts, matching what the
        benchmark suite historically consumed.  Imported lazily to keep the
        study layer free of harness dependencies.
        """
        from repro.harness.experiments import ExperimentResult

        return ExperimentResult(
            name=name,
            description=description,
            rows=[dict(row) for row in self._rows],
            notes=notes,
        )
