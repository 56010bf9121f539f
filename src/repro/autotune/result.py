"""Immutable results of one autotuning search.

A :class:`TuneResult` is the search's full accounting, not just its winner:
every generated candidate appears exactly once in the ledger, either with a
measurement or with the ``pruned_reason`` that kept it from one (the
prune-ledger invariant the test suite pins).  Results are plain frozen
dataclasses round-trippable through :meth:`TuneResult.to_dict` — the service
``tune`` kind returns exactly that dict, so local and remote searches are
interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["CandidateRecord", "TuneResult"]


@dataclass(frozen=True)
class CandidateRecord:
    """One candidate configuration and everything the search learned about it.

    ``rank`` orders the scoreable candidates by predicted cost (1 = best
    predicted); invalid candidates have no rank.  ``pruned_reason`` is set
    exactly when the candidate was never measured.
    """

    index: int
    method: str
    isa: str
    m: int
    tiling: Optional[Dict[str, Any]]
    config_hash: str
    predicted_cycles_per_point: Optional[float] = None
    predicted_gflops: Optional[float] = None
    bound: Optional[str] = None
    frequency_ghz: Optional[float] = None
    rank: Optional[int] = None
    measured_seconds: Optional[float] = None
    measured_cycles_per_point: Optional[float] = None
    pruned_reason: Optional[str] = None

    @property
    def measured(self) -> bool:
        """Whether the candidate reached the measure stage."""
        return self.measured_cycles_per_point is not None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready row (the service's ledger entry format)."""
        return {
            "index": self.index,
            "method": self.method,
            "isa": self.isa,
            "m": self.m,
            "tiling": self.tiling,
            "config_hash": self.config_hash,
            "predicted_cycles_per_point": self.predicted_cycles_per_point,
            "predicted_gflops": self.predicted_gflops,
            "bound": self.bound,
            "frequency_ghz": self.frequency_ghz,
            "rank": self.rank,
            "measured_seconds": self.measured_seconds,
            "measured_cycles_per_point": self.measured_cycles_per_point,
            "pruned_reason": self.pruned_reason,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "CandidateRecord":
        """Rebuild a record from its ledger-row dict."""
        return cls(
            index=int(row["index"]),
            method=row["method"],
            isa=row["isa"],
            m=int(row["m"]),
            tiling=row.get("tiling"),
            config_hash=row["config_hash"],
            predicted_cycles_per_point=row.get("predicted_cycles_per_point"),
            predicted_gflops=row.get("predicted_gflops"),
            bound=row.get("bound"),
            frequency_ghz=row.get("frequency_ghz"),
            rank=row.get("rank"),
            measured_seconds=row.get("measured_seconds"),
            measured_cycles_per_point=row.get("measured_cycles_per_point"),
            pruned_reason=row.get("pruned_reason"),
        )


@dataclass(frozen=True)
class TuneResult:
    """Winner + full ranked ledger of one staged search.

    ``ledger`` lists every generated candidate in ranking order (scored
    candidates by predicted cost, then invalid candidates by generation
    index); ``provenance`` records how the search was posed — space axes,
    workload, objective, budget, seed — sufficient to reproduce the
    candidate list exactly.
    """

    stencil: str
    objective: str
    budget: int
    winner: CandidateRecord
    ledger: Tuple[CandidateRecord, ...]
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def generated(self) -> int:
        """Total candidates the space expanded to."""
        return len(self.ledger)

    @property
    def measured_count(self) -> int:
        """Candidates that reached the measure stage."""
        return sum(1 for record in self.ledger if record.measured)

    @property
    def pruned_count(self) -> int:
        """Candidates eliminated before any measurement."""
        return sum(1 for record in self.ledger if record.pruned_reason is not None)

    @property
    def pruned_fraction(self) -> float:
        """Share of generated candidates never measured."""
        return self.pruned_count / self.generated if self.generated else 0.0

    def prune_stats(self) -> Dict[str, Any]:
        """Aggregate prune accounting, including a reason histogram."""
        reasons: Dict[str, int] = {}
        for record in self.ledger:
            if record.pruned_reason is not None:
                label = record.pruned_reason.split(":", 1)[0]
                reasons[label] = reasons.get(label, 0) + 1
        return {
            "generated": self.generated,
            "measured": self.measured_count,
            "pruned": self.pruned_count,
            "pruned_fraction": self.pruned_fraction,
            "reasons": dict(sorted(reasons.items())),
        }

    def best(self, n: int = 5) -> Tuple[CandidateRecord, ...]:
        """The top-``n`` ledger rows (the ledger is already ranking-ordered)."""
        return self.ledger[: max(0, n)]

    def plan(self):
        """Compile the winning configuration into a :class:`CompiledPlan`."""
        from repro.core.plan import plan as make_plan

        builder = (
            make_plan(self.provenance.get("stencil_spec") or self.stencil)
            .method(self.winner.method)
            .isa(self.winner.isa)
            .unroll(self.winner.m)
        )
        if self.winner.tiling is not None:
            builder = builder.tile(
                block_sizes=tuple(self.winner.tiling["block_sizes"]),
                time_range=int(self.winner.tiling["time_range"]),
            )
        return builder.compile()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form — byte-identical to the service ``tune`` response."""
        return {
            "stencil": self.stencil,
            "objective": self.objective,
            "budget": self.budget,
            "winner": self.winner.to_dict(),
            "ledger": [record.to_dict() for record in self.ledger],
            "prune_stats": self.prune_stats(),
            "provenance": {
                key: value
                for key, value in self.provenance.items()
                if key != "stencil_spec"
            },
        }
