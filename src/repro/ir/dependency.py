"""Dependency graphs over IR segments: def-use edges plus memory aliasing.

:class:`DependencyGraph` is what the ``reschedule`` pass of
:mod:`repro.ir.passes` schedules from, following the shape of PyPy's
vectorizer (``rpython/.../optimizeopt/dependency.py``):

* **def-use edges** from the virtual registers (an op depends on the
  in-segment definitions of its operands),
* **memory edges** from a :class:`MemoryRef` alias analysis over the IR's
  abstract memory tags — two accesses to the same tag family with provably
  distinct offsets need no edge, an unknown tag family forces a conservative
  edge.

On top of the edges the graph offers per-node latency heights, the
list scheduler's critical-path priority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.ops import IrOp, IrSegment, ScheduleIR
from repro.simd.isa import IsaSpec

__all__ = ["MemoryRef", "DependencyGraph"]

#: Tag families the lowering emits, keyed by the tag's leading label.  A
#: family's accesses are indexed by the remaining tag fields; two accesses of
#: the same family with different index tuples touch provably distinct
#: block-relative addresses (the lowering derives every tag from a distinct
#: ``(row/column offset, element)`` pair).  Anything *not* listed here is an
#: unknown family and aliases conservatively.
_KNOWN_TAG_FAMILIES = ("set", "row", "out_row", "vt")


@dataclass(frozen=True)
class MemoryRef:
    """Abstract address of one architectural memory access.

    Attributes
    ----------
    space:
        ``"in"`` for loads, ``"out"`` for stores.  The replay executor is
        double-buffered (loads gather from the input grid, stores scatter to
        the output grid), so references in different spaces can never alias.
    family:
        The tag's leading label (``"set"``, ``"row"``, ``"out_row"``), or
        ``None`` for an unrecognised tag.
    offset:
        The remaining tag fields — the provably-distinct index within the
        family — or ``None`` when the tag is unknown.
    """

    space: str
    family: Optional[str]
    offset: Optional[Tuple]

    @classmethod
    def from_op(cls, op: IrOp) -> Optional["MemoryRef"]:
        """The reference an op makes, or ``None`` for non-memory ops."""
        if not op.is_memory:
            return None
        space = "in" if op.opcode == "load" else "out"
        tag = op.tag
        if (
            isinstance(tag, tuple)
            and tag
            and isinstance(tag[0], str)
            and tag[0] in _KNOWN_TAG_FAMILIES
        ):
            return cls(space=space, family=tag[0], offset=tuple(tag[1:]))
        return cls(space=space, family=None, offset=None)

    def may_alias(self, other: "MemoryRef") -> bool:
        """Whether the two references can touch the same address.

        Distinct spaces never alias (double-buffered replay).  Within a
        space, two known-family references alias only when family *and*
        offset match; an unknown reference aliases everything in its space.
        """
        if self.space != other.space:
            return False
        if self.offset is None or other.offset is None:
            return True
        return self.family == other.family and self.offset == other.offset


class DependencyGraph:
    """Dependence DAG over one segment's ops.

    Nodes are op indices into ``segment.ops``.  Every edge points forward in
    recorded order (SSA reads-after-def are validated by the IR, memory
    edges are emitted earlier → later), so recorded order is already a
    topological order.
    """

    def __init__(self, ir: ScheduleIR, segment: IrSegment):
        self.ir = ir
        self.segment = segment
        ops = segment.ops
        n = len(ops)
        self.preds: List[List[int]] = [[] for _ in range(n)]
        self.succs: List[List[int]] = [[] for _ in range(n)]

        def_at: Dict[int, int] = {}
        for i, op in enumerate(ops):
            if op.dst >= 0:
                def_at[op.dst] = i

        edges = set()

        def add_edge(j: int, i: int) -> None:
            if j != i and (j, i) not in edges:
                edges.add((j, i))
                self.succs[j].append(i)
                self.preds[i].append(j)

        # def-use edges.
        for i, op in enumerate(ops):
            for src in op.srcs:
                j = def_at.get(src)
                if j is not None and j < i:
                    add_edge(j, i)

        # memory edges: any pair involving a store whose references may
        # alias is ordered; pairs proven independent get no edge.
        mem = [(i, MemoryRef.from_op(op)) for i, op in enumerate(ops) if op.is_memory]
        for a in range(len(mem)):
            i, ref_i = mem[a]
            for b in range(a + 1, len(mem)):
                k, ref_k = mem[b]
                if ref_i.space == "in" and ref_k.space == "in":
                    continue  # read/read pairs never need ordering
                if ref_i.may_alias(ref_k):
                    add_edge(i, k)

    def _latency(self, op: IrOp, isa: IsaSpec) -> float:
        if op.cls is None:
            return 0.0
        return isa.timing(op.cls).latency

    def heights(self, isa: Optional[IsaSpec] = None) -> List[float]:
        """Latency-weighted height of each node above the graph's sinks.

        A node's height is its own latency plus the tallest successor
        height — the remaining serial work below it, the classic
        critical-path priority for list scheduling.
        """
        isa = isa or self.ir.isa
        ops = self.segment.ops
        h = [0.0] * len(ops)
        for i in range(len(ops) - 1, -1, -1):
            below = max((h[k] for k in self.succs[i]), default=0.0)
            h[i] = self._latency(ops[i], isa) + below
        return h
