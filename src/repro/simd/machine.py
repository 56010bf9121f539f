"""The simulated SIMD machine.

:class:`SimdMachine` executes the vector instructions used by the paper's
schedules with exact ``float64`` semantics while tallying every instruction
by :class:`~repro.simd.isa.InstructionClass`.  It also carries a simple
register-pressure model: schedules report their peak number of simultaneously
live vector values, and any excess over the architectural register count is
charged as spill stores/reloads — the mechanism behind the paper's
observation that naive multi-step register reuse "exacerbates excessive
register spilling" (Section 3.1).

The machine is deliberately *not* an out-of-order core model.  Converting the
instruction tallies into cycles (issue-port pressure, overlap of shuffles with
FMAs, memory bandwidth) is the cost model's job
(:mod:`repro.perfmodel.costmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.simd.isa import AVX2, InstructionClass, IsaSpec
from repro.simd.vector import Vector


@dataclass
class InstructionCounts:
    """Tally of executed instructions by class.

    The tally is a plain mapping plus a few derived conveniences.  Executed
    instructions are counted with integers and stay integral through
    :meth:`add`, :meth:`merge`, :meth:`scaled` and
    :meth:`SimdMachine.absorb` (integral round-trips are exact); analytically
    derived per-point averages may be fractional and reuse the same
    container with ``float`` values.
    """

    counts: Dict[InstructionClass, float] = field(default_factory=dict)

    def add(self, cls: InstructionClass, n: float = 1) -> None:
        """Add ``n`` instructions of class ``cls`` (integral ``n`` stays exact)."""
        self.counts[cls] = self.counts.get(cls, 0) + n

    def get(self, cls: InstructionClass) -> float:
        """Return the count for ``cls`` (0 when never executed)."""
        return self.counts.get(cls, 0)

    def merge(self, other: "InstructionCounts") -> "InstructionCounts":
        """Return a new tally holding the sum of ``self`` and ``other``.

        Integral counts merge to integral counts (``int + int`` stays
        ``int``); mixing with fractional counts yields floats as usual.
        """
        out = InstructionCounts(dict(self.counts))
        for cls, n in other.counts.items():
            out.add(cls, n)
        return out

    def scaled(self, factor: float) -> "InstructionCounts":
        """Return a new tally with every count multiplied by ``factor``.

        A whole-number ``factor`` (``3`` or ``3.0``) keeps integral counts
        integral — trace replay scales per-segment tallies by block counts
        and must round-trip exactly through :meth:`SimdMachine.absorb`.
        """
        if isinstance(factor, float) and factor.is_integer():
            factor = int(factor)
        return InstructionCounts({cls: n * factor for cls, n in self.counts.items()})

    @property
    def total(self) -> float:
        """Total instructions across all classes (integral when the tally is)."""
        return sum(self.counts.values())

    @property
    def arithmetic(self) -> float:
        """Arithmetic instructions (add/mul, FMA, max)."""
        return (
            self.get(InstructionClass.ARITH)
            + self.get(InstructionClass.FMA)
            + self.get(InstructionClass.MAX)
        )

    @property
    def data_organization(self) -> float:
        """Data-organisation instructions (shuffle, permute, blend, broadcast).

        This is the quantity the paper's Section 2 argues should be minimised
        and overlapped with arithmetic.
        """
        return (
            self.get(InstructionClass.SHUFFLE)
            + self.get(InstructionClass.PERMUTE)
            + self.get(InstructionClass.BLEND)
            + self.get(InstructionClass.BROADCAST)
        )

    @property
    def memory(self) -> float:
        """Memory instructions (vector loads + stores, aligned or not)."""
        return (
            self.get(InstructionClass.LOAD)
            + self.get(InstructionClass.LOADU)
            + self.get(InstructionClass.STORE)
        )

    def as_dict(self) -> Dict[str, float]:
        """Return a plain ``{class-name: count}`` dict (for reports/tests)."""
        return {cls.value: n for cls, n in sorted(self.counts.items(), key=lambda kv: kv[0].value)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{cls.value}={n:g}" for cls, n in self.counts.items())
        return f"InstructionCounts({inner})"


class SimdMachine:
    """Executes simulated SIMD instructions and accounts for them.

    Parameters
    ----------
    isa:
        The instruction set to simulate (:data:`repro.simd.isa.AVX2` or
        :data:`repro.simd.isa.AVX512`).

    Notes
    -----
    * All lane-manipulation semantics follow the Intel intrinsics they model;
      the 4×4 transpose built from :meth:`permute2f128` + :meth:`unpacklo` /
      :meth:`unpackhi` reproduces the paper's Figure 3 exactly.
    * Loads and stores address *1-D* NumPy arrays; multi-dimensional grids are
      addressed through flattened row-major views by the schedules.
    * ``aligned`` loads/stores assert the paper's 32-byte (AVX-2) or 64-byte
      (AVX-512) alignment requirement for vector sets.
    """

    def __init__(self, isa: IsaSpec = AVX2):
        self.isa = isa
        self.counts = InstructionCounts()
        self._peak_live = 0
        self._spills = 0.0

    # ------------------------------------------------------------------ #
    # accounting helpers
    # ------------------------------------------------------------------ #
    @property
    def vl(self) -> int:
        """Vector length in ``float64`` lanes."""
        return self.isa.vector_lanes

    def reset(self) -> None:
        """Clear all instruction tallies and register-pressure statistics."""
        self.counts = InstructionCounts()
        self._peak_live = 0
        self._spills = 0.0

    def _count(self, cls: InstructionClass, n: float = 1) -> None:
        self.counts.add(cls, n)

    def note_live_registers(self, live: int) -> None:
        """Record that ``live`` vector values are simultaneously live.

        If ``live`` exceeds the architectural register count, the excess is
        charged as one spill (a store now plus a reload later) per excess
        value — the simple but standard way to expose register pressure in an
        analytic model.
        """
        if live < 0:
            raise ValueError("live register count cannot be negative")
        self._peak_live = max(self._peak_live, live)
        excess = live - self.isa.registers
        if excess > 0:
            self._spills += excess
            self._count(InstructionClass.STORE, excess)
            self._count(InstructionClass.LOAD, excess)

    def absorb(self, counts: InstructionCounts, peak_live: int = 0, spills: float = 0.0) -> None:
        """Fold an externally derived tally into this machine's accounting.

        Used by the trace-replay backend (:mod:`repro.ir`), which executes
        schedules in bulk and derives the instruction tally analytically from
        the recorded trace instead of counting one instruction at a time.
        The spill stores/reloads charged by :meth:`note_live_registers` must
        already be included in ``counts`` (the recorder mirrors that
        accounting); ``spills`` only updates the :attr:`spill_count`
        statistic.
        """
        self.counts = self.counts.merge(counts)
        self._peak_live = max(self._peak_live, int(peak_live))
        self._spills += float(spills)

    @property
    def peak_live_registers(self) -> int:
        """Largest number of simultaneously live vector values reported."""
        return self._peak_live

    @property
    def spill_count(self) -> float:
        """Number of spill (store+reload) pairs charged so far."""
        return self._spills

    # ------------------------------------------------------------------ #
    # memory instructions
    # ------------------------------------------------------------------ #
    def _check_alignment(self, start: int, aligned: bool) -> None:
        if aligned and start % self.vl != 0:
            raise ValueError(
                f"aligned access at element offset {start} is not a multiple of vl={self.vl}"
            )

    def load(self, array: np.ndarray, start: int, aligned: bool = True) -> Vector:
        """Load ``vl`` consecutive doubles from ``array`` starting at ``start``."""
        array = np.asarray(array)
        if array.ndim != 1:
            raise ValueError("SimdMachine.load addresses 1-D arrays")
        if start < 0 or start + self.vl > array.size:
            raise IndexError(
                f"vector load [{start}, {start + self.vl}) out of bounds for size {array.size}"
            )
        self._check_alignment(start, aligned)
        self._count(InstructionClass.LOAD)
        return Vector(array[start : start + self.vl])

    def store(self, vec: Vector, array: np.ndarray, start: int, aligned: bool = True) -> None:
        """Store ``vec`` into ``array`` at element offset ``start``."""
        if vec.lanes != self.vl:
            raise ValueError(f"vector has {vec.lanes} lanes, machine vl is {self.vl}")
        array = np.asarray(array)
        if array.ndim != 1:
            raise ValueError("SimdMachine.store addresses 1-D arrays")
        if start < 0 or start + self.vl > array.size:
            raise IndexError(
                f"vector store [{start}, {start + self.vl}) out of bounds for size {array.size}"
            )
        self._check_alignment(start, aligned)
        self._count(InstructionClass.STORE)
        array[start : start + self.vl] = vec._raw()

    def broadcast(self, value: float) -> Vector:
        """Broadcast a scalar into every lane (``vbroadcastsd``)."""
        self._count(InstructionClass.BROADCAST)
        return Vector.broadcast(value, self.vl)

    # ------------------------------------------------------------------ #
    # arithmetic instructions
    # ------------------------------------------------------------------ #
    def _binary(self, a: Vector, b: Vector, op, cls: InstructionClass) -> Vector:
        if a.lanes != self.vl or b.lanes != self.vl:
            raise ValueError("operand width does not match machine vector length")
        self._count(cls)
        return Vector(op(a._raw(), b._raw()))

    def add(self, a: Vector, b: Vector) -> Vector:
        """Lane-wise addition (``vaddpd``)."""
        return self._binary(a, b, np.add, InstructionClass.ARITH)

    def sub(self, a: Vector, b: Vector) -> Vector:
        """Lane-wise subtraction (``vsubpd``)."""
        return self._binary(a, b, np.subtract, InstructionClass.ARITH)

    def mul(self, a: Vector, b: Vector) -> Vector:
        """Lane-wise multiplication (``vmulpd``)."""
        return self._binary(a, b, np.multiply, InstructionClass.ARITH)

    def fma(self, a: Vector, b: Vector, c: Vector) -> Vector:
        """Fused multiply-add ``a*b + c`` (``vfmadd231pd``)."""
        if a.lanes != self.vl or b.lanes != self.vl or c.lanes != self.vl:
            raise ValueError("operand width does not match machine vector length")
        self._count(InstructionClass.FMA)
        return Vector(a._raw() * b._raw() + c._raw())

    def maximum(self, a: Vector, b: Vector) -> Vector:
        """Lane-wise maximum (``vmaxpd``) — used by the APOP payoff rule."""
        return self._binary(a, b, np.maximum, InstructionClass.MAX)

    # ------------------------------------------------------------------ #
    # data-organisation instructions
    # ------------------------------------------------------------------ #
    def blend(self, a: Vector, b: Vector, mask: Sequence[bool]) -> Vector:
        """Per-lane select: lane ``i`` comes from ``b`` where ``mask[i]`` else from ``a``.

        Models ``vblendpd`` (immediate mask).
        """
        if len(mask) != self.vl:
            raise ValueError(f"blend mask must have {self.vl} entries")
        self._count(InstructionClass.BLEND)
        out = np.where(np.asarray(mask, dtype=bool), b._raw(), a._raw())
        return Vector(out)

    def permute_lanes(self, a: Vector, order: Sequence[int]) -> Vector:
        """Arbitrary lane permutation of a single register (``vpermpd`` class).

        ``order[i]`` gives the source lane of destination lane ``i``.  This is
        a lane-crossing permute and is billed as :class:`InstructionClass.PERMUTE`.
        """
        if len(order) != self.vl:
            raise ValueError(f"permutation must have {self.vl} entries")
        if sorted(int(i) for i in order) != list(range(self.vl)):
            # vpermpd allows arbitrary (even duplicating) selections; we only
            # validate the range so schedules can duplicate lanes when needed.
            if any(not (0 <= int(i) < self.vl) for i in order):
                raise ValueError("permutation indices out of range")
        self._count(InstructionClass.PERMUTE)
        raw = a._raw()
        return Vector(raw[np.asarray(order, dtype=int)])

    def rotate(self, a: Vector, shift: int) -> Vector:
        """Circularly rotate the lanes of ``a`` by ``shift`` positions.

        Positive ``shift`` rotates towards higher lane indices (i.e. the value
        previously in lane 0 moves to lane ``shift``).  Implemented as one
        lane-crossing permute, matching the paper's "permute operation to
        shift the components ... circularly" (Section 2.2).
        """
        order = [(i - shift) % self.vl for i in range(self.vl)]
        return self.permute_lanes(a, order)

    def unpacklo(self, a: Vector, b: Vector) -> Vector:
        """``vunpcklpd``: interleave the low double of every 128-bit lane."""
        self._count(InstructionClass.SHUFFLE)
        return Vector(self._unpack_raw(a, b, low=True))

    def unpackhi(self, a: Vector, b: Vector) -> Vector:
        """``vunpckhpd``: interleave the high double of every 128-bit lane."""
        self._count(InstructionClass.SHUFFLE)
        return Vector(self._unpack_raw(a, b, low=False))

    def _unpack_raw(self, a: Vector, b: Vector, low: bool) -> np.ndarray:
        if a.lanes != self.vl or b.lanes != self.vl:
            raise ValueError("operand width does not match machine vector length")
        ar, br = a._raw(), b._raw()
        out = np.empty(self.vl, dtype=np.float64)
        pick = 0 if low else 1
        for lane in range(self.vl // 2):
            out[2 * lane] = ar[2 * lane + pick]
            out[2 * lane + 1] = br[2 * lane + pick]
        return out

    def permute2f128(self, a: Vector, b: Vector, sel_lo: int, sel_hi: int) -> Vector:
        """``vperm2f128``-style selection of two 128-bit lanes (AVX-2, vl=4).

        The selectors name one of the four available 128-bit lanes:
        ``0`` = low lane of ``a``, ``1`` = high lane of ``a``,
        ``2`` = low lane of ``b``, ``3`` = high lane of ``b``.
        """
        if self.vl != 4:
            raise ValueError("permute2f128 is only defined for the 4-lane (AVX-2) machine")
        self._count(InstructionClass.PERMUTE)
        halves = [a._raw()[0:2], a._raw()[2:4], b._raw()[0:2], b._raw()[2:4]]
        for sel in (sel_lo, sel_hi):
            if not 0 <= sel <= 3:
                raise ValueError("permute2f128 selectors must be in [0, 3]")
        return Vector(np.concatenate([halves[sel_lo], halves[sel_hi]]))

    def exchange_blocks(self, a: Vector, b: Vector, block: int, high: bool) -> Vector:
        """Generic two-source block exchange used by the register transpose.

        Both operands are viewed as consecutive blocks of ``block`` lanes.
        The ``low`` result (``high=False``) interleaves the even-indexed
        blocks of ``a`` and ``b``; the ``high`` result interleaves the
        odd-indexed blocks:

        ``low  = [a0, b0, a2, b2, ...]``  /  ``high = [a1, b1, a3, b3, ...]``

        With ``block == vl//2`` this is exactly ``permute2f128`` (AVX-2) or
        ``vshuff64x2`` (AVX-512); with ``block == 1`` it is ``unpacklo`` /
        ``unpackhi``.  Accounting: billed as an in-lane ``SHUFFLE`` when
        ``block == 1`` and as a lane-crossing ``PERMUTE`` otherwise.
        """
        if a.lanes != self.vl or b.lanes != self.vl:
            raise ValueError("operand width does not match machine vector length")
        if block < 1 or self.vl % (2 * block) != 0:
            raise ValueError(f"invalid block size {block} for vl={self.vl}")
        cls = InstructionClass.SHUFFLE if block == 1 else InstructionClass.PERMUTE
        self._count(cls)
        ar = a._raw().reshape(-1, block)
        br = b._raw().reshape(-1, block)
        start = 1 if high else 0
        pieces: List[np.ndarray] = []
        for idx in range(start, ar.shape[0], 2):
            pieces.append(ar[idx])
            pieces.append(br[idx])
        return Vector(np.concatenate(pieces))

    # ------------------------------------------------------------------ #
    # composite helpers
    # ------------------------------------------------------------------ #
    def weighted_sum(self, vectors: Sequence[Vector], weights: Sequence[float]) -> Vector:
        """Compute ``sum_i weights[i] * vectors[i]`` with broadcast + FMA chain.

        The weights are broadcast once each (billed as broadcasts) and the sum
        is accumulated with one multiply followed by FMAs, the instruction mix
        the paper's folding kernels use.
        """
        if len(vectors) != len(weights):
            raise ValueError("vectors and weights must have the same length")
        if not vectors:
            raise ValueError("weighted_sum needs at least one term")
        wvecs = [self.broadcast(w) for w in weights]
        acc = self.mul(vectors[0], wvecs[0])
        for vec, w in zip(vectors[1:], wvecs[1:]):
            acc = self.fma(vec, w, acc)
        return acc
