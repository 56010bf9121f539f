"""Instruction-set descriptions for the simulated vector machine.

Each supported ISA (AVX-2 with ``vl = 4`` doubles, AVX-512 with ``vl = 8``)
is described by an :class:`IsaSpec`: vector width, number of architectural
registers, and a table of per-instruction-class latencies, reciprocal
throughputs and issue ports.  The numbers are Skylake-SP figures (the
paper's Xeon Gold 6140) taken from the usual public instruction tables; they
only need to be *relatively* right — the cost model uses them to decide how
much of the data-reorganisation work can hide behind the arithmetic, which
is the paper's central overlap argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple


class InstructionClass(enum.Enum):
    """Execution class used for instruction accounting.

    The classes partition the instructions the schedules emit by the
    execution resource they occupy on Skylake-SP:

    * ``ARITH`` — vector add/sub/mul (ports 0/1),
    * ``FMA`` — fused multiply-add (ports 0/1),
    * ``MAX`` — vector max/min (ports 0/1); kept separate so the nonlinear
      benchmarks' rule application can be reported,
    * ``SHUFFLE`` — in-lane data movement (``unpack``, in-lane ``shuffle``,
      ``blend`` executes on port 5 or 015 depending on form; we bill blends
      separately),
    * ``PERMUTE`` — lane-crossing permutes (``permute2f128``, ``vpermpd``,
      ``vpermt2pd``), port 5, higher latency,
    * ``BLEND`` — cheap lane-select blends,
    * ``BROADCAST`` — scalar→vector broadcasts,
    * ``LOAD`` / ``STORE`` — vector memory operations (ports 2/3 and 4),
    * ``SCALAR`` — bookkeeping scalar ops (loop counters etc.), normally
      negligible and not emitted by the schedules.
    """

    ARITH = "arith"
    FMA = "fma"
    MAX = "max"
    SHUFFLE = "shuffle"
    PERMUTE = "permute"
    BLEND = "blend"
    BROADCAST = "broadcast"
    LOAD = "load"
    LOADU = "loadu"
    STORE = "store"
    SCALAR = "scalar"


@dataclass(frozen=True)
class InstructionTiming:
    """Timing of one instruction class.

    Attributes
    ----------
    latency:
        Result latency in cycles (dependency chains).
    rthroughput:
        Reciprocal throughput in cycles per instruction (issue pressure).
    ports:
        Names of the execution ports that can issue the class; used by the
        port-pressure cost model.
    """

    latency: float
    rthroughput: float
    ports: Tuple[str, ...]


def _skylake_timings(avx512: bool) -> Dict[InstructionClass, InstructionTiming]:
    """Skylake-SP style timing table.

    512-bit operation fuses port 0 and port 1 into a single FMA unit on the
    Gold 6140 (it has a second dedicated 512-bit FMA on port 5), which in
    practice keeps arithmetic throughput at ~2 instructions/cycle but makes
    port 5 shuffles compete with FMAs; we encode that by listing port 5 as a
    legal arithmetic port for AVX-512.
    """
    arith_ports: Tuple[str, ...] = ("p0", "p1", "p5") if avx512 else ("p0", "p1")
    return {
        InstructionClass.ARITH: InstructionTiming(4.0, 0.5, arith_ports),
        InstructionClass.FMA: InstructionTiming(4.0, 0.5, arith_ports),
        InstructionClass.MAX: InstructionTiming(4.0, 0.5, arith_ports),
        InstructionClass.SHUFFLE: InstructionTiming(1.0, 1.0, ("p5",)),
        InstructionClass.PERMUTE: InstructionTiming(3.0, 1.0, ("p5",)),
        InstructionClass.BLEND: InstructionTiming(1.0, 0.33, ("p0", "p1", "p5")),
        InstructionClass.BROADCAST: InstructionTiming(3.0, 1.0, ("p5",)),
        InstructionClass.LOAD: InstructionTiming(5.0, 0.5, ("p2", "p3")),
        # Unaligned neighbour loads frequently split a cache line (a 32-byte
        # load at an 8-byte offset splits every other time), which halves the
        # sustained throughput.
        InstructionClass.LOADU: InstructionTiming(6.0, 1.0, ("p2", "p3")),
        InstructionClass.STORE: InstructionTiming(4.0, 1.0, ("p4",)),
        InstructionClass.SCALAR: InstructionTiming(1.0, 0.25, ("p0", "p1", "p5", "p6")),
    }


@dataclass(frozen=True)
class IsaSpec:
    """Description of one SIMD instruction set used by the simulator.

    Attributes
    ----------
    name:
        ``"avx2"`` or ``"avx512"``.
    vector_lanes:
        Number of ``float64`` lanes per register.
    registers:
        Number of architectural vector registers available to a kernel.
    lane_bytes:
        Width of the in-lane shuffle granule (128-bit lane = 16 bytes on both
        ISAs); kept for documentation purposes.
    timings:
        Per-class instruction timings.
    has_fma:
        Whether the ISA has fused multiply-add (both modelled ISAs do); the
        IR's multiply–add fusion pass is gated on it.
    has_two_source_permute:
        Whether the ISA has an arbitrary two-source lane-crossing permute
        (``vpermt2pd`` — AVX-512 only; AVX-2's ``vperm2f128`` is
        block-granular).  Gates the IR's roll/shift coalescing of
        blend+rotate pairs into single two-source permutes.
    """

    name: str
    vector_lanes: int
    registers: int
    lane_bytes: int
    timings: Mapping[InstructionClass, InstructionTiming]
    has_fma: bool = True
    has_two_source_permute: bool = False

    @property
    def vector_bytes(self) -> int:
        """Register width in bytes."""
        return self.vector_lanes * 8

    def timing(self, cls: InstructionClass) -> InstructionTiming:
        """Return the timing entry for instruction class ``cls``."""
        return self.timings[cls]

    @property
    def transpose_stages(self) -> int:
        """Number of exchange stages of the in-register ``vl×vl`` transpose.

        ``log2(vl)``: 2 stages for AVX-2 (Figure 3), 3 stages for AVX-512 —
        matching the paper's Section 2.3.
        """
        stages = 0
        v = self.vector_lanes
        while v > 1:
            v //= 2
            stages += 1
        return stages

    @property
    def transpose_instructions(self) -> int:
        """Instruction count of the in-register ``vl×vl`` transpose.

        ``vl`` instructions per stage: 8 for AVX-2 (the paper's Figure 3),
        24 for AVX-512.
        """
        return self.vector_lanes * self.transpose_stages


#: AVX-2 (256-bit) ISA: 4 doubles per register, 16 ymm registers.
AVX2 = IsaSpec(
    name="avx2",
    vector_lanes=4,
    registers=16,
    lane_bytes=16,
    timings=_skylake_timings(avx512=False),
)

#: AVX-512 (512-bit) ISA: 8 doubles per register, 32 zmm registers.
AVX512 = IsaSpec(
    name="avx512",
    vector_lanes=8,
    registers=32,
    lane_bytes=16,
    timings=_skylake_timings(avx512=True),
    has_two_source_permute=True,
)


def isa_for(name: str) -> IsaSpec:
    """Return the ISA spec named ``name`` (``"avx2"`` or ``"avx512"``)."""
    norm = name.strip().lower()
    if norm == "avx2":
        return AVX2
    if norm == "avx512":
        return AVX512
    raise KeyError(f"unknown ISA {name!r}; expected 'avx2' or 'avx512'")
