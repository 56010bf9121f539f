"""Machine descriptions used throughout the reproduction.

The paper evaluates on a dual-socket Intel Xeon Gold 6140 (Skylake-SP,
2×18 cores, AVX-512).  We do not have that machine (or any machine whose
native SIMD behaviour we can measure from Python), so the performance side of
the reproduction is driven by an explicit :class:`MachineSpec` that records
the quantities the paper's reasoning depends on:

* SIMD vector width (4 doubles for AVX-2, 8 for AVX-512) and the number of
  architectural vector registers,
* cache hierarchy sizes and per-level bandwidths,
* core counts and the frequency behaviour, including the AVX-512 *throttling*
  the paper calls out explicitly (3.70 GHz turbo → 3.00 GHz with all 18 cores
  active → 2.10 GHz under heavy AVX-512),
* peak FLOP throughput per core (2 FMA ports × vector width × 2 flops).

:data:`XEON_GOLD_6140_AVX2` and :data:`XEON_GOLD_6140_AVX512` encode the
evaluation machine of the paper in its two instruction-set configurations.
The cost model in :mod:`repro.perfmodel` and the multicore model in
:mod:`repro.parallel.model` consume these specs; the SIMD simulator in
:mod:`repro.simd` consumes the ISA-related fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class CacheLevelSpec:
    """Description of one cache level.

    Attributes
    ----------
    name:
        Human readable level name (``"L1"``, ``"L2"``, ``"L3"``).
    capacity_bytes:
        Usable capacity per *sharing domain* (per core for private caches,
        per socket for the shared L3).
    line_bytes:
        Cache line size in bytes.
    bandwidth_bytes_per_cycle:
        Sustained bandwidth between this level and the core (per core), in
        bytes per cycle.  Used by the roofline cost model.
    shared:
        ``True`` if the level is shared between the cores of a socket.
    """

    name: str
    capacity_bytes: int
    line_bytes: int
    bandwidth_bytes_per_cycle: float
    shared: bool = False


@dataclass(frozen=True)
class FrequencySpec:
    """Clock frequency behaviour of the machine.

    The Xeon Gold 6140 reduces its clock when many cores are active and again
    when heavy 512-bit instructions are executed; the paper blames this
    throttling for the mediocre AVX-512 results on 3-D stencils.  The model is
    deliberately simple: a base frequency, a single-core turbo, an all-core
    turbo, and an all-core AVX-512 frequency, with linear interpolation on the
    number of active cores.
    """

    base_ghz: float
    turbo_1core_ghz: float
    turbo_allcore_ghz: float
    avx512_allcore_ghz: float

    def effective_ghz(self, active_cores: int, total_cores: int, avx512: bool) -> float:
        """Return the modelled clock frequency in GHz.

        Parameters
        ----------
        active_cores:
            Number of cores running the kernel.
        total_cores:
            Number of physical cores in the machine.
        avx512:
            ``True`` when the kernel issues 512-bit instructions.
        """
        if active_cores < 1:
            raise ValueError("active_cores must be >= 1")
        active_cores = min(active_cores, total_cores)
        frac = 0.0 if total_cores <= 1 else (active_cores - 1) / (total_cores - 1)
        hi = self.turbo_1core_ghz
        lo = self.avx512_allcore_ghz if avx512 else self.turbo_allcore_ghz
        return hi + (lo - hi) * frac


@dataclass(frozen=True)
class MachineSpec:
    """Full description of the evaluation machine for one ISA configuration.

    Attributes
    ----------
    name:
        Identifier (used in reports).
    isa:
        ``"avx2"`` or ``"avx512"``.
    vector_lanes:
        SIMD width in ``float64`` lanes (4 for AVX-2, 8 for AVX-512).
    vector_registers:
        Number of architectural SIMD registers visible to a kernel
        (16 ymm for AVX-2, 32 zmm for AVX-512).
    cores_per_socket / sockets:
        Physical core topology.
    caches:
        Cache levels ordered from closest (L1) to farthest (L3).
    memory_bandwidth_gbs:
        Sustained DRAM bandwidth per socket in GB/s.
    frequency:
        Clock behaviour, including AVX-512 throttling.
    fma_ports:
        Number of SIMD FMA execution ports per core.
    """

    name: str
    isa: str
    vector_lanes: int
    vector_registers: int
    cores_per_socket: int
    sockets: int
    caches: Tuple[CacheLevelSpec, ...]
    memory_bandwidth_gbs: float
    frequency: FrequencySpec
    fma_ports: int = 2
    #: Sustained DRAM bandwidth a *single* core can extract (GB/s).  One core
    #: cannot saturate the socket's memory controllers, which is why the
    #: paper's sequential memory-resident runs are not purely bandwidth bound
    #: and why the multicore curves keep scaling until the aggregate demand
    #: reaches the socket bandwidth.
    single_core_memory_bandwidth_gbs: float = 14.0

    @property
    def total_cores(self) -> int:
        """Total physical cores across all sockets."""
        return self.cores_per_socket * self.sockets

    @property
    def vector_bytes(self) -> int:
        """SIMD register width in bytes (``vector_lanes`` doubles)."""
        return self.vector_lanes * 8

    @property
    def peak_flops_per_cycle_per_core(self) -> float:
        """Peak double-precision flops per cycle per core (FMA counted as 2)."""
        return self.fma_ports * self.vector_lanes * 2

    def peak_gflops(self, active_cores: int | None = None) -> float:
        """Peak GFLOP/s for ``active_cores`` cores (default: all cores).

        The AVX-512 configuration of the Xeon Gold 6140 peaks at
        73.6 GFLOP/s per core at the 2.30 GHz base clock, matching the number
        quoted in the paper's Section 4.1.
        """
        cores = self.total_cores if active_cores is None else active_cores
        ghz = self.frequency.effective_ghz(cores, self.total_cores, self.isa == "avx512")
        return self.peak_flops_per_cycle_per_core * ghz * cores

    def cache_level(self, name: str) -> CacheLevelSpec:
        """Return the cache level named ``name`` (case-insensitive)."""
        for lvl in self.caches:
            if lvl.name.lower() == name.lower():
                return lvl
        raise KeyError(f"no cache level named {name!r} in machine {self.name!r}")

    def memory_bytes_per_cycle(self, active_cores: int, avx512: bool | None = None) -> float:
        """DRAM bandwidth available *per active core*, in bytes per core cycle.

        The per-socket bandwidth is shared between the active cores of that
        socket; threads are assumed to be spread evenly across sockets (the
        paper uses compact OpenMP pinning across both sockets at 36 threads,
        and the scalability experiments sweep cores within that placement).
        """
        if avx512 is None:
            avx512 = self.isa == "avx512"
        ghz = self.frequency.effective_ghz(active_cores, self.total_cores, avx512)
        sockets_used = min(self.sockets, max(1, -(-active_cores // self.cores_per_socket)))
        total_bw = self.memory_bandwidth_gbs * sockets_used * 1e9
        per_core = total_bw / max(1, active_cores)
        per_core = min(per_core, self.single_core_memory_bandwidth_gbs * 1e9)
        return per_core / (ghz * 1e9)


def _xeon_6140_caches() -> Tuple[CacheLevelSpec, ...]:
    """Cache hierarchy of one Xeon Gold 6140 core/socket (Skylake-SP)."""
    return (
        CacheLevelSpec(
            name="L1",
            capacity_bytes=32 * 1024,
            line_bytes=64,
            bandwidth_bytes_per_cycle=128.0,
            shared=False,
        ),
        CacheLevelSpec(
            name="L2",
            capacity_bytes=1024 * 1024,
            line_bytes=64,
            bandwidth_bytes_per_cycle=64.0,
            shared=False,
        ),
        CacheLevelSpec(
            name="L3",
            capacity_bytes=int(24.75 * 1024 * 1024),
            line_bytes=64,
            bandwidth_bytes_per_cycle=16.0,
            shared=True,
        ),
    )


#: The paper's machine running 256-bit AVX-2 code (vl = 4 doubles).
XEON_GOLD_6140_AVX2 = MachineSpec(
    name="Xeon Gold 6140 (AVX-2)",
    isa="avx2",
    vector_lanes=4,
    vector_registers=16,
    cores_per_socket=18,
    sockets=2,
    caches=_xeon_6140_caches(),
    memory_bandwidth_gbs=110.0,
    frequency=FrequencySpec(
        base_ghz=2.30,
        turbo_1core_ghz=3.70,
        turbo_allcore_ghz=3.00,
        avx512_allcore_ghz=3.00,
    ),
)

#: The paper's machine running 512-bit AVX-512 code (vl = 8 doubles).
XEON_GOLD_6140_AVX512 = MachineSpec(
    name="Xeon Gold 6140 (AVX-512)",
    isa="avx512",
    vector_lanes=8,
    vector_registers=32,
    cores_per_socket=18,
    sockets=2,
    caches=_xeon_6140_caches(),
    memory_bandwidth_gbs=110.0,
    frequency=FrequencySpec(
        base_ghz=2.30,
        turbo_1core_ghz=3.70,
        turbo_allcore_ghz=3.00,
        avx512_allcore_ghz=2.10,
    ),
)

#: Registry of the machines used by the experiment harness, keyed by ISA.
MACHINES: Dict[str, MachineSpec] = {
    "avx2": XEON_GOLD_6140_AVX2,
    "avx512": XEON_GOLD_6140_AVX512,
}


#: SIMD register file per ISA: ``isa -> (float64 lanes, architectural regs)``.
_ISA_REGISTER_FILES: Dict[str, Tuple[int, int]] = {
    "avx2": (4, 16),
    "avx512": (8, 32),
}


def isa_variant(machine: MachineSpec, isa: str) -> MachineSpec:
    """Return ``machine`` reconfigured for ``isa``.

    The multicore experiments evaluate the *same physical machine* in both
    instruction-set configurations (the AVX-512 series of Figure 9/10).  For
    the bundled Xeon Gold 6140 specs this returns the exact registered
    counterpart; for a user-supplied machine it derives the variant by
    swapping the SIMD register file (4×ymm16 for AVX-2, 8×zmm32 for
    AVX-512) while keeping the topology, caches, bandwidths and frequency
    behaviour — a custom spec models AVX-512 throttling through its own
    ``FrequencySpec.avx512_allcore_ghz``, which applies in either variant.
    """
    isa = isa.strip().lower()
    if isa not in _ISA_REGISTER_FILES:
        raise KeyError(f"unknown ISA {isa!r}; expected one of {sorted(_ISA_REGISTER_FILES)}")
    if machine.isa == isa:
        return machine
    if machine in MACHINES.values():
        return MACHINES[isa]
    lanes, registers = _ISA_REGISTER_FILES[isa]
    name = machine.name
    # Strip a variant suffix this function previously appended, so repeated
    # derivation never stacks suffixes.
    for variant_isa in _ISA_REGISTER_FILES:
        suffix = f" [{variant_isa}]"
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    for tag, variant_isa in (("(AVX-2)", "avx2"), ("(AVX-512)", "avx512")):
        if tag in name and variant_isa != isa:
            other = "(AVX-512)" if isa == "avx512" else "(AVX-2)"
            name = name.replace(tag, other)
            break
    else:
        name = f"{name} [{isa}]"
    return replace(
        machine, isa=isa, vector_lanes=lanes, vector_registers=registers, name=name
    )


def scalability_cores(machine: MachineSpec) -> Tuple[int, ...]:
    """Core counts to sweep in a scalability experiment on ``machine``.

    Mirrors the sampling of the paper's Figure 10: geometric (powers of two)
    through the low end, then roughly six evenly spaced points up to the
    full machine.  For the Xeon Gold 6140 this reproduces the paper's sweep
    ``(1, 2, 4, 8, 12, 18, 24, 30, 36)`` exactly; any other
    :class:`MachineSpec` gets a sweep of the same shape ending at its own
    ``total_cores``.
    """
    total = machine.total_cores
    step = max(1, round(total / 6))
    cores = [1]
    while cores[-1] * 2 < 2 * step:
        cores.append(cores[-1] * 2)
    nxt = (cores[-1] // step + 1) * step
    while nxt <= total:
        cores.append(nxt)
        nxt += step
    if cores[-1] != total:
        cores.append(total)
    return tuple(cores)


def machine_for_isa(isa: str) -> MachineSpec:
    """Return the evaluation machine configured for ``isa``.

    Parameters
    ----------
    isa:
        ``"avx2"`` or ``"avx512"``.
    """
    try:
        return MACHINES[isa.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown ISA {isa!r}; expected one of {sorted(MACHINES)}") from exc
