"""The ``kernel`` backend: each IR program compiled to C and run natively.

:func:`emit_c` writes one C function per lowered
:class:`~repro.ir.ops.ScheduleIR`, one statement per IR op — the paper's
register-level schedule as SIMD code:

* every virtual register is a GCC vector of ``vl`` doubles;
* loads and stores are ``memcpy``s through vector-set or row pointers that
  are computed, with periodic wrap, once per vector set or block row;
* ``shuf1``/``shuf2`` are ``__builtin_shuffle``; ``fma`` is ``a*b + c``,
  because the simulated FMA rounds twice, and ``-ffp-contract=off`` keeps
  both roundings;
* the horizontal phase's ``("vt", δ, ci, k)`` inputs read a three-slot ring
  over column blocks — the paper's shifts reuse: each square's vertical
  phase runs once per sweep, plus the two priming squares of a block row.

:func:`compile_kernel` builds the source through :mod:`repro.backend.native`
with the ISA flags of the program's ISA that the host supports, loads it
with ``ctypes`` and wraps it in a :class:`KernelProgram`.  Every value is
bit-identical to trace replay of the same IR.  Without a C compiler, or
when the build or the load fails, the program replays the IR on NumPy
(:class:`~repro.ir.executor.CompiledSweep`) and :attr:`KernelProgram.status`
says why; ``CompiledPlan.explain()`` prints it.  A loaded program never
falls back: a failed call raises.

Programs are shared process-wide through a cache keyed by their *content*:
the canonical hash of the lowered program (ops, immediates, tags, wiring),
via :func:`repro.study.hashing.config_hash`.  Two plans whose schedules
lower to the same program — or whose pass pipelines converge on the same
optimized program — share one kernel.  Instruction counts always come from
the IR.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.backend import native
from repro.ir.executor import CompiledSweep, _lower_and_optimize
from repro.ir.ops import IrOp, ScheduleIR
from repro.ir.passes import PassReport
from repro.simd.isa import IsaSpec
from repro.study.hashing import config_hash

__all__ = [
    "KernelProgram",
    "NativeProgram",
    "emit_c",
    "compile_kernel",
    "kernel_content_key",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


# --------------------------------------------------------------------------- #
# content keys
# --------------------------------------------------------------------------- #
def _op_fingerprint(op: IrOp) -> Tuple:
    imm = op.imm
    if isinstance(imm, np.ndarray):
        imm = ("ndarray", imm.dtype.str, tuple(imm.shape), tuple(imm.ravel().tolist()))
    return (
        op.opcode,
        op.dst,
        op.srcs,
        imm,
        op.tag,
        op.cls.name if op.cls is not None else None,
        op.lanes,
    )


def kernel_content_key(ir: ScheduleIR) -> str:
    """Canonical content hash of one lowered program.

    Everything the replay derives from is folded in: the full op stream with
    immediates and tags, the register space, the cross-segment wiring and
    the store layout.  Pass pipelines that converge on the same program
    share the key — the cache is content addressed, not configuration
    addressed.
    """
    parts = (
        ir.isa.name,
        ir.dims,
        ir.m,
        ir.nregs,
        ir.transpose_back,
        ir.vt_out,
        tuple(
            (seg.name, seg.trip, seg.peak_live, seg.spills,
             tuple(_op_fingerprint(op) for op in seg.ops))
            for seg in ir.segments
        ),
    )
    return config_hash("megakernel", parts)


# --------------------------------------------------------------------------- #
# IR -> C
# --------------------------------------------------------------------------- #
_C_PRELUDE = """\
#include <stdint.h>
#include <string.h>

typedef double vec __attribute__((vector_size({bytes})));
typedef int64_t vmask __attribute__((vector_size({bytes})));

/* {source} */
int repro_kernel(const double *restrict x, double *restrict out,
                 int64_t n0, int64_t n1, int64_t n2)
{{
"""

_BINARY = {"mul": "*", "add": "+", "sub": "-"}


def _wrap(index: str, n: str) -> str:
    """C expression of ``index`` modulo ``n``, in ``[0, n)`` for any sign."""
    return f"((({index}) % {n} + {n}) % {n})"


def _offset_name(prefix: str, *offsets: int) -> str:
    return prefix + "_".join(f"m{-o}" if o < 0 else f"p{o}" for o in offsets)


def _emit_ops(
    ops: Sequence[IrOp],
    vl: int,
    load: Callable[[object], str],
    store: Callable[[object], str],
    stage_input: Callable[[object], str],
) -> List[str]:
    """One C statement per op; ``load``/``store``/``stage_input`` map a tag
    to the address (or the ring slot) it names."""
    lines = []
    for op in ops:
        oc, dst = op.opcode, f"r{op.dst}"
        src = [f"r{s}" for s in op.srcs]
        if oc == "const":
            lanes = ", ".join([float(op.imm).hex()] * vl)
            lines.append(f"const vec {dst} = {{{lanes}}};")
        elif oc == "fma":
            lines.append(f"const vec {dst} = {src[0]} * {src[1]} + {src[2]};")
        elif oc in _BINARY:
            lines.append(f"const vec {dst} = {src[0]} {_BINARY[oc]} {src[1]};")
        elif oc in ("shuf1", "shuf2"):
            mask = ", ".join(str(int(lane)) for lane in np.asarray(op.imm).ravel())
            operands = ", ".join(src)
            lines.append(f"const vec {dst} = __builtin_shuffle({operands}, (vmask){{{mask}}});")
        elif oc == "load":
            lines.append(f"vec {dst}; memcpy(&{dst}, {load(op.tag)}, sizeof {dst});")
        elif oc == "store":
            lines.append(f"memcpy({store(op.tag)}, &{src[0]}, sizeof {src[0]});")
        elif oc == "input":
            lines.append(f"const vec {dst} = {stage_input(op.tag)};")
        else:
            raise ValueError(f"IR opcode {oc!r} has no C form")
    return lines


def _slice(ops: Sequence[IrOp], roots: Set[int]) -> List[IrOp]:
    """The ops of ``ops`` that ``roots`` (registers, and every store when
    ``-1`` is among them) depend on, in program order."""
    needed = set(roots)
    kept = []
    for op in reversed(ops):
        if op.dst in needed or (op.opcode == "store" and -1 in roots):
            needed.update(op.srcs)
            kept.append(op)
    return kept[::-1]


def _stages(ir: ScheduleIR) -> Tuple[List[IrOp], List[IrOp]]:
    """``(vertical, horizontal)`` ops of a 2-D/3-D program, split by dataflow.

    The vertical stage is what the ``vt_out`` columns depend on, the
    horizontal stage what the stores depend on.  A software-pipelined
    program keeps both in one merged segment; only block-invariant ops can
    feed both stages (the horizontal stage reads the vertical one through
    its ``vt`` inputs alone), so an op in both slices is safely emitted
    twice.
    """
    trips = {seg.trip: seg for seg in ir.segments}
    if "pipelined" in trips:
        vertical_ops = horizontal_ops = trips["pipelined"].ops
    else:
        vertical_ops, horizontal_ops = trips["vertical"].ops, trips["horizontal"].ops
    vertical = _slice(vertical_ops, {vid for cols in ir.vt_out for vid in cols})
    return vertical, _slice(horizontal_ops, {-1})


def emit_c(ir: ScheduleIR) -> str:
    """C source of ``ir``: ``int repro_kernel(x, out, n0, n1, n2)``, one sweep.

    ``(n0, n1, n2)`` are the block axes (:meth:`ScheduleIR.block_axes`):
    ``(vector sets, 0, 0)`` of a 1-D grid in the transpose layout, or
    ``(planes, row blocks, column blocks)`` of a 2-D/3-D grid.  ``out``
    receives exactly what the trace replay's stores write.  Raises
    ``ValueError`` for a program with an op that has no C form.
    """
    vl = ir.vl
    prologue = ir.segments[0]
    body = _emit_ops(prologue.ops, vl, None, None, None)
    source = ir.source.replace("*/", "* /")
    head = _C_PRELUDE.format(bytes=8 * vl, source=source).splitlines()
    if ir.dims == 1:
        block = ir.segment("block").ops
        deltas = sorted({op.tag[1] for op in block if op.opcode == "load"})
        sets = [
            f"const double *{_offset_name('set_', d)} = x + {_wrap(f's + {d}', 'n0')} * {vl * vl};"
            for d in deltas
        ]
        ops = _emit_ops(
            block,
            vl,
            load=lambda tag: f"{_offset_name('set_', tag[1])} + {tag[2] * vl}",
            store=lambda tag: f"o + {tag[1] * vl}",
            stage_input=None,
        )
        loop = (
            ["(void)n1; (void)n2;", "for (int64_t s = 0; s < n0; ++s) {"]
            + _indent(sets + [f"double *o = out + s * {vl * vl};"] + ops)
            + ["}"]
        )
    else:
        vertical, horizontal = _stages(ir)
        slots = {}
        for ci, cols in enumerate(ir.vt_out):
            for k in range(len(cols)):
                slots[(ci, k)] = len(slots)
        row_offsets = sorted({op.tag[1:] for op in vertical if op.opcode == "load"})
        pointers = [
            f"const double *{_offset_name('row_', dz, s)} = x + "
            f"({_wrap(f'p + {dz}', 'n0')} * rows + {_wrap(f'rb * {vl} + {s}', 'rows')}) * cols;"
            for dz, s in row_offsets
        ]
        ring = {-1: "prev", 0: "cur", 1: "next"}
        v_lines = _emit_ops(
            vertical,
            vl,
            load=lambda tag: f"{_offset_name('row_', tag[1], tag[2])} + vc",
            store=None,
            stage_input=None,
        ) + [
            f"next[{slots[(ci, k)]}] = r{vid};"
            for ci, cols in enumerate(ir.vt_out)
            for k, vid in enumerate(cols)
        ]
        h_lines = _emit_ops(
            horizontal,
            vl,
            load=None,
            store=lambda tag: f"o + {tag[1]} * cols + hc",
            stage_input=lambda tag: f"{ring[tag[1]]}[{slots[tag[2:]]}]",
        )
        loop = [
            f"const int64_t rows = n1 * {vl}, cols = n2 * {vl};",
            f"vec ring[3][{max(1, len(slots))}];",
            "for (int64_t p = 0; p < n0; ++p) {",
            "    for (int64_t rb = 0; rb < n1; ++rb) {",
            *_indent(
                pointers
                + [
                    f"double *o = out + (p * rows + rb * {vl}) * cols;",
                    "vec *prev = ring[0], *cur = ring[1], *next = ring[2];",
                    "/* vertical phase of column block i - 1, horizontal of i - 2 */",
                    "for (int64_t i = 0; i < n2 + 2; ++i) {",
                    *_indent(
                        ["{", f"    const int64_t vc = {_wrap('i - 1', 'n2')} * {vl};"]
                        + _indent(v_lines)
                        + ["}", "if (i >= 2) {", f"    const int64_t hc = (i - 2) * {vl};"]
                        + _indent(h_lines)
                        + ["}", "vec *spent = prev; prev = cur; cur = next; next = spent;"]
                    ),
                    "}",
                ],
                2,
            ),
            "    }",
            "}",
        ]
    return "\n".join(head + _indent(body + loop) + ["    return 0;", "}", ""])


def _indent(lines: Sequence[str], levels: int = 1) -> List[str]:
    pad = "    " * levels
    return [pad + line for line in lines]


# --------------------------------------------------------------------------- #
# the loaded program
# --------------------------------------------------------------------------- #
class NativeProgram:
    """The loaded ``repro_kernel`` function and the library it came from."""

    def __init__(self, library: ctypes.CDLL, path: Path):
        fn = library.repro_kernel
        fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_int64] * 3
        fn.restype = ctypes.c_int
        self._fn = fn
        self._library = library
        self.path = path

    def __call__(self, values: np.ndarray, out: np.ndarray, axes: Tuple[int, ...]) -> None:
        """One sweep of ``values`` into ``out``, both already checked by
        :meth:`CompiledSweep._operands <repro.ir.executor.CompiledSweep._operands>`."""
        n0, n1, n2 = (*axes, 0, 0)[:3]
        status = self._fn(values.ctypes.data, out.ctypes.data, n0, n1, n2)
        if status != 0:
            raise RuntimeError(f"native kernel {self.path.name} failed with status {status}")


def _build_native(ir: ScheduleIR) -> Tuple[Optional[NativeProgram], str]:
    """``(program, status)``: the loaded C form of ``ir``, or ``None`` and why not."""
    compiler = native.find_c_compiler()
    if compiler is None:
        return None, "ir replay (no C compiler on PATH)"
    try:
        source = emit_c(ir)
    except ValueError as exc:
        return None, f"ir replay ({exc})"
    flags, note = native.isa_flags(ir.isa.name, compiler)
    try:
        path = native.build_library("kernel", source, compiler, flags)
        program = NativeProgram(ctypes.CDLL(str(path)), path)
    except (native.NativeBuildError, OSError, AttributeError) as exc:
        return None, f"ir replay ({exc})"
    detail = " ".join(flags) or "no ISA flags"
    return program, f"native ({path}, {detail}{'; ' + note if note else ''})"


class KernelProgram(CompiledSweep):
    """One IR program with its content :attr:`key`, run as native code.

    :attr:`native` is the loaded C program, or ``None`` when the process
    could not build it; :attr:`status` reads ``native (<.so>, <ISA flags>)``
    or ``ir replay (<reason>)``.  Counts come from the IR either way.
    """

    def __init__(
        self,
        ir: ScheduleIR,
        key: str,
        pass_reports: Tuple[PassReport, ...] = (),
    ):
        super().__init__(ir, pass_reports=pass_reports)
        self.key = key
        self.native, self.status = _build_native(ir)

    def replay(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """One sweep over every block position — the contract of
        :meth:`CompiledSweep.replay <repro.ir.executor.CompiledSweep.replay>`."""
        # Defined here rather than inherited, so patching one engine's
        # replay (perfbench's timing hooks) leaves the other's alone.
        if self.native is None:
            return self._replay(values, out)
        values, out, axes = self._operands(values, out)
        self.native(values, out, axes)
        return self._stored(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelProgram(key={self.key!r}, isa={self.isa.name!r}, dims={self.dims})"


# --------------------------------------------------------------------------- #
# content-keyed compilation cache
# --------------------------------------------------------------------------- #
_CACHE_LOCK = threading.Lock()
_KERNEL_CACHE: Dict[str, KernelProgram] = {}
_CACHE_HITS = 0
_CACHE_MISSES = 0


def kernel_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry accounting of the process-wide kernel cache."""
    with _CACHE_LOCK:
        return {"hits": _CACHE_HITS, "misses": _CACHE_MISSES, "entries": len(_KERNEL_CACHE)}


def clear_kernel_cache() -> None:
    """Drop every cached kernel and reset the accounting (test isolation)."""
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0


def compile_kernel(
    schedule,
    isa: IsaSpec,
    transpose_back: bool = True,
    optimize: Union[bool, Sequence, None] = False,
) -> KernelProgram:
    """Lower ``schedule``, optionally optimize, and fetch/build its kernel.

    The signature mirrors :func:`repro.ir.executor.compile_sweep`; the result
    is shared process-wide through the content-key cache: any (schedule,
    isa, pass pipeline) combination that lowers to the same program reuses
    the same :class:`KernelProgram`.  A miss builds the program's C form
    (a ``dlopen`` when the on-disk cache already holds it).
    """
    global _CACHE_HITS, _CACHE_MISSES
    ir, reports = _lower_and_optimize(schedule, isa, transpose_back, optimize)
    key = kernel_content_key(ir)
    with _CACHE_LOCK:
        program = _KERNEL_CACHE.get(key)
        if program is not None:
            _CACHE_HITS += 1
            return program
    program = KernelProgram(ir, key, pass_reports=reports)
    with _CACHE_LOCK:
        existing = _KERNEL_CACHE.get(key)
        if existing is not None:
            _CACHE_HITS += 1
            return existing
        _CACHE_MISSES += 1
        _KERNEL_CACHE[key] = program
    return program
