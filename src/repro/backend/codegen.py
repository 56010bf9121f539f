"""The ``kernel`` backend: each IR program compiled to C and run natively.

:func:`emit_c` writes one C function per lowered
:class:`~repro.ir.ops.ScheduleIR`, one statement per IR op — the paper's
register-level schedule as SIMD code:

* every virtual register is a GCC vector of ``vl`` doubles;
* 2-D/3-D loads and stores are ``memcpy``s through row pointers that are
  computed once per block row: wrapped on a periodic grid, aimed at a row
  of zeros outside a Dirichlet one;
* ``shuf1``/``shuf2`` are ``__builtin_shuffle``; ``fma`` is ``a*b + c``,
  because the simulated FMA rounds twice, and ``-ffp-contract=off`` keeps
  both roundings;
* the horizontal phase's ``("vt", δ, ci, k)`` inputs read a three-slot ring
  over column blocks — the paper's shifts reuse: each square's vertical
  phase runs once per sweep, plus the two priming squares of a block row,
  which on a Dirichlet grid read the row of zeros, so their slots hold
  zeros;
* a 1-D program reads its vector sets from a three-set ring, each set
  loaded once per sweep — and transposed in registers when the grid is in
  the original layout — and transposes its results back before the store
  when the output is; past either end of a Dirichlet grid the ring holds a
  set of zeros.

On a Dirichlet grid the program thus reads the zero halo the fold kernel
reads, and returns its bits.

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

The default folded ``CompiledPlan.run()`` takes a schedule's raw program
too, built off the caller's thread: :func:`background_build` queues it on
one daemon thread, once per configuration, and :func:`wait_for_builds`
waits for that thread to go idle.
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backend import native
from repro.ir.executor import CompiledSweep, _lower_and_optimize
from repro.ir.ops import IrOp, ScheduleIR
from repro.ir.passes import PassReport
from repro.layout.transpose_layout import from_transpose_layout, to_transpose_layout
from repro.simd.isa import IsaSpec
from repro.stencils.boundary import BoundaryCondition
from repro.study.hashing import config_hash

__all__ = [
    "BackgroundBuild",
    "KernelProgram",
    "NativeProgram",
    "emit_c",
    "compile_kernel",
    "cached_kernel",
    "kernel_content_key",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "background_build",
    "wait_for_builds",
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
    immediates and tags, the register space and the cross-segment wiring.
    Pass pipelines that converge on the same program share the key — the
    cache is content addressed, not configuration addressed.
    """
    parts = (
        ir.isa.name,
        ir.dims,
        ir.m,
        ir.nregs,
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
#include <stdlib.h>
#include <string.h>

typedef double vec __attribute__((vector_size({bytes})));
typedef int64_t vmask __attribute__((vector_size({bytes})));
"""

_C_SIGNATURE = """\
/* {source} */
int repro_kernel(const double *restrict x, double *restrict out,
                 int64_t n0, int64_t n1, int64_t n2,
                 int32_t x_original, int32_t out_original, int32_t dirichlet)
{{
"""

#: Row ``row`` of plane ``plane``: wrapped into the grid on a periodic grid,
#: the row of zeros outside a Dirichlet one.
_C_ROW = """\
static inline const double *repro_row(const double *x, const double *zero, int64_t plane,
                                      int64_t row, int64_t planes, int64_t rows, int64_t cols)
{
    if (plane < 0 || plane >= planes || row < 0 || row >= rows) {
        if (zero != NULL)
            return zero;
        plane = (plane % planes + planes) % planes;
        row = (row % rows + rows) % rows;
    }
    return x + (plane * rows + row) * cols;
}
"""

_BINARY = {"mul": "*", "add": "+", "sub": "-"}


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
    """``(vertical, horizontal)`` ops of a 2-D/3-D program: what the
    ``vt_out`` columns depend on, and what the stores depend on."""
    vertical = _slice(ir.segment("vertical").ops, {vid for cols in ir.vt_out for vid in cols})
    return vertical, _slice(ir.segment("horizontal").ops, {-1})


def _transpose_sets(vl: int) -> List[str]:
    """C helpers that move one 1-D vector set between the layouts.

    ``repro_transpose`` transposes ``vl`` registers in ``log2(vl)`` stages of
    two-source shuffles; stage ``b`` swaps bit ``b`` of the register index
    with bit ``b`` of the lane index.  ``repro_load_set`` and
    ``repro_store_set`` copy a set of ``vl²`` doubles, transposing it when
    memory holds it in the original layout.
    """
    regs = [f"a{i}" for i in range(vl)]
    lines = ["static inline void repro_transpose(vec *r)", "{"]
    lines += [f"    vec {reg} = r[{i}];" for i, reg in enumerate(regs)]
    b, stage = 1, 0
    while b < vl:
        new = [f"s{stage}_{i}" for i in range(vl)]
        low = ", ".join(str(lane if not lane & b else vl + lane - b) for lane in range(vl))
        high = ", ".join(str(lane + b if not lane & b else vl + lane) for lane in range(vl))
        for i in range(vl):
            if i & b:
                continue
            pair = f"{regs[i]}, {regs[i | b]}"
            lines.append(f"    vec {new[i]} = __builtin_shuffle({pair}, (vmask){{{low}}});")
            lines.append(f"    vec {new[i | b]} = __builtin_shuffle({pair}, (vmask){{{high}}});")
        regs, b, stage = new, 2 * b, stage + 1
    lines += [f"    r[{i}] = {reg};" for i, reg in enumerate(regs)]
    lines += ["}", ""]
    lines += [
        "static inline void repro_load_set(vec *set, const double *x, int32_t original)",
        "{",
        f"    memcpy(set, x, {vl} * sizeof(vec));",
        "    if (original)",
        "        repro_transpose(set);",
        "}",
        "",
        "static inline void repro_store_set(double *o, vec *set, int32_t original)",
        "{",
        "    if (original)",
        "        repro_transpose(set);",
        f"    memcpy(o, set, {vl} * sizeof(vec));",
        "}",
        "",
    ]
    return lines


def emit_c(ir: ScheduleIR) -> str:
    """C source of ``ir``: ``int repro_kernel(x, out, n0, n1, n2, x_original,
    out_original, dirichlet)``, one sweep.

    ``(n0, n1, n2)`` are the block axes (:meth:`ScheduleIR.block_axes`):
    ``(vector sets, 0, 0)`` of a 1-D grid, or ``(planes, row blocks, column
    blocks)`` of a 2-D/3-D grid.  A 1-D program reads ``x`` and writes
    ``out`` in the transpose layout, or in the original layout where
    ``x_original``/``out_original`` is non-zero: it transposes each vector
    set once in registers into a three-set ring, and each result set before
    it stores it.  2-D/3-D grids are in the original layout and ignore both
    flags.  Reads outside the grid wrap, or read zeros where ``dirichlet``
    is non-zero: the vector sets past a 1-D grid's ends, the rows and planes
    past a 2-D/3-D grid's faces and the column blocks past its row ends.
    ``out`` receives exactly what the trace replay's stores write on a
    periodic grid.  The function keeps no static state; it returns 0, or 1
    when it cannot allocate its row of zeros.  Raises ``ValueError`` for a
    program with an op that has no C form.
    """
    vl = ir.vl
    prologue = ir.segments[0]
    body = _emit_ops(prologue.ops, vl, None, None, None)
    source = ir.source.replace("*/", "* /")
    head = _C_PRELUDE.format(bytes=8 * vl).splitlines() + [""]
    head += _transpose_sets(vl) if ir.dims == 1 else _C_ROW.splitlines() + [""]
    head += _C_SIGNATURE.format(source=source).splitlines()
    ring = {-1: "prev", 0: "cur", 1: "next"}
    if ir.dims == 1:
        ops = _emit_ops(
            ir.segment("block").ops,
            vl,
            load=lambda tag: f"{ring[tag[1]]} + {tag[2]}",
            store=lambda tag: f"result + {tag[1]}",
            stage_input=None,
        )
        loop = [
            "(void)n1; (void)n2;",
            "if (n0 <= 0)",
            "    return 0;",
            f"vec ring[3][{vl}], result[{vl}];",
            "vec *prev = ring[0], *cur = ring[1], *next = ring[2];",
            "if (dirichlet)",
            "    memset(prev, 0, sizeof ring[0]);",
            "else",
            f"    repro_load_set(prev, x + (n0 - 1) * {vl * vl}, x_original);",
            "repro_load_set(cur, x, x_original);",
            "for (int64_t s = 0; s < n0; ++s) {",
            *_indent(
                [
                    "if (s + 1 < n0)",
                    f"    repro_load_set(next, x + (s + 1) * {vl * vl}, x_original);",
                    "else if (dirichlet)",
                    "    memset(next, 0, sizeof ring[0]);",
                    "else",
                    "    repro_load_set(next, x, x_original);",
                ]
                + ops
                + [
                    f"repro_store_set(out + s * {vl * vl}, result, out_original);",
                    "vec *spent = prev; prev = cur; cur = next; next = spent;",
                ]
            ),
            "}",
            "return 0;",
        ]
    else:
        vertical, horizontal = _stages(ir)
        slots = {}
        for ci, cols in enumerate(ir.vt_out):
            for k in range(len(cols)):
                slots[(ci, k)] = len(slots)
        row_offsets = sorted({op.tag[1:] for op in vertical if op.opcode == "load"})
        row_index = {offset: k for k, offset in enumerate(row_offsets)}
        nrows = max(1, len(row_offsets))
        v_lines = _emit_ops(
            vertical,
            vl,
            load=lambda tag: f"row[{row_index[tag[1:]]}] + vc",
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
            "(void)x_original; (void)out_original;",
            "if (n0 <= 0 || n1 <= 0 || n2 <= 0)",
            "    return 0;",
            f"const int64_t rows = n1 * {vl}, cols = n2 * {vl};",
            "/* the rows outside a Dirichlet grid */",
            "double *zero = NULL;",
            "if (dirichlet && (zero = calloc(cols, sizeof *zero)) == NULL)",
            "    return 1;",
            "/* per vertical-phase row: [0] the block row's, [1] the zero row, read",
            " * by the column blocks before the first and after the last of a",
            " * Dirichlet grid (their vertical phase then holds zeros) */",
            f"const double *rowtab[2][{nrows}];",
            f"for (int k = 0; k < {nrows}; ++k)",
            "    rowtab[1][k] = zero;",
            f"vec ring[3][{max(1, len(slots))}];",
            "for (int64_t p = 0; p < n0; ++p) {",
            "    for (int64_t rb = 0; rb < n1; ++rb) {",
            *_indent(
                [
                    f"rowtab[0][{k}] = "
                    f"repro_row(x, zero, p + {dz}, rb * {vl} + {s}, n0, rows, cols);"
                    for k, (dz, s) in enumerate(row_offsets)
                ]
                + [
                    f"double *o = out + (p * rows + rb * {vl}) * cols;",
                    "vec *prev = ring[0], *cur = ring[1], *next = ring[2];",
                    "/* vertical phase of column block i - 1, horizontal of i - 2 */",
                    "for (int64_t i = 0; i < n2 + 2; ++i) {",
                    # The edge column blocks of a Dirichlet grid pick the zero
                    # rows by index, not by a branch: a branch around, or
                    # after, the vertical phase cost the periodic 3-D
                    # programs 9-16% of their sweep time at 96³.
                    *_indent(
                        [
                            "const double *const *row = rowtab[dirichlet && (i == 0 || i > n2)];",
                            f"const int64_t vc = ((i - 1) % n2 + n2) % n2 * {vl};",
                        ]
                        + v_lines
                        + ["if (i >= 2) {", f"    const int64_t hc = (i - 2) * {vl};"]
                        + _indent(h_lines)
                        + ["}", "vec *spent = prev; prev = cur; cur = next; next = spent;"]
                    ),
                    "}",
                ],
                2,
            ),
            "    }",
            "}",
            "free(zero);",
            "return 0;",
        ]
    return "\n".join(head + _indent(body + loop) + ["}", ""])


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
        fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3 + [ctypes.c_int32] * 3
        fn.restype = ctypes.c_int
        self._fn = fn
        self._library = library
        self.path = path

    def __call__(
        self,
        values: np.ndarray,
        out: np.ndarray,
        axes: Tuple[int, ...],
        originals: Tuple[bool, bool] = (False, False),
        dirichlet: bool = False,
    ) -> None:
        """One sweep of ``values`` into ``out``, both already checked by
        :meth:`CompiledSweep._operands <repro.ir.executor.CompiledSweep._operands>`;
        ``originals`` says whether a 1-D program's grid and result are in
        the original layout, ``dirichlet`` whether reads outside the grid
        read zeros instead of wrapping."""
        n0, n1, n2 = (*axes, 0, 0)[:3]
        status = self._fn(values.ctypes.data, out.ctypes.data, n0, n1, n2, *originals, dirichlet)
        if status != 0:
            raise RuntimeError(f"native kernel {self.path.name} failed with status {status}")


def _build_native(ir: ScheduleIR) -> Tuple[Optional[NativeProgram], str]:
    """``(program, detail)``: the loaded C form of ``ir`` with its library and
    ISA flags, or ``None`` and why not."""
    compiler = native.find_c_compiler()
    if compiler is None:
        return None, "no C compiler on PATH"
    try:
        source = emit_c(ir)
    except ValueError as exc:
        return None, str(exc)
    flags, note = native.isa_flags(ir.isa.name, compiler)
    try:
        path = native.build_library("kernel", source, compiler, flags)
        program = NativeProgram(ctypes.CDLL(str(path)), path)
    except (native.NativeBuildError, OSError, AttributeError) as exc:
        return None, str(exc)
    return program, native.describe_build(path, flags, note)


#: Layout names of :meth:`KernelProgram.replay`'s ``layouts``: is it the original?
_LAYOUTS = {"transpose": False, "original": True}


class KernelProgram(CompiledSweep):
    """One IR program with its content :attr:`key`, run as native code.

    :attr:`native` is the loaded C program, or ``None`` when the process
    could not build it; :attr:`status` reads ``native (<.so>, <ISA flags>)``
    or ``ir replay (<reason>)``, and :attr:`detail` is what the parentheses
    hold.  Counts come from the IR either way.
    """

    def __init__(
        self,
        ir: ScheduleIR,
        key: str,
        pass_reports: Tuple[PassReport, ...] = (),
    ):
        super().__init__(ir, pass_reports=pass_reports)
        self.key = key
        self.native, self.detail = _build_native(ir)
        self.status = f"{'native' if self.native else 'ir replay'} ({self.detail})"

    def replay(
        self,
        values: np.ndarray,
        out: Optional[np.ndarray] = None,
        layouts: Tuple[str, str] = ("transpose", "transpose"),
        boundary: BoundaryCondition = BoundaryCondition.PERIODIC,
    ) -> np.ndarray:
        """One sweep over every block position — the contract of
        :meth:`CompiledSweep.replay <repro.ir.executor.CompiledSweep.replay>`.

        ``layouts`` names the layouts of a 1-D grid and of its result, each
        ``"transpose"`` (the contract's) or ``"original"``: the native
        program transposes in registers, IR replay on NumPy.  2-D/3-D grids
        are in the original layout whatever ``layouts`` says.  On a
        ``boundary`` of :attr:`BoundaryCondition.DIRICHLET` the native
        program reads zeros outside the grid (:func:`emit_c`); IR replay
        sweeps periodic grids only and raises ``ValueError`` there.
        """
        # Defined here rather than inherited, so patching one engine's
        # replay (perfbench's timing hooks) leaves the other's alone.
        try:
            originals = tuple(_LAYOUTS[name] for name in layouts)
        except KeyError:
            raise ValueError(f"unknown layouts {layouts!r}; use 'transpose' or 'original'")
        if self.dims > 1:
            originals = (False, False)
        dirichlet = BoundaryCondition(boundary) is BoundaryCondition.DIRICHLET
        if self.native is not None:
            values, out, axes = self._operands(values, out)
            self.native(values, out, axes, originals, dirichlet)
            return out
        if dirichlet:
            raise ValueError(
                "IR replay sweeps periodic grids only, and this program has no "
                f"native code for a Dirichlet grid ({self.detail})"
            )
        if not any(originals):
            return self._replay(values, out)
        # IR replay sweeps the transpose layout; transform around it.
        values, out, _ = self._operands(values, out)
        if originals[0]:
            values = to_transpose_layout(values, self.vl)
        if not originals[1]:
            return self._replay(values, out)
        out[...] = from_transpose_layout(self._replay(values, None), self.vl)
        return out

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
    """Drop every cached kernel and reset the accounting (test isolation).

    The registry of background builds is dropped too, so the next
    :func:`background_build` of any configuration queues a new build.  A
    build already handed out keeps its program, and a queued one still runs.
    """
    global _CACHE_HITS, _CACHE_MISSES
    with _CACHE_LOCK:
        _KERNEL_CACHE.clear()
        _CACHE_HITS = 0
        _CACHE_MISSES = 0
    with _BUILDS_CV:
        _BUILDS.clear()


def compile_kernel(schedule, isa: IsaSpec, *, optimize: Optional[bool] = False) -> KernelProgram:
    """Lower ``schedule``, optionally optimize, and fetch/build its kernel.

    The signature mirrors :func:`repro.ir.executor.compile_sweep`, ``optimize``
    included; the result is shared process-wide through the content-key
    cache: any (schedule, isa, ``optimize``) combination that lowers to the
    same program reuses the same :class:`KernelProgram`.  A miss builds the
    program's C form (a ``dlopen`` when the on-disk cache already holds it).
    """
    global _CACHE_HITS, _CACHE_MISSES
    ir, reports = _lower_and_optimize(schedule, isa, optimize)
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


def cached_kernel(ir: ScheduleIR) -> Optional[KernelProgram]:
    """The content-key cache's program for ``ir``, or ``None``; builds nothing."""
    key = kernel_content_key(ir)
    with _CACHE_LOCK:
        return _KERNEL_CACHE.get(key)


# --------------------------------------------------------------------------- #
# background builds of the default run()'s programs
# --------------------------------------------------------------------------- #
class BackgroundBuild:
    """The raw program of one configuration, built on the background thread.

    :attr:`status` reads ``queued``, then ``building``, then the built
    program's :attr:`KernelProgram.status` when it loaded natively, or
    ``failed (<reason>)``; :attr:`done` is set once it finished, and
    :attr:`error` holds an exception the build raised, with its traceback.
    """

    def __init__(self) -> None:
        self.program: Optional[KernelProgram] = None
        self.status = "queued"
        self.error: Optional[Exception] = None
        self.done = threading.Event()

    @property
    def native(self) -> Optional[KernelProgram]:
        """The program once it loaded natively, else ``None``."""
        program = self.program
        return program if program is not None and program.native is not None else None


_BUILDS_CV = threading.Condition()
#: Configuration key -> its build, queued or finished.
_BUILDS: Dict[Tuple, BackgroundBuild] = {}
_BUILD_JOBS: Deque[Tuple[BackgroundBuild, object, IsaSpec]] = deque()
_builder: Optional[threading.Thread] = None


def _configuration_key(schedule, isa: IsaSpec) -> Tuple:
    """What a raw program depends on: the stencil's weights (never its name),
    the fold factor, the ISA and the dimensionality."""
    kernel = np.ascontiguousarray(schedule.spec.kernel, dtype=np.float64)
    return (kernel.shape, kernel.tobytes(), schedule.m, isa.name, schedule.dims)


def background_build(schedule, isa: IsaSpec, queue: bool = True) -> Optional[BackgroundBuild]:
    """The process's build of ``schedule``'s raw, pass-free program at ``isa``.

    The first call for a configuration (:func:`_configuration_key`) queues
    the build on the one background thread and returns at once; later calls,
    from any plan, return the same build.  With ``queue=False`` a
    configuration without a build returns ``None`` instead.  The thread runs
    :func:`compile_kernel`, so the program lands in the content-key cache as
    well; it is a daemon, and exits once the queue is empty.
    """
    global _builder
    key = _configuration_key(schedule, isa)
    with _BUILDS_CV:
        build = _BUILDS.get(key)
        if build is None and queue:
            build = _BUILDS[key] = BackgroundBuild()
            _BUILD_JOBS.append((build, schedule, isa))
            if _builder is None:
                _builder = threading.Thread(
                    target=_run_builds, name="repro-kernel-builds", daemon=True
                )
                _builder.start()
    return build


def _run_builds() -> None:
    global _builder
    while True:
        with _BUILDS_CV:
            if not _BUILD_JOBS:
                _builder = None
                _BUILDS_CV.notify_all()
                return
            build, schedule, isa = _BUILD_JOBS.popleft()
            build.status = "building"
        error = None
        try:
            program = compile_kernel(schedule, isa)
            status = program.status if program.native else f"failed ({program.detail})"
        except Exception as exc:  # noqa: BLE001 - the thread serves every later build
            program, status, error = None, f"failed ({type(exc).__name__}: {exc})", exc
        with _BUILDS_CV:
            build.program, build.status, build.error = program, status, error
            build.done.set()


def wait_for_builds(timeout: Optional[float] = None) -> bool:
    """Block until no background build is queued or running; ``False`` when
    ``timeout`` seconds passed first."""
    with _BUILDS_CV:
        return _BUILDS_CV.wait_for(lambda: _builder is None, timeout)


def _forget_builds_in_child() -> None:
    """A forked child has no builder thread and may inherit held locks:
    start with fresh locks, no queue and no unfinished builds."""
    global _BUILDS_CV, _CACHE_LOCK, _builder
    _BUILDS_CV = threading.Condition()
    _CACHE_LOCK = threading.Lock()
    _builder = None
    _BUILD_JOBS.clear()
    for key in [key for key, build in _BUILDS.items() if not build.done.is_set()]:
        del _BUILDS[key]


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_builds_in_child)
