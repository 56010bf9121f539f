"""``repro-measure`` — time one benchmark config on an execution backend.

Builds a plan for one library stencil, runs the cost model and the
measurement harness (:mod:`repro.backend.measure`) on the same workload, and
prints the estimated vs measured cycles per point as one JSON document::

    repro-measure 2d9p --isa avx512 --steps 8 --repeats 5
    repro-measure 1d-heat --backend trace --shape 1048576
    repro-measure 3d-heat --optimize --json-indent 0

The measured figure is converted with the estimate's effective frequency,
so both numbers sit on the cost model's cycles-per-point axis; the
``measured_over_estimated`` ratio is the Python/NumPy interpretation gap
of replaying the simulated SIMD program.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

import numpy as np

from repro.backend import ExecutionOptions, backend_keys
from repro.backend.measure import measured_vs_estimated
from repro.core.plan import plan
from repro.stencils.boundary import BoundaryCondition
from repro.stencils.grid import Grid
from repro.stencils.library import BENCHMARKS, get_benchmark

__all__ = ["main", "default_shape"]


def default_shape(dims: int, vl: int) -> Tuple[int, ...]:
    """A steady-state-sized default grid in the schedule's block multiples."""
    if dims == 1:
        return (256 * vl * vl,)
    if dims == 2:
        return (16 * vl, 16 * vl)
    return (4, 8 * vl, 8 * vl)


def _parse_shape(text: str) -> Tuple[int, ...]:
    try:
        shape = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid shape {text!r}; expected e.g. 256,256")
    if not shape or any(extent < 1 for extent in shape):
        raise argparse.ArgumentTypeError(f"invalid shape {text!r}; extents must be >= 1")
    return shape


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-measure",
        description=(
            "Time one benchmark stencil on an execution backend and print "
            "estimated vs measured cycles per point as JSON."
        ),
    )
    parser.add_argument(
        "stencil", metavar="STENCIL", help=f"benchmark key ({', '.join(BENCHMARKS)})"
    )
    parser.add_argument("--method", default="folded", help="execution method (default: folded)")
    parser.add_argument(
        "--isa", choices=("avx2", "avx512"), default="avx2", help="instruction set"
    )
    parser.add_argument(
        "-m", "--unroll", type=int, default=2, metavar="M", help="temporal folding factor"
    )
    parser.add_argument(
        "--shape",
        type=_parse_shape,
        default=None,
        metavar="N[,N...]",
        help="grid extents, comma-separated (default: a steady-state size for the stencil)",
    )
    parser.add_argument(
        "--steps", type=int, default=None, metavar="T", help="time steps (default: 4*m)"
    )
    parser.add_argument(
        "--backend",
        choices=backend_keys(),
        default="kernel",
        help="execution backend to measure (default: kernel)",
    )
    parser.add_argument(
        "--optimize", action="store_true", help="run the default IR pass pipeline first"
    )
    parser.add_argument(
        "--warmup", type=int, default=1, metavar="N", help="untimed warmup runs (default: 1)"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, metavar="N", help="timed repeats (default: 5)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S", help="RNG seed for the grid values"
    )
    parser.add_argument(
        "--json-indent",
        type=int,
        default=2,
        metavar="N",
        help="JSON indentation (0 prints one compact line)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: print one measured-vs-estimated JSON document."""
    args = _build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    try:
        case = get_benchmark(args.stencil)
        compiled = (
            plan(case.spec).method(args.method).isa(args.isa).unroll(args.unroll).compile()
        )
        shape = args.shape or default_shape(case.spec.dims, compiled.isa_spec.vector_lanes)
        steps = args.steps if args.steps is not None else 4 * compiled.steps_per_update
        values = np.random.default_rng(args.seed).random(shape)
        grid = Grid(values, boundary=BoundaryCondition.PERIODIC)
        opts = ExecutionOptions.normalize(
            backend=args.backend, optimize=args.optimize, context="run"
        )
        report = measured_vs_estimated(
            compiled,
            grid,
            steps,
            backend=opts.backend,
            optimize=opts.optimize,
            warmup=args.warmup,
            repeats=args.repeats,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    indent = args.json_indent if args.json_indent > 0 else None
    print(json.dumps(report, indent=indent, default=str))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
