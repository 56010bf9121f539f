"""Experiment registry and command-line entry point.

``python -m repro.harness.runner`` regenerates every table and figure and
prints them; ``python -m repro.harness.runner figure8 table2`` runs a
subset.  The same functions are used by the pytest benchmarks, so the
printed rows and the benchmarked rows always agree.

Sweep selection and output flags::

    python -m repro.harness.runner figure8 --isa avx512     # ISA sweep
    python -m repro.harness.runner figure9 --cores 18       # core count
    python -m repro.harness.runner figure10 --benchmark 2d9p
    python -m repro.harness.runner table2 --json            # machine-readable
    python -m repro.harness.runner --list                   # what exists

Every experiment accepts only the flags that make sense for it; the runner
filters the selection flags against each experiment's signature, so
``--isa`` reaches ``figure8``/``table2`` while ``figure9`` ignores it.  A
keyword no registered experiment declares raises ``TypeError``.  A
single :class:`~repro.study.cache.EvalCache` is shared across the selected
experiments, so artefacts that replay each other's cells (Table 2 replays
Figure 8, Table 3 replays Figure 10) reuse the memoized profiles and
estimates.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import warnings
from typing import Callable, Dict, Iterable, List, Optional

from repro.harness.experiments import (
    ExperimentResult,
    autotune_lineup,
    collects_analysis,
    dims3,
    figure8,
    figure9,
    figure10,
    measured_vs_estimated,
    pass_ablation,
    table2,
    table3,
)
from repro.harness.report import format_experiment
from repro.study import EvalCache

#: Registry of experiment name → callable returning an
#: :class:`ExperimentResult`.  Callables accept (a subset of) the sweep
#: keyword arguments ``isa``, ``benchmark``, ``benchmarks``, ``cores``,
#: ``machine`` and ``cache``; :func:`run_experiment` forwards only what each
#: signature declares.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "figure8": figure8,
    "table2": table2,
    "figure9": figure9,
    "figure10": figure10,
    "table3": table3,
    "collects": collects_analysis,
    "dims3": dims3,
    "pass_ablation": pass_ablation,
    "measured_vs_estimated": measured_vs_estimated,
    "autotune_lineup": autotune_lineup,
}


def _accepted_kwargs(
    fn: Callable[..., ExperimentResult], kwargs: Dict[str, object]
) -> Dict[str, object]:
    """The subset of ``kwargs`` that ``fn``'s signature declares."""
    params = inspect.signature(fn).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return dict(kwargs)
    return {k: v for k, v in kwargs.items() if k in params}


def _check_declared(kwargs: Dict[str, object]) -> None:
    """Raise ``TypeError`` naming every keyword of ``kwargs`` that no
    registered experiment's signature declares."""
    declared = set()
    for fn in EXPERIMENTS.values():
        params = inspect.signature(fn).parameters.values()
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            return
        declared.update(p.name for p in params)
    unknown = sorted(set(kwargs) - declared)
    if unknown:
        raise TypeError(
            f"no registered experiment takes {', '.join(map(repr, unknown))}; "
            f"known keywords: {sorted(declared)}"
        )


def run_experiment(name: str, **kwargs: object) -> ExperimentResult:
    """Run the experiment registered under ``name``.

    Keyword arguments (``isa=``, ``cores=``, ``machine=``, ``cache=``, ...)
    are forwarded to the experiment, dropping any the experiment's signature
    does not declare — so one set of sweep flags can drive heterogeneous
    experiments.  A non-``None`` keyword that no registered experiment
    declares (a misspelling, a removed parameter) raises ``TypeError``.
    """
    key = name.strip().lower()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    fn = EXPERIMENTS[key]
    passed = {k: v for k, v in kwargs.items() if v is not None}
    _check_declared(passed)
    return fn(**_accepted_kwargs(fn, passed))


def run_all(names: Iterable[str] | None = None, **kwargs: object) -> List[ExperimentResult]:
    """Run all (or the named) experiments and return their results.

    Duplicate names are executed once, keeping first-occurrence order; a
    ``UserWarning`` surfaces each ignored duplicate.  All experiments share
    one memoization cache unless the caller supplies ``cache=`` explicitly.
    """
    selected = list(names) if names else list(EXPERIMENTS)
    seen = set()
    unique: List[str] = []
    for name in selected:
        key = name.strip().lower()
        if key in seen:
            warnings.warn(
                f"duplicate experiment {name!r} ignored (already selected)",
                UserWarning,
                stacklevel=2,
            )
            continue
        seen.add(key)
        unique.append(name)
    kwargs.setdefault("cache", EvalCache())
    return [run_experiment(name, **kwargs) for name in unique]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiments to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the registered experiments and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document with every result instead of text tables",
    )
    parser.add_argument(
        "--isa",
        choices=("avx2", "avx512"),
        default=None,
        help="instruction set for the sequential experiments (figure8/table2)",
    )
    parser.add_argument(
        "--benchmark",
        default=None,
        metavar="KEY",
        help="restrict figure8/table2 to one benchmark stencil (e.g. 2d9p)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        metavar="KEYS",
        help="comma-separated benchmark keys for figure10/table3",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        metavar="N",
        help="core count for the multicore experiments (figure9/table3)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    """CLI entry point: print the requested experiments as tables or JSON."""
    args = _build_parser().parse_args(list(sys.argv[1:] if argv is None else argv))
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    sweep_kwargs: Dict[str, Optional[object]] = {
        "isa": args.isa,
        "benchmark": args.benchmark,
        "cores": args.cores,
    }
    if args.benchmarks:
        sweep_kwargs["benchmarks"] = tuple(
            key.strip() for key in args.benchmarks.split(",") if key.strip()
        )
    cache = EvalCache()
    try:
        results = run_all(args.names or None, cache=cache, **sweep_kwargs)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        # Same accounting surface as the service's /stats endpoint: overall
        # CacheStats plus a per-kind breakdown (profile/estimate/...).
        document = {
            "experiments": [result.to_dict() for result in results],
            "cache": {
                "overall": cache.stats.to_dict(),
                "by_kind": {
                    kind: stats.to_dict()
                    for kind, stats in cache.stats_by_kind().items()
                },
            },
        }
        print(json.dumps(document, indent=2, default=str))
    else:
        for result in results:
            print(format_experiment(result))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
