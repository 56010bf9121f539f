"""Perf-trajectory gate: compare a fresh BENCH_simulation.json to a baseline.

CI regenerates ``BENCH_simulation.json`` on every run and then calls::

    python benchmarks/check_perf_trajectory.py BENCH_simulation.json \
        --baseline baseline-simulation.json

The baseline is the artifact of the last successful run on ``main`` when one
can be downloaded, falling back to the committed ``BENCH_simulation.json``.
The committed root ``BENCH_*.json`` files are fixed fallback baselines, last
regenerated when the wall-clock benchmark was added (``git log --
'BENCH_*.json'``); nothing refreshes them per change, so they are not the
previous change's trajectory point.  The gate fails when:

* any case present in the baseline has disappeared from the fresh artifact
  (a dimensionality silently dropping out of the benchmark would otherwise
  pass unnoticed), unless :data:`RETIRED_CASES` names it, or
* any fresh trace-backend case's trace-over-interpret speedup is below the
  floor (default 10×, the bar PR 3 established), or
* any ``"kind": "pass-ablation"`` case fails its own gates: the default IR
  pipeline must reduce the simulated instruction count
  (``count_reduction > 1``), and the optimized program must not grossly
  regress in wall-clock time, neither on IR replay (``replay_speedup``) nor
  on native code (``native_speedup``), each at least 0.9 — the optimized
  program executes no more ops, so only timing noise sits between it and
  parity.  A case may carry ``native_skip_reason`` instead of
  ``native_speedup`` when its host could not build native code, or
* the fresh artifact lacks 2-D or 3-D coverage entirely.

With ``--passes`` the gate additionally asserts the pass pipeline's headline
number on the fresh artifact: the best pass-ablation instruction-count
reduction must reach 1.15×.

With ``--service BENCH_service.json --service-baseline <previous>`` the gate
additionally checks the service-throughput artifact: every baseline case
must still exist, every case must show forward progress (finite positive
``requests_per_sec``) and the cache hierarchy must hold its hit rate
(``hit_rate`` ≥ 0.75, the bar the 90/10 load mix is designed to clear).

With ``--kernel BENCH_kernel.json --kernel-baseline <previous>`` the gate
additionally checks the kernel-backend artifact: every baseline case
must still exist, the artifact must not be empty, and every case's
kernel-over-interpret speedup must clear the floor (default 5×, matching
``benchmarks/test_kernel_speed.py``'s asserted bar).

With ``--autotune BENCH_autotune.json --autotune-baseline <previous>`` the
gate additionally checks the autotuner-acceptance artifact: every baseline
case must still exist, the artifact must not be empty, every case's tuned
configuration must predict at or below the best hand-picked study-table
configuration (``improvement`` ≥ 1) and the prune stage must keep
eliminating at least half the space before measurement
(``pruned_fraction`` ≥ 0.5, matching ``benchmarks/test_autotune.py``).

Absolute seconds are *not* gated — CI machines vary — only the relative
speedups, count reductions, hit rates and the case coverage, which is what
"no perf regression in the trajectory" means for a simulated-machine
benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Minimum trace-over-interpret speedup, matching
#: benchmarks/test_simulation_speed.py's asserted floor.
MIN_SPEEDUP = 10.0

#: Minimum optimized-over-unoptimized speed of pass-ablation cases, on IR
#: replay and on native code, matching benchmarks/test_simulation_speed.py
#: (a noise guard, not a perf claim: the optimized program executes no more
#: ops than the unoptimized one, so anything below parity is noise).
MIN_ABLATION_REPLAY = 0.9

#: Baseline cases that may be missing from a fresh artifact, with why.
RETIRED_CASES = {
    "pass-ablation-split-accum-3d-heat-avx2": "its split-accum pass was deleted in 1.15",
}

#: ``--passes`` gate: at least one pass-ablation case must show the
#: pipeline's headline instruction-count reduction.
MIN_PASS_COUNT_REDUCTION = 1.15

#: Minimum service cache hit rate for the 90/10 hot/cold mix, matching
#: benchmarks/test_service_throughput.py's asserted floor.
MIN_SERVICE_HIT_RATE = 0.75

#: Minimum kernel-over-interpret speedup, matching
#: benchmarks/test_kernel_speed.py's asserted floor.
MIN_KERNEL_SPEEDUP = 5.0

#: Minimum hand-picked-over-tuned predicted-cost ratio, matching
#: benchmarks/test_autotune.py's asserted floor (tuned must not be worse).
MIN_AUTOTUNE_IMPROVEMENT = 1.0

#: Minimum share of the search space pruned before measurement, matching
#: benchmarks/test_autotune.py's asserted floor.
MIN_AUTOTUNE_PRUNED_FRACTION = 0.5


def load_cases(path: Path) -> dict:
    """Return the ``cases`` mapping of one artifact (empty if unreadable)."""
    payload = json.loads(path.read_text())
    cases = payload.get("cases", {})
    if not isinstance(cases, dict):
        raise ValueError(f"{path}: 'cases' is not a mapping")
    return cases


def check(current: dict, baseline: dict, min_speedup: float) -> list:
    """Return the list of gate violations (empty when the trajectory holds)."""
    problems = []
    for name in sorted(baseline):
        if name not in current and name not in RETIRED_CASES:
            problems.append(f"case {name!r} present in the baseline has disappeared")
    for name, case in sorted(current.items()):
        if case.get("kind") == "pass-ablation":
            reduction = float(case.get("count_reduction", 0.0))
            if reduction <= 1.0:
                problems.append(
                    f"case {name!r}: IR pass pipeline no longer reduces the "
                    f"instruction count (reduction {reduction:.3f}x)"
                )
            speeds = {"replay": case.get("replay_speedup", 0.0)}
            if "native_skip_reason" not in case:
                speeds["native"] = case.get("native_speedup", 0.0)
            for label, speed in speeds.items():
                if float(speed) < MIN_ABLATION_REPLAY:
                    problems.append(
                        f"case {name!r}: optimized {label} {float(speed):.2f}x is below "
                        f"the {MIN_ABLATION_REPLAY:.2f}x noise floor"
                    )
            continue
        speedup = float(case.get("speedup", 0.0))
        if speedup < min_speedup:
            problems.append(
                f"case {name!r}: trace speedup {speedup:.1f}x is below the "
                f"{min_speedup:.0f}x floor"
            )
    for marker in ("2d", "3d"):
        if not any(marker in name.lower() for name in current):
            problems.append(f"no {marker.upper()} case in the fresh artifact")
    return problems


def check_passes(current: dict, min_count_reduction: float) -> list:
    """``--passes`` gate violations over the pass-ablation cases (empty = holds).

    Asserts the headline claim of the IR pass pipeline: at least one case
    must reduce the simulated instruction count by ``min_count_reduction``.
    Runs on the fresh artifact only — the per-case floors in :func:`check`
    already guard against baseline cases disappearing.
    """
    ablation = [case for case in current.values() if case.get("kind") == "pass-ablation"]
    if not ablation:
        return ["--passes: no pass-ablation case in the fresh artifact"]
    best = max(float(case.get("count_reduction", 0.0)) for case in ablation)
    if best < min_count_reduction:
        return [
            f"--passes: best instruction-count reduction {best:.3f}x is below "
            f"the {min_count_reduction:.2f}x floor"
        ]
    return []


def check_service(current: dict, baseline: dict, min_hit_rate: float) -> list:
    """Gate violations for the service-throughput artifact (empty = holds)."""
    problems = []
    for name in sorted(baseline):
        if name not in current:
            problems.append(f"service case {name!r} present in the baseline has disappeared")
    if not current:
        problems.append("service artifact has no cases at all")
    for name, case in sorted(current.items()):
        rps = float(case.get("requests_per_sec", 0.0))
        hit_rate = float(case.get("hit_rate", 0.0))
        if not rps > 0:
            problems.append(f"service case {name!r}: requests_per_sec is {rps}")
        if hit_rate < min_hit_rate:
            problems.append(
                f"service case {name!r}: hit rate {hit_rate:.3f} is below the "
                f"{min_hit_rate:.2f} floor"
            )
        if int(case.get("requests", 0)) <= 0:
            problems.append(f"service case {name!r}: no requests recorded")
    return problems


def check_kernel(current: dict, baseline: dict, min_speedup: float) -> list:
    """Gate violations for the kernel-speed artifact (empty = holds)."""
    problems = []
    for name in sorted(baseline):
        if name not in current:
            problems.append(f"kernel case {name!r} present in the baseline has disappeared")
    if not current:
        problems.append("kernel artifact has no cases at all")
    for name, case in sorted(current.items()):
        speedup = float(case.get("speedup", 0.0))
        if speedup < min_speedup:
            problems.append(
                f"kernel case {name!r}: kernel speedup {speedup:.1f}x is below "
                f"the {min_speedup:.0f}x floor"
            )
    return problems


def check_autotune(current: dict, baseline: dict, min_improvement: float) -> list:
    """Gate violations for the autotune-lineup artifact (empty = holds)."""
    problems = []
    for name in sorted(baseline):
        if name not in current:
            problems.append(f"autotune case {name!r} present in the baseline has disappeared")
    if not current:
        problems.append("autotune artifact has no cases at all")
    for name, case in sorted(current.items()):
        improvement = float(case.get("improvement", 0.0))
        pruned = float(case.get("pruned_fraction", 0.0))
        if improvement < min_improvement:
            problems.append(
                f"autotune case {name!r}: tuned config is {improvement:.3f}x the "
                f"hand-picked one — below the {min_improvement:.2f}x floor"
            )
        if pruned < MIN_AUTOTUNE_PRUNED_FRACTION:
            problems.append(
                f"autotune case {name!r}: only {pruned:.2f} of the space pruned "
                f"before measurement (floor {MIN_AUTOTUNE_PRUNED_FRACTION:.2f})"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="freshly generated BENCH_simulation.json")
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="previous BENCH_simulation.json to compare against",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_SPEEDUP,
        help=f"minimum trace-over-interpret speedup (default {MIN_SPEEDUP:.0f})",
    )
    parser.add_argument(
        "--passes",
        action="store_true",
        help=(
            "additionally gate the IR pass pipeline's headline number: best "
            f"count reduction >= {MIN_PASS_COUNT_REDUCTION:.2f}x"
        ),
    )
    parser.add_argument(
        "--min-pass-count-reduction",
        type=float,
        default=MIN_PASS_COUNT_REDUCTION,
        help=(
            "minimum best-case instruction-count reduction for --passes "
            f"(default {MIN_PASS_COUNT_REDUCTION:.2f})"
        ),
    )
    parser.add_argument(
        "--service",
        type=Path,
        default=None,
        help="freshly generated BENCH_service.json (optional)",
    )
    parser.add_argument(
        "--service-baseline",
        type=Path,
        default=None,
        help="previous BENCH_service.json to compare against",
    )
    parser.add_argument(
        "--min-hit-rate",
        type=float,
        default=MIN_SERVICE_HIT_RATE,
        help=f"minimum service cache hit rate (default {MIN_SERVICE_HIT_RATE:.2f})",
    )
    parser.add_argument(
        "--kernel",
        type=Path,
        default=None,
        help="freshly generated BENCH_kernel.json (optional)",
    )
    parser.add_argument(
        "--kernel-baseline",
        type=Path,
        default=None,
        help="previous BENCH_kernel.json to compare against",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=MIN_KERNEL_SPEEDUP,
        help=f"minimum kernel-over-interpret speedup (default {MIN_KERNEL_SPEEDUP:.0f})",
    )
    parser.add_argument(
        "--autotune",
        type=Path,
        default=None,
        help="freshly generated BENCH_autotune.json (optional)",
    )
    parser.add_argument(
        "--autotune-baseline",
        type=Path,
        default=None,
        help="previous BENCH_autotune.json to compare against",
    )
    parser.add_argument(
        "--min-autotune-improvement",
        type=float,
        default=MIN_AUTOTUNE_IMPROVEMENT,
        help=(
            "minimum hand-picked-over-tuned predicted-cost ratio "
            f"(default {MIN_AUTOTUNE_IMPROVEMENT:.2f})"
        ),
    )
    args = parser.parse_args(argv)

    current = load_cases(args.current)
    baseline = load_cases(args.baseline)
    problems = check(current, baseline, args.min_speedup)
    if args.passes:
        problems += check_passes(current, args.min_pass_count_reduction)

    if args.service is not None:
        service_current = load_cases(args.service)
        service_baseline = (
            load_cases(args.service_baseline)
            if args.service_baseline is not None and args.service_baseline.exists()
            else {}
        )
        problems += check_service(service_current, service_baseline, args.min_hit_rate)
        for name, case in sorted(service_current.items()):
            print(
                f"  {name}: {float(case.get('requests_per_sec', 0.0)):.0f} req/s, "
                f"hit rate {float(case.get('hit_rate', 0.0)):.3f}"
            )

    if args.kernel is not None:
        kernel_current = load_cases(args.kernel)
        kernel_baseline = (
            load_cases(args.kernel_baseline)
            if args.kernel_baseline is not None and args.kernel_baseline.exists()
            else {}
        )
        problems += check_kernel(kernel_current, kernel_baseline, args.min_kernel_speedup)
        for name, case in sorted(kernel_current.items()):
            print(f"  {name}: {float(case.get('speedup', 0.0)):.0f}x kernel speedup")

    if args.autotune is not None:
        autotune_current = load_cases(args.autotune)
        autotune_baseline = (
            load_cases(args.autotune_baseline)
            if args.autotune_baseline is not None and args.autotune_baseline.exists()
            else {}
        )
        problems += check_autotune(
            autotune_current, autotune_baseline, args.min_autotune_improvement
        )
        for name, case in sorted(autotune_current.items()):
            print(
                f"  {name}: tuned {case.get('tuned_method')}/m={case.get('tuned_m')} "
                f"{float(case.get('improvement', 0.0)):.2f}x hand-picked, "
                f"{float(case.get('pruned_fraction', 0.0)):.2f} pruned"
            )

    print(f"baseline cases : {', '.join(sorted(baseline)) or '(none)'}")
    print(f"current cases  : {', '.join(sorted(current)) or '(none)'}")
    for name in sorted(set(baseline) & set(RETIRED_CASES) - set(current)):
        print(f"  {name}: retired ({RETIRED_CASES[name]})")
    for name, case in sorted(current.items()):
        if case.get("kind") == "pass-ablation":
            native = (
                f"native skipped ({case['native_skip_reason']})"
                if "native_skip_reason" in case
                else f"{float(case.get('native_speedup', 0.0)):.2f}x native"
            )
            print(
                f"  {name}: {float(case.get('count_reduction', 0.0)):.3f}x count "
                f"reduction, {float(case.get('replay_speedup', 0.0)):.2f}x replay, {native}"
            )
        else:
            print(f"  {name}: {float(case.get('speedup', 0.0)):.0f}x trace speedup")
    if problems:
        for problem in problems:
            print(f"PERF GATE FAILURE: {problem}", file=sys.stderr)
        return 1
    print("perf trajectory OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
