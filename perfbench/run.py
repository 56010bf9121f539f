"""Wall-clock benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload periodic-large --seed 1 --seconds 24 --trace 0

Prints the host and input record, one line per metric (name, value, unit,
direction, sample count), and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` reports
every per-layer metric and prints the end-to-end metrics of traced and
untraced rounds side by side (the tracing overhead).  Any wrong output,
raise or failed request makes the exit code non-zero.  Workload rationale
and predictions: ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("periodic-large", "periodic-engines", "dirichlet-small", "service-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {src}; nothing to measure", file=sys.stderr)
        return 2
    # The script's own directory would shadow nothing useful; put the
    # checkout (for ``perfbench.*``) and the library source first instead.
    sys.path[0:1] = [str(ROOT), str(src)]

    from perfbench import grids, host
    from perfbench.stats import Tally

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    record = host.host_record()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(host.describe(record))
    print(
        "no case is DRAM-bound: arrays of 4x the last-level cache "
        f"({4 * (record['l3_bytes'] or 0) / 1e9:.2f} GB here) do not fit the run budget, "
        "so no bandwidth-roofline ratio is reported"
    )

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    tally = Tally()
    try:
        if args.workload in grids.WORKLOADS:
            report = grids.measure(
                args.workload, args.seed, args.seconds, bool(args.trace), out,
                record["l2_bytes_per_core"] or (2 << 20), ROOT,
            )
        else:
            from perfbench import service

            work = out / f"service-{args.seed}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                report = service.measure(args.seed, args.seconds, bool(args.trace), work, ROOT)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    except Exception as exc:  # any raise is a failed operation, reported below
        import traceback

        traceback.print_exc()
        tally.fail(f"benchmark raised {exc!r}")
        report = {"metrics": {}, "counts": {}, "lines": [], "tally": Tally()}
    tally.merge(report["tally"])
    chosen = report.get("per_layer", {}) if args.trace else report["metrics"]
    wanted = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in chosen]
    if report["metrics"] and missing:
        tally.fail(f"metrics of BENCHMARK.json not measured: {missing}")
    chosen = {name: chosen[name] for name in wanted if name in chosen}

    for line in report["lines"]:
        print(line)
    for key, value in report["counts"].items():
        print(f"samples {key}: {value}")
    for name, (value, unit, n) in report["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit} ({better[name]} is better; n={n})")
    print(f"error_rate = {tally.error_rate:.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")

    correct = tally.failed == 0 and bool(chosen)
    result = {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_n) in chosen.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
