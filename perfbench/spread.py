"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload periodic-large --seeds 1-10 [--seconds 20] [--trace 0]

For every metric prints the median of the runs and ``(Q3 - Q1) / median``
with the quartiles of ``statistics.quantiles(values, n=4)``, next to the
metric's bound from ``BENCHMARK.json`` (the spread must stay below it).
With ``--trace 1`` it also reports whether every exact count repeated.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT)]

from perfbench.layers import EXACT  # noqa: E402
from perfbench.stats import median, quartile_spread  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", f"{seconds:g}", "--trace", str(args.trace)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - started
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        print(f"seed {seed}: exit {proc.returncode} wall {wall:.1f}s "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result.get("metrics", {}).items())
                         if args.trace == 0), flush=True)
        if proc.returncode != 0 or not result.get("correct"):
            print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
            return 1
        runs.append(result["metrics"])

    names = sorted({name for run in runs for name in run})
    for name in names:
        values = [run[name]["value"] for run in runs if name in run]
        if args.trace and name.startswith(EXACT):
            print(f"{name}: {'repeats exactly' if len(set(values)) == 1 else 'VARIES ' + repr(sorted(set(values)))}")
            continue
        if len(values) < 2 or median(values) == 0:
            print(f"{name}: median {median(values):.6g}")
            continue
        spread = quartile_spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound:g} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name}: median {median(values):.6g} spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
