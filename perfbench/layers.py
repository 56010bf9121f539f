"""The per-layer metrics every workload reports, and how spans map onto them.

Every workload prints every metric below (``--trace 1``), so each one is
defined for all of them.  Times of the runtime layers are given in ``ref``
units: a layer's self time over the workload's timed operations divided by
the yardstick ``reference_run`` time of the same operations, so host drift
cancels as it does in the end-to-end ratios, and the runtime layers of a
grid workload add up to about one over its ``throughput_vs_ref``.  A layer that a
workload does not enter reads 0 there (the engines on Dirichlet grids, the
service layers on the grid workloads); set-up layers are shares of one
set-up sample.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.fold_update_ref", "ref", "lower"),
    ("core.band_ref", "ref", "lower"),
    ("stencils.remainder_ref", "ref", "lower"),
    ("ir.replay_ref", "ref", "lower"),
    ("backend.kernel_sweep_ref", "ref", "lower"),
    ("layout.transform_ref", "ref", "lower"),
    ("service.normalize_ref", "ref", "lower"),
    ("service.queue_wait_ref", "ref", "lower"),
    ("service.execute_ref", "ref", "lower"),
    ("service.store_ref", "ref", "lower"),
    ("service.encode_ref", "ref", "lower"),
    ("service.decode_ref", "ref", "lower"),
    ("service.wire_ref", "ref", "lower"),
    ("setup.import_share", "fraction", "lower"),
    ("setup.compile_share", "fraction", "lower"),
    ("setup.lower_share", "fraction", "lower"),
    ("setup.passes_share", "fraction", "lower"),
    ("setup.trace_build_share", "fraction", "lower"),
    ("setup.kernel_build_share", "fraction", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("stencils.reference_step_ms", "ms", "lower"),
    ("stencils.reference_mlups", "Mupd/s", "higher"),
    ("repro.import_s", "s", "lower"),
    ("ir.static_ops_raw", "ops", "lower"),
    ("ir.static_ops_opt", "ops", "lower"),
    ("ir.sim_instr_per_update", "instr/update", "lower"),
    ("perfmodel.flops_per_update", "flop/update", "lower"),
    ("perfmodel.bytes_per_update", "B/update", "lower"),
    ("service.memory_hits", "count", "higher"),
    ("service.store_hits", "count", "higher"),
    ("service.computed", "count", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Exact counts: the same on every run of a workload, whatever the seed.
EXACT = ("ir.static_ops_raw", "ir.static_ops_opt", "ir.sim_instr_per_update", "perfmodel.")

GRID_RUNTIME = (
    "core.fold_update_ref",
    "core.band_ref",
    "stencils.remainder_ref",
    "ir.replay_ref",
    "backend.kernel_sweep_ref",
    "layout.transform_ref",
)
SERVICE_RUNTIME = tuple(name for name, unit, _ in PER_LAYER if name.startswith("service.") and unit == "ref")
SETUP_SHARES = tuple(name for name, _, _ in PER_LAYER if name.startswith("setup."))
SERVICE_COUNTERS = ("service.memory_hits", "service.store_hits", "service.computed")

#: Span name -> runtime layer it is charged to.  Everything else inside an
#: operation's ``CompiledPlan.run`` is ``core.band_ref`` (band recompute,
#: copies, dispatch), except a full-grid ``reference_step`` called by
#: ``run()`` itself, which is a remainder step.
_RUNTIME_SPANS = {
    "core.fold_update": "core.fold_update_ref",
    "ir.replay_sweep": "ir.replay_ref",
    "backend.kernel_sweep": "backend.kernel_sweep_ref",
    "layout.to": "layout.transform_ref",
    "layout.from": "layout.transform_ref",
}
_SETUP_SPANS = {
    "core.compile": "setup.compile_share",
    "ir.lower": "setup.lower_share",
    "ir.passes": "setup.passes_share",
    "ir.trace_build": "setup.trace_build_share",
    "backend.kernel_build": "setup.kernel_build_share",
}
OP_ROOTS = ("core.run", "core.simulate")

# (name, self seconds, parent is the operation's root)
Inner = Iterable[Tuple[str, float, bool]]


def attribute(root_duration: float, inner: Inner) -> Dict[str, float]:
    """Seconds of one ``run()``/``simulate()`` call per runtime layer.

    ``inner`` holds every span nested in the call; the layers add up to
    ``root_duration`` exactly.
    """
    out = dict.fromkeys(GRID_RUNTIME, 0.0)
    for name, self_s, direct in inner:
        layer = _RUNTIME_SPANS.get(name)
        if layer is not None:
            out[layer] += self_s
        elif name == "stencils.reference_step" and direct:
            out["stencils.remainder_ref"] += self_s
    out["core.band_ref"] = root_duration - sum(out.values())
    return out


def setup_shares(named_selfs: Iterable[Tuple[str, float]], setup_seconds: float) -> Dict[str, float]:
    """Share of ``setup_seconds`` spent (self time) in each set-up layer."""
    out = dict.fromkeys(SETUP_SHARES, 0.0)
    for name, self_s in named_selfs:
        layer = _SETUP_SPANS.get(name)
        if layer is not None:
            out[layer] += self_s / setup_seconds
    return out


def tree_roots(spans: Sequence[dict]) -> List[Tuple[float, List[Tuple[str, float, bool]]]]:
    """``(duration, inner)`` of each outermost run/simulate call in a list of
    span dicts (``name``, ``start``, ``end``, ``parent`` as an index into
    the list or None, ``self``)."""
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)

    def inside_root(i: int) -> bool:
        parent = spans[i]["parent"]
        while parent is not None:
            if spans[parent]["name"] in OP_ROOTS:
                return True
            parent = spans[parent]["parent"]
        return False

    out = []
    for i, span in enumerate(spans):
        if span["name"] not in OP_ROOTS or inside_root(i):
            continue
        inner, stack = [], list(children.get(i, ()))
        while stack:
            j = stack.pop()
            inner.append((spans[j]["name"], spans[j]["self"], spans[j]["parent"] == i))
            stack.extend(children.get(j, ()))
        out.append((span["end"] - span["start"], inner))
    return out


def exact_counts(per_plan: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Workload totals of the per-plan exact counts: IR ops summed over the
    plans, per-update figures as a geometric mean."""
    out = {}
    for name in ("ir.static_ops_raw", "ir.static_ops_opt"):
        out[name] = float(sum(counts[name] for counts in per_plan))
    for name in ("ir.sim_instr_per_update", "perfmodel.flops_per_update", "perfmodel.bytes_per_update"):
        out[name] = math.exp(sum(math.log(counts[name]) for counts in per_plan) / len(per_plan))
    return out


def import_seconds(root: Path, samples: int = 3) -> List[float]:
    """``import repro`` in fresh interpreters, seconds each."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def complete(values: Dict[str, float], not_entered: Iterable[str]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; ``not_entered`` layers read 0.

    A metric that is neither measured nor declared not entered is a bug of
    the benchmark and raises.
    """
    zero = set(not_entered)
    missing = [name for name, _, _ in PER_LAYER if name not in values and name not in zero]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}
