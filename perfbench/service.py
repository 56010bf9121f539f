"""Service workload: a closed loop of two synchronous clients against repro-serve.

The server runs as its own process with default settings (two worker
processes) except for an OS-chosen port and a fresh store directory inside
the checkout.  An earlier, untimed server life computes the hot set into the
store, so in the timed life each hot key's first request is a store read and
the later ones are memory hits, next to cold computes and store writes.

Four times a second the loop pauses, with no request in flight, to time the
yardstick: ``reference_run`` of the hot ``run`` request's stencil on a grid
of its size, in the client process.  The end-to-end metrics are the
yardstick's time over client-observed times, so host drift moves both sides
together as it does in the grid workloads.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.spans import ModuleProxy, Tracer
from perfbench.stats import (
    NotEnoughSamples,
    Tally,
    median,
    percentile,
    samples_for_percentile,
    timed,
    trimmed_mean,
)

CLIENT_THREADS = 2
HOT_SHARE = 0.85
#: Seconds of load between two yardstick pauses, and calls per pause.  The
#: host switches between fast and slow spells within a second, so the
#: yardstick is sampled often and briefly, evenly over the load.
PAUSE_EVERY = 0.25
YARDSTICK_CALLS = 2
#: Server lives spawned only to sample set-up, besides the working ones.
SPAWN_ONLY_LIVES = 3

_FOLDED = {"method": "folded"}
_RUN = {"kind": "run", **_FOLDED, "shape": [128, 128]}
_SIM = {"kind": "simulate", **_FOLDED, "shape": [64, 64], "steps": 4, "backend": "kernel", "optimize": True}

#: About twenty hot keys: every kind, several stencils and m; run and
#: simulate hits carry arrays (128x128 and 64x64 float64).
HOT_SET: Tuple[Dict[str, Any], ...] = (
    {"kind": "estimate", "stencil": "2d9p", **_FOLDED, "m": 2},
    {"kind": "estimate", "stencil": "2d9p", **_FOLDED, "m": 4, "isa": "avx512"},
    {"kind": "estimate", "stencil": "3d-heat", **_FOLDED, "m": 2},
    {"kind": "estimate", "stencil": "3d27p", **_FOLDED, "m": 2, "isa": "avx512"},
    {"kind": "estimate", "stencil": "1d5p", **_FOLDED, "m": 4},
    {"kind": "estimate", "stencil": "2d-heat", "method": "dlt", "m": 2},
    {"kind": "plan", "stencil": "2d9p", **_FOLDED, "m": 2},
    {"kind": "plan", "stencil": "3d-heat", **_FOLDED, "m": 2},
    {"kind": "plan", "stencil": "2d-heat", **_FOLDED, "m": 4, "isa": "avx512"},
    {"kind": "plan", "stencil": "1d5p", **_FOLDED, "m": 2},
    {"kind": "study", "stencil": "2d9p", "axes": {"method": ["folded", "dlt"], "m": [2, 4]}},
    {"kind": "tune", "stencil": "2d-heat", "budget": 0, "isas": ["avx2"]},
    {**_RUN, "stencil": "2d9p", "m": 2, "steps": 8, "seed": 1},
    {**_RUN, "stencil": "2d-heat", "m": 2, "steps": 8, "seed": 2},
    {**_RUN, "stencil": "2d9p", "m": 4, "isa": "avx512", "steps": 9, "seed": 3},
    {**_RUN, "stencil": "2d-heat", "m": 4, "steps": 8, "seed": 4},
    {**_SIM, "stencil": "2d9p", "m": 2, "seed": 1},
    {**_SIM, "stencil": "2d-heat", "m": 2, "seed": 2},
    {**_SIM, "stencil": "2d9p", "m": 2, "isa": "avx512", "seed": 3},
)

#: Disjoint id ranges keep cold keys unique across lives and threads.
_LIFE_SPAN, _THREAD_SPAN = 100_000, 20_000


def cold_request(rng: random.Random, cold_id: int, seed: int) -> Dict[str, Any]:
    """A request no earlier one shares: a fresh shape or a fresh grid seed.

    ``cold_id`` is unique within a run; the grid seed also depends on the
    workload ``seed``, so another seed computes other grids.
    """
    kind = rng.choice(("estimate", "run", "simulate"))
    stencil = rng.choice(("2d9p", "2d-heat"))
    if kind == "estimate":
        return {
            "kind": "estimate",
            "stencil": stencil,
            "method": rng.choice(("folded", "dlt", "transpose")),
            "m": rng.choice((2, 3, 4)),
            "shape": [256 + cold_id // 1000, 1000 + cold_id % 1000],
        }
    grid_seed = seed % 1000 * 1_000_000 + cold_id
    if kind == "run":
        return {**_RUN, "stencil": stencil, "m": 2, "steps": 8, "seed": grid_seed}
    return {**_SIM, "stencil": stencil, "m": 2, "seed": grid_seed}


def _digest(kind: str, result: Any) -> str:
    if kind in ("run", "simulate"):
        values = result["values"]
        return hashlib.sha256(repr(values.shape).encode() + values.tobytes()).hexdigest()
    return hashlib.sha256(json.dumps(result, sort_keys=True, default=repr).encode()).hexdigest()


# --------------------------------------------------------------------------- #
# the yardstick
# --------------------------------------------------------------------------- #
class Yardstick:
    """``reference_run`` of 2d9p on a 128x128 grid for 8 steps (the hot
    ``run`` request's computation), timed in the client process."""

    STENCIL, SHAPE, STEPS = "2d9p", (128, 128), 8

    def __init__(self, seed: int) -> None:
        import repro
        from repro.stencils.library import get_benchmark

        self.spec = repro.plan(self.STENCIL).compile().spec
        self.grid = get_benchmark(self.STENCIL).make_grid(self.SHAPE, seed=seed)
        self.expected = None

    def sample(self, calls: int, into: List[float], tally: Tally) -> None:
        import numpy as np
        from repro.stencils.reference import reference_run

        values = None
        for _ in range(calls):
            seconds, values = timed(lambda: reference_run(self.spec, self.grid, self.STEPS))
            into.append(seconds)
        if self.expected is None:
            self.expected = values
            tally.check(bool(np.all(np.isfinite(values))), "yardstick reference_run output is not finite")
        else:
            tally.check(np.array_equal(values, self.expected), "yardstick reference_run output changed")


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro-serve`` life, optionally under the traced launcher."""

    def __init__(self, root: Path, store: Path, log: Path, spans: Optional[Path] = None):
        self.root, self.store, self.log, self.spans = root, store, log, spans
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server; seconds from spawn until ``/healthz`` answers."""
        from repro.service import ServiceClient

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(self.root), str(self.root / "src")])
        args = ["--port", "0", "--store", str(self.store)]
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro.service", *args]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "traced_server.py"), str(self.spans), *args]
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                start_new_session=True, text=True,
            )
        line = ""
        while time.perf_counter() - started < timeout:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                break
            if self.proc.poll() is not None:
                break
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not report its address (got {line!r})")
        self.url = f"http://{match.group(1)}:{match.group(2)}"
        client = ServiceClient(self.url, timeout=5.0)
        while not client.healthy():
            if time.perf_counter() - started > timeout:
                self.stop()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
        return time.perf_counter() - started

    def connect(self):
        """A fresh synchronous client of this life."""
        from repro.service import ServiceClient

        return ServiceClient(self.url, timeout=60.0)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole group is gone."""
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=30)
            if proc.stdout is not None:
                proc.stdout.close()
        finally:
            # Worker processes share the server's process group; none may
            # outlive it.  Give them a moment to exit on their own, then kill.
            started = time.monotonic()
            while _group_alive(proc.pid) and time.monotonic() - started < 30:
                if time.monotonic() - started > 5:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.02)
            self.proc = None


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


# --------------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------------- #
@dataclass
class Life:
    """Everything one timed server life produced."""

    latencies: List[float] = field(default_factory=list)
    elapsed_ms: List[float] = field(default_factory=list)
    wall: float = 0.0  # seconds of load, pauses excluded
    stats: Dict[str, Any] = field(default_factory=dict)
    kinds: Dict[str, int] = field(default_factory=dict)
    yardstick: List[float] = field(default_factory=list)


class Ledger:
    """Request identity and result digests shared by every client thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.keys: Dict[str, Dict[str, Any]] = {}  # key -> payload
        self.digests: Dict[str, str] = {}

    def record(self, payload: Dict[str, Any], envelope: Dict[str, Any], tally: Tally) -> None:
        key, kind = envelope.get("key"), payload["kind"]
        digest = _digest(kind, envelope["result"])
        with self.lock:
            first = self.digests.setdefault(key, digest)
            self.keys.setdefault(key, payload)
        tally.check(
            first == digest and envelope.get("kind") == kind,
            f"{kind} {key}: response differs from an earlier response for the same key",
        )


class Gate:
    """Lets client threads send while open; :meth:`close` returns once no
    request is in flight, so a pause has no load on the server."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._open = False
        self._stopped = False
        self._inflight = 0

    def enter(self) -> bool:
        """Wait until open; False once stopped."""
        with self._cond:
            while not self._open and not self._stopped:
                self._cond.wait()
            if self._stopped:
                return False
            self._inflight += 1
            return True

    def leave(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def open(self) -> None:
        with self._cond:
            self._open = True
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self._open = False
            while self._inflight:
                self._cond.wait()

    def stop(self) -> None:
        with self._cond:
            self._stopped, self._open = True, False
            self._cond.notify_all()


def closed_loop(
    connect,
    seed: int,
    life_index: int,
    seconds: float,
    ledger: Ledger,
    tally: Tally,
    pause_every: Optional[float] = None,
    between: Optional[Callable[[], None]] = None,
) -> Life:
    """Two client threads, each waiting for its reply, no think time.

    ``connect()`` returns a fresh client (``Server.connect``).  Any raise
    while a request is sent, answered or checked counts as one failed
    request, and the thread goes on with the next one.  Every
    ``pause_every`` seconds of load the threads stop between requests and
    ``between()`` runs.  The load lasts ``seconds`` and then until the p99
    has enough samples beyond it, at most three times ``seconds``.
    """
    master = random.Random(seed * 7 + life_index)
    rngs = [random.Random(master.getrandbits(64)) for _ in range(CLIENT_THREADS)]
    life = Life()
    lock = threading.Lock()
    gate = Gate()
    needed = samples_for_percentile(99)

    def worker(t: int) -> None:
        try:
            requests(t)
        except Exception as exc:  # a dead thread would halve the load unseen
            tally.fail(f"client thread {t} died: {exc!r}")

    def requests(t: int) -> None:
        rng, client = rngs[t], connect()
        cold = 0
        while gate.enter():
            try:
                if rng.random() < HOT_SHARE:
                    payload = HOT_SET[rng.randrange(len(HOT_SET))]
                else:
                    payload = cold_request(rng, life_index * _LIFE_SPAN + t * _THREAD_SPAN + cold, seed)
                    cold += 1
                one(client, payload)
            finally:
                gate.leave()

    def one(client, payload: Dict[str, Any]) -> None:
        t0 = time.perf_counter()
        try:
            envelope = client.submit(payload)
            latency = time.perf_counter() - t0
            if not tally.check(bool(envelope.get("ok")), f"{payload['kind']}: non-ok envelope"):
                return
            elapsed_ms = float(envelope["elapsed_ms"])
            ledger.record(payload, envelope, tally)
        except Exception as exc:  # transport error or malformed reply
            tally.fail(f"{payload['kind']}: {exc!r}")
            return
        with lock:
            life.latencies.append(latency)
            life.elapsed_ms.append(elapsed_ms)
            life.kinds[payload["kind"]] = life.kinds.get(payload["kind"], 0) + 1

    threads = [threading.Thread(target=worker, args=(t,), name=f"perfbench-client-{t}") for t in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    segment = pause_every or seconds
    try:
        while True:
            length = min(segment, seconds - life.wall) if life.wall < seconds else segment
            start = time.perf_counter()
            gate.open()
            while time.perf_counter() - start < length and any(t.is_alive() for t in threads):
                time.sleep(0.005)
            gate.close()
            life.wall += time.perf_counter() - start
            with lock:
                done = len(life.latencies)
            if not any(t.is_alive() for t in threads):
                break
            if life.wall >= 3 * seconds or (life.wall >= seconds and done >= needed):
                break
            if between is not None:
                between()
    finally:
        gate.stop()
        for thread in threads:
            thread.join(timeout=120)
            tally.check(not thread.is_alive(), f"{thread.name} did not finish")
    life.stats = connect().stats()
    return life


def prefill(url: str, ledger: Ledger, tally: Tally) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=120.0)
    for payload in HOT_SET:
        try:
            envelope = client.submit(payload)
            ledger.record(payload, envelope, tally)
        except Exception as exc:  # transport error or malformed reply
            tally.fail(f"prefill {payload['kind']}: {exc!r}")


def _plan_config(payload: Dict[str, Any]) -> Tuple:
    return (payload["stencil"], payload.get("method", "folded"), payload.get("isa", "avx2"), payload["m"])


def _compile(config: Tuple):
    import repro

    stencil, method, isa, m = config
    return repro.plan(stencil).method(method).isa(isa).unroll(m).compile()


def verify_in_process(ledger: Ledger, tally: Tally) -> int:
    """Recompute every distinct run/simulate key with a local CompiledPlan."""
    from repro.stencils.grid import Grid
    from repro.stencils.library import get_benchmark

    plans: Dict[Tuple, Any] = {}
    checked = 0
    for key, payload in sorted(ledger.keys.items()):
        kind = payload["kind"]
        if kind not in ("run", "simulate"):
            continue
        config = _plan_config(payload)
        plan = plans.get(config)
        if plan is None:
            plan = plans[config] = _compile(config)
        shape = tuple(payload["shape"])
        if kind == "run":
            values = plan.run(get_benchmark(payload["stencil"]).make_grid(shape, seed=payload["seed"]), payload["steps"])
        else:
            values, _ = plan.simulate(
                Grid.random(shape, seed=payload["seed"]), payload["steps"],
                backend=payload["backend"], optimize=payload["optimize"],
            )
        tally.check(
            _digest(kind, {"values": values}) == ledger.digests[key],
            f"{kind} {key}: service result differs from the in-process CompiledPlan result",
        )
        checked += 1
    return checked


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(life: Life, spawn_s: List[float]) -> Tuple[Dict[str, Tuple[float, str, int]], List[str]]:
    """Yardstick time over the client-observed median, p99 and time per
    completed request, and the median spawn-to-``/healthz`` time.

    The yardstick is a trimmed mean: its samples fall into the host's fast
    and slow spells, and a median would jump between the two."""
    p99, beyond = percentile(life.latencies, 99)
    n = len(life.latencies)
    p50 = median(life.latencies)
    yard = trimmed_mean(life.yardstick)
    metrics = {
        "vs_ref": (yard / p50, "x", n),
        "tail_vs_ref": (yard / p99, "x", n),
        "throughput_vs_ref": (yard * n / life.wall, "x", n),
        "setup_s": (median(spawn_s), "s", len(spawn_s)),
    }
    notes = [
        f"service requests={n} over {life.wall:.2f}s of load by kind {dict(sorted(life.kinds.items()))}: "
        f"svc_rps={n / life.wall:.6g} req/s svc_p50_ms={p50 * 1e3:.6g} svc_p99_ms={p99 * 1e3:.6g} "
        f"(p99 has {beyond} samples beyond it); yardstick {yard * 1e3:.4g}ms (n={len(life.yardstick)})"
    ]
    return metrics, notes


def _kind_of(job_kind: str) -> str:
    return job_kind.split("-")[0]  # study-shard -> study, tune-measure -> tune


def per_layer(
    timed_spans: List[dict],
    workers: Dict[str, List[dict]],
    client: Tracer,
    sizes: List[int],
    life: Life,
    import_s: List[float],
    spawn_s: List[float],
    counts: List[Dict[str, float]],
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The generic per-layer metrics, and the service's own figures as rows.

    ``timed_spans`` are the traced life's server spans; ``workers`` holds the
    job span groups of the ``prefill`` and ``timed`` lives.
    """
    n, yard = len(life.latencies), trimmed_mean(life.yardstick)
    per_request = n * yard
    values: Dict[str, float] = dict.fromkeys(layers.GRID_RUNTIME, 0.0)
    rows: List[str] = []

    def durations(name: str, spans) -> List[float]:
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    # Server layers, per request of the traced life, in yardstick units.
    for name, metric in (
        ("service.normalize", "service.normalize_ref"),
        ("service.queue_wait", "service.queue_wait_ref"),
        ("service.encode", "service.encode_ref"),
    ):
        values[metric] = sum(durations(name, timed_spans)) / per_request
    values["service.store_ref"] = (
        sum(durations("service.store_load", timed_spans)) + sum(durations("service.store_save", timed_spans))
    ) / per_request
    values["service.decode_ref"] = sum(s.duration for s in client.named("service.decode")) / per_request
    values["service.wire_ref"] = sum(lat - el / 1e3 for lat, el in zip(life.latencies, life.elapsed_ms)) / per_request

    # Worker side: each job's own self time, and the grid layers inside it.
    execute_self = 0.0
    for group in workers["timed"]:
        spans = group["spans"]
        execute_self += sum(s["self"] for s in spans if s["name"] == "service.execute")
        for duration, inner in layers.tree_roots(spans):
            for name, secs in layers.attribute(duration, inner).items():
                values[name] += secs
    for name in layers.GRID_RUNTIME:
        values[name] /= per_request
    values["service.execute_ref"] = execute_self / per_request

    # Set-up is the server's spawn: interpreter start-up and imports.
    values["setup.import_share"] = median(import_s) / median(spawn_s)
    values["repro.import_s"] = median(import_s)
    all_groups = workers["prefill"] + workers["timed"]
    values["core.compile_ms"] = median(
        [(s["end"] - s["start"]) * 1e3 for g in all_groups for s in g["spans"] if s["name"] == "core.compile"]
    )
    steps = [s.duration * 1e3 for s in client.named("stencils.reference_step")]
    values["stencils.reference_step_ms"] = median(steps)
    values["stencils.reference_mlups"] = Yardstick.SHAPE[0] * Yardstick.SHAPE[1] * Yardstick.STEPS / yard / 1e6
    values.update(layers.exact_counts(counts))
    totals = life.stats["service"]["totals"]
    for counter in layers.SERVICE_COUNTERS:
        values[counter] = float(totals[counter.split(".", 1)[1]])
    not_entered = [name for name in layers.SETUP_SHARES if name != "setup.import_share"]
    metrics = layers.complete(values, not_entered)

    # The service's own figures, in ms, as rows.
    row: Dict[str, float] = {"service.spawn_s": median(spawn_s), "repro.import_s": median(import_s)}
    for name in ("service.normalize", "service.store_load", "service.store_save", "service.encode"):
        got = durations(name, timed_spans)
        if got:
            row[f"{name}_ms"] = median(got) * 1e3
    waits = durations("service.queue_wait", timed_spans)
    if waits:
        row["service.queue_wait_ms"] = sum(waits) / len(waits) * 1e3
    by_kind: Dict[str, List[float]] = {}
    for group in all_groups:
        for s in group["spans"]:
            if s["name"] == "service.execute":
                by_kind.setdefault(_kind_of(group["kind"]), []).append(s["end"] - s["start"])
    for kind in ("plan", "estimate", "simulate", "run", "study", "tune"):
        if kind in by_kind:
            row[f"service.execute_ms.{kind}"] = median(by_kind[kind]) * 1e3
        else:
            rows.append(f"dropped service.execute_ms.{kind}: no job of this kind executed")
    decode = [s.duration for s in client.named("service.decode")]
    if decode:
        row["service.decode_ms"] = median(decode) * 1e3
    row["service.server_ms_p50"] = median(life.elapsed_ms)
    try:
        row["service.server_ms_p99"] = percentile(life.elapsed_ms, 99)[0]
    except NotEnoughSamples as exc:
        rows.append(f"dropped service.server_ms_p99: {exc}")
    row["service.wire_ms_p50"] = median([lat * 1e3 - el for lat, el in zip(life.latencies, life.elapsed_ms)])
    if sizes:
        row["service.response_bytes_p50"] = median(sizes)
    row["service.hit_rate"] = float(life.stats["service"]["hit_rate"])
    for counter in ("deduplicated", "shed"):
        row[f"service.{counter}"] = float(totals[counter])
    row["service.retries"] = float(life.stats["resilience"]["pool"]["retries"])
    rows.append("service layers: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()))
    self_ms: Dict[str, List[float]] = {}
    for s in timed_spans + [s for g in workers["timed"] for s in g["spans"]]:
        self_ms.setdefault(s["name"], []).append(s["self"] * 1e3)
    for name, got in sorted(self_ms.items()):
        rows.append(f"self time {name}: {sum(got) / len(got):.4g}ms mean over {len(got)} calls")
    rows.append(
        "labels: *_ref layers are self time per request of the traced life over the yardstick; grid "
        "layers are timed inside the workers; ir.* and perfmodel.* over the hot set's run/simulate "
        "plans are model and computed numbers, not times"
    )
    zero = [name for name, (value, _unit) in metrics.items() if value == 0.0]
    rows.append(f"layers not entered by this workload (read 0): {', '.join(zero)}")
    return metrics, rows


def _install_client_hooks(tracer: Tracer, sizes: List[int]):
    import repro.service.client as client_mod
    from repro.service import serial
    from repro.service.client import ServiceClient

    original_full = ServiceClient.request_full

    def request_full(self, method, path, body=None):
        status, headers, raw = original_full(self, method, path, body)
        if method == "POST":
            sizes.append(len(raw))
        return status, headers, raw

    def decode(payload, arrays=None):
        return tracer.call("service.decode", serial.decode, payload, arrays)

    ServiceClient.request_full = request_full
    client_mod.serial = ModuleProxy(serial, decode=decode)

    def restore() -> None:
        ServiceClient.request_full = original_full
        client_mod.serial = serial

    return restore


def _hot_plan_counts() -> List[Dict[str, float]]:
    """Exact counts of the hot set's run/simulate plans, on their grids."""
    from perfbench.grids import plan_counts

    seen: Dict[Tuple, Dict[str, float]] = {}
    for payload in HOT_SET:
        if payload["kind"] in ("run", "simulate"):
            key = (_plan_config(payload), tuple(payload["shape"]))
            if key not in seen:
                seen[key] = plan_counts(_compile(key[0]), key[1], payload["m"])
    return list(seen.values())


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
def measure(seed: int, seconds: float, trace: bool, work: Path, root: Path) -> dict:
    work.mkdir(parents=True)
    store, log = work / "store", work / "server.log"
    tally, ledger = Tally(), Ledger()
    yardstick = Yardstick(seed)
    lines: List[str] = [
        f"service: {CLIENT_THREADS} closed-loop client threads, no think time; "
        f"{HOT_SHARE:.0%} of requests from {len(HOT_SET)} hot keys, the rest cold unique keys; "
        f"yardstick reference_run {Yardstick.STENCIL} {Yardstick.SHAPE} x{Yardstick.STEPS} steps, "
        f"{YARDSTICK_CALLS} calls every {PAUSE_EVERY:g}s of load"
    ]
    spawn_s: List[float] = []  # spawn to /healthz of the untraced lives

    def life(spans_name: str = "") -> Server:
        server = Server(root, store, log, work / spans_name if spans_name else None)
        seconds_to_healthy = server.start()
        if not spans_name:
            spawn_s.append(seconds_to_healthy)
        return server

    def timed_life(server: Server, index: int, secs: float) -> Life:
        samples: List[float] = []
        result = closed_loop(
            server.connect, seed, index, secs, ledger, tally, PAUSE_EVERY,
            lambda: yardstick.sample(YARDSTICK_CALLS, samples, tally),
        )
        result.yardstick = samples
        return result

    # Untimed life: compute the hot set into the fresh store.
    server = life("spans-prefill.json" if trace else "")
    try:
        prefill(server.url, ledger, tally)
    finally:
        server.stop()
    # Lives that only sample set-up.
    for _ in range(SPAWN_ONLY_LIVES - (1 if trace else 0)):
        life().stop()

    report: Dict[str, Any] = {"lines": lines, "tally": tally}
    if not trace:
        server = life()
        try:
            plain = timed_life(server, 1, seconds)
        finally:
            server.stop()
        metrics, notes = end_to_end(plain, spawn_s)
        lines.extend(notes)
    else:
        # Half the time untraced, half traced: the difference is the overhead.
        server = life()
        try:
            plain = timed_life(server, 1, seconds / 2)
        finally:
            server.stop()
        client_tracer, sizes = Tracer(), []
        server = life("spans-timed.json")
        restore = _install_client_hooks(client_tracer, sizes)
        try:
            traced = timed_life(server, 2, seconds / 2)
        finally:
            restore()
            server.stop()
        metrics, notes = end_to_end(plain, spawn_s)
        traced_metrics, traced_notes = end_to_end(traced, spawn_s)
        lines.extend(notes + traced_notes)
        for name, (value, _unit, _n) in metrics.items():
            other = traced_metrics[name][0]
            lines.append(
                f"tracing overhead {name}: untraced {value:.6g} traced {other:.6g} ({(other / value - 1) * 100:+.1f}%)"
            )
        # The yardstick's steps, traced apart from the timed samples.
        from repro.stencils import reference

        client_tracer.wrap(reference, "reference_step", "stencils.reference_step")
        try:
            yardstick.sample(YARDSTICK_CALLS, [], tally)
        finally:
            client_tracer.restore()
        docs = {name: json.loads((work / f"spans-{name}.json").read_text()) for name in ("prefill", "timed")}
        client_tracer.dump(work.parent / f"trace-service-mix-seed{seed}.json", {"server": docs})
        layer, rows = per_layer(
            docs["timed"]["spans"],
            {name: doc["workers"] for name, doc in docs.items()},
            client_tracer, sizes, traced, layers.import_seconds(root), spawn_s, _hot_plan_counts(),
        )
        lines.extend(rows)
        report["per_layer"] = layer

    checked = verify_in_process(ledger, tally)
    lines.append(f"verified {checked} distinct run/simulate keys against in-process CompiledPlan results")
    report["metrics"] = metrics
    report["counts"] = {"distinct_keys": len(ledger.keys), "setup_samples": len(spawn_s)}
    return report
