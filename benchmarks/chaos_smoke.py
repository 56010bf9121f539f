"""Seeded chaos smoke test for CI.

Boots ``repro-serve`` as a real subprocess under a seeded fault schedule
(worker crashes, submit-path crashes, store corruption on both read and
write), drives a fixed request mix through it over HTTP, and asserts the
chaos invariants end to end:

* every request is answered — 200, or a *structured* error envelope
  (``worker-crash`` / ``quarantined``); the service never wedges;
* SIGTERM drains cleanly even after sustained chaos;
* the store never serves digest-failing bytes: after the mix, each life
  boots a second server over the same store and runs the mix again, so
  the entries the first pass wrote (some corrupted on their way to disk)
  are read back.  The second pass must read the store, quarantine what
  the first pass corrupted, and answer every 200 with the same ``result``
  bytes the first pass served for that request;
* the whole run is **replayable**: a second life with the same seed over a
  fresh store produces the byte-for-byte identical injected-fault sequence
  and the same deterministic resilience counters, in both passes.

The injected-fault log of both lives is written to ``--out`` as the CI
artifact, so a red chaos job ships the exact schedule that provoked it.

Usage (CI)::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --seed 1 --out chaos-faultlog-1.json

Exit status 0 on success; diagnostics and a non-zero exit otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PORT = 8379  # fixed, obscure; distinct from service_smoke's 8377

#: The chaos schedule (seed comes from --seed / --fault-seed).
FAULT_RULES = [
    # Workers die under real jobs: rebuild + retry must absorb these.
    {"site": "worker.execute", "kind": "crash", "rate": 0.15},
    # ... and sometimes they are merely slow.
    {"site": "worker.execute", "kind": "delay", "rate": 0.2, "seconds": 0.01},
    # The submit path itself can blow up before a future exists.
    {"site": "pool.submit", "kind": "crash", "rate": 0.05},
    # Persisted bytes rot on the way out and on the way back in; every
    # corruption must be caught by the digest check, never served.
    {"site": "store.write", "kind": "corrupt-bytes", "rate": 0.3},
    {"site": "store.write", "kind": "partial-write", "rate": 0.1},
    {"site": "store.read", "kind": "corrupt-bytes", "rate": 0.3},
]

#: Fixed request mix: cold computes, repeats (memory paths in the first
#: pass, store paths in the second), small arrays, and a small study.
REQUEST_MIX = (
    [{"kind": "estimate", "stencil": "1d-heat", "m": m} for m in (1, 2, 3, 4, 5, 6)]
    + [{"kind": "plan", "stencil": "2d-heat", "m": 4}]
    + [{"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}]
    + [{"kind": "estimate", "stencil": "1d-heat", "m": m} for m in (1, 2, 3)]
    + [
        {
            "kind": "study",
            "stencil": "1d-heat",
            "axes": {"method": ["folded", "multiple_loads"], "m": [1, 2]},
        }
    ]
    + [{"kind": "estimate", "stencil": "2d-heat", "m": m} for m in (2, 4)]
    + [{"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4}]
)

#: Outcomes a chaotic but healthy service may produce. Anything else —
#: transport errors, hangs, unstructured 500s — fails the smoke.
ACCEPTED_CODES = {"worker-crash", "quarantined"}


def start_server(store: Path, spec_path: Path, seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            str(PORT),
            "--store",
            str(store),
            "--workers",
            "1",
            "--faults",
            str(spec_path),
            "--fault-seed",
            str(seed),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError(f"server exited early (rc={process.returncode})")
        print(f"  server: {line.strip()}")
        if "listening" in line:
            return process
    process.kill()
    raise RuntimeError("server did not report 'listening' within 60s")


def stop_server(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise RuntimeError("server did not drain within 30s of SIGTERM")


def wait_healthy(client, deadline_s: float = 30.0) -> None:
    started = time.time()
    while time.time() - started < deadline_s:
        if client.healthy():
            return
        time.sleep(0.2)
    raise RuntimeError("server never became healthy")


def chaos_pass(store: Path, seed: int, spec_path: Path, name: str) -> tuple:
    """One server over ``store`` runs the mix under the schedule; returns the
    replay artifact and the ``result`` bytes of each 200, by request."""
    from repro.service import ServiceClient

    client = ServiceClient(f"http://127.0.0.1:{PORT}", timeout=60.0)
    server = start_server(store, spec_path, seed)
    statuses, results = [], {}
    try:
        wait_healthy(client)
        for i, payload in enumerate(REQUEST_MIX):
            status, raw = client.submit_raw(payload)
            envelope = json.loads(raw)
            statuses.append({"i": i, "kind": payload["kind"], "status": status})
            if status == 200:
                assert envelope["ok"], (i, raw[:300])
                results[i] = json.dumps(envelope["result"], sort_keys=True)
            else:
                code = envelope["error"]["code"]
                assert code in ACCEPTED_CODES, (
                    f"request {i} failed with unstructured/unexpected error "
                    f"{code!r} (status {status})"
                )
                statuses[-1]["error"] = code
        ok = sum(1 for s in statuses if s["status"] == 200)
        assert ok >= len(REQUEST_MIX) // 2, (
            f"only {ok}/{len(REQUEST_MIX)} requests succeeded — schedule too hot"
        )
        assert client.healthy(), "server unhealthy after the chaos mix"
        stats = client.stats()
    finally:
        client.close()
        stop_server(server)  # SIGTERM drain must complete even after chaos
    print(f"  {name}: {ok}/{len(REQUEST_MIX)} ok, drained cleanly")
    fault_block = stats["faults"]
    assert fault_block["enabled"], "fault schedule was not active"
    assert fault_block["total_injected"] > 0, "schedule injected nothing — vacuous run"
    store_block = stats["store"]
    pool = stats["resilience"]["pool"]
    artifact = {
        "statuses": statuses,
        "faults": fault_block,
        # Deterministic counters only: breaker/fallback state depends on the
        # wall-clock sliding window, so it is reported but not replay-compared.
        "store": {
            "digest_failures": store_block["digest_failures"],
            "quarantined": store_block["quarantined"],
        },
        "pool": {"crashes": pool["crashes"], "retries": pool["retries"]},
        "observed": {
            "breaker": stats["resilience"]["breaker"],
            "quarantine": stats["resilience"]["quarantine"],
        },
    }
    return artifact, results


def chaos_life(seed: int, spec_path: Path, life: str) -> dict:
    """One life: a first pass over a fresh store, then a restart over the
    same store and a second pass; returns the replay artifact."""
    store = Path(tempfile.mkdtemp(prefix=f"repro-chaos-{life}-"))
    first, first_results = chaos_pass(store, seed, spec_path, life)
    second, second_results = chaos_pass(store, seed, spec_path, f"{life} after restart")
    by_request = {}
    for i, result in first_results.items():
        request = json.dumps(REQUEST_MIX[i], sort_keys=True)
        assert by_request.setdefault(request, result) == result, (
            f"request {i} answered with other result bytes than its first answer"
        )
    assert second["faults"]["invocations"].get("store.read", 0) > 0, (
        "the second pass never read the store"
    )
    for i, result in second_results.items():
        expected = by_request.get(json.dumps(REQUEST_MIX[i], sort_keys=True), result)
        assert result == expected, (
            f"request {i} after the restart answered with other result bytes "
            "than before it: the store served damaged bytes"
        )
    corrupted = [e for e in first["faults"]["log"] if e["site"] == "store.write"]
    if corrupted:
        assert second["store"]["quarantined"] > 0, (
            f"the first pass corrupted {len(corrupted)} writes, but the second "
            "pass quarantined nothing"
        )
    return {**first, "restart": second}


def replayed(life: dict) -> dict:
    """The deterministic part of a life's artifact, in both passes."""
    keys = ("statuses", "faults", "store", "pool")
    return {"first": {k: life[k] for k in keys}, "restart": {k: life["restart"][k] for k in keys}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="fault schedule seed")
    parser.add_argument("--out", default=None, help="artifact path (JSON fault log)")
    args = parser.parse_args()
    out = Path(args.out) if args.out else Path(f"chaos-faultlog-{args.seed}.json")

    spec_path = Path(tempfile.mkdtemp(prefix="repro-chaos-spec-")) / "faults.json"
    spec_path.write_text(json.dumps({"seed": args.seed, "rules": FAULT_RULES}, indent=2))

    print(f"[1/3] first life under seed {args.seed}")
    first = chaos_life(args.seed, spec_path, "life-a")

    print("[2/3] second life, same seed, fresh store: must replay byte-for-byte")
    second = chaos_life(args.seed, spec_path, "life-b")

    assert replayed(first) == replayed(second), (
        "chaos run did not replay: same seed produced a different fault "
        "sequence or different resilience counters"
    )
    print(
        f"  replay OK: {first['faults']['total_injected']} faults, "
        f"{first['pool']['crashes']} crashes, "
        f"{first['restart']['store']['quarantined']} store quarantines after the restart "
        "— identical twice"
    )

    print(f"[3/3] writing fault-log artifact to {out}")
    out.write_text(
        json.dumps(
            {
                "seed": args.seed,
                "rules": FAULT_RULES,
                "lives": [first, second],
                "replay_match": True,
            },
            indent=2,
            sort_keys=True,
        )
    )
    print("chaos smoke OK")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"CHAOS SMOKE FAILURE: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
