"""End-to-end service smoke test for CI.

Boots ``repro-serve`` as a real subprocess, submits a plan and a study over
HTTP, SIGTERMs it (exercising the graceful drain), boots a *second* server
process over the same store directory, resubmits the identical requests and
asserts they are answered from the persistent store with byte-identical
payloads.  This is the restart-durability contract no in-process test can
prove.

Each SIGTERM arrives while the smoke holds an idle keep-alive connection to
the server; the server must close it at once and exit within
``EXIT_LIMIT_S`` seconds (on Python 3.12+, ``asyncio.Server.wait_closed()``
waits for every open connection, so a missed close stalls the exit until the
connection's 10 s read timeout).

Usage (CI)::

    PYTHONPATH=src python benchmarks/service_smoke.py

Exit status 0 on success; diagnostics and a non-zero exit otherwise.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PORT = 8377  # fixed, obscure; CI runners have no listener here
#: Longest a SIGTERM may take to stop the server, idle connection and all.
EXIT_LIMIT_S = 5.0

PLAN = {"kind": "plan", "stencil": "2d-heat", "method": "folded", "m": 4}
STUDY = {
    "kind": "study",
    "stencil": "1d-heat",
    "axes": {"method": ["folded", "multiple_loads"], "m": [1, 2, 4]},
}


def start_server(store: Path) -> subprocess.Popen:
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
            "2",
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


def stop_server(process: subprocess.Popen) -> float:
    """SIGTERM the server; seconds until it exited."""
    started = time.perf_counter()
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise RuntimeError("server did not drain within 30s of SIGTERM")
    return time.perf_counter() - started


def stop_holding_an_idle_connection(process: subprocess.Popen) -> None:
    """SIGTERM the server while a keep-alive connection sits idle on it."""
    idle = http.client.HTTPConnection("127.0.0.1", PORT, timeout=30)
    try:
        idle.request("GET", "/healthz")
        response = idle.getresponse()
        response.read()
        assert response.status == 200, response.status
        assert response.getheader("Connection") != "close", "the server closed the connection"
        seconds = stop_server(process)
    finally:
        idle.close()
    assert seconds <= EXIT_LIMIT_S, (
        f"SIGTERM took {seconds:.1f}s to stop a server holding an idle connection "
        f"(limit {EXIT_LIMIT_S:.0f}s)"
    )
    print(f"  drained cleanly on SIGTERM in {seconds:.2f}s, an idle keep-alive connection open")


def wait_healthy(client, deadline_s: float = 30.0) -> None:
    started = time.time()
    while time.time() - started < deadline_s:
        if client.healthy():
            return
        time.sleep(0.2)
    raise RuntimeError("server never became healthy")


def main() -> int:
    from repro.service import ServiceClient

    store = Path(tempfile.mkdtemp(prefix="repro-smoke-store-"))
    with ServiceClient(f"http://127.0.0.1:{PORT}", timeout=60.0) as client:
        return smoke(client, store)


def smoke(client, store: Path) -> int:
    print("[1/3] first server life: compute and persist")
    server = start_server(store)
    try:
        wait_healthy(client)
        first = {}
        for name, payload in (("plan", PLAN), ("study", STUDY)):
            status, raw = client.submit_raw(payload)
            envelope = json.loads(raw)
            assert status == 200, (name, status, raw[:300])
            assert envelope["served_from"] == "computed", (name, envelope["served_from"])
            first[name] = raw
            print(f"  {name}: computed, key={envelope['key']}")
        # A same-life repeat must come from memory.
        status, raw = client.submit_raw(PLAN)
        assert json.loads(raw)["served_from"] == "memory"
        print("  plan repeat: memory")
    except BaseException:
        stop_server(server)
        raise
    stop_holding_an_idle_connection(server)

    print("[2/3] second server life over the same store")
    server = start_server(store)
    try:
        wait_healthy(client)
        for name, payload in (("plan", PLAN), ("study", STUDY)):
            status, raw = client.submit_raw(payload)
            envelope = json.loads(raw)
            assert status == 200, (name, status, raw[:300])
            assert envelope["served_from"] == "store", (
                f"{name} was {envelope['served_from']!r}, expected a store hit"
            )
            before = json.loads(first[name])
            after = json.loads(raw)
            assert json.dumps(before["result"], sort_keys=True) == json.dumps(
                after["result"], sort_keys=True
            ), f"{name}: replayed payload differs from the computed one"
            print(f"  {name}: store hit, payload bit-identical")

        print("[3/3] stats surface")
        stats = client.stats()
        totals = stats["service"]["totals"]
        assert totals["store_hits"] == 2, totals
        assert stats["store"]["hits"] == 2, stats["store"]
        print(
            f"  totals: {totals['received']} received, "
            f"{totals['store_hits']} store hits; "
            f"store: {stats['store']['entries']} entries, "
            f"{stats['store']['bytes']} bytes"
        )
    except BaseException:
        stop_server(server)
        raise
    stop_holding_an_idle_connection(server)

    print("service smoke OK")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except AssertionError as exc:
        print(f"SERVICE SMOKE FAILURE: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc
