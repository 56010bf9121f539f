"""``repro-serve`` with span hooks installed; spans are written at exit.

Usage: ``python3 perfbench/traced_server.py SPANS.json [repro-serve args]``.

The hooks wrap the service's public functions in this process only:
``normalize``, the admission queue's offer-to-take wait, ``ResultStore``
load/save, the response ``encode`` and the worker's ``execute_payload``,
plus the grid layers' functions (``perfbench.grids.GRID_HOOKS``).  Workers
are forked from this process (the pool's start method), so the wrapped
``execute_payload`` records the job and the grid-layer calls inside it in
the worker and hands those spans back with the result, where the parent
keeps them, one group per job.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import ModuleProxy, Tracer, self_times  # noqa: E402

TRACER = Tracer()
WORKER_GROUPS = []  # one {"kind", "spans"} per executed job
_EXEC_KEY = "__perfbench_execute__"
_execute_payload = None  # the library's, set by install() before any fork
_SERVER_PID = os.getpid()


def _timed_execute(payload):
    """Worker side: the real ``execute_payload`` plus its interval and the
    spans recorded inside it (span parents as offsets into the group)."""
    first = len(TRACER.spans)
    start = time.perf_counter()
    result = TRACER.call("service.execute", _execute_payload, payload)
    end = time.perf_counter()
    spans = TRACER.spans[first:]
    selfs = self_times(spans)
    shipped = [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": None if s.parent is None or s.parent < first else s.parent - first,
            "self": selfs[s.index],
        }
        for s in spans
    ]
    if os.getpid() != _SERVER_PID:  # a forked worker keeps nothing
        del TRACER.spans[first:]
    return {**result, _EXEC_KEY: (start, end, payload["kind"], shipped)}


def install() -> None:
    global _execute_payload
    import repro.service.server as server_mod
    from perfbench.grids import install_hooks
    from repro.service import serial, workers
    from repro.service.scheduling import AdmissionQueue
    from repro.service.store import ResultStore

    TRACER.wrap(server_mod, "normalize", "service.normalize")
    install_hooks(TRACER)

    offered = {}
    offer, take = AdmissionQueue.offer, AdmissionQueue.take

    def timed_offer(self, item, priority):
        offered[id(item)] = time.perf_counter()
        return offer(self, item, priority)

    async def timed_take(self):
        item = await take(self)
        start = offered.pop(id(item), None)
        if start is not None:
            TRACER.record("service.queue_wait", start, time.perf_counter(), tag=item.request.kind)
        return item

    AdmissionQueue.offer, AdmissionQueue.take = timed_offer, timed_take

    for attr in ("load", "save"):
        original = getattr(ResultStore, attr)

        def timed_store(self, kind, key, *rest, _original=original, _name=f"service.store_{attr}"):
            start = time.perf_counter()
            try:
                return _original(self, kind, key, *rest)
            finally:
                TRACER.record(_name, start, time.perf_counter(), tag=kind)

        setattr(ResultStore, attr, timed_store)

    def encode(value, arrays=None):
        start = time.perf_counter()
        try:
            return serial.encode(value, arrays)
        finally:
            TRACER.record("service.encode", start, time.perf_counter())

    server_mod.serial = ModuleProxy(serial, encode=encode)

    _execute_payload = workers.execute_payload
    workers.execute_payload = _timed_execute
    run = workers.WorkerPool.run

    async def timed_run(self, payload, retries=None, key=None):
        result = await run(self, payload, retries=retries, key=key)
        interval = result.pop(_EXEC_KEY, None)
        if interval is not None:
            start, end, kind, spans = interval
            TRACER.record("service.execute", start, end, tag=kind)
            WORKER_GROUPS.append({"kind": kind, "spans": spans})
        return result

    workers.WorkerPool.run = timed_run


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    install()
    from repro.service.server import main as serve

    try:
        return serve(args)
    finally:
        TRACER.dump(spans_path, {"workers": WORKER_GROUPS})


if __name__ == "__main__":
    sys.exit(main())
