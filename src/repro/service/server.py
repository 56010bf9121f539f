"""The asyncio compute service: front end, dispatcher and ``repro-serve``.

Request life cycle::

    HTTP POST /v1/requests ──▶ normalize ──▶ in-memory EvalCache peek ── hit ──▶ reply
                                  │ miss
                                  ▼
                        single-flight table (concurrent identical
                        requests coalesce onto one in-flight future)
                                  │ owner
                                  ▼
                        bounded priority queue  ── full ──▶ 503 overloaded
                        (cheap/cached requests jump cold simulate jobs)
                                  ▼
                        dispatcher: persistent ResultStore ── hit ──▶ promote + reply
                                  │ miss
                                  ▼
                        process-pool workers (study cross-products
                        sharded across workers) ──▶ store + memoize + reply

Per-request deadlines cover the whole journey: a request that expires while
queued is failed with a structured ``timeout`` error and its single-flight
cell is released, so a later identical request computes fresh — the cell is
never poisoned.  ``SIGTERM``/``SIGINT`` trigger a graceful drain: admission
stops (503 ``draining``), queued work finishes within the drain deadline,
then the sockets close.

``repro-serve`` (or ``python -m repro.service.server``) runs it standalone;
:func:`serve_background` embeds it for tests, benchmarks and examples.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service import faults, serial
from repro.service.faults import FaultInjector
from repro.service.protocol import (
    Request,
    ServiceError,
    expand_study_cells,
    expand_tune_candidates,
    normalize,
)
from repro.service.resilience import CircuitBreaker, PoisonQuarantine, RetryPolicy
from repro.service.scheduling import AdmissionQueue, ServiceStats, classify_priority
from repro.service.store import DEFAULT_MAX_BYTES, STORE_VERSION, ResultStore
from repro.service.workers import WorkerPool
from repro.study.cache import EvalCache

__all__ = ["ServiceConfig", "StencilService", "serve_background", "main"]


@dataclass
class ServiceConfig:
    """Deployment knobs of one :class:`StencilService`.

    Attributes
    ----------
    host, port:
        TCP listen address; ``port=0`` binds an ephemeral port (tests).
    unix_socket:
        When set, listen on this Unix-domain socket instead of TCP.
    store_path:
        Root of the persistent :class:`~repro.service.store.ResultStore`.
    store_max_bytes:
        LRU size cap of the store.
    workers:
        Process-pool width; ``0`` executes jobs inline on threads.
    queue_size:
        Admission-queue bound — beyond it, requests are shed (503).
    concurrency:
        Dispatcher tasks pulling from the queue (defaults to the pool width,
        at least 2, so cheap requests are not stuck behind one cold job).
    request_timeout:
        Default and maximum per-request deadline, seconds.
    drain_timeout:
        How long a graceful shutdown waits for queued work.
    faults:
        Optional fault-injection spec (``{"seed": ..., "rules": [...]}``,
        :meth:`repro.service.faults.FaultInjector.from_spec`).  ``None``
        (default) leaves the process-global injector untouched — tests may
        have installed their own.
    retry_max_attempts, retry_base_delay, retry_max_delay:
        The worker tier's :class:`~repro.service.resilience.RetryPolicy`.
    breaker_threshold, breaker_window, breaker_cooldown:
        The pool's :class:`~repro.service.resilience.CircuitBreaker`:
        ``threshold`` crashes within ``window`` seconds open it; after
        ``cooldown`` seconds it half-opens for a trial job.
    quarantine_threshold:
        Worker-killing crashes per ``config_hash`` before the payload is
        refused with a structured ``quarantined`` error.
    watchdog_interval:
        How often the dispatcher watchdog checks for dead dispatcher tasks.
    retry_after_hint:
        ``Retry-After`` seconds attached to shed/draining 503 responses.
    """

    host: str = "127.0.0.1"
    port: int = 8750
    unix_socket: Optional[str] = None
    store_path: str = ".repro-store"
    store_max_bytes: int = DEFAULT_MAX_BYTES
    workers: int = 2
    queue_size: int = 64
    concurrency: Optional[int] = None
    request_timeout: float = 30.0
    drain_timeout: float = 10.0
    faults: Optional[Dict[str, Any]] = None
    retry_max_attempts: int = 3
    retry_base_delay: float = 0.02
    retry_max_delay: float = 0.25
    breaker_threshold: int = 3
    breaker_window: float = 30.0
    breaker_cooldown: float = 5.0
    quarantine_threshold: int = 2
    watchdog_interval: float = 0.25
    retry_after_hint: float = 1.0

    def dispatcher_count(self) -> int:
        if self.concurrency is not None:
            return max(1, int(self.concurrency))
        return max(2, self.workers)


class _Job:
    """One queued computation: the request plus its single-flight future."""

    __slots__ = ("request", "future", "deadline")

    def __init__(self, request: Request, future: "asyncio.Future", deadline: float):
        self.request = request
        self.future = future
        self.deadline = deadline

    def __lt__(self, other: "_Job") -> bool:  # pragma: no cover - tie-break only
        return id(self) < id(other)


class StencilService:
    """The long-running service; create, :meth:`start`, :meth:`shutdown`."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        # Install the chaos schedule FIRST: the worker pool forks its
        # processes lazily, but any directive-carrying payload depends on the
        # submitting side's injector, which must be this one.
        if config.faults is not None:
            faults.install(FaultInjector.from_spec(config.faults))
        self.store = ResultStore(config.store_path, max_bytes=config.store_max_bytes)
        #: In-memory response tier; the persistent store sits underneath it
        #: (peek here first, fall through to :attr:`store` in the dispatcher).
        self.memo = EvalCache()
        self.pool = WorkerPool(
            config.workers,
            retry=RetryPolicy(
                max_attempts=config.retry_max_attempts,
                base_delay=config.retry_base_delay,
                max_delay=config.retry_max_delay,
            ),
            breaker=CircuitBreaker(
                threshold=config.breaker_threshold,
                window=config.breaker_window,
                cooldown=config.breaker_cooldown,
            ),
            quarantine=PoisonQuarantine(threshold=config.quarantine_threshold),
        )
        self.stats = ServiceStats()
        self.queue = AdmissionQueue(config.queue_size)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._dispatchers: List[asyncio.Task] = []
        self._watchdog: Optional[asyncio.Task] = None
        self._dispatcher_restarts = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._closed = asyncio.Event()
        self.started_at = time.time()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the socket and start the dispatcher tasks + watchdog."""
        for _ in range(self.config.dispatcher_count()):
            self._dispatchers.append(asyncio.create_task(self._dispatch_loop()))
        self._watchdog = asyncio.create_task(self._watchdog_loop())
        if self.config.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_socket
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )

    @property
    def address(self) -> str:
        """``host:port`` (TCP) or the socket path actually bound."""
        if self.config.unix_socket:
            return self.config.unix_socket
        assert self._server is not None and self._server.sockets
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> int:
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admission, optionally drain queued work, close everything."""
        if self._draining and self._closed.is_set():
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if drain:
            try:
                await asyncio.wait_for(self.queue.join(), timeout=self.config.drain_timeout)
            except asyncio.TimeoutError:
                pass  # deadline wins; remaining jobs fail with cancellation
        if self._watchdog is not None:
            self._watchdog.cancel()
        for task in self._dispatchers:
            task.cancel()
        for future in list(self._inflight.values()):
            if not future.done():
                future.set_exception(
                    ServiceError("draining", "service shut down mid-request", status=503)
                )
        if self._server is not None:
            await self._server.wait_closed()
        self.pool.shutdown(wait=False)
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # ------------------------------------------------------------------ #
    # request handling (transport independent)
    # ------------------------------------------------------------------ #
    async def handle_request(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Process one request payload; returns ``(http_status, envelope)``.

        The envelope's ``result`` may contain NumPy arrays — the transport
        encodes them (:mod:`repro.service.serial`) just before the wire.
        """
        started = time.perf_counter()
        try:
            request = normalize(payload)
        except ServiceError as exc:
            self.stats.count("invalid", "received")
            self.stats.count("invalid", "errors")
            return exc.status, _error_envelope(None, exc)
        kind = request.kind
        self.stats.count(kind, "received")
        if self._draining:
            error = ServiceError(
                "draining",
                "service is draining; retry elsewhere",
                503,
                retry_after=self.config.retry_after_hint,
            )
            self.stats.count(kind, "shed")
            return error.status, _error_envelope(request, error)
        timeout = self._request_timeout(payload)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout

        while True:
            found, value = self.memo.peek(kind, request.key)
            if found:
                self.stats.count(kind, "memory_hits")
                return self._complete(request, value, "memory", started)

            future = self._inflight.get(request.key)
            owner = future is None
            if owner:
                future = loop.create_future()
                self._inflight[request.key] = future
                future.add_done_callback(lambda _f, key=request.key: self._inflight.pop(key, None))
                cached = self.store.contains(kind, request.key)
                priority, _ = classify_priority(request.expensive, cached)
                job = _Job(request, future, deadline=deadline)
                if not self.queue.offer(job, priority):
                    self.stats.count(kind, "shed")
                    future.cancel()
                    error = ServiceError(
                        "overloaded",
                        f"admission queue full ({self.queue.maxsize} deep); retry later",
                        status=503,
                        retry_after=self.config.retry_after_hint,
                    )
                    return error.status, _error_envelope(request, error)
            else:
                self.stats.count(kind, "deduplicated")

            try:
                value, served_from = await asyncio.wait_for(
                    asyncio.shield(future), deadline - loop.time()
                )
            except asyncio.TimeoutError:
                # This waiter gives up; a computation it merely rode keeps
                # running for its owner and still lands in the caches.
                self.stats.count(kind, "timeouts")
                error = ServiceError(
                    "timeout", f"request exceeded its {timeout:.3f}s deadline", status=504
                )
                return error.status, _error_envelope(request, error)
            except asyncio.CancelledError:
                error = ServiceError("overloaded", "request was cancelled by shedding", 503)
                return error.status, _error_envelope(request, error)
            except ServiceError as exc:
                # A rider can join a cell created under a *tighter* deadline
                # than its own moments before that cell expires.  Its budget
                # is still intact, so go around: the failed cell has been
                # released and the retry computes on a fresh one.
                if (
                    exc.code == "timeout"
                    and not owner
                    and loop.time() < deadline - 0.001
                    and not self._draining
                ):
                    await asyncio.sleep(0)  # let the done-callback pop the cell
                    continue
                if exc.code == "timeout":
                    self.stats.count(kind, "timeouts")
                elif exc.code == "quarantined":
                    self.stats.count(kind, "quarantined")
                    self.stats.count(kind, "errors")
                else:
                    self.stats.count(kind, "errors")
                return exc.status, _error_envelope(request, exc)
            return self._complete(request, value, served_from, started)

    def _request_timeout(self, payload: Any) -> float:
        timeout = self.config.request_timeout
        if isinstance(payload, dict):
            requested = payload.get("timeout")
            if isinstance(requested, (int, float)) and not isinstance(requested, bool):
                timeout = min(float(requested), self.config.request_timeout)
        return max(0.001, timeout)

    def _complete(
        self, request: Request, value: Any, served_from: str, started: float
    ) -> Tuple[int, Dict[str, Any]]:
        elapsed = time.perf_counter() - started
        self.stats.count(request.kind, "completed")
        self.stats.observe_latency(request.kind, elapsed)
        return 200, {
            "ok": True,
            "kind": request.kind,
            "key": request.key,
            "served_from": served_from,
            "elapsed_ms": elapsed * 1000.0,
            "result": value,
        }

    # ------------------------------------------------------------------ #
    # dispatcher
    # ------------------------------------------------------------------ #
    async def _dispatch_loop(self) -> None:
        while True:
            # Chaos hook, deliberately BEFORE take(): a dispatcher killed
            # here holds no job, so the watchdog restart loses nothing and
            # the no-hung-futures invariant survives dispatcher death.
            faults.get().inject("server.dispatch")
            job = await self.queue.take()
            try:
                await self._execute_job(job)
            except asyncio.CancelledError:
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError("draining", "service shut down mid-job", 503)
                    )
                raise
            except ServiceError as exc:
                if not job.future.done():
                    job.future.set_exception(exc)
            except Exception as exc:  # noqa: BLE001 - dispatcher must survive
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError("internal", f"unexpected failure: {exc!r}", 500)
                    )
            finally:
                self.queue.task_done()

    async def _execute_job(self, job: _Job) -> None:
        request, future = job.request, job.future
        if future.done():
            return
        loop = asyncio.get_running_loop()
        if loop.time() >= job.deadline:
            # Expired while queued: fail the cell and release it (the done
            # callback pops it), so the next identical request starts clean.
            future.set_exception(
                ServiceError("timeout", "request expired while queued", status=504)
            )
            self.stats.count(request.kind, "timeouts")
            return

        found, value = await loop.run_in_executor(None, self.store.load, request.kind, request.key)
        if found:
            self.memo.put(request.kind, request.key, value, persist=False)
            self.stats.count(request.kind, "store_hits")
            if not future.done():
                future.set_result((value, "store"))
            return

        remaining = job.deadline - loop.time()
        if remaining <= 0:
            future.set_exception(
                ServiceError("timeout", "request expired before compute", status=504)
            )
            self.stats.count(request.kind, "timeouts")
            return
        try:
            result = await asyncio.wait_for(self._compute(request), timeout=remaining)
        except asyncio.TimeoutError:
            self.stats.count(request.kind, "timeouts")
            if not future.done():
                future.set_exception(
                    ServiceError(
                        "timeout",
                        f"computation exceeded the request deadline "
                        f"({self._request_timeout(None):.3f}s default)",
                        status=504,
                    )
                )
            return
        except (ValueError, KeyError) as exc:
            raise ServiceError("execution-error", str(exc), status=422) from exc

        self.memo.put(request.kind, request.key, result, persist=False)
        self.stats.count(request.kind, "computed")
        await loop.run_in_executor(None, self.store.save, request.kind, request.key, result)
        if not future.done():
            future.set_result((result, "computed"))

    async def _compute(self, request: Request) -> Dict[str, Any]:
        """Run the request on the worker tier (sharding studies and tunes)."""
        shards = self.pool.workers if self.pool.workers > 0 else 1
        if request.kind == "study":
            cells = expand_study_cells(request.params)
            if shards > 1 and len(cells) > 1:
                return await self.pool.run_study(
                    dict(request.to_payload()), cells, shards, key=request.key
                )
        if request.kind == "tune":
            candidates = expand_tune_candidates(request.params)
            if shards > 1 and len(candidates) > 1:
                return await self.pool.run_tune(
                    dict(request.to_payload()), candidates, shards, key=request.key
                )
        return await self.pool.run(request.to_payload(), key=request.key)

    # ------------------------------------------------------------------ #
    # dispatcher watchdog
    # ------------------------------------------------------------------ #
    async def _watchdog_loop(self) -> None:
        """Replace dispatcher tasks that died (e.g. an injected crash).

        Dispatchers are designed never to die — the loop catches every
        job-level exception — so a dead one means a bug or a chaos fault.
        Either way the service must keep draining its queue.
        """
        while True:
            await asyncio.sleep(self.config.watchdog_interval)
            if self._draining:
                continue
            for i, task in enumerate(self._dispatchers):
                if task.done() and not task.cancelled():
                    self._dispatchers[i] = asyncio.create_task(self._dispatch_loop())
                    self._dispatcher_restarts += 1

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats_payload(self) -> Dict[str, Any]:
        """The ``/stats`` document: queues, caches, store, workers, latency."""
        return {
            "service": self.stats.to_dict(),
            "queue": {"depth": self.queue.depth, "capacity": self.queue.maxsize},
            "inflight": len(self._inflight),
            "draining": self._draining,
            "uptime_seconds": time.time() - self.started_at,
            "cache": {
                "overall": self.memo.stats.to_dict(),
                "by_kind": {
                    kind: s.to_dict() for kind, s in self.memo.stats_by_kind().items()
                },
            },
            "store": {
                "version": STORE_VERSION,
                "path": str(self.store.dir),
                **self.store.stats.to_dict(),
            },
            "workers": {
                "processes": self.pool.workers,
                "mode": "inline" if self.pool.workers == 0 else "process-pool",
            },
            "resilience": {
                **self.pool.resilience_stats(),
                "dispatchers": {
                    "configured": self.config.dispatcher_count(),
                    "alive": sum(1 for t in self._dispatchers if not t.done()),
                    "restarts": self._dispatcher_restarts,
                },
            },
            # The injected-fault sequence rides along so a chaos artifact can
            # assert byte-for-byte replay across processes, not just counts.
            "faults": {**faults.get().stats(), "log": faults.get().snapshot_log()},
        }

    # ------------------------------------------------------------------ #
    # HTTP transport (deliberately minimal: one request per connection)
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._handle_http(reader)
        except Exception:
            error = {"code": "internal", "message": "bad request"}
            status, body = 500, {"ok": False, "error": error}
        try:
            encoded = json.dumps(serial.encode(body), sort_keys=True).encode()
            headers = (
                b"Content-Type: application/json\r\n"
                + b"Content-Length: %d\r\n" % len(encoded)
            )
            retry_after = None
            if isinstance(body, dict):
                error = body.get("error")
                if isinstance(error, dict):
                    retry_after = error.get("retry_after")
            if isinstance(retry_after, (int, float)):
                # HTTP wants integral seconds; never advertise zero.
                headers += b"Retry-After: %d\r\n" % max(1, int(retry_after))
            writer.write(
                b"HTTP/1.1 %d %s\r\n" % (status, _REASONS.get(status, b"OK"))
                + headers
                + b"Connection: close\r\n\r\n"
                + encoded
            )
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_http(self, reader: asyncio.StreamReader) -> Tuple[int, Dict[str, Any]]:
        request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, _http_error("malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, _http_error("bad Content-Length")
        if content_length > 32 * 1024 * 1024:
            return 413, _http_error("request body too large")
        body = await reader.readexactly(content_length) if content_length else b""

        if method == "GET" and path in ("/healthz", "/v1/healthz"):
            return 200, {"ok": True, "draining": self._draining}
        if method == "GET" and path in ("/stats", "/v1/stats"):
            return 200, self.stats_payload()
        if method == "POST" and path in ("/v1/requests", "/requests"):
            try:
                payload = json.loads(body.decode("utf-8")) if body else None
            except (ValueError, UnicodeDecodeError):
                return 400, _http_error("request body is not valid JSON")
            return await self.handle_request(payload)
        return 404, _http_error(f"no route for {method} {path}")


_REASONS = {
    200: b"OK",
    400: b"Bad Request",
    404: b"Not Found",
    413: b"Payload Too Large",
    422: b"Unprocessable Entity",
    500: b"Internal Server Error",
    503: b"Service Unavailable",
    504: b"Gateway Timeout",
}


def _http_error(message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"code": "invalid-request", "message": message}}


def _error_envelope(request: Optional[Request], error: ServiceError) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {"ok": False, "error": error.to_dict()}
    if request is not None:
        envelope["kind"] = request.kind
        envelope["key"] = request.key
    return envelope


# --------------------------------------------------------------------------- #
# embedding helper (tests, benchmarks, examples)
# --------------------------------------------------------------------------- #
@dataclass
class ServiceHandle:
    """A service running on a background thread, plus the means to stop it."""

    service: StencilService
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread
    base_url: str = field(default="")

    def stop(self, drain: bool = True) -> None:
        if self.thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.service.shutdown(drain=drain), self.loop
            ).result(timeout=30)
            self.thread.join(timeout=30)


def serve_background(config: ServiceConfig) -> ServiceHandle:
    """Start a :class:`StencilService` on a daemon thread and wait until bound."""
    started = threading.Event()
    boot_error: List[BaseException] = []
    holder: Dict[str, Any] = {}

    def runner() -> None:
        async def boot() -> None:
            service = StencilService(config)
            try:
                await service.start()
            except BaseException as exc:
                boot_error.append(exc)
                started.set()
                return
            holder["service"] = service
            holder["loop"] = asyncio.get_running_loop()
            started.set()
            await service.wait_closed()

        asyncio.run(boot())

    thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=60):
        raise RuntimeError("service failed to start within 60s")
    if boot_error:
        raise RuntimeError(f"service failed to start: {boot_error[0]!r}")
    service: StencilService = holder["service"]
    if config.unix_socket:
        base_url = f"unix://{config.unix_socket}"
    else:
        base_url = f"http://{config.host}:{service.port}"
    return ServiceHandle(service=service, loop=holder["loop"], thread=thread, base_url=base_url)


# --------------------------------------------------------------------------- #
# repro-serve
# --------------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve plan/estimate/simulate/run/study requests over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8750)
    parser.add_argument(
        "--unix", default=None, metavar="PATH", help="listen on a Unix socket instead"
    )
    parser.add_argument(
        "--store",
        default=".repro-store",
        metavar="DIR",
        help="persistent result store root (default: .repro-store)",
    )
    parser.add_argument(
        "--store-cap-mb",
        type=int,
        default=DEFAULT_MAX_BYTES // (1024 * 1024),
        help="LRU size cap of the store in MiB",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes (0 = inline threads, no isolation)",
    )
    parser.add_argument("--queue-size", type=int, default=64)
    parser.add_argument("--timeout", type=float, default=30.0, help="per-request deadline, seconds")
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, help="graceful shutdown budget"
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC.json",
        help="fault-injection schedule ({'seed':..., 'rules':[...]}) — chaos runs only",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="override the seed of the --faults schedule",
    )
    return parser


async def _serve(config: ServiceConfig) -> None:
    service = StencilService(config)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(service.shutdown(drain=True))
            )
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    where = service.address if config.unix_socket else f"http://{service.address}"
    print(
        f"repro-serve listening on {where} "
        f"(store={service.store.dir}, workers={config.workers}, "
        f"queue={config.queue_size})",
        flush=True,
    )
    await service.wait_closed()
    print("repro-serve drained and stopped", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point (``repro-serve``)."""
    args = _build_parser().parse_args(argv)
    fault_spec: Optional[Dict[str, Any]] = None
    if args.faults:
        fault_spec = json.loads(Path(args.faults).read_text())
        if args.fault_seed is not None:
            fault_spec["seed"] = args.fault_seed
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        unix_socket=args.unix,
        store_path=str(Path(args.store)),
        store_max_bytes=args.store_cap_mb * 1024 * 1024,
        workers=args.workers,
        queue_size=args.queue_size,
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        faults=fault_spec,
    )
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:  # pragma: no cover - direct ^C without handler
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
