"""Small synchronous client for the stencil-compute service.

Talks plain HTTP/1.1 over TCP or a Unix socket via :mod:`http.client` —
no third-party dependencies — and decodes tagged values (arrays, dataclasses)
back into Python objects.  Intended for scripts, tests and benchmarks::

    with ServiceClient("http://127.0.0.1:8750") as client:
        reply = client.submit({"kind": "estimate", "stencil": "heat-3d",
                               "method": "folded", "m": 4})
        print(reply["served_from"], reply["result"]["gflops"])

Connections are persistent: each calling thread keeps one open between its
requests, and leaving the ``with`` block (or :meth:`ServiceClient.close`)
closes them all.

Retries are **opt-in**: pass a
:class:`~repro.service.resilience.RetryPolicy` and :meth:`submit` retries
idempotent requests (every service request is content-addressed, hence
idempotent) on connection failures and 503s, honouring the server's
``Retry-After`` hint with the same decorrelated-jitter backoff the worker
tier uses.  Without a policy the client fails fast, as before.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import weakref
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.service import faults, serial
from repro.service.resilience import RetryPolicy

__all__ = ["ServiceClient", "ServiceUnavailable"]

#: How a reused connection fails when the server closed it while it sat
#: idle: the send breaks, or the connection ends before a response arrives
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``).
_CLOSED_WHILE_IDLE = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class ServiceUnavailable(ConnectionError):
    """The service could not be reached (refused, reset, or timed out)."""


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket path."""

    def __init__(self, path: str, timeout: Optional[float] = None):
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if self.timeout is not None:
            sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


class ServiceClient:
    """One service endpoint over persistent HTTP/1.1 connections.

    Each calling thread keeps its own connection open between requests, so
    one client is safe to share between threads.  The server closes a
    connection that sits idle for 10 s; the next request reopens it
    transparently.  :meth:`close`, or leaving a ``with ServiceClient(...)``
    block, closes every connection the client opened; a later request opens
    a new one.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._rng = rng if rng is not None else random.Random(0xC11E)
        self._sleep = sleep
        if base_url.startswith("unix://"):
            self._unix_path: Optional[str] = base_url[len("unix://") :]
            self._netloc = None
        else:
            self._unix_path = None
            stripped = self.base_url
            for prefix in ("http://", "https://"):
                if stripped.startswith(prefix):
                    stripped = stripped[len(prefix) :]
            self._netloc = stripped
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = weakref.WeakSet()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection; it opens its socket on first use."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._unix_path is not None:
                conn = _UnixHTTPConnection(self._unix_path, timeout=self.timeout)
            else:
                conn = http.client.HTTPConnection(self._netloc, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.add(conn)
        return conn

    def request_full(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Mapping[str, str], bytes]:
        """One HTTP exchange; ``(status, headers, body_bytes)`` verbatim.

        The exchange runs on the calling thread's connection.  The
        ``client.request`` chaos site fires once per call, before the send,
        inside the same ``try`` the real socket errors come from, so an
        injected connection reset is indistinguishable from a genuine one:
        either raises :class:`ServiceUnavailable` and closes the connection.
        The one failure retried here is a reused connection the server
        closed while it sat idle: it fails before a response arrives, and
        the request is sent once more on a new connection.
        """
        conn = self._connection()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            faults.get().inject("client.request", context={"method": method, "path": path})
            reused = conn.sock is not None
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            except _CLOSED_WHILE_IDLE:
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read(),
            )
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # its state is unknown: the next request opens a new one
            raise ServiceUnavailable(f"{method} {path} on {self.base_url}: {exc}") from exc
        except BaseException:
            conn.close()
            raise

    def request_raw(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One HTTP exchange; returns ``(status, body_bytes)`` verbatim.

        The raw form exists so tests can assert byte-identical responses
        (cache correctness) without any decode/re-encode laundering.
        """
        status, _, raw = self.request_full(method, path, body)
        return status, raw

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #
    def submit(self, payload: Dict[str, Any], decode_result: bool = True) -> Dict[str, Any]:
        """POST one request; returns the response envelope.

        Raises :class:`ServiceError`-shaped ``RuntimeError`` on non-2xx so
        callers don't silently treat errors as results.  With
        ``decode_result`` (default) the envelope's ``result`` has tagged
        arrays decoded back to ``numpy.ndarray``.  With a ``retry`` policy,
        connection failures and 503 (overloaded/draining) responses are
        retried under the policy's budget, waiting at least the server's
        ``Retry-After`` when one is given.
        """
        body = json.dumps(payload, sort_keys=True).encode()
        attempts = self.retry.max_attempts if self.retry is not None else 1
        attempt = 0
        delay: Optional[float] = None
        while True:
            attempt += 1
            retry_after: Optional[float] = None
            try:
                status, headers, raw = self.request_full("POST", "/v1/requests", body)
            except ServiceUnavailable:
                if attempt >= attempts:
                    raise
                status = None
            else:
                if status == 200:
                    envelope = json.loads(raw.decode())
                    if envelope.get("ok", False):
                        if decode_result and "result" in envelope:
                            envelope["result"] = serial.decode(envelope["result"])
                        return envelope
                    status = 500  # 200 without ok: treat as a server error
                if status != 503 or attempt >= attempts:
                    envelope = _parse_envelope(raw)
                    error = envelope.get("error", {})
                    message = error.get("message", repr(raw[:200]))
                    raise RuntimeError(
                        f"service error {status}: {error.get('code', '?')}: {message}"
                    )
                header = headers.get("retry-after")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
            assert self.retry is not None  # attempts > 1 implies a policy
            delay = self.retry.next_delay(delay, self._rng)
            self._sleep(max(delay, retry_after or 0.0))

    def submit_raw(self, payload: Dict[str, Any]) -> Tuple[int, bytes]:
        """POST one request; return the raw ``(status, body)`` exchange."""
        body = json.dumps(payload, sort_keys=True).encode()
        return self.request_raw("POST", "/v1/requests", body)

    def stats(self) -> Dict[str, Any]:
        status, raw = self.request_raw("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"stats endpoint returned {status}")
        return json.loads(raw.decode())

    def healthy(self) -> bool:
        """Whether the service answers ``/healthz`` (False on conn errors)."""
        try:
            status, raw = self.request_raw("GET", "/healthz")
        except ServiceUnavailable:
            return False
        if status != 200:
            return False
        return bool(json.loads(raw.decode()).get("ok"))

    # ------------------------------------------------------------------ #
    # context manager sugar
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close every connection this client opened, in every thread."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServiceClient({self.base_url!r})"


def _parse_envelope(raw: bytes) -> Dict[str, Any]:
    try:
        envelope = json.loads(raw.decode())
    except (ValueError, UnicodeDecodeError):
        return {}
    return envelope if isinstance(envelope, dict) else {}
