"""The service's HTTP path: persistent connections, framing, drain, wire bytes.

Every test runs a real server on a background thread
(:func:`serve_background`) and talks to it through :class:`ServiceClient`
or, where the wire itself is under test, through a raw socket.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

import repro.service.server as server_mod
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceUnavailable,
    faults,
    serial,
    serve_background,
)
from repro.service.faults import FaultInjector, FaultRule


@pytest.fixture(autouse=True)
def _isolated_injector():
    """Fault schedules install process-globally; always clean up."""
    yield
    faults.deactivate()


def _config(tmp_path, **overrides) -> ServiceConfig:
    settings = {"port": 0, "store_path": str(tmp_path / "store"), "workers": 0}
    settings.update(overrides)
    return ServiceConfig(**settings)


def _socket_of(client: ServiceClient) -> socket.socket:
    """The socket of the calling thread's connection (None when closed)."""
    return client._connection().sock


def _raw_exchange(sock: socket.socket, request: bytes) -> bytes:
    """Send ``request`` and read one whole response (head and body)."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    fields = dict(line.split(b": ", 1) for line in head.split(b"\r\n")[1:])
    while len(body) < int(fields[b"Content-Length"]):
        body += sock.recv(65536)
    return head


def _closed_by_peer(sock: socket.socket) -> bool:
    sock.settimeout(5.0)
    return sock.recv(1) == b""


class TestPersistentConnections:
    def test_two_requests_from_one_thread_share_one_connection(self, tmp_path):
        handle = serve_background(_config(tmp_path))
        try:
            with ServiceClient(handle.base_url) as client:
                assert client.healthy()
                first = _socket_of(client)
                local = first.getsockname()
                assert client.submit({"kind": "estimate", "stencil": "1d-heat", "m": 2})["ok"]
                assert _socket_of(client) is first
                assert first.getsockname() == local
                assert len(handle.service._connections) == 1
        finally:
            handle.stop()

    def test_each_thread_keeps_its_own_connection_and_close_ends_them_all(self, tmp_path):
        handle = serve_background(_config(tmp_path))
        try:
            client = ServiceClient(handle.base_url)
            sockets, ready, done = [], threading.Barrier(3), threading.Event()

            def use() -> None:
                assert client.healthy()
                sockets.append(_socket_of(client))
                ready.wait(timeout=10)
                done.wait(timeout=10)  # the thread, and its connection, stay alive

            threads = [threading.Thread(target=use) for _ in range(2)]
            for thread in threads:
                thread.start()
            assert client.healthy()
            sockets.append(_socket_of(client))
            ready.wait(timeout=10)
            try:
                assert len({id(s) for s in sockets}) == 3
                client.close()
                assert all(s.fileno() == -1 for s in sockets)
            finally:
                done.set()
                for thread in threads:
                    thread.join()
            assert client.healthy()  # a later request opens a new connection
            client.close()
        finally:
            handle.stop()

    def test_a_connection_the_server_closed_while_idle_is_reopened(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_mod, "READ_TIMEOUT", 0.2)
        handle = serve_background(_config(tmp_path))
        try:
            with ServiceClient(handle.base_url) as client:
                assert client.healthy()
                first = _socket_of(client)
                deadline = time.monotonic() + 5.0
                while handle.service._connections and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert not handle.service._connections  # the server closed it
                assert client.healthy()
                assert _socket_of(client) is not first
        finally:
            handle.stop()

    def test_only_a_reused_connection_is_retried_and_only_once(self):
        """Against a server that answers only on its second connection and
        closes every connection after at most one request: a fresh
        connection's failure is not retried, and a reused connection's is
        retried once, on a new connection that fails too."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        accepted, stop = [], threading.Event()

        def serve() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                conn.settimeout(5.0)
                accepted.append(conn)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                if len(accepted) == 2:
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = ServiceClient("http://127.0.0.1:%d" % listener.getsockname()[1], timeout=5.0)
            with pytest.raises(ServiceUnavailable):
                client.request_raw("GET", "/healthz")  # a fresh connection: no retry
            assert len(accepted) == 1
            assert client.request_raw("GET", "/healthz") == (200, b"{}")
            time.sleep(0.1)  # the server's close reaches the client
            with pytest.raises(ServiceUnavailable):
                client.request_raw("GET", "/healthz")  # reused, retried once
            assert len(accepted) == 3
        finally:
            stop.set()
            thread.join(timeout=5)
            listener.close()

    @pytest.mark.parametrize(
        "request_line,headers",
        [("GET /healthz HTTP/1.0", b""), ("GET /healthz HTTP/1.1", b"Connection: close\r\n")],
        ids=["http-1.0", "connection-close"],
    )
    def test_the_client_can_end_the_connection(self, tmp_path, request_line, headers):
        handle = serve_background(_config(tmp_path))
        try:
            with socket.create_connection(("127.0.0.1", handle.service.port)) as sock:
                head = _raw_exchange(sock, request_line.encode() + b"\r\n" + headers + b"\r\n")
                assert b"Connection: close" in head
                assert _closed_by_peer(sock)
        finally:
            handle.stop()

    def test_a_keep_alive_connection_answers_request_after_request(self, tmp_path):
        handle = serve_background(_config(tmp_path))
        try:
            with socket.create_connection(("127.0.0.1", handle.service.port)) as sock:
                for _ in range(3):
                    head = _raw_exchange(sock, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    assert head.startswith(b"HTTP/1.1 200 OK")
                    assert b"Connection: close" not in head
        finally:
            handle.stop()

    @pytest.mark.parametrize(
        "headers,status",
        [
            (b"Content-Length: -4\r\n", b"400"),
            (b"Content-Length: many\r\n", b"400"),
            (b"Transfer-Encoding: chunked\r\n", b"400"),
            (b"Content-Length: %d\r\n" % (server_mod.MAX_BODY_BYTES + 1), b"413"),
        ],
        ids=["negative-length", "bad-length", "chunked", "too-large"],
    )
    def test_a_framing_error_is_answered_then_the_connection_closes(
        self, tmp_path, headers, status
    ):
        handle = serve_background(_config(tmp_path))
        try:
            with socket.create_connection(("127.0.0.1", handle.service.port)) as sock:
                head = _raw_exchange(sock, b"POST /v1/requests HTTP/1.1\r\n" + headers + b"\r\n")
                assert head.startswith(b"HTTP/1.1 " + status)
                assert b"Connection: close" in head
                assert _closed_by_peer(sock)
        finally:
            handle.stop()


class TestDrain:
    def test_stop_closes_an_idle_connection_at_once(self, tmp_path):
        handle = serve_background(_config(tmp_path))
        client = ServiceClient(handle.base_url)
        assert client.healthy()
        (task,) = handle.service._connections.values()
        started = time.perf_counter()
        handle.stop()
        assert time.perf_counter() - started < 1.0
        assert task.done() and not task.cancelled()  # it ended, not cut at loop teardown
        assert not handle.service._connections
        client.close()

    def test_a_request_in_flight_at_drain_answers_with_connection_close(self, tmp_path):
        slow = {"site": "worker.execute", "kind": "delay", "seconds": 0.4, "where": {"m": 7}}
        handle = serve_background(_config(tmp_path, faults={"seed": 0, "rules": [slow]}))
        replies = []
        with ServiceClient(handle.base_url) as client:
            body = json.dumps({"kind": "estimate", "stencil": "1d-heat", "m": 7}).encode()
            sender = threading.Thread(
                target=lambda: replies.append(client.request_full("POST", "/v1/requests", body))
            )
            sender.start()
            deadline = time.monotonic() + 5.0
            while not handle.service._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            handle.stop()
            sender.join(timeout=10)
        ((status, headers, raw),) = replies
        assert status == 200
        assert headers["connection"] == "close"
        assert json.loads(raw)["served_from"] == "computed"


class TestUnixSocket:
    def test_two_submits_share_one_connection_and_the_second_is_a_memory_hit(self, tmp_path):
        path = tmp_path / "repro.sock"
        handle = serve_background(_config(tmp_path, unix_socket=str(path)))
        try:
            assert handle.base_url == f"unix://{path}"
            with ServiceClient(handle.base_url) as client:
                payload = {"kind": "estimate", "stencil": "1d-heat", "m": 2}
                assert client.submit(payload)["served_from"] == "computed"
                first = _socket_of(client)
                assert first.family == socket.AF_UNIX
                assert client.submit(payload)["served_from"] == "memory"
                assert _socket_of(client) is first
        finally:
            handle.stop()


class TestInjectedFaults:
    def test_an_injected_reset_raises_once_and_drops_the_connection(self, tmp_path):
        handle = serve_background(_config(tmp_path))
        faults.install(
            FaultInjector(seed=0, rules=[FaultRule("client.request", "connection-reset", at=[2])])
        )
        try:
            with ServiceClient(handle.base_url) as client:
                outcomes = []
                for _ in range(5):
                    try:
                        status, _ = client.request_raw("GET", "/healthz")
                        outcomes.append(status)
                    except ServiceUnavailable:
                        outcomes.append("reset")
                        dropped = client._connection().sock
                    if len(outcomes) == 2:
                        before = _socket_of(client)
                    if len(outcomes) == 4:
                        after = _socket_of(client)
                assert outcomes == [200, 200, "reset", 200, 200]
                assert dropped is None
                assert after is not before
            stats = faults.get().stats()
            assert stats["invocations"]["client.request"] == 5
            assert [entry["index"] for entry in faults.get().snapshot_log()] == [2]
        finally:
            handle.stop()


#: One request of every kind, each small enough to compute in well under a
#: second on inline workers.
EVERY_KIND = (
    {"kind": "estimate", "stencil": "2d9p", "m": 2},
    {"kind": "plan", "stencil": "1d-heat", "m": 2},
    {"kind": "run", "stencil": "2d9p", "m": 2, "shape": [32, 32], "steps": 4, "seed": 1},
    {"kind": "simulate", "stencil": "1d-heat", "m": 2, "shape": [64], "steps": 4},
    {"kind": "study", "stencil": "1d-heat", "axes": {"method": ["folded", "dlt"], "m": [1, 2]}},
    {"kind": "tune", "stencil": "1d-heat", "budget": 0},
)


def _assert_canonical(raw: bytes) -> dict:
    """``raw`` is ``json.dumps(serial.encode(envelope), sort_keys=True)`` of
    the envelope it carries; returns that envelope, its result decoded."""
    envelope = json.loads(raw)
    if "result" in envelope:
        envelope["result"] = serial.decode(envelope["result"])
    assert json.dumps(serial.encode(envelope), sort_keys=True).encode() == raw
    return envelope


class TestWireBytes:
    def test_every_response_is_the_canonical_encoding_of_its_envelope(self, tmp_path):
        served = []
        handle = serve_background(_config(tmp_path))
        try:
            with ServiceClient(handle.base_url) as client:
                for payload in EVERY_KIND + EVERY_KIND:
                    status, raw = client.submit_raw(payload)
                    assert status == 200
                    served.append((payload["kind"], _assert_canonical(raw)))
                for bad in ({"kind": "estimate", "stencil": "??"}, {"kind": "nope"}):
                    status, raw = client.submit_raw(bad)
                    assert status == 400
                    assert _assert_canonical(raw)["ok"] is False
                status, raw = client.request_raw("GET", "/no/such/route")
                assert status == 404
                _assert_canonical(raw)
        finally:
            handle.stop()
        handle = serve_background(_config(tmp_path))
        try:
            with ServiceClient(handle.base_url) as client:
                for payload in EVERY_KIND:
                    status, raw = client.submit_raw(payload)
                    assert status == 200
                    served.append((payload["kind"], _assert_canonical(raw)))
        finally:
            handle.stop()
        kinds = [payload["kind"] for payload in EVERY_KIND]
        tiers = {}
        for kind, envelope in served:
            tiers.setdefault(kind, []).append(envelope["served_from"])
        assert tiers == {kind: ["computed", "memory", "store"] for kind in kinds}
        run = [envelope for kind, envelope in served if kind == "run"]
        assert isinstance(run[0]["result"]["values"], np.ndarray)
        assert all(np.array_equal(e["result"]["values"], run[0]["result"]["values"]) for e in run)

    def test_handle_request_returns_the_result_the_wire_carries(self, tmp_path):
        async def scenario():
            service = server_mod.StencilService(_config(tmp_path))
            await service.start()
            try:
                payload = EVERY_KIND[2]
                status, envelope, fragment = await service._answer(dict(payload))
                _, decoded = await service.handle_request(dict(payload))
                return status, envelope, fragment, decoded
            finally:
                await service.shutdown(drain=False)

        status, envelope, fragment, decoded = asyncio.run(scenario())
        assert status == 200 and "result" not in envelope
        assert json.dumps(serial.encode(decoded["result"]), sort_keys=True).encode() == fragment
