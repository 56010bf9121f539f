"""The service loop's failure accounting, against a fake client."""

from __future__ import annotations

import itertools
import json
import threading
import time

import numpy as np

from perfbench.service import Ledger, closed_loop
from perfbench.stats import Tally

BROKEN = ("estimate", "simulate")


class FakeClient:
    """Answers at once.  Estimate replies lack ``elapsed_ms`` (reading it
    raises ``KeyError``) and simulate replies are not ok; the rest are fine."""

    def __init__(self, sent):
        self.sent = sent

    def submit(self, payload):
        kind = payload["kind"]
        self.sent.append(kind)
        envelope = {
            "ok": kind != "simulate",
            "kind": kind,
            "key": json.dumps(payload, sort_keys=True),
            "result": {"values": np.zeros(2)} if kind == "run" else {"kind": kind},
        }
        if kind != "estimate":
            envelope["elapsed_ms"] = 0.5
        return envelope

    def stats(self):
        return {}


def test_every_bad_reply_is_one_failure_and_the_threads_keep_going():
    sent, tally, ledger = [], Tally(), Ledger()
    life = closed_loop(lambda: FakeClient(sent), 3, 1, 0.05, ledger, tally)
    bad = sum(kind in BROKEN for kind in sent)
    assert bad > 0
    assert tally.failed == bad
    assert any("KeyError" in f for f in tally.failures)
    assert any("non-ok envelope" in f for f in tally.failures)
    # Every good reply was kept, so neither thread stopped early.
    assert len(life.latencies) == len(sent) - bad >= 1000
    assert not set(life.kinds) & set(BROKEN)


def test_pauses_run_with_no_request_in_flight_and_count_no_load_time():
    lock, inflight, seen = threading.Lock(), [0], []

    class SlowClient(FakeClient):
        def submit(self, payload):
            with lock:
                inflight[0] += 1
            time.sleep(0.0005)
            try:
                return super().submit(payload)
            finally:
                with lock:
                    inflight[0] -= 1

    def between():
        seen.append(inflight[0])
        time.sleep(0.02)

    tally = Tally()
    started = time.perf_counter()
    life = closed_loop(lambda: SlowClient([]), 3, 1, 0.1, Ledger(), tally, pause_every=0.02, between=between)
    total = time.perf_counter() - started
    assert len(seen) >= 4 and set(seen) == {0}
    assert life.wall <= total - 0.02 * len(seen)
    assert life.latencies


def test_a_thread_that_dies_counts_as_a_failure():
    calls, tally = itertools.count(), Tally()

    def connect():
        if next(calls) < 2:  # both client threads; the closing stats call works
            raise ConnectionError("refused")
        return FakeClient([])

    life = closed_loop(connect, 3, 1, 0.05, Ledger(), tally)
    assert tally.failed == 2
    assert all("died" in f for f in tally.failures)
    assert life.latencies == []
