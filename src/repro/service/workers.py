"""Process-pool worker tier: runs cold jobs off the event loop.

The front end (:mod:`repro.service.server`) never computes: every cold
request becomes a picklable payload executed by :func:`execute_payload` in a
worker process (or inline on a thread for ``workers=0`` deployments and
tests).  Workers are long-lived and keep a process-local
:class:`~repro.study.cache.EvalCache`, so the expensive pipeline stages
(profiles, estimates) amortise across the jobs a worker sees — the study
sharding below leans on exactly that.

Fault handling is layered (:mod:`repro.service.resilience`):

* A worker process dying mid-job breaks the whole ``ProcessPoolExecutor``
  (CPython semantics); :meth:`WorkerPool.run` rebuilds the pool and retries
  under a :class:`~repro.service.resilience.RetryPolicy` — exponential
  backoff with decorrelated jitter, bounded by the per-request budget.
* Every crash feeds the :class:`~repro.service.resilience.CircuitBreaker`;
  past its threshold the pool stops fork-rebuilding and degrades to an
  inline thread executor until the cooldown elapses.
* Crashes are charged to the request's content key; a key that keeps
  killing workers is quarantined
  (:class:`~repro.service.resilience.PoisonQuarantine`) and refused with a
  structured ``quarantined`` error instead of crash-looping the pool.

Chaos hooks: fault *decisions* for the ``worker.execute`` site are made on
the submitting side (one process, one counter space — replayable even
across pool rebuilds and forks) and shipped to the worker as a
``__fault__`` directive inside the payload; ``pool.submit`` faults fire in
the submit path itself.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.service import faults
from repro.service.faults import InjectedCrash
from repro.service.protocol import ServiceError
from repro.service.resilience import CircuitBreaker, PoisonQuarantine, RetryPolicy
from repro.study.cache import EvalCache

__all__ = ["execute_payload", "WorkerPool"]

#: Process-local memo shared by every job one worker executes.
_WORKER_CACHE = EvalCache()

#: Exceptions that mean "the worker died", not "the job was wrong".
CRASH_EXCEPTIONS = (BrokenExecutor, InjectedCrash, EOFError, OSError)


def worker_cache() -> EvalCache:
    """The executing process's job-level :class:`EvalCache`."""
    return _WORKER_CACHE


# --------------------------------------------------------------------------- #
# job execution (runs inside worker processes — top level, picklable)
# --------------------------------------------------------------------------- #
def execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one canonical request payload and return its result.

    Results are plain dicts of JSON-native values and NumPy arrays — both
    picklable across the process boundary; the server encodes each result
    once for the wire, and the store keeps those bytes.

    ``payload`` is :meth:`repro.service.protocol.Request.to_payload` output —
    already validated, so failures here are execution errors (method/grid
    mismatches, simulation constraints) and are raised as ``ValueError`` /
    ``KeyError`` for the caller to wrap.  A ``__fault__`` directive (attached
    by the submitting :class:`WorkerPool` under an active fault schedule) is
    honoured first: a crash directive kills the worker the way a segfault
    would.
    """
    directive = payload.get("__fault__")
    if directive is not None:
        payload = {k: v for k, v in payload.items() if k != "__fault__"}
        _apply_fault_directive(directive)
    kind = payload["kind"]
    handler = _HANDLERS[kind]
    return handler(payload)


def _apply_fault_directive(directive: Dict[str, Any]) -> None:
    """Act out one injected fault inside the executing worker."""
    kind = directive.get("kind")
    if kind == "delay":
        time.sleep(float(directive.get("seconds", 0.0)))
    elif kind == "crash":
        if directive.get("mode") == "process":
            # Bypass every handler — the signature of a segfaulted or
            # OOM-killed worker; the parent sees a BrokenExecutor.
            os._exit(3)
        raise InjectedCrash("injected worker crash (inline)")


def _compiled_plan(payload: Dict[str, Any]):
    import repro

    return (
        repro.plan(payload["stencil"])
        .method(payload["method"])
        .isa(payload["isa"])
        .unroll(payload["m"])
        .compile()
    )


def _execute_plan(payload: Dict[str, Any]) -> Dict[str, Any]:
    plan = _compiled_plan(payload)
    result: Dict[str, Any] = {
        "stencil": plan.spec.name,
        "method": plan.method_key,
        "label": plan.label,
        "isa": plan.config.isa,
        "unroll": plan.config.unroll,
        "steps_per_update": plan.steps_per_update,
        "linear": plan.spec.linear,
        "dims": plan.spec.dims,
        # The plan's own lines: a result is a function of its request key,
        # not of what the worker built before or of the host's caches.
        "explain": "\n".join(plan._explain_lines(host=False)),
    }
    if plan.spec.linear:
        report = plan.folding_report()
        result["profitability"] = {
            "collect_naive": report.collect_naive,
            "collect_optimized": report.collect_optimized,
            "profitability_optimized": report.profitability_optimized,
        }
    return result


def _estimate_cell(
    cache: EvalCache, stencil: str, method: str, isa: str, m: int,
    shape: Sequence[int], time_steps: int, cores: int, shifts_reuse: bool = True,
) -> Dict[str, Any]:
    """One estimate row, routed through the worker's memo cache."""
    from repro.machine import machine_for_isa
    from repro.stencils.library import get_benchmark

    spec = get_benchmark(stencil).spec
    machine = machine_for_isa(isa)
    profile = cache.profile(method, spec, isa=isa, m=m, shifts_reuse=shifts_reuse)
    # Same path as CompiledPlan.estimate (multicore model even at one core),
    # so service responses agree with the library API to the last bit.
    estimate = cache.multicore(profile, tuple(shape), time_steps, machine, cores, spec.radius)
    return {
        "method": method,
        "isa": isa,
        "m": m,
        "gflops": estimate.gflops,
        "gflops_per_core": estimate.gflops_per_core,
        "cycles_per_point": estimate.cycles_per_point,
        "bound": estimate.bound,
        "residency": estimate.residency,
    }


def _execute_estimate(payload: Dict[str, Any]) -> Dict[str, Any]:
    return _estimate_cell(
        _WORKER_CACHE,
        payload["stencil"],
        payload["method"],
        payload["isa"],
        payload["m"],
        payload["shape"],
        payload["time_steps"],
        payload["cores"],
        payload["shifts_reuse"],
    )


def _execute_simulate(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.stencils.grid import Grid

    plan = _compiled_plan(payload)
    grid = Grid.random(tuple(payload["shape"]), seed=payload["seed"])
    values, counts = plan.simulate(
        grid,
        payload["steps"],
        backend=payload.get("backend", "trace"),
        optimize=payload["optimize"],
    )
    return {
        "values": values,
        "backend": payload.get("backend", "trace"),
        "instructions": {
            "total": counts.total,
            # InstructionClass enum keys -> stable lowercase names on the wire.
            "counts": {
                k.name.lower(): v
                for k, v in sorted(counts.counts.items(), key=lambda kv: kv[0].name)
            },
        },
    }


def _execute_run(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.stencils.library import get_benchmark

    plan = _compiled_plan(payload)
    grid = get_benchmark(payload["stencil"]).make_grid(
        tuple(payload["shape"]), seed=payload["seed"]
    )
    backend = payload.get("backend", "auto")
    values = plan.run(grid, payload["steps"], backend=None if backend == "auto" else backend)
    return {"values": values, "backend": backend}


def _execute_study(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A whole study in one worker (the server shards instead when it can)."""
    from repro.service.protocol import expand_study_cells

    rows = _execute_study_shard(dict(payload, cells=expand_study_cells(payload)))
    return {"rows": rows["rows"], "cells": len(rows["rows"])}


def _execute_study_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One contiguous chunk of a study's cells (an internal job kind)."""
    rows = []
    for cell in payload["cells"]:
        row = _estimate_cell(
            _WORKER_CACHE,
            payload["stencil"],
            cell["method"],
            cell["isa"],
            cell["m"],
            payload["shape"],
            payload["time_steps"],
            payload["cores"],
        )
        rows.append({"index": cell["index"], **row})
    return {"rows": rows}


def _execute_tune(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A whole staged search in one worker (the server shards when it can)."""
    from repro.autotune.tuner import execute_tune_payload

    return execute_tune_payload(payload, _WORKER_CACHE)


def _execute_tune_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Predict stage over one chunk of a tune's candidates (internal kind)."""
    from repro.autotune.tuner import predict_candidate_rows

    rows = predict_candidate_rows(payload, payload["candidates"], _WORKER_CACHE)
    return {"rows": rows}


def _execute_tune_measure(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Measure stage over the pruned selection (internal kind, one job)."""
    from repro.autotune.tuner import measure_ledger_rows

    rows = measure_ledger_rows(payload, payload["rows"], _WORKER_CACHE)
    return {"rows": rows}


_HANDLERS = {
    "plan": _execute_plan,
    "estimate": _execute_estimate,
    "simulate": _execute_simulate,
    "run": _execute_run,
    "study": _execute_study,
    "study-shard": _execute_study_shard,
    "tune": _execute_tune,
    "tune-shard": _execute_tune_shard,
    "tune-measure": _execute_tune_measure,
}


# --------------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------------- #
class WorkerPool:
    """Job executor with layered crash resilience and an inline fallback.

    ``workers >= 1`` runs jobs on a ``ProcessPoolExecutor`` (``fork`` where
    available, so workers inherit the warm NumPy import); ``workers == 0``
    runs them on a small thread pool in-process — no isolation, but no spawn
    cost either, which is what unit tests and single-user deployments want.

    ``retry``/``breaker``/``quarantine`` default to sensible production
    policies; tests inject seeded/fake-clock instances plus ``sleep`` /
    ``async_sleep`` doubles to stay wall-clock-free.
    """

    def __init__(
        self,
        workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        quarantine: Optional[PoisonQuarantine] = None,
        rng: Optional[random.Random] = None,
        sleep: Callable[[float], None] = time.sleep,
        async_sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = int(workers)
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=2)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.quarantine = quarantine if quarantine is not None else PoisonQuarantine()
        # Deterministic by default: backoff trajectories replay across runs.
        self._rng = rng if rng is not None else random.Random(0x5EED)
        self._sleep = sleep
        self._async_sleep = async_sleep
        self._lock = threading.Lock()
        self._generation = 0
        self._rebuilds = 0
        self._retries = 0
        self._crashes = 0
        self._fallback_jobs = 0
        self._executor = self._make_executor()
        self._fallback: Optional[ThreadPoolExecutor] = None

    def _make_executor(self):
        if self.workers == 0:
            return ThreadPoolExecutor(max_workers=4, thread_name_prefix="repro-service-inline")
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=context)

    def _fallback_executor(self) -> ThreadPoolExecutor:
        """The degraded path the breaker fails over to (lazily built)."""
        if self._fallback is None:
            self._fallback = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-service-fallback"
            )
        return self._fallback

    def _submit(self, payload: Dict[str, Any]) -> Tuple[Future, bool]:
        """Pick the executor, attach any fault directive, submit.

        Returns ``(future, used_fallback)``.  Both fault sites fire here,
        on the submitting side, so schedules stay single-counter even with
        forked workers.
        """
        injector = faults.get()
        injector.inject("pool.submit", context=payload)  # may raise InjectedCrash
        with self._lock:
            degraded = self.workers > 0 and not self.breaker.allow_primary()
            executor = self._fallback_executor() if degraded else self._executor
            mode = "inline" if (self.workers == 0 or degraded) else "process"
            rule = injector.decide("worker.execute", context=payload)
            if rule is not None and rule.kind in ("crash", "delay"):
                payload = dict(
                    payload,
                    __fault__={"kind": rule.kind, "seconds": rule.seconds, "mode": mode},
                )
            if degraded:
                self._fallback_jobs += 1
            return executor.submit(execute_payload, payload), degraded

    def _rebuild(self, broken_generation: int) -> None:
        """Replace a broken executor exactly once per breakage."""
        with self._lock:
            if self._generation != broken_generation:
                return  # another job's retry already rebuilt it
            try:
                self._executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._executor = self._make_executor()
            self._generation += 1
            self._rebuilds += 1

    # ------------------------------------------------------------------ #
    # crash bookkeeping shared by the sync and async run loops
    # ------------------------------------------------------------------ #
    def _check_quarantine(self, key: Optional[str], payload: Dict[str, Any]) -> None:
        if key and self.quarantine.is_quarantined(key):
            raise ServiceError(
                "quarantined",
                f"payload {key[:12]}… repeatedly killed workers and is quarantined "
                f"({payload.get('kind')!r}); it will not be retried",
                status=422,
            )

    def _note_crash(self, key: Optional[str], used_fallback: bool, generation: int) -> None:
        """Rebuild (primary path only), feed the breaker, charge the key."""
        with self._lock:
            self._crashes += 1
        if self.workers > 0 and not used_fallback:
            self._rebuild(generation)
        self.breaker.record_failure()
        if key and self.quarantine.record_crash(key):
            raise ServiceError(
                "quarantined",
                f"payload {key[:12]}… killed its worker "
                f"{self.quarantine.threshold} time(s) and is now quarantined",
                status=422,
            )

    def _crash_error(
        self, payload: Dict[str, Any], attempt: int, exc: BaseException
    ) -> ServiceError:
        return ServiceError(
            "worker-crash",
            f"worker died executing {payload.get('kind')!r} "
            f"({attempt} attempt(s)): {exc!r}",
            status=500,
        )

    def _attempt_budget(self, retries: Optional[int]) -> int:
        # Back-compat: callers passing the old retries=N mean N+1 attempts.
        return self.retry.max_attempts if retries is None else max(1, int(retries) + 1)

    async def run(
        self, payload: Dict[str, Any], retries: Optional[int] = None, key: Optional[str] = None
    ) -> Dict[str, Any]:
        """Execute ``payload`` on the pool under the full resilience policy.

        Raises :class:`ServiceError` ``worker-crash`` when the retry budget
        is exhausted and ``quarantined`` when the payload's key has crashed
        workers past the quarantine threshold; other exceptions propagate
        unchanged (they are execution errors, not infrastructure).
        """
        self._check_quarantine(key, payload)
        attempts = self._attempt_budget(retries)
        attempt = 0
        delay: Optional[float] = None
        while True:
            with self._lock:
                generation = self._generation
            used_fallback = False
            try:
                future, used_fallback = self._submit(payload)
                result = await asyncio.wrap_future(future)
                if not used_fallback:
                    self.breaker.record_success()
                return result
            except CRASH_EXCEPTIONS as exc:
                attempt += 1
                self._note_crash(key, used_fallback, generation)
                if attempt >= attempts:
                    raise self._crash_error(payload, attempt, exc) from exc
                with self._lock:
                    self._retries += 1
                delay = self.retry.next_delay(delay, self._rng)
                await self._async_sleep(delay)

    def run_sync(
        self, payload: Dict[str, Any], retries: Optional[int] = None, key: Optional[str] = None
    ) -> Dict[str, Any]:
        """Blocking form of :meth:`run` for non-async callers (tests, tools)."""
        self._check_quarantine(key, payload)
        attempts = self._attempt_budget(retries)
        attempt = 0
        delay: Optional[float] = None
        while True:
            with self._lock:
                generation = self._generation
            used_fallback = False
            try:
                future, used_fallback = self._submit(payload)
                result = future.result()
                if not used_fallback:
                    self.breaker.record_success()
                return result
            except CRASH_EXCEPTIONS as exc:
                attempt += 1
                self._note_crash(key, used_fallback, generation)
                if attempt >= attempts:
                    raise self._crash_error(payload, attempt, exc) from exc
                with self._lock:
                    self._retries += 1
                delay = self.retry.next_delay(delay, self._rng)
                self._sleep(delay)

    async def run_study(
        self,
        payload: Dict[str, Any],
        cells: Sequence[Dict[str, Any]],
        shards: int,
        key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Shard a study's cells across the pool and merge rows in order."""
        from repro.service.protocol import shard_cells

        chunks = shard_cells(cells, shards)
        if len(chunks) <= 1:
            return await self.run(dict(payload, kind="study"), key=key)
        jobs = [
            self.run(dict(payload, kind="study-shard", cells=chunk), key=key)
            for chunk in chunks
        ]
        merged: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        for shard_result in await asyncio.gather(*jobs):
            for row in shard_result["rows"]:
                merged[row["index"]] = row
        rows = [row for row in merged if row is not None]
        # Same shape as the unsharded path: the response must not depend on
        # how many workers happened to split the study.
        return {"rows": rows, "cells": len(rows)}

    async def run_tune(
        self,
        payload: Dict[str, Any],
        candidates: Sequence[Dict[str, Any]],
        shards: int,
        key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run the staged search with the predict stage sharded over the pool.

        The prune stage is a pure function of the merged predicted rows, so
        it runs here on the submitting side; the surviving selection (at most
        ``budget`` rows) is measured in a single worker job to keep timing
        off the event loop.  The assembled response is byte-identical in
        shape to the unsharded ``tune`` handler's.
        """
        from repro.autotune.tuner import assemble_tune_response, prune_rows
        from repro.service.protocol import shard_cells

        chunks = shard_cells(candidates, shards)
        if len(chunks) <= 1:
            return await self.run(dict(payload, kind="tune"), key=key)
        jobs = [
            self.run(dict(payload, kind="tune-shard", candidates=chunk), key=key)
            for chunk in chunks
        ]
        merged: List[Optional[Dict[str, Any]]] = [None] * len(candidates)
        for shard_result in await asyncio.gather(*jobs):
            for row in shard_result["rows"]:
                merged[row["index"]] = row
        rows = [row for row in merged if row is not None]
        selected = prune_rows(rows, int(payload["budget"]), payload["objective"])
        if selected:
            measured = await self.run(
                dict(payload, kind="tune-measure", rows=selected), key=key
            )
            by_index = {row["index"]: row for row in measured["rows"]}
            rows = [by_index.get(row["index"], row) for row in rows]
        return assemble_tune_response(payload, rows)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def resilience_stats(self) -> Dict[str, Any]:
        """Counters for the ``/v1/stats`` resilience block."""
        with self._lock:
            counters = {
                "rebuilds": self._rebuilds,
                "retries": self._retries,
                "crashes": self._crashes,
                "fallback_jobs": self._fallback_jobs,
            }
        return {
            "pool": counters,
            "breaker": self.breaker.stats(),
            "quarantine": self.quarantine.stats(),
            "retry_policy": {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
                "max_delay": self.retry.max_delay,
            },
        }

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            if self._fallback is not None:
                self._fallback.shutdown(wait=wait, cancel_futures=not wait)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "inline" if self.workers == 0 else f"{self.workers} processes"
        return f"WorkerPool({mode}, breaker={self.breaker.state})"
