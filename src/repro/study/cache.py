"""Memoization of the analytic evaluation pipeline.

A parameter sweep revisits the same ``(method, stencil, isa, unroll)`` cell
many times: every storage level of Figure 8 profiles the same five methods,
every core count of Figure 10 re-derives the same tiled profiles, Table 2 /
Table 3 replay Figure 8 / Figure 10 wholesale.  :class:`EvalCache` memoizes
the two expensive stages — :func:`repro.methods.build_profile` (schedule
analysis, counterpart planning) and the performance estimates
(:func:`repro.perfmodel.costmodel.estimate_performance` /
:func:`repro.parallel.model.multicore_estimate`) — keyed by the canonical
configuration hash of their inputs (:mod:`repro.study.hashing`), so repeated
cells are free.

The cache is thread-safe with single-flight semantics: when several
threads ask for the same key concurrently (the service's inline workers
share one process-wide cache, :func:`repro.service.workers.worker_cache`),
exactly one computes and the rest wait for its result, which keeps hit/miss
accounting exact and the work deduplicated.  Cached values are shared, never copied — safe because
every producer in the pipeline is pure and every consumer treats its inputs
as read-only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.machine import MachineSpec
from repro.study.hashing import freeze

__all__ = ["CacheStats", "EvalCache"]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of an :class:`EvalCache`'s accounting.

    ``hits + misses`` equals the number of memoized calls served; ``entries``
    is the number of distinct keys currently held.
    """

    hits: int
    misses: int
    entries: int

    @property
    def calls(self) -> int:
        """Total memoized calls served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of calls served from memory (0.0 when nothing was served)."""
        calls = self.calls
        return self.hits / calls if calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready accounting — the one shape the runner CLI and the
        service ``/stats`` endpoint both report."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


class _Cell:
    """One cache slot with single-flight population."""

    __slots__ = ("ready", "value", "error")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class EvalCache:
    """Thread-safe memo table for profiles, estimates and folding reports.

    One cache instance is created per study run (or shared across runs and
    experiments by passing it explicitly); its lifetime bounds the validity
    of the keys, so plug-in methods registered mid-process cannot leak stale
    profiles between unrelated sweeps.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: Dict[Hashable, _Cell] = {}
        self._hits = 0
        self._misses = 0
        self._by_kind: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------ #
    # core memoization
    # ------------------------------------------------------------------ #
    def memoize(self, kind: str, key_parts: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``(kind, key_parts)``, computing once.

        ``kind`` namespaces the key (``"profile"``, ``"estimate"``, ...);
        ``key_parts`` is frozen canonically, so equal configurations share a
        slot regardless of container identity.  Concurrent callers of the
        same key block until the single in-flight computation finishes
        (single-flight); a computation that raises releases the slot so a
        later call may retry.  The computing thread re-raises the original
        exception; concurrent waiters receive a fresh ``RuntimeError``
        chained to it (re-raising one exception instance from several
        threads would corrupt its traceback).
        """
        key = (kind, freeze(key_parts))
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = _Cell()
                self._cells[key] = cell
                self._misses += 1
                self._kind_counts(kind)[1] += 1
                owner = True
            else:
                self._hits += 1
                self._kind_counts(kind)[0] += 1
                owner = False
        if owner:
            try:
                cell.value = compute()
            except BaseException as exc:
                cell.error = exc
                with self._lock:
                    # Release the slot: the failure is reported to everyone
                    # currently waiting, but the key is computable again.
                    if self._cells.get(key) is cell:
                        del self._cells[key]
                raise
            finally:
                cell.ready.set()
            return cell.value
        cell.ready.wait()
        if cell.error is not None:
            raise RuntimeError(
                f"memoized {kind!r} computation failed in another thread: {cell.error!r}"
            ) from cell.error
        return cell.value

    def _kind_counts(self, kind: str) -> List[int]:
        """[hits, misses] counters of ``kind`` (lock held)."""
        counts = self._by_kind.get(kind)
        if counts is None:
            counts = self._by_kind[kind] = [0, 0]
        return counts

    # ------------------------------------------------------------------ #
    # pipeline stages
    # ------------------------------------------------------------------ #
    def profile(
        self,
        method: str,
        spec: Any,
        isa: str = "avx2",
        m: int = 2,
        shifts_reuse: bool = True,
        **extra: Any,
    ) -> Any:
        """Memoized :func:`repro.methods.build_profile`.

        ``extra`` reaches richer profile builders (e.g. the SDSL baseline's
        split-tiling configuration) and participates in the key.
        """
        from repro.methods import build_profile

        return self.memoize(
            "profile",
            (method, spec, isa, m, shifts_reuse, extra),
            lambda: build_profile(
                method, spec, isa=isa, m=m, shifts_reuse=shifts_reuse, **extra
            ),
        )

    def estimate(
        self,
        profile: Any,
        npoints: int,
        time_steps: int,
        machine: MachineSpec,
        **kwargs: Any,
    ) -> Any:
        """Memoized single-core :func:`~repro.perfmodel.costmodel.estimate_performance`."""
        from repro.perfmodel.costmodel import estimate_performance

        return self.memoize(
            "estimate",
            (profile, npoints, time_steps, machine, kwargs),
            lambda: estimate_performance(
                profile, npoints=npoints, time_steps=time_steps, machine=machine, **kwargs
            ),
        )

    def multicore(
        self,
        profile: Any,
        grid_shape: Sequence[int],
        time_steps: int,
        machine: MachineSpec,
        cores: int,
        radius: int,
        tiling: Any = None,
        **kwargs: Any,
    ) -> Any:
        """Memoized :func:`repro.parallel.model.multicore_estimate`."""
        from repro.parallel.model import multicore_estimate

        grid_shape = tuple(grid_shape)
        return self.memoize(
            "multicore",
            (profile, grid_shape, time_steps, machine, cores, radius, tiling, kwargs),
            lambda: multicore_estimate(
                profile,
                grid_shape=grid_shape,
                time_steps=time_steps,
                machine=machine,
                cores=cores,
                radius=radius,
                tiling=tiling,
                **kwargs,
            ),
        )

    def folding(self, spec: Any, m: int) -> Any:
        """Memoized :func:`repro.core.folding.analyze_folding`."""
        from repro.core.folding import analyze_folding

        return self.memoize("folding", (spec, m), lambda: analyze_folding(spec, m))

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/entry counts (atomic snapshot)."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, entries=len(self._cells))

    def stats_by_kind(self) -> Dict[str, CacheStats]:
        """Per-kind accounting (``entries`` is not tracked per kind: 0).

        The runner CLI's ``--json`` output reports this mapping, in the
        :class:`CacheStats` shape the service's ``/stats`` endpoint reports
        for its in-memory tier, so the two surfaces agree on what "hit rate
        per kind" means.
        """
        with self._lock:
            return {
                kind: CacheStats(hits=h, misses=m, entries=0)
                for kind, (h, m) in sorted(self._by_kind.items())
            }

    def clear(self) -> None:
        """Drop every entry and reset the accounting."""
        with self._lock:
            self._cells.clear()
            self._hits = 0
            self._misses = 0
            self._by_kind.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return f"EvalCache(entries={s.entries}, hits={s.hits}, misses={s.misses})"
