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

The cache is thread-safe with single-flight semantics: when several study
workers ask for the same key concurrently, exactly one computes and the
rest wait for its result, which keeps hit/miss accounting exact and the
work deduplicated.  Cached values are shared, never copied — safe because
every producer in the pipeline is pure and every consumer treats its inputs
as read-only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.machine import MachineSpec
from repro.study.hashing import config_hash, freeze

__all__ = ["CacheStats", "EvalCache"]


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of an :class:`EvalCache`'s accounting.

    ``hits + misses`` equals the number of memoized calls served; ``entries``
    is the number of distinct keys currently held; ``store_hits`` counts the
    misses that were satisfied by the persistent store backing the cache
    (a subset of ``misses`` — the in-memory table still missed).
    """

    hits: int
    misses: int
    entries: int
    store_hits: int = 0

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
            "store_hits": self.store_hits,
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

    def __init__(self, store: Optional[Any] = None) -> None:
        """``store`` optionally layers a persistent table under the memory one.

        Any object with ``load(kind, key_hash) -> (found, value)`` and
        ``save(kind, key_hash, value) -> bool`` works (the service's
        :class:`repro.service.store.ResultStore` is the canonical one): a
        memory miss consults the store before computing, and freshly computed
        values are written through best-effort, so identical keys are hits
        across process restarts.
        """
        self._lock = threading.Lock()
        self._cells: Dict[Hashable, _Cell] = {}
        self._hits = 0
        self._misses = 0
        self._store_hits = 0
        self._by_kind: Dict[str, List[int]] = {}
        self._store = store

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
            if self._store is not None:
                found, value = self._store_load(kind, key_parts)
                if found:
                    cell.value = value
                    cell.ready.set()
                    with self._lock:
                        self._store_hits += 1
                        self._kind_counts(kind)[2] += 1
                    return value
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
            if self._store is not None:
                self._store_save(kind, key_parts, cell.value)
            return cell.value
        cell.ready.wait()
        if cell.error is not None:
            raise RuntimeError(
                f"memoized {kind!r} computation failed in another thread: {cell.error!r}"
            ) from cell.error
        return cell.value

    def _kind_counts(self, kind: str) -> List[int]:
        """[hits, misses, store_hits] counters of ``kind`` (lock held)."""
        counts = self._by_kind.get(kind)
        if counts is None:
            counts = self._by_kind[kind] = [0, 0, 0]
        return counts

    def _store_load(self, kind: str, key_parts: Any) -> Tuple[bool, Any]:
        """Best-effort persistent lookup; unreadable entries are cold misses."""
        try:
            return self._store.load(kind, config_hash(kind, key_parts))
        except Exception:
            return False, None

    def _store_save(self, kind: str, key_parts: Any, value: Any) -> bool:
        """Best-effort write-through; unserialisable values simply stay
        memory-only (the store, not the cache, owns what it can persist)."""
        try:
            return bool(self._store.save(kind, config_hash(kind, key_parts), value))
        except Exception:
            return False

    # ------------------------------------------------------------------ #
    # non-blocking access (the async service front end cannot sit on the
    # single-flight Event, so it peeks, runs its own async dedup, and puts)
    # ------------------------------------------------------------------ #
    def peek(self, kind: str, key_parts: Any) -> Tuple[bool, Any]:
        """``(True, value)`` when ``(kind, key_parts)`` is ready in memory.

        Never blocks and never counts as a hit or miss on its own: an
        in-flight or failed cell reads as absent.  Pair with :meth:`put` for
        callers that dedupe concurrent computations themselves.
        """
        key = (kind, freeze(key_parts))
        with self._lock:
            cell = self._cells.get(key)
            if cell is None or not cell.ready.is_set() or cell.error is not None:
                return False, None
            self._hits += 1
            self._kind_counts(kind)[0] += 1
            return True, cell.value

    def put(self, kind: str, key_parts: Any, value: Any, persist: bool = True) -> None:
        """Insert a ready value, counting one miss (the computation happened).

        ``persist`` additionally writes the value through to the backing
        store (when one is attached), making it a hit across restarts.
        An existing ready cell for the key is left untouched.
        """
        key = (kind, freeze(key_parts))
        with self._lock:
            cell = self._cells.get(key)
            if cell is not None and cell.ready.is_set() and cell.error is None:
                return
            fresh = _Cell()
            fresh.value = value
            fresh.ready.set()
            self._cells[key] = fresh
            self._misses += 1
            self._kind_counts(kind)[1] += 1
        if persist and self._store is not None:
            self._store_save(kind, key_parts, value)

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
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._cells),
                store_hits=self._store_hits,
            )

    def stats_by_kind(self) -> Dict[str, CacheStats]:
        """Per-kind accounting (``entries`` is not tracked per kind: 0).

        The runner CLI's ``--json`` output and the service's ``/stats``
        endpoint both report this mapping, so the two surfaces agree on what
        "hit rate per kind" means.
        """
        with self._lock:
            return {
                kind: CacheStats(hits=h, misses=m, entries=0, store_hits=s)
                for kind, (h, m, s) in sorted(self._by_kind.items())
            }

    def clear(self) -> None:
        """Drop every entry and reset the accounting."""
        with self._lock:
            self._cells.clear()
            self._hits = 0
            self._misses = 0
            self._store_hits = 0
            self._by_kind.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return f"EvalCache(entries={s.entries}, hits={s.hits}, misses={s.misses})"
