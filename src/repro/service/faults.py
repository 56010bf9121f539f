"""Deterministic, seeded fault injection for the compute service.

Chaos testing is only useful when a failing run can be *replayed*: the same
seed and schedule must provoke the same faults at the same points, every
time, in any process.  This module provides that determinism:

* A :class:`FaultInjector` holds a ``seed`` and a list of :class:`FaultRule`
  entries.  Every instrumented call site (``worker.execute``,
  ``pool.submit``, ``store.read``, ``store.write``, ``serial.decode``,
  ``server.dispatch``, ``client.request``) asks the injector for a decision;
  the injector keeps a per-site invocation counter and decides purely from
  ``(seed, site, invocation_index, rule)`` — no wall clock, no global RNG —
  so a schedule is a pure function of the call sequence.
* Rules select invocations explicitly (``at``), periodically (``every`` /
  ``phase``) or by a deterministic pseudo-random ``rate`` (a SHA-256 of the
  decision coordinates, *not* ``random``), optionally filtered by a
  ``where`` context match (e.g. only ``estimate`` payloads) and capped by
  ``max_fires``.
* Every injected fault is appended to a bounded in-memory log; the log and
  per-site counters surface in ``/v1/stats`` under ``"faults"`` and are the
  artifact ``benchmarks/chaos_smoke.py`` uploads in CI.

The injector is **disabled by default** and costs one attribute check per
site when disabled.  Enable it by installing a configured injector
(:func:`install`), normally via
:class:`~repro.service.server.ServiceConfig.faults`.

Fault kinds (sites interpret the subset that makes sense for them):

``crash``
    Raise :class:`InjectedCrash` (worker processes translate it into a hard
    ``os._exit`` — indistinguishable from a segfault).
``delay``
    Sleep ``seconds`` (through the injector's injectable sleep).
``corrupt-bytes``
    Flip one deterministic byte of the payload (``corrupt`` sites).
``partial-write``
    Truncate the payload to a deterministic prefix (``corrupt`` sites).
``connection-reset``
    Raise :class:`InjectedConnectionReset` (an ``OSError`` subclass, so
    transports handle it exactly like a peer reset).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SITES",
    "FAULT_KINDS",
    "InjectedFault",
    "InjectedCrash",
    "InjectedConnectionReset",
    "FaultRule",
    "FaultInjector",
    "get",
    "install",
    "deactivate",
]

#: The instrumented call sites, in stack order.
SITES = (
    "client.request",
    "server.dispatch",
    "pool.submit",
    "worker.execute",
    "store.read",
    "store.write",
    "serial.decode",
)

FAULT_KINDS = ("crash", "delay", "corrupt-bytes", "partial-write", "connection-reset")

#: Log entries kept in memory (oldest dropped beyond this).
LOG_CAP = 1000


class InjectedFault(RuntimeError):
    """Base class of every injector-raised failure."""


class InjectedCrash(InjectedFault):
    """A fault standing in for a dead worker / broken executor."""


class InjectedConnectionReset(ConnectionResetError, InjectedFault):
    """A fault standing in for a peer-reset connection (an ``OSError``)."""


@dataclass(frozen=True)
class FaultRule:
    """One schedule entry: *where* and *when* to inject *what*.

    Selection (any combination; a rule fires when **all** its configured
    selectors agree):

    ``at``
        Explicit invocation indices (0-based, per site).
    ``every`` / ``phase``
        Periodic: fire when ``index % every == phase``.
    ``rate``
        Deterministic pseudo-random fraction of invocations, decided by
        hashing ``(seed, site, index, rule_index)`` — replayable, unlike
        ``random.random()``.
    ``where``
        Context filter: every key must equal the call site's context value
        (worker sites pass the job payload, so ``{"kind": "estimate"}`` or
        ``{"m": 7}`` scope a fault to matching requests).
    ``max_fires``
        Stop after this many injections from this rule.
    """

    site: str
    kind: str
    at: Optional[Tuple[int, ...]] = None
    every: Optional[int] = None
    phase: int = 0
    rate: Optional[float] = None
    where: Optional[Mapping[str, Any]] = None
    seconds: float = 0.0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.every is not None and self.every < 1:
            raise ValueError("'every' must be >= 1")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError("'rate' must lie in [0, 1]")
        if self.at is not None:
            object.__setattr__(self, "at", tuple(int(i) for i in self.at))
        if self.at is None and self.every is None and self.rate is None and self.where is None:
            # A rule with no selector would fire on every invocation of the
            # site implicitly; require the schedule to say so explicitly
            # (``every=1``) so specs read as schedules, not accidents.
            raise ValueError("a fault rule needs a selector: at, every, rate or where")

    def to_spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {"site": self.site, "kind": self.kind}
        if self.at is not None:
            spec["at"] = list(self.at)
        if self.every is not None:
            spec["every"] = self.every
            if self.phase:
                spec["phase"] = self.phase
        if self.rate is not None:
            spec["rate"] = self.rate
        if self.where is not None:
            spec["where"] = dict(self.where)
        if self.seconds:
            spec["seconds"] = self.seconds
        if self.max_fires is not None:
            spec["max_fires"] = self.max_fires
        return spec

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "FaultRule":
        known = {"site", "kind", "at", "every", "phase", "rate", "where", "seconds", "max_fires"}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown fault rule fields: {sorted(unknown)}")
        return cls(
            site=spec["site"],
            kind=spec["kind"],
            at=tuple(spec["at"]) if "at" in spec else None,
            every=spec.get("every"),
            phase=int(spec.get("phase", 0)),
            rate=spec.get("rate"),
            where=dict(spec["where"]) if "where" in spec else None,
            seconds=float(spec.get("seconds", 0.0)),
            max_fires=spec.get("max_fires"),
        )


def _context_matches(
    where: Optional[Mapping[str, Any]], context: Optional[Mapping[str, Any]]
) -> bool:
    if where is None:
        return True
    if context is None:
        return False
    return all(context.get(k) == v for k, v in where.items())


class FaultInjector:
    """Seeded, replayable fault scheduler (thread-safe).

    One injector is installed process-wide (:func:`install`); instrumented
    call sites consult it through :func:`get`.  Worker *processes* never
    consult their own copy for scheduling — the pool decides faults on the
    submitting side and ships a directive inside the payload, so the whole
    schedule unfolds in one process's counters and is replayable even
    across pool rebuilds.
    """

    def __init__(
        self,
        seed: int = 0,
        rules: Sequence[FaultRule] = (),
        enabled: bool = True,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.seed = int(seed)
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.enabled = bool(enabled) and bool(self.rules)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._invocations: Dict[str, int] = {}
        self._injected: Dict[str, Dict[str, int]] = {}
        self._fires: Dict[int, int] = {}
        self._log: List[Dict[str, Any]] = []
        self._log_total = 0

    # ------------------------------------------------------------------ #
    # construction from / to JSON specs
    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(
        cls, spec: Mapping[str, Any], sleep: Callable[[float], None] = time.sleep
    ) -> "FaultInjector":
        """Build an injector from a JSON-ready ``{"seed":…, "rules":[…]}``."""
        known = {"seed", "rules", "enabled"}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        rules = tuple(FaultRule.from_spec(r) for r in spec.get("rules", ()))
        return cls(
            seed=int(spec.get("seed", 0)),
            rules=rules,
            enabled=bool(spec.get("enabled", True)),
            sleep=sleep,
        )

    def to_spec(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "enabled": self.enabled,
            "rules": [rule.to_spec() for rule in self.rules],
        }

    # ------------------------------------------------------------------ #
    # the decision core
    # ------------------------------------------------------------------ #
    def _hash_fraction(self, site: str, index: int, rule_index: int) -> float:
        token = f"{self.seed}|{site}|{index}|{rule_index}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def decide(self, site: str, context: Optional[Mapping[str, Any]] = None) -> Optional[FaultRule]:
        """Advance ``site``'s invocation counter and pick the firing rule.

        Returns ``None`` (the overwhelmingly common case) or the first rule
        whose selectors all match this invocation.  Disabled injectors are
        complete no-ops: no counters, no log.
        """
        rule, _ = self._decide(site, context)
        return rule

    def _decide(
        self, site: str, context: Optional[Mapping[str, Any]] = None
    ) -> Tuple[Optional[FaultRule], int]:
        if not self.enabled:
            return None, -1
        with self._lock:
            index = self._invocations.get(site, 0)
            self._invocations[site] = index + 1
            for rule_index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                if rule.max_fires is not None and self._fires.get(rule_index, 0) >= rule.max_fires:
                    continue
                if not _context_matches(rule.where, context):
                    continue
                if rule.at is not None and index not in rule.at:
                    continue
                if rule.every is not None and index % rule.every != rule.phase % rule.every:
                    continue
                if (
                    rule.rate is not None
                    and self._hash_fraction(site, index, rule_index) >= rule.rate
                ):
                    continue
                self._fires[rule_index] = self._fires.get(rule_index, 0) + 1
                self._injected.setdefault(site, {})
                self._injected[site][rule.kind] = self._injected[site].get(rule.kind, 0) + 1
                self._log_total += 1
                self._log.append(
                    {"site": site, "index": index, "kind": rule.kind, "rule": rule_index}
                )
                if len(self._log) > LOG_CAP:
                    del self._log[: len(self._log) - LOG_CAP]
                return rule, index
        return None, index

    # ------------------------------------------------------------------ #
    # acting entry points used by the call sites
    # ------------------------------------------------------------------ #
    def inject(self, site: str, context: Optional[Mapping[str, Any]] = None) -> None:
        """Control-flow faults: raise or delay; corrupt kinds are no-ops."""
        rule = self.decide(site, context)
        if rule is None:
            return
        if rule.kind == "delay":
            self._sleep(rule.seconds)
        elif rule.kind == "crash":
            raise InjectedCrash(f"injected crash at {site} (seed={self.seed})")
        elif rule.kind == "connection-reset":
            raise InjectedConnectionReset(f"injected connection reset at {site} (seed={self.seed})")

    def corrupt(self, site: str, data: bytes, context: Optional[Mapping[str, Any]] = None) -> bytes:
        """Byte-stream faults for read/write sites; may also raise/delay.

        ``corrupt-bytes`` flips one deterministically-chosen byte;
        ``partial-write`` keeps a deterministic prefix (at least dropping
        one byte).  Both are pure functions of ``(seed, site, index)``.
        """
        rule, index = self._decide(site, context)
        if rule is None or not data:
            return data
        fraction = self._hash_fraction(site, index, -1)
        if rule.kind == "corrupt-bytes":
            position = int(fraction * len(data)) % len(data)
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            return bytes(corrupted)
        if rule.kind == "partial-write":
            keep = min(len(data) - 1, int(fraction * len(data)))
            return data[: max(0, keep)]
        if rule.kind == "delay":
            self._sleep(rule.seconds)
            return data
        if rule.kind == "crash":
            raise InjectedCrash(f"injected crash at {site} (seed={self.seed})")
        if rule.kind == "connection-reset":
            raise InjectedConnectionReset(f"injected connection reset at {site} (seed={self.seed})")
        return data

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def snapshot_log(self) -> List[Dict[str, Any]]:
        """The injected-fault sequence (bounded to the last ``LOG_CAP``)."""
        with self._lock:
            return [dict(event) for event in self._log]

    def stats(self) -> Dict[str, Any]:
        """Per-site accounting for ``/v1/stats`` and chaos artifacts."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "seed": self.seed,
                "rules": len(self.rules),
                "invocations": dict(sorted(self._invocations.items())),
                "injected": {site: dict(kinds) for site, kinds in sorted(self._injected.items())},
                "total_injected": self._log_total,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"FaultInjector(seed={self.seed}, rules={len(self.rules)}, {state})"


# --------------------------------------------------------------------------- #
# the process-global injector
# --------------------------------------------------------------------------- #
_DISABLED = FaultInjector(enabled=False)
_GLOBAL: FaultInjector = _DISABLED
_GLOBAL_LOCK = threading.Lock()


def get() -> FaultInjector:
    """The process-global injector (a disabled no-op by default)."""
    return _GLOBAL


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-global one; returns it for chaining.

    Call before building a :class:`~repro.service.workers.WorkerPool` so
    fault *directives* decided on the submitting side govern forked
    workers too.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = injector
    return injector


def deactivate() -> None:
    """Restore the disabled no-op injector (tests call this in teardown)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = _DISABLED
