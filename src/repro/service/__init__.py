"""repro.service — the async, sharded stencil-compute service.

A small production-style serving layer over the compile-once/run-many plan
API: an :mod:`asyncio` front end (:mod:`repro.service.server`) validates
JSON requests against the method registry, coalesces concurrent identical
requests, schedules cold work onto a process-pool worker tier
(:mod:`repro.service.workers`, studies sharded across workers), and answers
repeats from a two-level cache — an in-memory tier over the persistent,
versioned, LRU-capped, digest-verified
:class:`~repro.service.store.ResultStore`, both holding each result's wire
bytes.

The service is chaos-hardened: :mod:`repro.service.faults` injects seeded,
replayable failures at named sites throughout this stack, and
:mod:`repro.service.resilience` supplies the survival policies (retry
budgets with decorrelated-jitter backoff, a circuit breaker over pool
crashes, poison-pill quarantine) the chaos suite validates.

Start it with ``repro-serve`` (or ``python -m repro.service.server``) and
talk to it with :class:`~repro.service.client.ServiceClient` — see
``examples/service_client.py`` and the README's "Running the service".
"""

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.faults import (
    FaultInjector,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    deactivate,
    install,
)
from repro.service.protocol import (
    KINDS,
    PROTOCOL_VERSION,
    Request,
    ServiceError,
    normalize,
)
from repro.service.resilience import CircuitBreaker, PoisonQuarantine, RetryPolicy
from repro.service.serial import UnserialisableValue, decode, encode
from repro.service.server import (
    ServiceConfig,
    ServiceHandle,
    StencilService,
    serve_background,
)
from repro.service.store import STORE_VERSION, ResultStore, StoreStats
from repro.service.workers import WorkerPool, execute_payload

__all__ = [
    "KINDS",
    "PROTOCOL_VERSION",
    "STORE_VERSION",
    "CircuitBreaker",
    "FaultInjector",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "PoisonQuarantine",
    "Request",
    "ResultStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "ServiceUnavailable",
    "StencilService",
    "StoreStats",
    "UnserialisableValue",
    "WorkerPool",
    "deactivate",
    "decode",
    "encode",
    "execute_payload",
    "install",
    "normalize",
    "serve_background",
]
