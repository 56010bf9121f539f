"""Persistent, versioned, size-capped, digest-verified result store.

The durable half of the service's cache hierarchy: an on-disk table of
computed results keyed by ``(kind, config_hash)``, layered under the
in-memory :class:`~repro.study.cache.EvalCache` so identical requests are
hits across process restarts.  Design points:

* **Schema versioning** — entries live under ``<root>/v<STORE_VERSION>/``;
  bumping :data:`STORE_VERSION` (required whenever the hash canonicalisation
  or the value encoding changes) silently orphans the old tree instead of
  serving stale bytes.
* **Atomic writes** — every blob is written to a temporary file in the same
  directory and ``os.replace``d into place, so a crashed or concurrent
  writer can never leave a half-written entry observable.  Stale ``.tmp``
  litter from a crashed writer is swept into quarantine on startup.
* **Content digests** — the manifest records a SHA-256 over the canonical
  value JSON and over the raw NPZ sidecar bytes; **every** read path
  verifies them before a single byte is decoded, so flipped bits or torn
  writes can never reach a response.  A failing entry is moved into
  ``<dir>/quarantine/`` (kept for post-mortems, counted in stats) and the
  read degrades to a cold miss — never an exception, never bad bytes.
* **JSON + NPZ blobs** — each entry is ``<kind>-<key>.json`` (the encoded
  value, :mod:`repro.service.serial`) plus an optional ``.npz`` sidecar
  holding large arrays (simulated grids) in binary.
* **LRU size cap** — the store keeps each entry's size and recency in
  memory, filled by one scan of the directory when it opens (entries
  ordered by their files' mtimes) and updated by its own saves, loads,
  evictions and quarantines; a save never lists the directory.  Reads
  also refresh the entry's mtime, so the order survives a restart.  When
  the entries exceed ``max_bytes`` after a write, least-recently-used ones
  are evicted until they fit (the entry just written is exempt).  The cap
  counts the entries this object has seen: the service's server is the
  only writer of its store.

Chaos hooks: the ``store.write`` site may corrupt/truncate blob bytes on
their way to disk and the ``store.read`` site may corrupt manifest bytes on
their way in — which is exactly what the digest machinery must catch.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.service import faults
from repro.service.faults import InjectedFault
from repro.service.serial import UnserialisableValue, decode, encode

__all__ = ["STORE_VERSION", "StoreStats", "ResultStore"]

#: Schema version of the on-disk tree.  Covers the value encoding
#: (:mod:`repro.service.serial`), the key canonicalisation
#: (:mod:`repro.study.hashing` — see ``tests/test_hashing_golden.py``) *and*
#: the manifest layout.  v2 added mandatory content digests.
STORE_VERSION = 2

#: Default size cap: 256 MiB — generous for result blobs, small enough that
#: an unattended service cannot eat a disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A ``.tmp`` file this old at startup belongs to a dead writer, not a
#: concurrent one, and is swept into quarantine.
STALE_TMP_SECONDS = 60.0

#: Errors that mean "this entry is damaged" (vs. infrastructure trouble).
_CORRUPTION_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    UnserialisableValue,
    zipfile.BadZipFile,
    json.JSONDecodeError,
)


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_value_bytes(encoded: Any) -> bytes:
    """The digestable form of an encoded value: canonical compact JSON."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class StoreStats:
    """Accounting snapshot of a :class:`ResultStore`."""

    hits: int
    misses: int
    puts: int
    evictions: int
    entries: int
    bytes: int
    digest_failures: int = 0
    quarantined: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "entries": self.entries,
            "bytes": self.bytes,
            "digest_failures": self.digest_failures,
            "quarantined": self.quarantined,
        }


class ResultStore:
    """On-disk result table under ``root`` (created on first use).

    Safe for concurrent readers/writers across threads and processes: blobs
    are immutable once placed, placement is atomic, and eviction tolerates
    files disappearing underneath it.  The size cap counts the entries this
    object found when it opened and those it wrote or read since.
    """

    def __init__(self, root: os.PathLike | str, max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = Path(root)
        self.dir = self.root / f"v{STORE_VERSION}"
        self.quarantine_dir = self.dir / "quarantine"
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._evictions = 0
        self._digest_failures = 0
        self._quarantined = 0
        self._quarantine_seq = 0
        # stem -> bytes of the entry's files, least recently used first.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._total = 0
        listing = self._listing()
        self._sweep_stale_tmp(listing)
        for _, stem, size in self._entries(listing):
            self._index[stem] = size
            self._total += size

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _stem(kind: str, key_hash: str) -> str:
        safe_kind = "".join(c if c.isalnum() or c in "-_" else "_" for c in kind)
        return f"{safe_kind}-{key_hash}"

    def _json_path(self, kind: str, key_hash: str) -> Path:
        return self.dir / f"{self._stem(kind, key_hash)}.json"

    def _npz_path(self, kind: str, key_hash: str) -> Path:
        return self.dir / f"{self._stem(kind, key_hash)}.npz"

    # ------------------------------------------------------------------ #
    # load / save
    # ------------------------------------------------------------------ #
    def load(self, kind: str, key_hash: str) -> Tuple[bool, Any]:
        """``(True, value)`` when the entry exists, verifies and decodes.

        Misses come in three flavours, all returning ``(False, None)``:
        the entry simply isn't there; the entry is damaged — digest
        mismatch, bad JSON, bad NPZ — in which case its files move to
        ``quarantine/`` first; or an injected ``store.read`` fault ate the
        read (counted as a miss only, nothing to quarantine).
        """
        path = self._json_path(kind, key_hash)
        try:
            raw = path.read_bytes()
        except OSError:
            return self._miss()
        try:
            raw = faults.get().corrupt("store.read", raw, context={"kind": kind})
        except InjectedFault:
            return self._miss()
        try:
            payload = json.loads(raw.decode("utf-8"))
            if payload.get("schema") != STORE_VERSION:
                raise ValueError("schema mismatch")
            digests = payload["digests"]
            value_digest = _sha256_hex(_canonical_value_bytes(payload["value"]))
            if value_digest != digests["value"]:
                return self._digest_failure(kind, key_hash)
            arrays: Optional[Dict[str, np.ndarray]] = None
            if payload.get("sidecar"):
                sidecar_raw = self._npz_path(kind, key_hash).read_bytes()
                if _sha256_hex(sidecar_raw) != digests["sidecar"]:
                    return self._digest_failure(kind, key_hash)
                with np.load(io.BytesIO(sidecar_raw)) as npz:
                    arrays = {name: npz[name] for name in npz.files}
            value = decode(payload["value"], arrays)
        except OSError:
            # A sidecar vanished (concurrent eviction): a plain miss.
            return self._miss()
        except InjectedFault:
            return self._miss()
        except _CORRUPTION_ERRORS:
            return self._quarantine_miss(kind, key_hash)
        self._touch(kind, key_hash)
        self._reindex(self._stem(kind, key_hash))
        with self._lock:
            self._hits += 1
        return True, value

    def _miss(self) -> Tuple[bool, Any]:
        with self._lock:
            self._misses += 1
        return False, None

    def _digest_failure(self, kind: str, key_hash: str) -> Tuple[bool, Any]:
        with self._lock:
            self._digest_failures += 1
        return self._quarantine_miss(kind, key_hash)

    def _quarantine_miss(self, kind: str, key_hash: str) -> Tuple[bool, Any]:
        self._quarantine_entry(self._stem(kind, key_hash))
        return self._miss()

    def save(self, kind: str, key_hash: str, value: Any) -> bool:
        """Serialise, digest and atomically place ``value``.

        ``False`` when the value cannot be encoded (the caller keeps it
        memory-only) or when an injected ``store.write`` crash ate the
        write.  Digests are computed over the *true* bytes before the
        chaos hook gets a chance to corrupt them on the way to disk —
        a torn write must be detectable on the next read.
        """
        arrays: List[np.ndarray] = []
        try:
            encoded = encode(value, arrays)
        except UnserialisableValue:
            return False
        self.dir.mkdir(parents=True, exist_ok=True)
        injector = faults.get()
        context = {"kind": kind}
        try:
            sidecar_digest: Optional[str] = None
            if arrays:
                buffer = io.BytesIO()
                np.savez(buffer, **{f"arr_{i}": a for i, a in enumerate(arrays)})
                sidecar_bytes = buffer.getvalue()
                sidecar_digest = _sha256_hex(sidecar_bytes)
                self._atomic_write_bytes(
                    self._npz_path(kind, key_hash),
                    injector.corrupt("store.write", sidecar_bytes, context=context),
                )
            payload = {
                "schema": STORE_VERSION,
                "kind": kind,
                "key": key_hash,
                "sidecar": bool(arrays),
                "digests": {
                    "value": _sha256_hex(_canonical_value_bytes(encoded)),
                    "sidecar": sidecar_digest,
                },
                "value": encoded,
            }
            manifest_bytes = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
            self._atomic_write_bytes(
                self._json_path(kind, key_hash),
                injector.corrupt("store.write", manifest_bytes, context=context),
            )
        except InjectedFault:
            self._reindex(self._stem(kind, key_hash))
            return False
        with self._lock:
            self._puts += 1
        stem = self._stem(kind, key_hash)
        self._reindex(stem)
        self._enforce_cap(keep=stem)
        return True

    def contains(self, kind: str, key_hash: str) -> bool:
        """Whether an entry exists on disk (no decode, no accounting)."""
        return self._json_path(kind, key_hash).exists()

    # ------------------------------------------------------------------ #
    # write helpers
    # ------------------------------------------------------------------ #
    def _atomic_write_bytes(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _touch(self, kind: str, key_hash: str) -> None:
        """Refresh the entry's recency (best effort)."""
        now = None  # os.utime(None) = current time
        for path in (self._json_path(kind, key_hash), self._npz_path(kind, key_hash)):
            try:
                os.utime(path, now)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # quarantine
    # ------------------------------------------------------------------ #
    def _quarantine_entry(self, stem: str) -> None:
        """Move an entry's files into ``quarantine/`` (best effort).

        Quarantined blobs keep their name plus a sequence suffix so repeated
        corruption of the same key never overwrites earlier evidence.
        """
        moved = False
        for suffix in (".json", ".npz"):
            source = self.dir / f"{stem}{suffix}"
            if not source.exists():
                continue
            with self._lock:
                self._quarantine_seq += 1
                seq = self._quarantine_seq
            try:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(source, self.quarantine_dir / f"{stem}.{seq}{suffix}")
                moved = True
            except OSError:
                try:
                    os.unlink(source)
                    moved = True
                except OSError:
                    pass
        self._reindex(stem)
        if moved:
            with self._lock:
                self._quarantined += 1

    def _sweep_stale_tmp(self, listing: List[Path]) -> None:
        """Quarantine ``.tmp`` litter of ``listing`` from writers that died
        mid-write.

        Only files older than :data:`STALE_TMP_SECONDS` move — younger ones
        may belong to a live concurrent writer about to ``os.replace``.
        """
        cutoff = time.time() - STALE_TMP_SECONDS
        for path in listing:
            if path.suffix != ".tmp":
                continue
            try:
                if path.stat().st_mtime > cutoff:
                    continue
                with self._lock:
                    self._quarantine_seq += 1
                    seq = self._quarantine_seq
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, self.quarantine_dir / f"{path.name}.{seq}")
                with self._lock:
                    self._quarantined += 1
            except OSError:
                continue

    def quarantined_files(self) -> List[str]:
        """Names currently sitting in ``quarantine/`` (sorted)."""
        try:
            return sorted(p.name for p in self.quarantine_dir.iterdir())
        except OSError:
            return []

    # ------------------------------------------------------------------ #
    # LRU eviction
    # ------------------------------------------------------------------ #
    def _listing(self) -> List[Path]:
        """The files of the current schema's directory (none when absent)."""
        try:
            return list(self.dir.iterdir())
        except OSError:
            return []

    def _entries(self, listing: Optional[List[Path]] = None) -> List[Tuple[float, str, int]]:
        """(oldest mtime, stem, total bytes) per entry on disk, least recent
        first; from ``listing``, or from a new one."""
        grouped: Dict[str, List[Path]] = {}
        for path in self._listing() if listing is None else listing:
            if path.suffix in (".json", ".npz"):
                grouped.setdefault(path.stem, []).append(path)
        rows = []
        for stem, paths in grouped.items():
            try:
                stats = [p.stat() for p in paths]
            except OSError:
                continue  # evicted by a concurrent writer mid-scan
            rows.append((min(s.st_mtime for s in stats), stem, sum(s.st_size for s in stats)))
        rows.sort()
        return rows

    def _reindex(self, stem: str) -> None:
        """Record the entry ``stem`` as the most recently used, with the
        bytes its files hold now; forget it when it has none.  Under the
        lock, so an eviction cannot unlink the files between the look and
        the record."""
        with self._lock:
            self._total -= self._index.pop(stem, 0)
            size, found = 0, False
            for suffix in (".json", ".npz"):
                try:
                    size += (self.dir / f"{stem}{suffix}").stat().st_size
                    found = True
                except OSError:
                    pass
            if found:
                self._index[stem] = size
                self._total += size

    def _enforce_cap(self, keep: str) -> None:
        with self._lock:
            excess = self._total - self.max_bytes
            victims = []
            for stem, size in self._index.items():
                if excess <= 0:
                    break
                if stem != keep:
                    victims.append(stem)
                    excess -= size
            for stem in victims:
                self._total -= self._index.pop(stem)
                self._evictions += 1
                for suffix in (".json", ".npz"):
                    try:
                        os.unlink(self.dir / f"{stem}{suffix}")
                    except OSError:
                        pass

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> StoreStats:
        rows = self._entries()
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                entries=len(rows),
                bytes=sum(size for _, _, size in rows),
                digest_failures=self._digest_failures,
                quarantined=self._quarantined,
            )

    def clear(self) -> None:
        """Delete every entry of the current schema version."""
        for _, stem, _ in self._entries():
            for suffix in (".json", ".npz"):
                try:
                    os.unlink(self.dir / f"{stem}{suffix}")
                except OSError:
                    pass
        with self._lock:
            self._index.clear()
            self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return f"ResultStore({str(self.dir)!r}, entries={s.entries}, bytes={s.bytes})"
