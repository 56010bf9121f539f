"""Persistent, versioned, size-capped, digest-verified result store.

The durable half of the service's cache hierarchy: an on-disk table of
computed results keyed by ``(kind, config_hash)``, layered under the
server's in-memory tier so identical requests are hits across process
restarts.  Both tiers hold a result in one form, its wire fragment: the
``json.dumps(serial.encode(result), sort_keys=True)`` bytes every 200
response splices in (:mod:`repro.service.server`).  The store neither
encodes nor decodes; it keeps the bytes it is given.  Design points:

* **Schema versioning** — entries live under ``<root>/v<STORE_VERSION>/``;
  bumping :data:`STORE_VERSION` (required whenever the hash canonicalisation
  or the stored form changes) silently orphans the old tree instead of
  serving stale bytes.
* **Atomic writes** — every entry is written to a temporary file in the
  same directory and ``os.replace``d into place, so a crashed or concurrent
  writer can never leave a half-written entry observable.  Stale ``.tmp``
  litter from a crashed writer is swept into quarantine on startup.
* **Content digests** — an entry is one file, ``<kind>-<key>.entry``: a
  one-line JSON header (schema, kind, key and the SHA-256 of the fragment),
  then the fragment.  **Every** read checks the header and the digest
  before a byte is returned, so flipped bits or torn writes can never
  reach a response.  A failing entry is moved into ``<dir>/quarantine/``
  (kept for post-mortems, counted in stats) and the read degrades to a
  cold miss — never an exception, never bad bytes.  The digest guards
  against corruption, not against tampering: a self-consistent entry is
  served as it stands.
* **LRU size cap** — the store keeps each entry's size and recency in
  memory, filled by one scan of the directory when it opens (entries
  ordered by their files' mtimes) and updated by its own saves, loads,
  evictions and quarantines; a save never lists the directory.  Reads
  also refresh the entry's mtime, so the order survives a restart.  When
  the entries exceed ``max_bytes`` after a write, least-recently-used ones
  are evicted until they fit (the entry just written is exempt).  The cap
  counts the entries this object has seen: the service's server is the
  only writer of its store.

Chaos hooks: the ``store.write`` site may corrupt/truncate an entry's bytes
on their way to disk and the ``store.read`` site may corrupt them on their
way in — which is exactly what the digest check must catch.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.service import faults
from repro.service.faults import InjectedFault

__all__ = ["STORE_VERSION", "StoreStats", "ResultStore"]

#: Schema version of the on-disk tree.  Covers the stored form (the wire
#: fragment, :mod:`repro.service.serial`), the key canonicalisation
#: (:mod:`repro.study.hashing` — see ``tests/test_hashing_golden.py``) *and*
#: the entry layout.  v2 added mandatory content digests; v3 stores the
#: wire fragment behind a one-line header.
STORE_VERSION = 3

#: Default size cap: 256 MiB — generous for result blobs, small enough that
#: an unattended service cannot eat a disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A ``.tmp`` file this old at startup belongs to a dead writer, not a
#: concurrent one, and is swept into quarantine.
STALE_TMP_SECONDS = 60.0

#: File suffix of an entry.
ENTRY_SUFFIX = ".entry"


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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

    Safe for concurrent readers/writers across threads and processes:
    entries are immutable once placed, placement is atomic, and eviction
    tolerates files disappearing underneath it.  The size cap counts the
    entries this object found when it opened and those it wrote or read
    since.
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
        # stem -> bytes of the entry's file, least recently used first.
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

    def _path(self, stem: str) -> Path:
        return self.dir / f"{stem}{ENTRY_SUFFIX}"

    # ------------------------------------------------------------------ #
    # load / save
    # ------------------------------------------------------------------ #
    def load(self, kind: str, key_hash: str) -> Tuple[bool, Optional[bytes]]:
        """``(True, fragment)`` when the entry exists and verifies.

        ``fragment`` is exactly the bytes :meth:`save` was given.  Misses
        come in three flavours, all returning ``(False, None)``: the entry
        simply isn't there; the entry is damaged — a header that does not
        parse or names another schema, kind or key, or a digest mismatch —
        in which case its file moves to ``quarantine/`` first; or an
        injected ``store.read`` fault ate the read (counted as a miss only,
        nothing to quarantine).
        """
        stem = self._stem(kind, key_hash)
        path = self._path(stem)
        try:
            raw = path.read_bytes()
        except OSError:
            return self._miss()
        try:
            raw = faults.get().corrupt("store.read", raw, context={"kind": kind})
        except InjectedFault:
            return self._miss()
        line, _, fragment = raw.partition(b"\n")
        try:
            header = json.loads(line)
        except ValueError:
            return self._quarantine_miss(stem)
        expected = {"schema": STORE_VERSION, "kind": kind, "key": key_hash}
        if not isinstance(header, dict) or {k: header.get(k) for k in expected} != expected:
            return self._quarantine_miss(stem)
        if header.get("digest") != _sha256_hex(fragment):
            with self._lock:
                self._digest_failures += 1
            return self._quarantine_miss(stem)
        try:
            os.utime(path)  # recency that survives a restart
        except OSError:
            pass
        self._reindex(stem)
        with self._lock:
            self._hits += 1
        return True, fragment

    def _miss(self) -> Tuple[bool, None]:
        with self._lock:
            self._misses += 1
        return False, None

    def _quarantine_miss(self, stem: str) -> Tuple[bool, None]:
        self._quarantine_entry(stem)
        return self._miss()

    def save(self, kind: str, key_hash: str, fragment: bytes) -> bool:
        """Atomically place ``fragment`` as the entry of ``(kind, key_hash)``.

        ``False`` when an injected ``store.write`` crash ate the write.
        The digest is computed over the *true* bytes before the chaos hook
        gets a chance to corrupt them on the way to disk — a torn write
        must be detectable on the next read.
        """
        header = {
            "schema": STORE_VERSION,
            "kind": kind,
            "key": key_hash,
            "digest": _sha256_hex(fragment),
        }
        data = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n" + fragment
        stem = self._stem(kind, key_hash)
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            data = faults.get().corrupt("store.write", data, context={"kind": kind})
        except InjectedFault:
            return False
        self._atomic_write_bytes(self._path(stem), data)
        with self._lock:
            self._puts += 1
        self._reindex(stem)
        self._enforce_cap(keep=stem)
        return True

    def contains(self, kind: str, key_hash: str) -> bool:
        """Whether an entry exists on disk (no read, no accounting)."""
        return self._path(self._stem(kind, key_hash)).exists()

    # ------------------------------------------------------------------ #
    # write helper
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

    # ------------------------------------------------------------------ #
    # quarantine
    # ------------------------------------------------------------------ #
    def _quarantine_entry(self, stem: str) -> None:
        """Move an entry's file into ``quarantine/`` (best effort).

        Quarantined entries keep their name plus a sequence suffix so
        repeated corruption of the same key never overwrites earlier
        evidence.
        """
        with self._lock:
            self._quarantine_seq += 1
            seq = self._quarantine_seq
        source = self._path(stem)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(source, self.quarantine_dir / f"{stem}.{seq}{ENTRY_SUFFIX}")
            moved = True
        except OSError:
            try:
                os.unlink(source)
                moved = True
            except OSError:
                moved = False
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
        """(mtime, stem, bytes) per entry on disk, least recent first; from
        ``listing``, or from a new one."""
        rows = []
        for path in self._listing() if listing is None else listing:
            if path.suffix != ENTRY_SUFFIX:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted by a concurrent writer mid-scan
            rows.append((stat.st_mtime, path.stem, stat.st_size))
        rows.sort()
        return rows

    def _reindex(self, stem: str) -> None:
        """Record the entry ``stem`` as the most recently used, with the
        bytes its file holds now; forget it when it has none.  Under the
        lock, so an eviction cannot unlink the file between the look and
        the record."""
        with self._lock:
            self._total -= self._index.pop(stem, 0)
            try:
                size = self._path(stem).stat().st_size
            except OSError:
                return
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
                try:
                    os.unlink(self._path(stem))
                except OSError:
                    pass

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> StoreStats:
        """Accounting from the in-memory index: the entries the cap counts,
        without touching the disk."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                evictions=self._evictions,
                entries=len(self._index),
                bytes=self._total,
                digest_failures=self._digest_failures,
                quarantined=self._quarantined,
            )

    def clear(self) -> None:
        """Delete every entry of the current schema version."""
        for _, stem, _ in self._entries():
            try:
                os.unlink(self._path(stem))
            except OSError:
                pass
        with self._lock:
            self._index.clear()
            self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return f"ResultStore({str(self.dir)!r}, entries={s.entries}, bytes={s.bytes})"
