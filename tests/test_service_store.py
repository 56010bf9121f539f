"""The persistent result store and the value codec of its fragments.

The store is the durability layer of the service's cache hierarchy, so the
properties under test are the ones correctness rests on: bit-identical
codec round-trips (floats, arrays, dataclasses), a store that returns
exactly the bytes it was given, schema-version isolation, corruption
degrading to a cold miss, and the LRU byte cap.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.service.serial import UnserialisableValue, decode, encode
from repro.service.store import STORE_VERSION, ResultStore
from repro.simd.isa import isa_for


class TestSerialRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            -17,
            math.pi,
            5e-324,  # smallest subnormal: json round-trips it exactly
            "text",
            [1, 2.5, "three"],
            {"nested": {"a": [1, 2]}, "b": None},
        ],
    )
    def test_json_natives(self, value):
        assert decode(json.loads(json.dumps(encode(value)))) == value

    def test_float_bits_survive(self):
        for value in (0.1 + 0.2, 1 / 3, math.nextafter(1.0, 2.0)):
            decoded = decode(json.loads(json.dumps(encode(value))))
            assert math.isclose(decoded, value, rel_tol=0, abs_tol=0)

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([1.5, -2.5], dtype=np.float32),
            np.array([[1, 2], [3, 4]], dtype=np.int32),
            np.zeros((0, 3)),
        ],
    )
    def test_ndarray(self, array):
        decoded = decode(json.loads(json.dumps(encode(array))))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert np.array_equal(decoded, array)

    def test_fortran_order_array_content_preserved(self):
        array = np.asfortranarray(np.arange(6, dtype=np.float64).reshape(2, 3))
        decoded = decode(encode(array))
        assert np.array_equal(decoded, array)

    def test_tuple_and_np_scalar(self):
        value = {"t": (1, 2.5), "s": np.float64(0.125), "i": np.int64(7)}
        decoded = decode(json.loads(json.dumps(encode(value))))
        assert decoded["t"] == (1, 2.5)
        # np.float64 subclasses float and is encoded natively — value-exact.
        assert decoded["s"] == 0.125
        assert decoded["i"] == 7 and isinstance(decoded["i"], np.int64)

    def test_repro_dataclass(self):
        spec = isa_for("avx2")
        decoded = decode(json.loads(json.dumps(encode(spec))))
        assert decoded == spec

    def test_tag_collision_is_escaped(self):
        tricky = {"__repro__": "ndarray", "data": "not really"}
        assert decode(json.loads(json.dumps(encode(tricky)))) == tricky

    def test_non_string_dict_keys(self):
        value = {(1, 2): "a", 3: "b"}
        assert decode(json.loads(json.dumps(encode(value)))) == value

    def test_unserialisable_value_raises(self):
        with pytest.raises(UnserialisableValue):
            encode(object())

    def test_foreign_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass
        class Foreign:
            x: int = 1

        with pytest.raises(UnserialisableValue):
            encode(Foreign())




def _fragment(value) -> bytes:
    """``value``'s wire fragment, the form the service stores."""
    return json.dumps(encode(value), sort_keys=True).encode()


def _blob(i: int) -> bytes:
    """The fragment of a 3000-point array result: about 32 KiB."""
    return _fragment({"values": np.arange(3000, dtype=np.float64) + i})


class TestResultStore:
    def test_round_trip_and_accounting(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fragment = _fragment({"gflops": 12.375, "rows": [{"m": 2, "x": 1 / 3}]})
        assert store.save("estimate", "abc123", fragment)
        assert store.load("estimate", "abc123") == (True, fragment)
        found, _ = store.load("estimate", "missing")
        assert not found
        stats = store.stats
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert stats.entries == 1 and stats.bytes > len(fragment)

    @pytest.mark.parametrize(
        "fragment",
        [
            _fragment({"values": np.linspace(0, 1, 97) * (1 / 3), "total": 330}),
            b"",
            b'{"a": 1}\n{"b": 2}\n',
            bytes(range(256)),
        ],
        ids=["arrays", "empty", "newlines", "binary"],
    )
    def test_bit_identical_replay(self, tmp_path, fragment):
        """A load returns exactly the bytes saved, whatever they hold: the
        property behind 'identical response after restart'."""
        store = ResultStore(tmp_path / "store")
        store.save("simulate", "k1", fragment)
        assert store.load("simulate", "k1") == (True, fragment)

    def test_restart_sees_entries(self, tmp_path):
        fragment = _fragment({"label": "Our"})
        ResultStore(tmp_path / "store").save("plan", "k", fragment)
        reopened = ResultStore(tmp_path / "store")
        assert reopened.load("plan", "k") == (True, fragment)
        assert reopened.contains("plan", "k")
        assert not reopened.contains("plan", "other")

    @pytest.mark.parametrize(
        "field,value", [("schema", STORE_VERSION + 1), ("kind", "estimate"), ("key", "other")]
    )
    def test_header_naming_another_schema_or_entry_is_a_miss(self, tmp_path, field, value):
        """An entry whose header names another schema version, kind or key
        reads as a miss, though its digest still matches."""
        store = ResultStore(tmp_path / "store")
        store.save("plan", "k", _fragment({"v": 1}))
        path = store._path(store._stem("plan", "k"))
        line, _, fragment = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        header[field] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + fragment)
        found, _ = store.load("plan", "k")
        assert not found
        assert store.stats.digest_failures == 0
        assert store.stats.quarantined == 1

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: b"",
            lambda raw: raw[:10],
            lambda raw: raw[: len(raw) - 5],
            lambda raw: b"\x00\x01binary",
            lambda raw: raw.replace(b"\n", b" ", 1),
            lambda raw: raw.replace(b'"digest":"', b'"digest":"0', 1),
        ],
        ids=["empty", "torn-header", "torn-fragment", "binary", "no-header-line", "digest"],
    )
    def test_corrupt_blob_degrades_to_miss(self, tmp_path, corrupt):
        store = ResultStore(tmp_path / "store")
        store.save("plan", "k", _fragment({"v": 1}))
        path = store._path(store._stem("plan", "k"))
        path.write_bytes(corrupt(path.read_bytes()))
        found, _ = store.load("plan", "k")
        assert not found
        assert store.stats.quarantined == 1
        assert not store.contains("plan", "k")
        # And the store still accepts a fresh write over the wreckage.
        assert store.save("plan", "k", _fragment({"v": 2}))
        assert store.load("plan", "k") == (True, _fragment({"v": 2}))

    def test_lru_eviction_under_byte_cap(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_bytes=64 * 1024)
        for i in range(6):
            store.save("simulate", f"k{i}", _blob(i))
        stats = store.stats
        assert stats.evictions > 0
        assert stats.bytes <= store.max_bytes
        # The most recent write is always retained.
        assert store.contains("simulate", "k5")
        assert not store.contains("simulate", "k0")

    def test_read_refreshes_recency(self, tmp_path):
        import os
        import time

        store = ResultStore(tmp_path / "store", max_bytes=100 * 1024)
        store.save("simulate", "hot", _blob(0))
        store.save("simulate", "cold0", _blob(1))
        store.save("simulate", "cold1", _blob(2))
        # Age everything, with "hot" strictly the oldest: without the read
        # below refreshing its recency, it would be the eviction victim.
        now = time.time()
        for stem, age in (("hot", 7200), ("cold0", 3600), ("cold1", 3600)):
            os.utime(store._path(f"simulate-{stem}"), (now - age, now - age))
        store.load("simulate", "hot")
        store.save("simulate", "fresh0", _blob(3))
        store.save("simulate", "fresh1", _blob(4))
        assert store.stats.evictions > 0
        assert store.contains("simulate", "hot")
        assert not store.contains("simulate", "cold0")

    def test_saves_and_loads_do_not_list_the_directory(self, tmp_path, monkeypatch):
        """The cap reads the store's own record of its entries: only opening
        the store lists the directory."""
        store = ResultStore(tmp_path / "store", max_bytes=64 * 1024)
        listings = []
        iterdir = Path.iterdir

        def counted(path):
            listings.append(path)
            return iterdir(path)

        monkeypatch.setattr(Path, "iterdir", counted)
        for i in range(120):
            assert store.save("simulate", f"k{i}", _blob(i))
            if i % 3 == 0:
                assert store.load("simulate", f"k{i}")[0]
        assert listings == []
        stats = store.stats
        assert stats.evictions == 118 and stats.entries == 2
        assert stats.bytes <= store.max_bytes
        assert store.contains("simulate", "k119") and store.contains("simulate", "k118")

    def test_stats_count_the_index_without_listing(self, tmp_path, monkeypatch):
        """``stats`` reads the store's record of its entries, which equals
        the disk after saves, an eviction and a quarantine: a ``GET
        /v1/stats`` costs no directory scan."""
        store = ResultStore(tmp_path / "store", max_bytes=64 * 1024)
        for i in range(4):
            store.save("simulate", f"k{i}", _blob(i))
        store.save("plan", "bad", _fragment({"v": 1}))
        path = store._path(store._stem("plan", "bad"))
        path.write_bytes(path.read_bytes()[:-2])
        assert store.load("plan", "bad") == (False, None)
        on_disk = store._entries()

        def refuse():
            raise AssertionError("stats listed the directory")

        monkeypatch.setattr(store, "_listing", refuse)
        stats = store.stats
        assert stats.evictions > 0 and stats.quarantined == 1
        assert stats.entries == len(on_disk) > 0
        assert stats.bytes == sum(size for _, _, size in on_disk)

    def test_concurrent_saves_keep_the_record_equal_to_the_disk(self, tmp_path):
        """Eight threads saving and loading under the cap: the store's
        record of its entries ends equal to what the directory holds."""
        import sys
        import threading

        store = ResultStore(tmp_path / "store", max_bytes=200 * 1024)
        blobs = [_blob(i) for i in range(25)]

        def work(t):
            for i in range(25):
                store.save("simulate", f"t{t}-{i}", blobs[i])
                store.load("simulate", f"t{t}-{i // 2}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        on_disk = {stem: size for _, stem, size in store._entries()}
        assert dict(store._index) == on_disk
        assert store._total == sum(on_disk.values()) <= store.max_bytes
        assert store.stats.evictions == 200 - len(on_disk)

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save("plan", "a", _fragment({"v": 1}))
        store.save("plan", "b", _fragment({"v": 2}))
        store.clear()
        assert store.stats.entries == 0
        assert not store.contains("plan", "a")


class TestCorruptionQuarantine:
    """Every damaged-entry shape must read as quarantine + miss — never an
    exception, never bad bytes served (the store's chaos contract)."""

    def test_bit_flipped_fragment_fails_digest_and_quarantines(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save("estimate", "k", _fragment({"gflops": 12.375, "rows": [1, 2, 3]}))
        path = store._path(store._stem("estimate", "k"))
        blob = bytearray(path.read_bytes())
        # Flip one bit inside the fragment, leaving it valid JSON: only the
        # content digest can catch this.
        position = blob.index(b"12.375") + 1  # '2' -> '3'
        blob[position] ^= 0x01
        path.write_bytes(bytes(blob))
        found, _ = store.load("estimate", "k")
        assert not found
        stats = store.stats
        assert stats.digest_failures == 1
        assert stats.quarantined == 1
        assert not store.contains("estimate", "k")  # moved, not rewritten
        assert any(name.startswith("estimate-k.") for name in store.quarantined_files())

    def test_stale_tmp_file_is_swept_into_quarantine_on_startup(self, tmp_path):
        import os
        import time

        store = ResultStore(tmp_path / "store")
        fragment = _fragment({"v": 1})
        store.save("plan", "k", fragment)
        # A writer died mid-write long ago...
        stale = store.dir / "plan-dead.entry.xyz123.tmp"
        stale.write_bytes(b'{"digest":"ab')
        old = time.time() - 3600
        os.utime(stale, (old, old))
        # ...and a fresh one is racing us right now: it must be left alone.
        racing = store.dir / "plan-live.entry.abc456.tmp"
        racing.write_bytes(b'{"digest":"ab')

        reopened = ResultStore(tmp_path / "store")
        assert not stale.exists()
        assert racing.exists()
        assert reopened.stats.quarantined == 1
        assert any(".tmp" in name for name in reopened.quarantined_files())
        # The healthy entry is untouched by the sweep.
        assert reopened.load("plan", "k") == (True, fragment)

    def test_quarantine_dir_does_not_count_as_entries(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save("plan", "a", _fragment({"v": 1}))
        store.save("plan", "b", _fragment({"v": 2}))
        store._path(store._stem("plan", "a")).write_bytes(b"garbage")
        found, _ = store.load("plan", "a")
        assert not found
        assert store.stats.entries == 1  # only the healthy entry remains
