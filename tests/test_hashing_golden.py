"""Golden-hash regression for :mod:`repro.study.hashing`.

The persistent result store of :mod:`repro.service` keys every entry by
``config_hash``, so the digest must be stable across process restarts,
dict insertion orders and container identities — a drifting hash silently
turns every store entry into a cold miss.  The golden values below pin the
current canonicalisation; changing :func:`freeze` deliberately requires
bumping the service store's schema version alongside these constants.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from repro.machine import machine_for_isa
from repro.stencils.library import get_benchmark
from repro.study.hashing import config_hash, freeze

#: Pinned digests: (parts builder, expected hash).  Builders are functions so
#: every case constructs fresh objects — identity must not matter.
GOLDEN = {
    "request-dict": (
        lambda: ("plan", {"stencil": "2d9p", "isa": "avx2", "m": 2}),
        "b13487066934",
    ),
    "ndarray": (
        lambda: (np.arange(6, dtype=np.float64).reshape(2, 3),),
        "ac024d48e79a",
    ),
    "stencil-spec": (lambda: (get_benchmark("1d-heat").spec,), "35303120cdec"),
    "machine-spec": (lambda: (machine_for_isa("avx512"),), "d24990250191"),
    "nested-mixed": (
        lambda: ("estimate", {"cores": (1, 2, 4), "shape": [256, 256]}, None, True, 0.125),
        "4b60bdd84047",
    ),
}


class TestGoldenHashes:
    def test_golden_values(self):
        for name, (build, expected) in GOLDEN.items():
            assert config_hash(*build()) == expected, name

    def test_repeated_construction_is_stable(self):
        for name, (build, _) in GOLDEN.items():
            assert config_hash(*build()) == config_hash(*build()), name


class TestDictOrderIndependence:
    def test_dict_insertion_order_is_canonicalised(self):
        a = {"stencil": "2d9p", "isa": "avx2", "m": 2}
        b = {"m": 2, "isa": "avx2", "stencil": "2d9p"}
        assert a == b
        assert freeze(a) == freeze(b)
        assert config_hash(a) == config_hash(b)

    def test_nested_dicts_canonicalised(self):
        a = {"outer": {"x": 1, "y": 2}, "z": [{"p": 1, "q": 2}]}
        b = {"z": [{"q": 2, "p": 1}], "outer": {"y": 2, "x": 1}}
        assert config_hash(a) == config_hash(b)

    def test_mixed_key_types_do_not_collide(self):
        # Sorting happens on the frozen-key repr; distinct keys stay distinct.
        assert config_hash({1: "a", "1": "b"}) != config_hash({1: "b", "1": "a"})


class TestCrossProcessStability:
    def test_fresh_interpreter_reproduces_golden_hashes(self):
        """A brand-new process (fresh PYTHONHASHSEED) must agree bit-for-bit."""
        script = (
            "from repro.study.hashing import config_hash\n"
            "import numpy as np\n"
            "print(config_hash('plan', {'stencil': '2d9p', 'isa': 'avx2', 'm': 2}))\n"
            "print(config_hash(np.arange(6, dtype=np.float64).reshape(2, 3)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out == ["b13487066934", "ac024d48e79a"]

    def test_ndarray_freeze_is_content_based(self):
        base = np.arange(6, dtype=np.float64).reshape(2, 3)
        strided = np.asfortranarray(base)  # different memory layout, equal values
        assert freeze(base) == freeze(strided)
