"""Host and input record printed with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional


def _cache_bytes(level: int) -> Optional[int]:
    """Size of one CPU-0 cache of ``level`` (unified or data), from sysfs."""
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(root.glob("index*")):
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            text = (index / "size").read_text().strip().upper()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
            return int(text.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return None
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_record() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "l2_bytes_per_core": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def describe(record: Dict[str, Any]) -> str:
    def mib(n: Optional[int]) -> str:
        return "?" if n is None else f"{n / (1 << 20):g} MiB"

    return (
        f"host: nproc={record['nproc']} cpu={record['cpu']!r} "
        f"L2/core={mib(record['l2_bytes_per_core'])} L3={mib(record['l3_bytes'])} "
        f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']}"
    )
