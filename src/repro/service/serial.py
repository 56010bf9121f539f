"""JSON-safe encoding of the values the service computes and stores.

The HTTP wire format and the persistent result store
(:mod:`repro.service.store`) both carry plain JSON, but the pipeline's
values are richer: NumPy arrays (simulated grids), ``repro`` dataclasses
(:class:`~repro.perfmodel.costmodel.PerformanceEstimate`,
:class:`~repro.simd.machine.InstructionCounts`, ...), tuples and nested
containers.  :func:`encode` maps any such value onto a JSON-ready structure
with tagged escapes, and :func:`decode` inverts it **bit-identically** for
floats and arrays — which is what makes "the same request returns the same
bytes, whether computed or replayed from the store" testable.  An array is
carried inline: its raw bytes, base64, inside the JSON.

Dataclasses are encoded by qualified name and re-instantiated on decode;
only classes from ``repro.*`` modules are honoured, so a payload cannot
instruct the decoder to build arbitrary objects.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import importlib
from typing import Any, Dict

import numpy as np

from repro.service import faults

__all__ = ["encode", "decode", "UnserialisableValue"]

#: Escape tag — a plain dict that happens to carry this key is itself
#: escaped, so user payloads cannot collide with the tagged forms.
TAG = "__repro__"


class UnserialisableValue(TypeError):
    """Raised when a value has no JSON-safe encoding (e.g. an open handle)."""


def encode(value: Any, arrays: Any = None) -> Any:
    """Return a JSON-ready structure identifying ``value``.

    ``arrays`` is ignored; it is kept so that callers passing a second
    argument still bind.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return {TAG: "npscalar", "dtype": value.dtype.str, "value": value.item()}
    if isinstance(value, np.ndarray):
        contiguous = np.ascontiguousarray(value)
        return {
            TAG: "ndarray",
            "dtype": contiguous.dtype.str,
            "shape": list(contiguous.shape),
            "b64": base64.b64encode(contiguous.tobytes()).decode("ascii"),
        }
    if isinstance(value, enum.Enum):
        cls = type(value)
        if not cls.__module__.startswith("repro."):
            raise UnserialisableValue(f"refusing to serialise non-repro enum {cls.__qualname__!r}")
        return {
            TAG: "enum",
            "class": f"{cls.__module__}:{cls.__qualname__}",
            "name": value.name,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if not cls.__module__.startswith("repro."):
            raise UnserialisableValue(
                f"refusing to serialise non-repro dataclass {cls.__qualname__!r}"
            )
        return {
            TAG: "dataclass",
            "class": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)},
        }
    if isinstance(value, tuple):
        return {TAG: "tuple", "items": [encode(v) for v in value]}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for k, v in value.items():
            if not isinstance(k, str):
                return {
                    TAG: "dict",
                    "items": [[encode(k), encode(v)] for k, v in value.items()],
                }
            out[k] = encode(v)
        if TAG in out:
            return {TAG: "escaped", "value": out}
        return out
    raise UnserialisableValue(f"no JSON encoding for {type(value).__qualname__}")


def decode(payload: Any, arrays: Any = None) -> Any:
    """Invert :func:`encode`.

    ``arrays`` is ignored; it is kept so that callers passing a second
    argument still bind.
    """
    # Chaos hook: one fault-site invocation per top-level decode, never per
    # recursion step (the recursion depth would make schedules unreadable).
    faults.get().inject("serial.decode")
    return _decode(payload)


def _decode(payload: Any) -> Any:
    if isinstance(payload, list):
        return [_decode(v) for v in payload]
    if not isinstance(payload, dict):
        return payload
    tag = payload.get(TAG)
    if tag is None:
        return {k: _decode(v) for k, v in payload.items()}
    if tag == "escaped":
        return {k: _decode(v) for k, v in payload["value"].items()}
    if tag == "tuple":
        return tuple(_decode(v) for v in payload["items"])
    if tag == "dict":
        return {_decode(k): _decode(v) for k, v in payload["items"]}
    if tag == "npscalar":
        return np.dtype(payload["dtype"]).type(payload["value"])
    if tag == "ndarray":
        raw = base64.b64decode(payload["b64"])
        return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])).reshape(payload["shape"]).copy()
    if tag == "enum":
        return _resolve_repro_class(payload["class"])[payload["name"]]
    if tag == "dataclass":
        cls = _resolve_repro_class(payload["class"])
        fields = {k: _decode(v) for k, v in payload["fields"].items()}
        return cls(**fields)
    raise UnserialisableValue(f"unknown serialisation tag {tag!r}")


def _resolve_repro_class(spec: str) -> Any:
    """``"module:QualName"`` → the class, restricted to ``repro.*`` modules."""
    module_name, _, qualname = spec.partition(":")
    if not module_name.startswith("repro."):
        raise UnserialisableValue(f"refusing to decode class from {module_name!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj
