"""Utility helpers shared across the :mod:`repro` package.

The submodules are intentionally small and dependency-free so that every
other subsystem (stencils, SIMD simulator, cache model, harness) can import
them without creating cycles.
"""

from repro.utils.validation import (
    assert_allclose,
    max_abs_error,
    relative_l2_error,
)
from repro.utils.tables import format_table

__all__ = [
    "assert_allclose",
    "max_abs_error",
    "relative_l2_error",
    "format_table",
]
