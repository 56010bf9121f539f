"""Tests for the small shared utilities (:mod:`repro.utils`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.tables import format_table
from repro.utils.validation import assert_allclose, max_abs_error, relative_l2_error


class TestUtilities:
    def test_format_table_from_mappings(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], title="demo")
        assert "demo" in text
        assert "| a " in text and "0.125" in text

    def test_format_table_from_sequences(self):
        text = format_table([[1, 2], [3, 4]], headers=["x", "y"])
        assert text.splitlines()[0].startswith("| x")
        with pytest.raises(ValueError):
            format_table([[1, 2]])

    def test_format_table_empty(self):
        assert format_table([], title="t") == "t\n"
        assert format_table([]) == ""

    def test_validation_helpers(self):
        a = np.array([1.0, 2.0, 3.0])
        b = a + 1e-13
        assert max_abs_error(a, b) < 1e-12
        assert relative_l2_error(a, b) < 1e-12
        assert relative_l2_error(np.zeros(3), np.zeros(3)) == 0.0
        assert_allclose(a, b)
        with pytest.raises(AssertionError):
            assert_allclose(a, a + 1.0)
        with pytest.raises(ValueError):
            max_abs_error(a, np.zeros(4))
        with pytest.raises(ValueError):
            relative_l2_error(a, np.zeros(4))
