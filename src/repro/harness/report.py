"""Rendering of experiment results.

Turns the row dictionaries produced by :mod:`repro.harness.experiments` into
aligned text tables suitable for the terminal and for pasting into Markdown.
The formatting is intentionally stable (fixed column order, fixed float
precision) so diffs of regenerated experiment output stay readable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.experiments import ExperimentResult
from repro.utils.tables import format_table


def format_experiment(result: ExperimentResult, float_fmt: str = ".3f") -> str:
    """Render ``result`` as a titled text table."""
    title = f"== {result.name}: {result.description}"
    if result.notes:
        title += f"  [{result.notes}]"
    if not result.rows:
        return title + "\n(no rows)\n"
    headers = list(result.rows[0].keys())
    return format_table(result.rows, headers=headers, float_fmt=float_fmt, title=title)


def pivot_rows(
    result: ExperimentResult,
    index: str,
    columns: str,
    value: str,
    float_fmt: str = ".3f",
) -> str:
    """Render a pivoted view (one row per ``index``, one column per ``columns``).

    Useful for the figure-style experiments whose natural presentation is a
    matrix (e.g. Figure 8: storage level × method).
    """
    column_values: List[object] = []
    index_values: List[object] = []
    cell: Dict[object, Dict[object, object]] = {}
    for row in result.rows:
        i, c = row.get(index), row.get(columns)
        if i not in index_values:
            index_values.append(i)
        if c not in column_values:
            column_values.append(c)
        cell.setdefault(i, {})[c] = row.get(value)
    table_rows = []
    for i in index_values:
        entry: Dict[str, object] = {index: i}
        for c in column_values:
            entry[str(c)] = cell.get(i, {}).get(c, "")
        table_rows.append(entry)
    headers = [index] + [str(c) for c in column_values]
    title = f"== {result.name} ({value} by {index} × {columns})"
    return format_table(table_rows, headers=headers, float_fmt=float_fmt, title=title)
