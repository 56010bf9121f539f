"""ASCII table formatting used by the experiment harness.

The paper reports its evaluation as tables (Table 2, Table 3) and figures
whose data series the harness prints as rows.  ``format_table`` renders a
list of dictionaries (or a header plus rows) into an aligned, pipe-separated
table that reads well both in a terminal and when pasted into Markdown.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def _stringify(value: object, float_fmt: str) -> str:
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]] | Sequence[Sequence[object]],
    headers: Sequence[str] | None = None,
    float_fmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render ``rows`` as a markdown-style aligned table.

    Parameters
    ----------
    rows:
        Either a sequence of mappings (all sharing the same keys, which become
        the header) or a sequence of sequences (requires ``headers``).
    headers:
        Column names; inferred from mapping keys when omitted.
    float_fmt:
        ``format()`` spec applied to float cells.
    title:
        Optional title line placed above the table.

    Returns
    -------
    str
        The rendered table, newline-terminated.
    """
    rows = list(rows)
    if not rows:
        return (title + "\n") if title else ""

    if isinstance(rows[0], Mapping):
        if headers is None:
            headers = list(rows[0].keys())
        body = [
            [_stringify(row.get(h, ""), float_fmt) for h in headers]  # type: ignore[union-attr]
            for row in rows
        ]
    else:
        if headers is None:
            raise ValueError("headers are required when rows are sequences")
        body = [
            [_stringify(cell, float_fmt) for cell in row]  # type: ignore[union-attr]
            for row in rows
        ]

    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Iterable[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    out = []
    if title:
        out.append(title)
    out.append(fmt_line(headers))
    out.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    out.extend(fmt_line(line) for line in body)
    return "\n".join(out) + "\n"
