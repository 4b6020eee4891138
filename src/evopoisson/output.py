"""Deterministic CSV and minimal SVG emission for the command line tools."""

from __future__ import annotations

import itertools
import os
from typing import Iterable, Sequence


def format_value(v) -> str:
    """Floats at 12 significant digits; everything else via str."""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


CHUNK_ROWS = 4096


def write_csv(path: str, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row, formatted as ``format_value``
    would: ``%.12g`` for floats and ``%s`` for everything else.

    The ``%`` template is built once from the value types of the first
    row, so every row must hold one type per column (a float column holds
    only floats, and so on). Rows are formatted and written 4096 at a
    time, so memory stays flat in the number of rows.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        it = iter(rows)
        chunk = list(itertools.islice(it, CHUNK_ROWS))
        if not chunk:
            return
        fmt = ",".join("%.12g" if isinstance(v, float) else "%s"
                       for v in chunk[0]) + "\n"
        while chunk:
            fh.write("".join([fmt % tuple(r) for r in chunk]))
            chunk = list(itertools.islice(it, CHUNK_ROWS))


def render_svg(xs: Sequence[float], ys: Sequence[float], x_label: str,
               y_label: str, title: str = "") -> str:
    """Single-polyline chart; quick-look output, CSV stays the contract."""
    width, height = 640.0, 480.0
    left, right, top, bottom = 60.0, 20.0, 30.0, 50.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return left + (x - x_lo) / x_span * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / y_span * (height - top - bottom)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" '
        f'stroke-width="1.5"/>',
        f'<text x="{(left + width - right) / 2:.0f}" y="{height - 12:.0f}" '
        f'text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.0f}" '
        f'text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(top + height - bottom) / 2:.0f})">'
        f'{y_label}</text>',
    ]
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_series(path: str, header: Sequence[str],
                 rows: Sequence[Sequence], fmt: str,
                 x_col: int = 0, y_col: int = -1, title: str = "") -> str:
    """Write rows as CSV or a polyline SVG; returns the path written."""
    if fmt == "svg":
        base, _ = os.path.splitext(path)
        path = base + ".svg"
        xs = [float(r[x_col]) for r in rows]
        ys = [float(r[y_col]) for r in rows]
        text = render_svg(xs, ys, header[x_col], header[y_col], title)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        write_csv(path, header, rows)
    return path
