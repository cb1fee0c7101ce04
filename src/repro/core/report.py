"""Text/markdown report rendering shared by benches and examples."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

__all__ = ["render_table", "section", "format_bytes", "format_seconds"]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    align_right: Optional[Sequence[bool]] = None,
) -> str:
    """Aligned plain-text table (monospace terminals)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    right = list(align_right or [False] * len(headers))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            width = widths[i] if i < len(widths) else len(cell)
            parts.append(cell.rjust(width) if right[i % len(right)] else cell.ljust(width))
        return "  ".join(parts).rstrip()

    lines = [fmt_row(list(headers)), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def section(title: str) -> str:
    """A visually distinct section header."""
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def format_bytes(n: float) -> str:
    """Human-readable byte count."""
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if abs(n) < 1024 or unit == "PB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} PB"


def format_seconds(s: float) -> str:
    """Human-readable duration."""
    if s < 1e-3:
        return f"{s * 1e6:.1f} us"
    if s < 1:
        return f"{s * 1e3:.1f} ms"
    if s < 120:
        return f"{s:.2f} s"
    if s < 7200:
        return f"{s / 60:.1f} min"
    return f"{s / 3600:.2f} h"
