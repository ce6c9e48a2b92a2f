"""Minimal deterministic SVG line plots (log-scale y).

Hand-rolled rather than a plotting library so the output is stable text:
plot regression tests can diff the files byte for byte.
"""

from __future__ import annotations

import math
from typing import Sequence

_WIDTH = 640
_HEIGHT = 420
_MARGIN = 54
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_FLOOR = 1e-300  # clamp for log scale; residuals can be exactly zero
_XLABEL = "outer iteration k"
_YLABEL = "residual"


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def line_plot_svg(curves: Sequence[tuple[str, Sequence[float]]], title: str) -> str:
    """Render labeled curves (y on a log10 scale, x = sample index)."""
    if not curves:
        raise ValueError("need at least one curve")
    logs = []
    for _, ys in curves:
        logs.append([math.log10(max(y, _FLOOR)) for y in ys])
    lo = min(min(l) for l in logs)
    hi = max(max(l) for l in logs)
    if hi == lo:
        hi = lo + 1.0
    xmax = max(len(ys) for _, ys in curves) - 1
    xmax = max(xmax, 1)
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(i: int) -> float:
        return _MARGIN + plot_w * i / xmax

    def py(logv: float) -> float:
        return _MARGIN + plot_h * (hi - logv) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{_XLABEL}</text>',
        f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_HEIGHT // 2})">{_YLABEL} (log10)</text>',
    ]
    # horizontal gridlines at integer log10 levels
    for level in range(math.ceil(lo), math.floor(hi) + 1):
        y = py(level)
        parts.append(
            f'<line x1="{_MARGIN}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN}" '
            f'y2="{_fmt(y)}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">1e{level}</text>'
        )
    for idx, ((label, ys), logv) in enumerate(zip(curves, logs)):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(f"{_fmt(px(i))},{_fmt(py(v))}" for i, v in enumerate(logv))
        parts.append(
            f'<polyline class="curve" data-label="{label}" points="{points}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 4}" y="{_MARGIN + 16 + 14 * idx}" '
            f'text-anchor="end" font-family="monospace" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path: str, curves, title: str) -> None:
    with open(path, "w") as fh:
        fh.write(line_plot_svg(curves, title))
