"""Minimal self-contained SVG line plots.

Deliberately dependency-free: the overlay plots are meant to be
diffable build artifacts, so coordinates are formatted with fixed
precision and the output is byte-deterministic.
"""

from __future__ import annotations

import math

from ._fileio import atomic_write

_WIDTH, _HEIGHT = 720, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 34, 46
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(1, n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            stepv = mag * mult
            break
    first = math.ceil(lo / stepv) * stepv
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + stepv == v:  # a step under half an ulp of v: no tick follows
            break
        v += stepv
    return out or [lo]


def _fmt_tick(v: float) -> str:
    return f"{v:.4g}"


def line_plot(
    path,
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write an SVG overlay plot of one or more (label, x, y) series, atomically.

    Raises:
        ValueError: Nothing to plot, or an empty or non-finite (padded) range.
        IoFailure: On any OS-level write problem.
    """
    xs = [v for _, x, _ in series for v in x]
    ys = [v for _, _, y in series for v in y]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not 0.0 < hi - lo < math.inf:
            raise ValueError(f"{axis} range [{lo!r}, {hi!r}] is empty or not finite")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    # axes box + grid
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for v in _ticks(x_lo, x_hi):
        px = sx(v)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#ddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 16}" '
            f'text-anchor="middle">{_fmt_tick(v)}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        py = sy(v)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{py:.2f}" stroke="#ddd" stroke-width="0.6"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 4:.2f}" '
            f'text-anchor="end">{_fmt_tick(v)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
            f'text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )
    for i, (label, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 16 + 16 * i
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")
