"""Minimal deterministic SVG line plots (mean line plus one-standard-deviation
band per series); no external plotting dependency."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

WIDTH = 960
HEIGHT = 540
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 50
TITLE = "cumulative regret"
TICKS = 6

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ticks(lo: float, hi: float) -> Sequence[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, TICKS)
    return [float(v) for v in raw]


def render_regret_svg(series: Dict[str, Tuple[np.ndarray, np.ndarray]], path) -> None:
    """Write an SVG with one mean polyline and translucent std band per label.

    series maps label -> (mean array, std array); the x axis is the step index
    starting at 1.
    """
    labels = list(series.keys())
    x_max = max((len(mean) for mean, _ in series.values()), default=1)
    y_lo = min((float(np.min(mean - std)) for mean, std in series.values()), default=0.0)
    y_hi = max((float(np.max(mean + std)) for mean, std in series.values()), default=1.0)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    span_y = y_hi - y_lo
    y_lo -= 0.05 * span_y
    y_hi += 0.05 * span_y

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(t: float) -> float:
        return MARGIN_LEFT + plot_w * (t - 1) / max(x_max - 1, 1)

    def sy(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{TITLE}</text>'
    )
    # Axes.
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    for tv in _ticks(1, x_max):
        px = sx(tv)
        parts.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tv:.0f}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tv:.4g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t</text>'
    )

    for i, label in enumerate(labels):
        mean, std = series[label]
        color = PALETTE[i % len(PALETTE)]
        ts = np.arange(1, len(mean) + 1)
        upper = [f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(ts, mean + std)]
        lower = [f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(ts[::-1], (mean - std)[::-1])]
        parts.append(
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
        line = " ".join(f"{_fmt(sx(t))},{_fmt(sy(v))}" for t, v in zip(ts, mean))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 16 + 18 * i
        parts.append(
            f'<line x1="{x0 + 12}" y1="{ly - 4}" x2="{x0 + 42}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + 48}" y="{ly}" font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
