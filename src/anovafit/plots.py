"""Minimal static SVG bar charts for rankings and sensitivity indices.

Hand-rolled SVG keeps the output byte-deterministic for identical inputs,
which matplotlib's embedded metadata would break.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, as_array, as_real

WIDTH = 640
HEIGHT = 360
MARGIN_LEFT = 56
MARGIN_BOTTOM = 64
MARGIN_TOP = 28


def _escape(text: str) -> str:  # as XML text; xml.sax.saxutils would import urllib.request
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_bar_chart(
    labels: list[str],
    values: list[float],
    *,
    title: str = "",
    threshold: float | None = None,
) -> str:
    """Render labeled bars (optionally with a dashed threshold line) as SVG text."""
    values = as_array(values, "bar values")
    if values.shape != (len(labels),) or not values.size or not np.all(np.isfinite(values)):
        raise DataError("labels and values must be equal-length and nonempty, values finite")
    if threshold is not None:
        threshold = as_real(threshold, "chart threshold")
        if not np.isfinite(threshold):
            raise ConfigError(f"chart threshold must be finite, got {threshold}")
    top = max(values.max(), threshold or 0.0, 1e-12) * 1.1
    plot_w = WIDTH - MARGIN_LEFT - 16
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    slot = plot_w / len(values)
    bar_w = slot * 0.6

    def ypos(v: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - v / top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="16" text-anchor="middle">{_escape(title)}</text>'
        )
    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = top * frac
        y = ypos(v)
        parts.append(
            f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end">{v:.6g}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 3}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="black"/>'
        )
    for i, (label, value) in enumerate(zip(labels, values)):
        cx = x0 + slot * (i + 0.5)
        y = ypos(max(value, 0.0))
        parts.append(
            f'<rect x="{cx - bar_w / 2:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
            f'height="{y0 - y:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{cx:.1f}" y="{y0 + 14}" text-anchor="middle" '
            f'transform="rotate(45 {cx:.1f} {y0 + 14})">{_escape(label)}</text>'
        )
    if threshold is not None:
        y = ypos(threshold)
        parts.append(
            f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + plot_w}" y2="{y:.1f}" '
            f'stroke="#c03030" stroke-dasharray="6 4"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, svg_text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg_text)
