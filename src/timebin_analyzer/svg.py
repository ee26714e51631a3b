"""Minimal dependency-free SVG line plots for the CLI and the demos."""

from __future__ import annotations

import math
import sys

_PALETTE = ("#1b7837", "#2166ac", "#b2182b", "#762a83", "#e08214", "#35978f")
_WIDTH, _HEIGHT = 720, 440
# Most tick intervals on an axis.
_TICKS = 5


def _ticks(lo, hi):
    """At most _TICKS + 1 distinct round values in [lo, hi]: the integer
    multiples of a step of 1, 2 or 5 times a power of ten, one within 1e-12
    of the span above ``hi`` read as ``hi``.  On a range a few ulps wide
    several multiples round to one float, which is kept once.  A range that
    is not finite, or narrower than twice the smallest normal float, has
    the one tick ``lo``.  The span is taken in halves, which stay finite
    and are exact for normal floats."""
    half = 0.5 * hi - 0.5 * lo
    if not sys.float_info.min <= half < math.inf:
        return [lo]
    step = 10.0 ** math.floor(math.log10(half / _TICKS * 2))
    step *= next((m for m in (1, 2, 5) if half / (step * m) <= _TICKS / 2), 10)
    first = math.ceil(lo / step)
    multiples = (k * step for k in range(first, first + _TICKS + 1))
    kept = (t for t in multiples if 0.5 * t <= 0.5 * hi + 1e-12 * half)
    return list(dict.fromkeys(min(max(t, lo), hi) for t in kept))


def _range(values):
    """(lo, hi) of the finite ``values``, widened when they hold one value
    or none (a plot of no finite point is its axes box): to a unit range,
    or to the next float up where lo + 1 rounds back to lo (|lo| >= 2**53),
    or down at the largest float."""
    finite = [v for v in values if math.isfinite(v)]
    lo, hi = (min(finite), max(finite)) if finite else (0.0, 0.0)
    if hi > lo:
        return lo, hi
    hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    return (lo, hi) if hi < math.inf else (math.nextafter(lo, -math.inf), lo)


def line_plot(path, series, title, xlabel, ylabel):
    """Write an SVG polyline plot.

    ``series`` is a list of (label, xs, ys) triples.  Not a plotting
    library: fixed layout, one axes box, automatic ranges and ticks;
    non-finite points are left out, and a series of one point is a dot.
    """
    width, height = _WIDTH, _HEIGHT
    margin_l, margin_r, margin_t, margin_b = 70, 20, 34, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    x_lo, x_hi = _range(x for _, xs, _ in series for x in xs)
    y_lo, y_hi = _range(y for _, _, ys in series for y in ys)
    # The padded y range is clamped to the float range, but a span can still
    # pass it, so positions are taken in halves, as in _ticks.
    pad = 0.1 * (0.5 * y_hi - 0.5 * y_lo)  # 5 % of the span
    big = sys.float_info.max
    y_lo, y_hi = max(y_lo - pad, -big), min(y_hi + pad, big)
    x_half, x_span = 0.5 * x_lo, 0.5 * x_hi - 0.5 * x_lo
    y_half, y_span = 0.5 * y_lo, 0.5 * y_hi - 0.5 * y_lo

    def px(x):
        return margin_l + (0.5 * x - x_half) / x_span * plot_w

    def py(y):
        return margin_t + (1.0 - (0.5 * y - y_half) / y_span) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{margin_t + plot_h}" x2="{x:.1f}" '
            f'y2="{margin_t + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{margin_t + plot_h + 18}" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{margin_l - 5}" y1="{y:.1f}" x2="{margin_l}" '
            f'y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts += [
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 10}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">{ylabel}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = [
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        ]
        if len(points) == 1:  # a polyline of one point has no length
            cx, cy = points[0].split(",")
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{" ".join(points)}" fill="none" '
                f'stroke="{color}" stroke-width="1.6"/>'
            )
        ly = margin_t + 16 + 16 * idx
        lx = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
