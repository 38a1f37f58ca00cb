"""Minimal standalone SVG emission: interval plots, line plots, and
heatmaps with no external assets or plotting dependency."""

from __future__ import annotations

import numpy as np

__all__ = ["svg_intervals", "svg_lines", "svg_heatmap"]

_W, _H = 640, 400
_MARGIN = 50


def _scale(vals, lo, hi, out_lo, out_hi):
    vals = np.asarray(vals, dtype=float)
    span = hi - lo if hi > lo else 1.0
    return out_lo + (vals - lo) / span * (out_hi - out_lo)


def _write(path, title, parts):
    """Write one standalone SVG: a white frame, the title, then parts."""
    body = "\n".join(parts)
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n'
            f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
            f'<text x="{_W / 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>\n'
            f"{body}\n</svg>\n"
        )


def svg_intervals(path, labels, lows, mids, highs, truth, title):
    """Vertical interval bars with median marks and truth dots."""
    lows = np.asarray(lows, dtype=float)
    mids = np.asarray(mids, dtype=float)
    highs = np.asarray(highs, dtype=float)
    k = len(labels)
    ymin = float(min(lows.min(), np.min(truth), 0.0))
    ymax = float(max(highs.max(), np.max(truth), 0.0))
    pad = 0.05 * (ymax - ymin or 1.0)
    ymin, ymax = ymin - pad, ymax + pad
    xs = _scale(np.arange(k), -0.5, k - 0.5, _MARGIN, _W - _MARGIN)
    y = lambda v: _scale(v, ymin, ymax, _H - _MARGIN, _MARGIN)
    parts = [
        f'<line x1="{_MARGIN}" y1="{y(0):.1f}" x2="{_W - _MARGIN}" '
        f'y2="{y(0):.1f}" stroke="#999" stroke-dasharray="4"/>'
    ]
    for j in range(k):
        parts.append(
            f'<line x1="{xs[j]:.1f}" y1="{y(lows[j]):.1f}" x2="{xs[j]:.1f}" '
            f'y2="{y(highs[j]):.1f}" stroke="#3366aa" stroke-width="3"/>'
        )
        parts.append(
            f'<circle cx="{xs[j]:.1f}" cy="{y(mids[j]):.1f}" r="3" fill="#113355"/>'
        )
        parts.append(
            f'<circle cx="{xs[j]:.1f}" cy="{y(truth[j]):.1f}" r="3" '
            f'fill="none" stroke="#cc3333" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{xs[j]:.1f}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="9">{labels[j]}</text>'
        )
    _write(path, title, parts)


def svg_lines(path, series, title, threshold):
    """Polyline plot of named sequences over their index, with a dashed
    horizontal line at threshold."""
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    ymin = float(min(all_vals.min(), 0.0))
    ymax = float(max(all_vals.max(), 1.0))
    nmax = max(len(v) for v in series.values())
    y = lambda v: _scale(v, ymin, ymax, _H - _MARGIN, _MARGIN)
    colors = ["#3366aa", "#cc3333", "#33aa66", "#aa8833", "#8833aa"]
    parts = [
        f'<line x1="{_MARGIN}" y1="{y(threshold):.1f}" x2="{_W - _MARGIN}" '
        f'y2="{y(threshold):.1f}" stroke="#999" stroke-dasharray="4"/>'
    ]
    for c, (name, vals) in enumerate(series.items()):
        vals = np.asarray(vals, dtype=float)
        xs = _scale(np.arange(len(vals)), 0, max(nmax - 1, 1), _MARGIN, _W - _MARGIN)
        pts = " ".join(f"{x:.1f},{y(v):.1f}" for x, v in zip(xs, vals))
        color = colors[c % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_W - _MARGIN + 4}" y="{_MARGIN + 14 * c}" fill="{color}" '
            f'font-family="sans-serif" font-size="10">{name}</text>'
        )
    _write(path, title, parts)


def svg_heatmap(path, matrix, title):
    """Grayscale cell grid of a nonnegative matrix."""
    M = np.asarray(matrix, dtype=float)
    top = float(M.max()) or 1.0
    rows, cols = M.shape
    cw = (_W - 2 * _MARGIN) / cols
    ch = (_H - 2 * _MARGIN) / rows
    parts = []
    for i in range(rows):
        for j in range(cols):
            level = int(255 * (1.0 - min(M[i, j] / top, 1.0)))
            parts.append(
                f'<rect x="{_MARGIN + j * cw:.1f}" y="{_MARGIN + i * ch:.1f}" '
                f'width="{cw:.1f}" height="{ch:.1f}" '
                f'fill="rgb({level},{level},{level})"/>'
            )
    _write(path, title, parts)
