"""Tiny SVG chart writer on the standard library and numpy.

Only what the simulation reports need: multi-series line charts and a
Nyquist locus with a forbidden circle.  Output is a self-contained
vector file suitable for hermetic CI artifacts.

Line-chart series of over 2,400 points (4 per plot column) with sorted x
keep each pixel column's first, last, lowest and highest point (M4, Jugel
et al., VLDB 2014) and so its y-extent; the Nyquist locus keeps every point
and is clipped to the plot box.
"""

from __future__ import annotations

import math

import numpy as np

_WIDTH = 720
_HEIGHT = 480
_MARGIN = 60
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _axis_range(lo, hi):
    if lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _ticks(lo, hi, n=6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


class _Canvas:
    def __init__(self, x_range, y_range, title, xlabel, ylabel, square=False):
        self.x0, self.x1 = _axis_range(*x_range)
        self.y0, self.y1 = _axis_range(*y_range)
        if square:
            # Equal units per pixel on both axes.
            plot_w = _WIDTH - 2 * _MARGIN
            plot_h = _HEIGHT - 2 * _MARGIN
            sx = (self.x1 - self.x0) / plot_w
            sy = (self.y1 - self.y0) / plot_h
            s = max(sx, sy)
            cx, cy = 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)
            self.x0, self.x1 = cx - s * plot_w / 2, cx + s * plot_w / 2
            self.y0, self.y1 = cy - s * plot_h / 2, cy + s * plot_h / 2
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>',
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>',
            f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_HEIGHT / 2})">{ylabel}</text>',
        ]
        self._axes()

    def px(self, x):
        return _MARGIN + (x - self.x0) / (self.x1 - self.x0) * (_WIDTH - 2 * _MARGIN)

    def py(self, y):
        return _HEIGHT - _MARGIN - (y - self.y0) / (self.y1 - self.y0) * (_HEIGHT - 2 * _MARGIN)

    def _axes(self):
        left, right = _MARGIN, _WIDTH - _MARGIN
        top, bottom = _MARGIN, _HEIGHT - _MARGIN
        self.parts.append(
            f'<rect x="{left}" y="{top}" width="{right - left}" '
            f'height="{bottom - top}" fill="none" stroke="black"/>')
        for t in _ticks(self.x0, self.x1):
            x = self.px(t)
            self.parts.append(
                f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 5}" stroke="black"/>'
                f'<text x="{x:.1f}" y="{bottom + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{t:g}</text>')
        for t in _ticks(self.y0, self.y1):
            y = self.py(t)
            self.parts.append(
                f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>'
                f'<text x="{left - 8}" y="{y + 3:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{t:g}</text>')

    def polyline(self, xs, ys, color, extra=""):
        # px/py map whole float arrays; '%.2f' % v equals f'{v:.2f}'.
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if np.count_nonzero(keep) < 2:
            return
        px, py = self.px(xs[keep]), self.py(ys[keep])
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.2"{extra}/>')

    def m4(self, xs, ys):
        """The finite points of ``y(x)``, M4-reduced per equal ``floor(px)`` run."""
        keep = np.isfinite(xs) & np.isfinite(ys)
        xs, ys = xs[keep], ys[keep]
        px = self.px(xs)
        if xs.size <= 4 * (_WIDTH - 2 * _MARGIN) or np.any(px[1:] < px[:-1]):
            return xs, ys
        col = np.floor(px)
        first = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
        last = np.r_[first[1:] - 1, xs.size - 1]
        by_y = np.lexsort((ys, col))
        idx = np.unique(np.r_[first, last, by_y[first], by_y[last]])
        return xs[idx], ys[idx]

    def circle(self, cx, cy, r, color):
        rx = abs(self.px(cx + r) - self.px(cx))
        self.parts.append(
            f'<circle cx="{self.px(cx):.2f}" cy="{self.py(cy):.2f}" r="{rx:.2f}" '
            f'fill="{color}" fill-opacity="0.15" stroke="{color}"/>')

    def legend(self, labels):
        for i, (label, color) in enumerate(labels):
            y = _MARGIN + 16 + 16 * i
            x = _WIDTH - _MARGIN - 150
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 24}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
                f'<text x="{x + 30}" y="{y}" font-family="sans-serif" '
                f'font-size="11">{label}</text>')

    def write(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def line_chart(path, x, series, title="", xlabel="", ylabel=""):
    """Write a line chart; ``series`` is a list of (label, y-values)."""
    xs = np.asarray(x, dtype=float)
    ys_arrays = [np.asarray(ys, dtype=float) for _, ys in series]
    for (label, _), ys in zip(series, ys_arrays):
        if ys.shape != xs.shape:
            raise ValueError(
                f"series {label!r} has {ys.size} samples, x has {xs.size}")
    all_y = np.concatenate([np.empty(0), *ys_arrays])
    all_y = all_y[np.isfinite(all_y)]
    if not xs.size or not all_y.size:
        raise ValueError("nothing to plot")
    canvas = _Canvas((xs.min(), xs.max()), (all_y.min(), all_y.max()),
                     title, xlabel, ylabel)
    labels = []
    for i, ((label, _), ys) in enumerate(zip(series, ys_arrays)):
        color = _COLORS[i % len(_COLORS)]
        canvas.polyline(*canvas.m4(xs, ys), color)
        labels.append((label, color))
    canvas.legend(labels)
    canvas.write(path)


def nyquist_chart(path, re, im, center, radius):
    """Locus of G(jw) with the forbidden disk, equal axis scaling."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    xs = np.append(re[np.isfinite(re)], [center - radius, center + radius])
    ys = np.append(im[np.isfinite(im)], [-radius, radius])
    # Clip the view to the disk neighborhood; |G| blows up at low frequency.
    span = 6 * radius
    xs = np.clip(xs, center - span, center + span)
    ys = np.clip(ys, -span, span)
    canvas = _Canvas((xs.min(), xs.max()), (ys.min(), ys.max()),
                     "Nyquist locus", "Re", "Im", square=True)
    canvas.circle(center, 0.0, radius, "#d62728")
    # The locus can run far outside the view: clip it to the plot box.
    canvas.parts.append(
        f'<clipPath id="plot"><rect x="{_MARGIN}" y="{_MARGIN}" '
        f'width="{_WIDTH - 2 * _MARGIN}" height="{_HEIGHT - 2 * _MARGIN}"/></clipPath>')
    canvas.polyline(re, im, "#1f77b4", ' clip-path="url(#plot)"')
    canvas.legend([("G(jω)", "#1f77b4"), ("forbidden disk", "#d62728")])
    canvas.write(path)
