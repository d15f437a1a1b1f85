"""Minimal SVG line plots, no plotting dependency.

Renders one chart per file: shared time axis, one polyline per series,
nice 1/2/5-stepped ticks, a small legend.  Output is plain text SVG so
runs stay diffable and the registry stays self-contained.

Each series is reduced per pixel column to its first, last, minimum and
maximum sample (M4: Jugel, Jerzak, Hackenbroich & Markl, "M4: A
Visualization-Oriented Time Series Data Aggregation", PVLDB 7(10),
2014); the line drawn at that width is the same, and the file size
follows the plot width rather than the run length.  A column with at
most two samples keeps them all, so a series on a uniform time grid no
longer than the plot is wide keeps every sample.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

__all__ = ["line_plot", "plot_trajectory"]

WIDTH = 840
HEIGHT = 480
MARGIN_L = 66
MARGIN_R = 16
MARGIN_T = 34
MARGIN_B = 46
PLOT_W = WIDTH - MARGIN_L - MARGIN_R  # pixel columns under the polylines
TICKS = 6  # ticks aimed at on each axis
XLABEL = "t [s]"

PALETTE = (
    "#1f6fb2", "#d2542c", "#2e8540", "#8251a1",
    "#b0272f", "#6d6d00", "#0f7c8c", "#874312",
)


def _scale(lo, hi):
    """1.0, or 0.5 where hi - lo overflows: spans are measured in halves there."""
    return 1.0 if math.isfinite(hi - lo) else 0.5


def _nice_ticks(lo, hi):
    """Tick positions at a 1/2/5 x 10^k step covering [lo, hi], or None where
    that step cannot move a tick forward (a span of none or a few ulps)."""
    s = _scale(lo, hi)
    raw = (hi * s - lo * s) / TICKS / s
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0.0 else 0.0
    if mag == 0.0:  # raw, or its 10^k, is 0 or underflowed to it
        return None
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    # past the largest float the next tick is inf, and inf + step is inf
    end = min(hi + step * 1e-9, sys.float_info.max)
    while value <= end:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        if not value + step > value:  # step is below half an ulp of value
            return None
        value += step
    return ticks


def _fmt(v):
    return "%.6g" % v


class _Axis:
    def __init__(self, lo, hi, pix_lo, pix_hi):
        self.ticks = _nice_ticks(lo, hi)
        # a constant series, or one its ticks cannot step across, is widened
        # by half its magnitude, or where that is not enough (0 or near it) by 1
        for pad in (max(abs(lo), abs(hi)) * 0.5, 1.0):
            if self.ticks is not None:
                break
            lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
            self.ticks = _nice_ticks(lo, hi)
        self.lo, self.hi = lo, hi
        self.scale = _scale(lo, hi)
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def pix(self, v):
        s = self.scale
        frac = (v * s - self.lo * s) / (self.hi * s - self.lo * s)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def _column_starts(px):
    """First index of each run of samples in one pixel column.

    The column of a sample is floor(px); the right edge of the plot
    belongs to the last column, so there are at most PLOT_W columns.
    """
    col = np.minimum(np.floor(px), WIDTH - MARGIN_R - 1)
    return np.flatnonzero(np.r_[True, col[1:] != col[:-1]])


def _m4(py, starts):
    """Sorted indices of the first, last, minimum and maximum of each column."""
    n = len(py)
    counts = np.diff(np.r_[starts, n])
    group = np.repeat(np.arange(len(starts)), counts)
    idx = np.arange(n)
    keep = [starts, starts + counts - 1]
    for extremum in (np.minimum, np.maximum):
        hit = py == extremum.reduceat(py, starts)[group]
        first = np.minimum.reduceat(np.where(hit, idx, n), starts)
        keep.append(first[first < n])
    return np.unique(np.concatenate(keep))


def line_plot(path, t, series, title="", ylabel=""):
    """Write one SVG chart.

    t: 1-D sample times; series: iterable of (label, values) with values
    matching len(t).  Returns path.
    """
    t = np.asarray(t, dtype=float)
    named = [(str(label), np.asarray(vals, dtype=float)) for label, vals in series]
    if not t.size or not named:
        raise ValueError("line_plot needs at least one sample and one series")
    for label, vals in named:
        if len(vals) != len(t):
            raise ValueError("series %r length %d != %d" % (label, len(vals), len(t)))
    # a diverged run may record inf or NaN: the axis spans the finite
    # samples, and only finite points are drawn
    ylo = min(float(v.min(where=np.isfinite(v), initial=math.inf)) for _, v in named)
    yhi = max(float(v.max(where=np.isfinite(v), initial=-math.inf)) for _, v in named)
    if ylo > yhi:  # no finite sample
        ylo, yhi = 0.0, 1.0
    xaxis = _Axis(float(t.min()), float(t.max()), MARGIN_L, WIDTH - MARGIN_R)
    yaxis = _Axis(ylo, yhi, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d" font-family="sans-serif" font-size="12">'
        % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
    ]
    if title:
        parts.append(
            '<text x="%d" y="20" text-anchor="middle" font-size="14">%s</text>'
            % (WIDTH // 2, title)
        )
    for tick in xaxis.ticks:
        px = xaxis.pix(tick)
        parts.append(
            '<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="#ddd"/>'
            % (px, MARGIN_T, px, HEIGHT - MARGIN_B)
        )
        parts.append(
            '<text x="%.2f" y="%d" text-anchor="middle">%s</text>'
            % (px, HEIGHT - MARGIN_B + 18, _fmt(tick))
        )
    for tick in yaxis.ticks:
        py = yaxis.pix(tick)
        parts.append(
            '<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" stroke="#ddd"/>'
            % (MARGIN_L, py, WIDTH - MARGIN_R, py)
        )
        parts.append(
            '<text x="%d" y="%.2f" text-anchor="end" dy="4">%s</text>'
            % (MARGIN_L - 6, py, _fmt(tick))
        )
    parts.append(
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#444"/>'
        % (MARGIN_L, MARGIN_T, WIDTH - MARGIN_L - MARGIN_R,
           HEIGHT - MARGIN_T - MARGIN_B)
    )
    parts.append(
        '<text x="%d" y="%d" text-anchor="middle">%s</text>'
        % ((MARGIN_L + WIDTH - MARGIN_R) // 2, HEIGHT - 10, XLABEL)
    )
    if ylabel:
        parts.append(
            '<text x="16" y="%d" text-anchor="middle" '
            'transform="rotate(-90 16 %d)">%s</text>'
            % (HEIGHT // 2, HEIGHT // 2, ylabel)
        )
    px = xaxis.pix(t)
    starts = _column_starts(px)
    for idx, (label, vals) in enumerate(named):
        color = PALETTE[idx % len(PALETTE)]
        py = yaxis.pix(vals)
        keep = _m4(py, starts)
        keep = keep[np.isfinite(py[keep])]
        points = " ".join(
            "%.2f,%.2f" % xy for xy in zip(px[keep].tolist(), py[keep].tolist())
        )
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
            % (points, color)
        )
    legend_y = MARGIN_T + 14
    for idx, (label, _) in enumerate(named):
        color = PALETTE[idx % len(PALETTE)]
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" '
            'stroke-width="2"/>'
            % (MARGIN_L + 10, legend_y + idx * 16 - 4,
               MARGIN_L + 34, legend_y + idx * 16 - 4, color)
        )
        parts.append(
            '<text x="%d" y="%d">%s</text>'
            % (MARGIN_L + 40, legend_y + idx * 16, label)
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def plot_trajectory(traj, out_dir):
    """Standard chart set for one recorded run: states, gains, input.

    Uses the trajectory's column-group metadata; returns the written
    paths.
    """
    meta = traj.meta
    t = traj.t
    written = []

    def group(names, fname, title, ylabel):
        series = [(name, traj.col(name)) for name in names]
        path = os.path.join(out_dir, fname)
        written.append(line_plot(path, t, series, title=title, ylabel=ylabel))

    x_cols = meta.get("x_cols")
    if x_cols:
        group(x_cols, "states.svg", "%s: state" % traj.sid, "state")
    z_cols = meta.get("z_cols")
    if z_cols:
        group(z_cols, "errors.svg", "%s: transformed errors" % traj.sid, "z")
    k_cols = meta.get("k_cols")
    if k_cols:
        group(k_cols, "gains.svg", "%s: adaptive gains" % traj.sid, "k")
    if "u" in traj.columns:
        group(["u"], "input.svg", "%s: applied input" % traj.sid, "u")
    return written
