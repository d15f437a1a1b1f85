"""SVG chart rendering without a plotting dependency."""

import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from purefb import scenarios
from purefb.simkit import Trajectory
from purefb.svgplot import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PLOT_W,
    TICKS,
    WIDTH,
    _Axis,
    _nice_ticks,
    line_plot,
    plot_trajectory,
)


def polyline_points(path):
    """The "x,y" strings of each polyline in an SVG file."""
    text = Path(path).read_text()
    return [m.split(" ") for m in re.findall(r'<polyline points="([^"]*)"', text)]


def test_nice_ticks_use_125_steps():
    ticks = _nice_ticks(0.0, 10.0)
    steps = {round(b - a, 12) for a, b in zip(ticks, ticks[1:])}
    assert steps == {2.0}
    ticks = _nice_ticks(0.0, 0.07)
    step = ticks[1] - ticks[0]
    assert step == pytest.approx(0.02, rel=1e-12)
    # a flat range is padded by its axis, and still yields something usable
    flat = _Axis(5.0, 5.0, 0, 100)
    assert len(_nice_ticks(flat.lo, flat.hi)) >= 2


def test_line_plot_contents(tmp_path):
    path = tmp_path / "wave.svg"
    t = [0.01 * j for j in range(101)]
    line_plot(
        path, t,
        [("sin", [math.sin(6.0 * v) for v in t]),
         ("cos", [math.cos(6.0 * v) for v in t])],
        title="waves", ylabel="amp",
    )
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert ">sin</text>" in text and ">cos</text>" in text
    assert ">waves</text>" in text
    assert "viewBox" in text
    # no more samples than pixel columns: every sample is drawn
    assert [len(points) for points in polyline_points(path)] == [101, 101]


def test_line_plot_rejects_bad_series(tmp_path):
    with pytest.raises(ValueError, match="length"):
        line_plot(tmp_path / "x.svg", [0.0, 1.0], [("a", [1.0])])
    with pytest.raises(ValueError):
        line_plot(tmp_path / "y.svg", [], [])


def test_constant_series_renders(tmp_path):
    path = tmp_path / "flat.svg"
    line_plot(path, [0.0, 1.0, 2.0], [("c", [3.0, 3.0, 3.0])])
    assert "<polyline" in path.read_text()


@pytest.mark.parametrize("values", [[-1e308, 1e308], [1.7e308, 1.7e308]],
                         ids=["span-overflows", "padding-overflows"])
def test_series_near_the_largest_float_renders(tmp_path, values):
    """hi - lo past the largest float is measured in halves; a constant
    series pads up to the largest float at most."""
    path = tmp_path / "huge.svg"
    line_plot(path, [0.0, 1.0], [("u", values)])
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    (u,) = polyline_points(path)
    ys = [float(point.split(",")[1]) for point in u]
    assert all(MARGIN_T <= y <= HEIGHT - MARGIN_B for y in ys)
    if values[0] < values[1]:
        assert ys == [HEIGHT - MARGIN_B, MARGIN_T]
        assert ">-1e+308<" in text and ">1e+308<" in text


def ulps_above(lo, n):
    """lo and the float n ulps above it (or below, past the largest float)."""
    hi = lo
    for _ in range(n):
        hi = math.nextafter(hi, math.inf if hi < 1.7e308 else 0.0)
    return sorted([lo, hi])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(st.builds(ulps_above, FINITE, st.integers(0, 3)),
                        st.lists(FINITE, min_size=2, max_size=2).map(sorted)))
@example(values=[5e-324, 5e-324])  # numeric-2d's x0 = (5e-324, 5e-324)
@example(values=[-1.5e-323, -1.5e-323])  # stt-missile's u at mu2 = 5e-324
@example(values=[0.1, 0.10000000000000002])  # stt-missile's gains at roll_deg = 3.02e-6
@example(values=ulps_above(0.1, 2))
@example(values=ulps_above(2.0 ** 53, 3))  # a step of half an ulp, tied to even
@example(values=[-1.7e308, 1.7e308])
def test_an_axis_over_any_finite_span_renders(values):
    """A constant series, one a few ulps wide, subnormal or near the largest
    float: the ticks step forward, so a bounded number is drawn, and every
    coordinate is finite and inside the plot."""
    axis = _Axis(*values, HEIGHT - MARGIN_B, MARGIN_T)
    assert 1 <= len(axis.ticks) <= 2 * TICKS + 3
    assert all(math.isfinite(axis.pix(tick)) for tick in axis.ticks)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "narrow.svg")
        assert line_plot(path, [0.0, 1.0], [("v", values)]) == path
        text = Path(path).read_text()
        (points,) = polyline_points(path)
    assert "nan" not in text and "inf" not in text
    ys = [float(point.split(",")[1]) for point in points]
    assert all(MARGIN_T <= y <= HEIGHT - MARGIN_B for y in ys)


def test_non_finite_samples_are_left_out(tmp_path):
    """A diverged run's last row may hold inf or NaN; the axis and the
    points cover the finite samples (a numpy warning would be an error)."""
    path = tmp_path / "diverged.svg"
    line_plot(path, [0.0, 1.0, 2.0, 3.0],
              [("u", [1.0, -2.0, float("nan"), float("-inf")]),
               ("v", [float("inf")] * 4)])
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    u, v = polyline_points(path)
    assert len(u) == 2 and v == [""]  # v has no finite point
    assert ">-2<" in text and ">1<" in text  # y ticks of the finite range


def test_render_is_deterministic(tmp_path):
    t = [0.1 * j for j in range(50)]
    series = [("d", [v * v for v in t])]
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    line_plot(a, t, series)
    line_plot(b, t, series)
    assert a.read_bytes() == b.read_bytes()


def test_plot_trajectory_standard_set(tmp_path):
    traj = scenarios.build("numeric-2d", T=2.0).run()
    written = plot_trajectory(traj, str(tmp_path))
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["errors.svg", "gains.svg", "input.svg", "states.svg"]
    for p in written:
        assert os.path.getsize(p) > 500


def test_one_sample_trajectory_writes_every_chart(tmp_path):
    full = scenarios.build("numeric-2d", T=2.0).run()
    traj = Trajectory(sid=full.sid, columns=full.columns, data=full.data[:1],
                      h=full.h, meta=full.meta)
    written = plot_trajectory(traj, str(tmp_path))
    assert sorted(os.path.basename(p) for p in written) == [
        "errors.svg", "gains.svg", "input.svg", "states.svg"]
    for p in written:
        assert all(len(points) == 1 for points in polyline_points(p))


def test_long_series_keeps_first_last_min_max_per_pixel_column(tmp_path):
    rng = np.random.default_rng(20001)
    t = np.linspace(0.0, 20.0, 20001)
    y = np.sin(2.0 * math.pi * (0.05 + 0.4 * t) * t) + 0.1 * rng.standard_normal(t.size)
    path = tmp_path / "chirp.svg"
    line_plot(path, t, [("chirp", y)])
    (points,) = polyline_points(path)
    assert len(points) <= 4 * PLOT_W
    xs = [float(p.split(",")[0]) for p in points]
    assert xs == sorted(xs)
    px = _Axis(t.min(), t.max(), MARGIN_L, WIDTH - MARGIN_R).pix(t)
    py = _Axis(y.min(), y.max(), HEIGHT - MARGIN_B, MARGIN_T).pix(y)
    # pixel column floor(px); the right edge belongs to the last column
    column = np.minimum(np.floor(px), WIDTH - MARGIN_R - 1)
    kept = set(points)
    for c in np.unique(column):
        idx = np.flatnonzero(column == c)
        for i in (idx[0], idx[-1], idx[np.argmin(py[idx])], idx[np.argmax(py[idx])]):
            assert "%.2f,%.2f" % (px[i], py[i]) in kept, (c, i)
