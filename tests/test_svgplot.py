import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rews import harness, stability, svgplot

from conftest import assert_m4

_NS = "{http://www.w3.org/2000/svg}"


def _parse(path):
    return ET.parse(path).getroot()


def _polylines(path):
    return [el.get("points") for el in _parse(path).iter(_NS + "polyline")]


def _scalar_points(canvas, xs, ys):
    """Per-point reference: drop non-finite pairs, map with px/py, format."""
    return " ".join(f"{canvas.px(x):.2f},{canvas.py(y):.2f}"
                    for x, y in zip(xs, ys)
                    if math.isfinite(x) and math.isfinite(y))


def _gappy_series(n=2000, seed=3):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 45.0, n)
    y = np.cumsum(rng.normal(size=n))
    y[rng.choice(n, size=n // 20, replace=False)] = np.nan
    y[17], y[901] = np.inf, -np.inf
    return x, y


class TestLineChart:
    def test_empty_x_is_nothing_to_plot(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_chart(tmp_path / "a.svg", [], [("y", [])])

    def test_all_nan_series_is_nothing_to_plot(self, tmp_path):
        x = np.arange(5.0)
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_chart(tmp_path / "a.svg", x,
                               [("a", np.full(5, np.nan)), ("b", np.full(5, np.inf))])
        with pytest.raises(ValueError, match="nothing to plot"):
            svgplot.line_chart(tmp_path / "b.svg", x, [])

    def test_non_finite_samples_are_dropped(self, tmp_path):
        path = tmp_path / "a.svg"
        x = np.arange(6.0)
        y = np.array([0.0, np.nan, 1.0, np.inf, -np.inf, 2.0])
        svgplot.line_chart(path, x, [("y", y)])
        (points,) = _polylines(path)
        assert len(points.split()) == 3
        assert "nan" not in points and "inf" not in points

    def test_fewer_than_two_finite_points_draw_no_line(self, tmp_path):
        path = tmp_path / "a.svg"
        x = np.arange(4.0)
        svgplot.line_chart(path, x, [("one", [np.nan, 2.0, np.nan, np.inf]),
                                     ("none", np.full(4, np.nan))])
        assert _polylines(path) == []
        # The legend still lists both series.
        assert "one" in path.read_text() and "none" in path.read_text()

    def test_series_length_must_match_x(self, tmp_path):
        path = tmp_path / "a.svg"
        with pytest.raises(ValueError, match="'short' has 3 samples, x has 4"):
            svgplot.line_chart(path, np.arange(4.0),
                               [("ok", np.arange(4.0)), ("short", np.arange(3.0))])
        assert not path.exists()

    def test_points_match_the_scalar_reference(self, tmp_path):
        path = tmp_path / "a.svg"
        x, y = _gappy_series()
        y2 = 0.5 * y[::-1]
        svgplot.line_chart(path, x, [("y", y), ("y2", y2)])
        finite = np.concatenate([y[np.isfinite(y)], y2[np.isfinite(y2)]])
        canvas = svgplot._Canvas((min(x), max(x)), (min(finite), max(finite)),
                                 "", "", "")
        assert _polylines(path) == [_scalar_points(canvas, x, y),
                                    _scalar_points(canvas, x, y2)]

    def test_long_series_keeps_each_pixel_columns_m4_points(self, tmp_path):
        # A 450 s trace's length: 75 samples per pixel column.
        path = tmp_path / "a.svg"
        x, y = _gappy_series(n=45_001)
        svgplot.line_chart(path, x, [("y", y)])
        finite = np.isfinite(y)
        canvas = svgplot._Canvas((x.min(), x.max()), (y[finite].min(), y[finite].max()),
                                 "", "", "")
        (points,) = _polylines(path)
        assert len(points.split()) <= 4 * 601
        assert_m4(points, _scalar_points(canvas, x, y),
                  np.floor(canvas.px(x[finite])))

    def test_short_or_unsorted_series_are_drawn_point_for_point(self, tmp_path):
        # 2,400 finite points is 4 per plot column: not reduced.
        x, y = _gappy_series(n=2_600)
        y[np.flatnonzero(np.isfinite(y))[2_400:]] = np.nan
        assert np.count_nonzero(np.isfinite(y)) == 2_400
        # Two swapped finite samples make x non-monotonic.
        x2, y2 = _gappy_series(n=3_000)
        swap = np.flatnonzero(np.isfinite(y2))[10:12]
        x2[swap] = x2[swap[::-1]]
        for i, (xs, ys) in enumerate([(x, y), (x2, y2)]):
            path = tmp_path / f"{i}.svg"
            svgplot.line_chart(path, xs, [("y", ys)])
            finite = ys[np.isfinite(ys)]
            canvas = svgplot._Canvas((xs.min(), xs.max()),
                                     (finite.min(), finite.max()), "", "", "")
            assert _polylines(path) == [_scalar_points(canvas, xs, ys)]


class TestNyquistChart:
    def test_monotone_locus_is_drawn_point_for_point(self, tmp_path):
        # A locus whose real part only grows, as at zero delay, is not a
        # line chart: every finite point is drawn, byte for byte as before
        # the locus was clipped to the plot box.
        path = tmp_path / "n.svg"
        re = np.linspace(-30.0, 0.0, 4000)
        im = re * re / 100.0 - 5.0
        im[[7, 2000]] = np.nan
        svgplot.nyquist_chart(path, re, im, -20.0, 4.0)
        (points,) = _polylines(path)
        assert len(points.split()) == 3998
        data = path.read_bytes()
        clip = (b'<clipPath id="plot"><rect x="60" y="60" width="600" '
                b'height="360"/></clipPath>\n')
        ref = b' clip-path="url(#plot)"'
        assert data.count(clip) == 1 and data.count(ref) == 1
        unclipped = data.replace(clip, b"").replace(ref, b"")
        assert hashlib.sha256(unclipped).hexdigest() == (
            "fcf53f75a5447f561b629363dced524824a3729ec00b5a790be1309a90396a68")

    def test_view_clips_to_six_radii_around_the_disk(self, tmp_path):
        path = tmp_path / "n.svg"
        center, radius = -20.0, 4.0
        # A locus far beyond 6 R on every side.
        re = np.linspace(-1e4, 1e4, 301)
        im = np.linspace(1e4, -1e4, 301)
        svgplot.nyquist_chart(path, re, im, center, radius)
        circle = _parse(path).find(_NS + "circle")
        # Clipped view: 12 R plus 5 % padding a side, so the 360 px plot
        # height spans 13.2 R and the disk is centred in the plot.
        assert circle.get("cx") == "360.00"
        assert circle.get("cy") == "240.00"
        assert circle.get("r") == f"{360 / 13.2:.2f}"
        span = 6 * radius
        canvas = svgplot._Canvas((center - span, center + span), (-span, span),
                                 "", "Re", "Im", square=True)
        # Every point of the locus is written; the clip hides what lies
        # outside the plot box.
        assert _polylines(path) == [_scalar_points(canvas, re, im)]

    def test_locus_inside_the_view_is_not_clipped(self, tmp_path):
        path = tmp_path / "n.svg"
        center, radius = -20.0, 4.0
        re = np.array([-30.0, np.nan, -25.0, -10.0, np.inf, 0.0])
        im = np.array([-5.0, 1.0, 8.0, np.nan, 2.0, 3.0])
        svgplot.nyquist_chart(path, re, im, center, radius)
        canvas = svgplot._Canvas((-30.0, 0.0), (-5.0, 8.0),
                                 "", "Re", "Im", square=True)
        (points,) = _polylines(path)
        assert points == _scalar_points(canvas, re, im)
        assert len(points.split()) == 3

    def test_emitted_locus_is_clipped_to_the_plot_box(self, tmp_path):
        # Case 1's locus runs far outside the view (|G| grows at low
        # frequency); only the locus polyline references the clip, and the
        # clip rect is the plot box the axes frame.
        verdict = stability.certify(40.0, 10.0, 0.3, harness.case_study_circle())
        ((_, _, path),) = harness.emit([(tmp_path, None, verdict)])
        root = _parse(path)
        (line,) = root.iter(_NS + "polyline")
        ref = line.get("clip-path")
        clips = [el for el in root.iter(_NS + "clipPath")
                 if ref == f"url(#{el.get('id')})"]
        assert len(clips) == 1
        (rect,) = clips[0]
        assert rect.tag == _NS + "rect"
        box = {"x": "60", "y": "60", "width": "600", "height": "360"}
        assert dict(rect.attrib) == box
        frames = [el for el in root.findall(_NS + "rect")
                  if el.get("fill") == "none"]
        assert [{k: el.get(k) for k in box} for el in frames] == [box]
        xs = [float(p.split(",")[0]) for p in line.get("points").split()]
        assert min(xs) < 60 or max(xs) > 660
        assert sum(el.get("clip-path") is not None for el in root.iter()) == 1
