"""Property tests of the exact Cheeger root solve and the exact distance field.

Domains: hulls of random points, thin rectangles down to 1:64 and
near-degenerate triangles; gauges: l^q with q in [1.1, 8] and rotated
ellipses.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from anisospec.cheeger import cheeger_estimate
from anisospec.geometry import (CoarseGridError, ConvexPolygon, GeometryError,
                                distance_field)
from anisospec.norms import MinkowskiNorm

coord = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def hull_polygons(draw):
    pts = np.array(draw(st.lists(st.tuples(coord, coord), min_size=3,
                                 max_size=12)))
    try:
        poly = ConvexPolygon(pts[ConvexHull(pts).vertices], "hull")
    except (QhullError, GeometryError):
        assume(False)
    xmin, xmax, ymin, ymax = poly.bounding_box
    assume(poly.area > 0.02 * (xmax - xmin) * (ymax - ymin))
    assume(min(xmax - xmin, ymax - ymin) > 0.05)
    return poly


thin_rectangles = st.floats(1.0, 64.0).map(
    lambda k: ConvexPolygon.rectangle(1.0 / math.sqrt(k), math.sqrt(k)))

# base (-1, 0)-(1, 0), apex at height 0.02-0.2, possibly far off to a side
slivers = st.builds(
    lambda t, eps: ConvexPolygon(np.array([[-1.0, 0.0], [1.0, 0.0], [t, eps]]),
                                 "sliver"),
    st.floats(-1.5, 1.5), st.floats(0.02, 0.2))

domains = st.one_of(hull_polygons(), thin_rectangles, slivers)


def _rotated_ellipse(theta: float, s1: float, s2: float) -> MinkowskiNorm:
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    a = rot @ np.diag([s1, s2]) @ rot.T
    return MinkowskiNorm.ellipse(a[0, 0], a[0, 1], a[1, 1])


gauges = st.one_of(
    st.floats(1.1, 8.0).map(MinkowskiNorm.lq),
    st.builds(_rotated_ellipse, st.floats(0.0, math.pi),
              st.floats(0.25, 4.0), st.floats(0.25, 4.0)))


@settings(max_examples=40, deadline=None)
@given(domains, gauges)
def test_cheeger_within_bounds_and_faber_krahn(poly, norm):
    res = cheeger_estimate(poly, norm)
    assert res.lower <= res.h_est <= res.upper
    r_vol = math.sqrt(poly.area / norm.wulff_area())
    assert res.h_est >= 2.0 / r_vol * (1.0 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(domains, gauges)
def test_distance_field_is_the_line_formula(poly, norm):
    xmin, xmax, ymin, ymax = poly.bounding_box
    h = min(xmax - xmin, ymax - ymin) / 48.0
    try:
        df = distance_field(poly, norm, h)
    except CoarseGridError:  # a sliver whose inner rows thin out
        df = distance_field(poly, norm, 0.5 * h)
    pts = np.stack(np.meshgrid(df.x, df.y, indexing="ij"), axis=-1)[df.mask]
    exact = poly.distance_to_boundary_F(norm, pts)
    scale = max(poly.diameter, 1.0)
    assert df.values[df.mask] == pytest.approx(exact, rel=1e-12,
                                               abs=1e-14 * scale)
    r_f, _ = poly.inradius_F(norm)
    assert df.inradius <= r_f * (1.0 + 1e-9)
