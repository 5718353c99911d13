"""Property tests of the erosion skeleton (inradius, erosion and Cheeger
root), the exact distance field and the grid mask.

Domains: hulls of random points, thin rectangles down to 1:64,
near-degenerate triangles and hulls with near-collinear vertices added;
gauges: l^q with q in [1.1, 8] and rotated ellipses.  The skeleton is
checked against independent scipy oracles: a linear program, a convex
hull and a bracketed root; the erosion also on Wulff polygons and at
radii within a relative 1e-9 to 1e-13 of the skeleton's events.  Area,
inradius and Cheeger constant do not move when the polygon is shifted.  The
grid mask is also checked on regular n-gons and Wulff polygons, rotated
by multiples of 90 degrees plus tiny angles.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from anisospec.cheeger import cheeger_estimate
from anisospec.geometry import (CoarseGridError, ConvexPolygon, GeometryError,
                                _dedup_ccw, distance_field, parse_domain,
                                wulff_domain)
from anisospec.norms import MinkowskiNorm
from anisospec.pde import _grid_hierarchy, build_grid
from oracles import (cheeger_radius_brentq, distance_to_boundary_F,
                     edge_lines, erode_hull, inradius_linprog, shoelace)

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


@st.composite
def near_collinear(draw):
    """A hull with vertices added just outside some of its edges."""
    poly = draw(hull_polygons())
    v = poly.vertices
    out = []
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        out.append(a)
        if draw(st.booleans()):
            d = b - a
            bulge = 10.0 ** draw(st.floats(-12.0, -6.0))
            out.append(0.5 * (a + b) + bulge * np.array([d[1], -d[0]]))
    try:
        return ConvexPolygon(np.array(out), "near-collinear")
    except GeometryError:  # a bulge that dents a neighbouring corner
        assume(False)


domains = st.one_of(hull_polygons(), thin_rectangles, slivers,
                    near_collinear())

wulff_polygons = st.builds(
    lambda spec, n: wulff_domain(MinkowskiNorm.parse(spec), 1.0, n),
    st.sampled_from(["lq:1.2", "lq:4", "ellipse:4,0,1"]),
    st.integers(16, 512))


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


@settings(max_examples=60, deadline=None)
@given(domains, gauges)
def test_inradius_is_the_lp(poly, norm):
    r_f, center = poly.inradius_F(norm)
    r_lp, _ = inradius_linprog(poly, norm)
    assert r_f == pytest.approx(r_lp, rel=1e-12)
    # the incenter holds the ball: its polar distance to every edge line
    normals, offsets, fn = edge_lines(poly, norm)
    assert ((offsets - normals @ center) / fn).min() >= r_f * (1.0 - 1e-12)


@pytest.mark.parametrize("spec", ["lq:2", "lq:4", "ellipse:2,0.5,1"])
def test_events_apart_by_a_few_1e_11_stay_apart(spec):
    # an 8 x 2 rectangle whose top edge tilts by 1e-10: the short left edge
    # vanishes about 4e-11 R before the erosion collapses at the right end
    norm = MinkowskiNorm.parse(spec)
    poly = ConvexPolygon(np.array([[-4.0, -1.0], [4.0, -1.0],
                                   [4.0, 1.0 + 1e-10], [-4.0, 1.0]]))
    radii, _ = poly.eroded_area(norm)
    assert len(radii) == 3
    r_f, _ = poly.inradius_F(norm)
    assert r_f == pytest.approx(inradius_linprog(poly, norm)[0], rel=1e-12)


def _assert_erosion_is_the_hull_dual(poly, norm, r):
    exact = shoelace(erode_hull(poly, norm, r))
    eroded = poly.erode(norm, r)
    assert (eroded.area if eroded is not None else 0.0) == pytest.approx(
        exact, abs=1e-12 * poly.area)
    # the piecewise quadratic the Cheeger root solve reads
    radii, coef = poly.eroded_area(norm)
    k = int(np.searchsorted(radii, r, side="right")) - 1
    t = r - radii[k]
    assert coef[k, 0] + t * (coef[k, 1] + t * coef[k, 2]) == pytest.approx(
        exact, abs=1e-12 * poly.area)


# r as a fraction of R_F, or as a skeleton event radius (its index taken
# modulo the number of events) moved by a relative 1e-9 down to 1e-13
erosion_radii = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.tuples(st.integers(0, 1000),
              st.sampled_from([s * d for d in (1e-9, 1e-11, 1e-12, 1e-13)
                               for s in (-1.0, 1.0)])))


@settings(max_examples=150, deadline=None)
@given(st.one_of(domains, wulff_polygons), gauges, erosion_radii)
def test_erosion_is_the_hull_dual(poly, norm, at):
    if isinstance(at, float):
        r_lp, _ = inradius_linprog(poly, norm)
        r = at * r_lp
        assume(r < r_lp * (1.0 - 1e-9))
    else:
        radii, _ = poly.eroded_area(norm)
        k, delta = at
        r = radii[1 + k % (len(radii) - 1)] * (1.0 + delta)
        assume(r < radii[-1] * (1.0 - 1e-13))
    _assert_erosion_is_the_hull_dual(poly, norm, r)


@pytest.mark.parametrize("poly,gauge,r", [
    # just below the skeleton's 34th event: corners that a turn heuristic
    # took for rounding noise
    (wulff_domain(MinkowskiNorm.lq(1.2)), "lq:4", 0.36339169523496434),
    # at 0.9971 R_F, an erosion of area 1.65e-5 |domain|
    (wulff_domain(MinkowskiNorm.ellipse(4, 0, 1)), "lq:1.2",
     0.95871730791035181),
    # at R_F (1 - 1e-11): a sliver 2e-11 wide, of area 9.6e-12 |domain|
    (ConvexPolygon.rectangle(1, 16), "ellipse:2,0.5,1", 0.7071067811794763)],
    ids=["wulff-lq1.2", "wulff-ellipse", "rect-1-16"])
def test_erosion_near_an_event_is_the_hull_dual(poly, gauge, r):
    norm = MinkowskiNorm.parse(gauge)
    assert poly.erode(norm, r) is not None
    _assert_erosion_is_the_hull_dual(poly, norm, r)


@settings(max_examples=60, deadline=None)
@given(st.one_of(hull_polygons(), wulff_polygons), gauges,
       st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
def test_translation_invariance(poly, norm, shift):
    # area, R_F and h_F do not depend on where the polygon sits; 3e-14 is
    # about 4x the largest change measured on 1,200 such draws (7.9e-15),
    # and a shoelace summed in absolute coordinates misses it (1.5e-12)
    moved = ConvexPolygon(poly.vertices + np.array(shift), "moved")
    assert moved.area == pytest.approx(poly.area, rel=3e-14)
    assert moved.inradius_F(norm)[0] == pytest.approx(poly.inradius_F(norm)[0],
                                                      rel=3e-14)
    assert cheeger_estimate(moved, norm).h_est == pytest.approx(
        cheeger_estimate(poly, norm).h_est, rel=3e-14)


@settings(max_examples=60, deadline=None)
@given(domains, gauges)
def test_cheeger_root_is_brentq(poly, norm):
    r_star = cheeger_estimate(poly, norm).r_star
    assert r_star == pytest.approx(cheeger_radius_brentq(poly, norm),
                                   rel=1e-12)
    area = poly.erode(norm, r_star).area
    assert abs(area - norm.wulff_area() * r_star**2) <= 1e-12 * poly.area


@st.composite
def vertex_chains(draw):
    """Vertices, each followed by a chain of steps near the tolerance 1e-3,
    and maybe a last vertex within about that of the first."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        q = np.array(draw(st.tuples(coord, coord)))
        out.append(q)
        for _ in range(draw(st.integers(0, 4))):
            ang = draw(st.floats(0.0, 2.0 * math.pi))
            q = q + draw(st.floats(0.2e-3, 1.5e-3)) * np.array(
                [math.cos(ang), math.sin(ang)])
            out.append(q)
    if draw(st.booleans()):
        out.append(out[0] + draw(st.floats(0.0, 1.5e-3)) * np.array([1.0, -1.0]))
    return np.array(out)


@settings(max_examples=300, deadline=None)
@given(vertex_chains())
# two closing drops: the last vertex the walk keeps, then the one before
# it, lie within tol of the first
@example(np.array([[0.0, 8.4e-4], [0.0, 1.0], [0.0, 0.0], [0.0, 1.14e-3]]))
def test_dedup_is_the_loop(vertices):
    # the definition: a subsequence from v[0] whose neighbours lie farther
    # than tol apart, and every dropped vertex within tol of the last one
    # kept before it; the exceptions, the closing drops, are kept by the
    # walk and dropped for lying within tol of v[0] (the vertices after
    # each lie within tol of it).  The first and last kept lie farther
    # than tol apart too
    tol = 1e-3

    def dist(a, b):
        return np.abs(a - b).max()

    out = _dedup_ccw(vertices, tol)
    kept, i = [], 0
    for v in out:  # the index of each kept vertex, matched in order
        while not np.array_equal(vertices[i], v):
            i += 1
        kept.append(i)
        i += 1
    assert kept[0] == 0
    for a, b in zip(kept, kept[1:]):
        assert dist(vertices[a], vertices[b]) > tol
    anchor = 0  # the last vertex the walk kept before j
    for j in range(1, len(vertices)):
        if j in kept:
            anchor = j
        elif dist(vertices[j], vertices[anchor]) > tol:
            assert j > kept[-1]
            assert dist(vertices[j], vertices[0]) <= tol
            anchor = j
    if len(kept) > 1:
        assert dist(out[0], out[-1]) > tol


@settings(max_examples=40, deadline=None)
@given(domains, gauges)
def test_distance_field_is_the_line_formula(poly, norm):
    xmin, xmax, ymin, ymax = poly.bounding_box
    h = min(xmax - xmin, ymax - ymin) / 48.0
    try:
        df = distance_field(poly, norm, build_grid(poly, h))
    except CoarseGridError:  # a sliver whose inner rows thin out
        df = distance_field(poly, norm, build_grid(poly, 0.5 * h))
    pts = np.stack(np.meshgrid(df.x, df.y, indexing="ij"), axis=-1)[df.mask]
    exact = distance_to_boundary_F(poly, norm, pts)
    scale = max(poly.diameter, 1.0)
    assert df.values[df.mask] == pytest.approx(exact, rel=1e-12,
                                               abs=1e-14 * scale)
    r_f, _ = poly.inradius_F(norm)
    assert df.inradius <= r_f * (1.0 + 1e-9)


# -- the grid mask ------------------------------------------------------------
# build_grid decides most nodes from per-column intervals; its mask must be
# exactly the per-node clearance test on every node of the bounding box.


def _clearance_mask(poly: ConvexPolygon, grid) -> np.ndarray:
    nodes = np.stack(np.meshgrid(grid.x, grid.y, indexing="ij"),
                     axis=-1).reshape(-1, 2)
    thr = 0.25 * (grid.hx + grid.hy)
    return (poly.clearance(nodes) > thr).reshape(grid.mask.shape)


def _turned(poly: ConvexPolygon, theta: float, shift=(0.0, 0.0)):
    c, s = math.cos(theta), math.sin(theta)
    v = poly.vertices @ np.array([[c, s], [-s, c]]) + np.asarray(shift)
    return ConvexPolygon(v, f"{poly.provenance}~turn")


# a quarter turn plus nothing or a tiny angle: edges with |n_y| near 1e-17
tiny_turns = st.builds(
    lambda quarter, tiny: quarter * math.pi / 2.0 + tiny,
    st.integers(0, 3),
    st.one_of(st.just(0.0),
              st.builds(lambda sign, e: sign * 10.0 ** e,
                        st.sampled_from([-1.0, 1.0]), st.floats(-17.0, -6.0))))

mask_domains = st.builds(
    _turned,
    st.one_of(hull_polygons(), thin_rectangles, slivers,
              st.integers(3, 64).map(ConvexPolygon.regular), wulff_polygons),
    tiny_turns,
    st.tuples(st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))


@settings(max_examples=200, deadline=None)
@given(mask_domains, st.floats(1.0, 64.0))
def test_grid_mask_is_the_clearance_test(poly, cells):
    # coarse spacings hit the 4-cell floor on the short side, so hx != hy
    xmin, xmax, ymin, ymax = poly.bounding_box
    grid = build_grid(poly, min(xmax - xmin, ymax - ymin) / cells, min_axis=0)
    assert np.array_equal(grid.mask, _clearance_mask(poly, grid))


def _counting_clearance(monkeypatch) -> list[int]:
    """Patch ConvexPolygon.clearance to record how many points it receives."""
    counts: list[int] = []
    clearance = ConvexPolygon.clearance

    def counted(self, points):
        counts.append(len(points))
        return clearance(self, points)

    monkeypatch.setattr(ConvexPolygon, "clearance", counted)
    return counts


@pytest.mark.parametrize("theta", [0.0, math.pi / 2.0, math.pi, 1e-15])
@pytest.mark.parametrize("a,k", [(1.5, 0.5), (0.5, 1.5)])
def test_grid_mask_on_ties(monkeypatch, a, k, theta):
    # at h = 1 both axes hit the 4-cell floor: hx = 3 hy (or hy = 3 hx),
    # so the threshold 0.25 (hx + hy) equals the short spacing and the
    # second row (or column) sits exactly on it: the per-node formula
    # decides those nodes
    poly = _turned(ConvexPolygon.rectangle(a, k), theta)
    counts = _counting_clearance(monkeypatch)
    grid = build_grid(poly, 1.0, min_axis=0)
    assert 0 < sum(counts) <= 2 * (grid.nx + grid.ny)
    assert np.array_equal(grid.mask, _clearance_mask(poly, grid))
    assert grid.mask.sum() == 3


# the last is the benchmark's fine_oracle grid, 257 x 4097
@pytest.mark.parametrize("spec,h", [("rect:1,1", 1.0 / 64.0),
                                    ("wulff:1,512", 1.0 / 64.0),
                                    ("rect:1,16", 1.0 / 64.0),
                                    ("rect:1,16", 1.0 / 128.0)],
                         ids=["rect:1,1", "wulff:1,512", "rect:1,16",
                              "rect:1,16-h128"])
def test_grid_mask_on_every_hierarchy_level(spec, h):
    poly = parse_domain(spec, norm=MinkowskiNorm.lq(2))
    grids = _grid_hierarchy(poly, build_grid(poly, h))
    assert len(grids) >= 2
    for grid in grids:
        assert np.array_equal(grid.mask, _clearance_mask(poly, grid))


@pytest.mark.parametrize("spec", ["rect:1,16", "wulff:1,512", "regular:6,1"])
def test_build_grid_cost(monkeypatch, spec):
    # the mask costs O(columns x edges + nodes), with no whole-box
    # point array: clearance sees at most a few nodes per column and row
    poly = parse_domain(spec, norm=MinkowskiNorm.lq(2))
    counts = _counting_clearance(monkeypatch)
    grid = build_grid(poly, 1.0 / 128.0)
    assert sum(counts) <= 2 * (grid.nx + grid.ny), sum(counts)


def test_build_grid_peak_memory():
    # in units of one float field of the grid: the bool mask is 0.125,
    # and the index runs and undecided nodes are column-sized (0.134
    # measured; no whole-box temporary)
    poly = ConvexPolygon.rectangle(1, 16)
    grid = build_grid(poly, 1.0 / 128.0)  # also fills the cached edge data
    field = grid.mask.size * 8
    tracemalloc.start()
    try:
        build_grid(poly, 1.0 / 128.0)
        peak = tracemalloc.get_traced_memory()[1] / field
    finally:
        tracemalloc.stop()
    assert peak <= 0.15, peak
