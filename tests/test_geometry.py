"""Polygon arithmetic, erosion, rolling bodies, and the distance field."""

import math
import warnings

import numpy as np
import pytest

from anisospec.geometry import (ConvexPolygon, GeometryError, build_grid,
                                distance_field, parse_domain, wulff_domain)
from anisospec.harness import slab_sweep
from anisospec.norms import MinkowskiNorm, wulff_polygon
from oracles import distance_to_boundary_F

LQ2 = MinkowskiNorm.lq(2)
LQ4 = MinkowskiNorm.lq(4)
ELL = MinkowskiNorm.ellipse(4, 0, 1)

CATALOG_DOMAINS = [
    ConvexPolygon.rectangle(1, 1),
    ConvexPolygon.rectangle(1, 4),
    ConvexPolygon.regular(6, 1.0),
]
CATALOG_NORMS = [LQ2, LQ4, ELL]


def minkowski_sum(poly_a: np.ndarray, poly_b: np.ndarray) -> np.ndarray:
    """Edge-merge Minkowski sum of two convex CCW polygons (test oracle)."""

    def edges(v):
        return np.roll(v, -1, axis=0) - v

    def start(v):  # lowest-then-leftmost vertex
        i = np.lexsort((v[:, 0], v[:, 1]))[0]
        return np.roll(v, -i, axis=0)

    a, b = start(poly_a), start(poly_b)
    ea, eb = edges(a), edges(b)
    ang_a = np.arctan2(ea[:, 1], ea[:, 0])
    ang_b = np.arctan2(eb[:, 1], eb[:, 0])
    merged = []
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j >= len(eb) or (i < len(ea) and _ang_le(ang_a[i], ang_b[j])):
            merged.append(ea[i])
            i += 1
        else:
            merged.append(eb[j])
            j += 1
    verts = a[0] + b[0] + np.concatenate([[np.zeros(2)],
                                          np.cumsum(merged, axis=0)[:-1]])
    return verts


def _ang_le(x, y):
    def key(t):  # edge angle measured CCW from the x-axis, starting at 0
        return t % (2.0 * math.pi)

    return key(x) <= key(y)


def shoelace(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class TestPolygonBasics:
    def test_rectangle(self):
        r = ConvexPolygon.rectangle(1, 1)
        assert r.area == pytest.approx(4.0)
        assert ConvexPolygon.rectangle(1, 4).area == pytest.approx(16.0)
        e = np.roll(r.vertices, -1, axis=0) - r.vertices
        e2 = np.roll(e, -1, axis=0)
        cross = e[:, 0] * e2[:, 1] - e[:, 1] * e2[:, 0]
        assert np.all(cross > 0)

    def test_triangle_area(self):
        t = parse_domain("poly:0,0;1,0;0,1")
        assert t.area == pytest.approx(0.5)

    def test_cw_input_rejected_or_fixed(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([[0, 0], [0, 1], [1, 0]], float))
        # the parser flips clockwise input instead
        assert parse_domain("poly:0,0;0,1;1,0").area == pytest.approx(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0]], float))
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([[0, 0], [0, 0], [1, 0]], float))
        with pytest.raises(GeometryError):
            ConvexPolygon(np.empty((0, 2)))
        with pytest.raises(GeometryError):
            ConvexPolygon.rectangle(-1, 1)

    def test_dedup(self):
        v = np.array([[0, 0], [1, 0], [1, 0 + 1e-14], [1, 1], [0, 1]], float)
        p = ConvexPolygon(v)
        assert len(p.vertices) == 4

    def test_diameter(self):
        assert ConvexPolygon.rectangle(1, 1).diameter == pytest.approx(
            2 * math.sqrt(2))

    def test_domain_grammar(self):
        assert parse_domain("rect:1,4").area == pytest.approx(16.0)
        hexa = parse_domain("regular:6,1")
        assert len(hexa.vertices) == 6
        w = parse_domain("wulff:1,256", norm=LQ2)
        assert w.area == pytest.approx(math.pi, abs=1e-3)
        with pytest.raises(GeometryError):
            parse_domain("wulff:1,256")  # needs the gauge
        with pytest.raises(GeometryError):
            parse_domain("blob:1")
        with pytest.raises(GeometryError):
            parse_domain("rect:1")

    @pytest.mark.parametrize("spec", ["rect:inf,1", "rect:1,nan",
                                      "regular:3,inf", "wulff:inf,64",
                                      "wulff:nan,64", "poly:0,0;1,0;inf,1",
                                      "poly:0,0;1,0;0,nan"])
    def test_non_finite_rejected(self, spec):
        # rejected up front, before any arithmetic on it can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="finite"):
                parse_domain(spec, norm=LQ2)


class TestPerimeter:
    def test_square_euclidean(self):
        assert ConvexPolygon.rectangle(1, 1).perimeter_F(LQ2) == pytest.approx(8.0)

    def test_rect_ellipse_closed_form(self):
        # edge sum: vertical edges weigh F(e1)=2, horizontal F(e2)=1
        k = 3.0
        per = ConvexPolygon.rectangle(1, k).perimeter_F(ELL)
        assert per == pytest.approx(4 * k * 2 + 4 * 1)

    def test_wulff_isoperimetric_equality(self):
        w = wulff_domain(LQ2, 1.0, 512)
        assert w.perimeter_F(LQ2) == pytest.approx(2 * math.pi, abs=1e-2)

    def test_isoperimetric_inequality_catalog(self):
        for poly in CATALOG_DOMAINS:
            for norm in CATALOG_NORMS:
                per = poly.perimeter_F(norm)
                bound = 2.0 * math.sqrt(norm.wulff_area() * poly.area)
                assert per >= bound * (1 - 1e-12)

    def test_wulff_isoperimetric_near_equality(self):
        for norm in CATALOG_NORMS:
            w = wulff_domain(norm, 1.0, 512)
            per = w.perimeter_F(norm)
            bound = 2.0 * math.sqrt(norm.wulff_area() * w.area)
            assert per >= bound
            assert per <= bound * (1 + 1e-2)

    def test_perimeter_area_inradius_bound(self):
        for poly in CATALOG_DOMAINS:
            for norm in CATALOG_NORMS:
                r_f, _ = poly.inradius_F(norm)
                assert poly.perimeter_F(norm) / poly.area <= \
                    2.0 / r_f * (1 + 1e-12)


class TestInradius:
    def test_square(self):
        r, c = ConvexPolygon.rectangle(1, 1).inradius_F(LQ2)
        assert r == pytest.approx(1.0, abs=1e-10)
        assert c == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_rect_ellipse(self):
        r, _ = ConvexPolygon.rectangle(1, 4).inradius_F(ELL)
        assert r == pytest.approx(0.5, abs=1e-10)

    def test_wulff(self):
        # inscribed polygons undershoot by the edge sagitta, largest where
        # the vertex spacing is widest (the flat ends of the ellipse)
        for norm in CATALOG_NORMS:
            w = wulff_domain(norm, 1.0, 512)
            r, c = w.inradius_F(norm)
            assert r == pytest.approx(1.0, abs=1e-3)
            assert r <= 1.0 + 1e-12
            assert np.hypot(*c) < 1e-6


class TestRectRatioLimit:
    def test_limit_matches_perimeter_ratio(self):
        # P_F / area on ]-1,1[ x ]-k,k[ tends to 1 / R_F = F(e1)
        for norm in CATALOG_NORMS:
            r_f, _ = ConvexPolygon.rectangle(1.0, 1.0).inradius_F(norm)
            target = float(norm(np.array([1.0, 0.0])))
            assert 1.0 / r_f == pytest.approx(target, rel=1e-9)
            k = 512.0
            poly = ConvexPolygon.rectangle(1.0, k)
            ratio = poly.perimeter_F(norm) / poly.area
            assert ratio == pytest.approx(target, rel=4 / k)

    def test_warns_when_unaligned(self):
        # an unaligned gauge has R_F < F°(e1), so the limit assumption
        # of the rectangle sweep fails and it warns
        rotated = MinkowskiNorm.ellipse(2, 0.5, 1)
        r_f, _ = ConvexPolygon.rectangle(1.0, 4.0).inradius_F(rotated)
        assert r_f < float(rotated.polar_eval(np.array([1.0, 0.0]))) - 1e-3
        with pytest.warns(UserWarning):
            slab_sweep(rotated, 2.0, [4], h=1.0 / 16.0)


class TestErode:
    def test_square_euclidean(self):
        e = ConvexPolygon.rectangle(1, 1).erode(LQ2, 0.5)
        assert sorted(map(tuple, np.round(e.vertices, 12))) == [
            (-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5)]

    def test_square_ellipse_offsets(self):
        # vertical planes shift by r*F(e1)=2r, horizontal by r*F(e2)=r
        e = ConvexPolygon.rectangle(1, 1).erode(ELL, 0.4)
        xs = sorted(set(np.round(e.vertices[:, 0], 12)))
        ys = sorted(set(np.round(e.vertices[:, 1], 12)))
        assert xs == pytest.approx([-0.2, 0.2])
        assert ys == pytest.approx([-0.6, 0.6])

    def test_empty_at_and_beyond_inradius(self):
        sq = ConvexPolygon.rectangle(1, 1)
        assert sq.erode(ELL, 0.5) is None
        assert sq.erode(LQ2, 1.0) is None
        assert sq.erode(LQ2, 1.7) is None

    def test_zero_radius_identity(self):
        sq = ConvexPolygon.rectangle(1, 1)
        assert sq.erode(LQ2, 0.0) is sq

    def test_negative_radius(self):
        with pytest.raises(GeometryError):
            ConvexPolygon.rectangle(1, 1).erode(LQ2, -0.1)

    def test_monotone_inclusion(self):
        hexa = ConvexPolygon.regular(6, 1.0)
        for norm in CATALOG_NORMS:
            radii = np.linspace(0.05, 0.3, 4)
            polys = [hexa.erode(norm, float(r)) for r in radii]
            for small_r, big_r in zip(polys, polys[1:]):
                assert np.all(small_r.clearance(big_r.vertices) > -1e-10)

    def test_wulff_erosion_scales(self):
        w = wulff_domain(LQ4, 1.0, 256)
        e = w.erode(LQ4, 0.25)
        # inner parallel body of a Wulff shape is the scaled Wulff shape
        assert e.area == pytest.approx(0.75**2 * w.area, rel=2e-3)


class TestRolling:
    def test_zero_radius(self):
        sq = ConvexPolygon.rectangle(1, 1)
        area, per = sq.rolling_body(LQ2, 0.0)
        assert area == pytest.approx(4.0)
        assert per == pytest.approx(8.0)

    def test_square_half(self):
        sq = ConvexPolygon.rectangle(1, 1)
        area, per = sq.rolling_body(LQ2, 0.5)
        assert area == pytest.approx(1 + 0.5 * 4 + 0.25 * math.pi, rel=1e-12)
        assert per == pytest.approx(4 + math.pi, rel=1e-12)

    def test_wulff_invariance(self):
        # rolling a Wulff shape by itself returns the shape
        for norm in CATALOG_NORMS:
            w = wulff_domain(norm, 1.0, 512)
            for r in (0.25, 0.5, 0.75):
                area, per = w.rolling_body(norm, r)
                assert area == pytest.approx(w.area, rel=1e-4)
                assert per == pytest.approx(w.perimeter_F(norm), rel=1e-4)

    def test_empty_erosion_raises(self):
        with pytest.raises(GeometryError):
            ConvexPolygon.rectangle(1, 1).rolling_body(ELL, 0.5)

    @pytest.mark.parametrize("norm", CATALOG_NORMS)
    @pytest.mark.parametrize("r", [0.15, 0.4])
    def test_against_minkowski_sum_oracle(self, norm, r):
        hexa = ConvexPolygon.regular(6, 1.0)
        eroded = hexa.erode(norm, r)
        ball = wulff_polygon(norm, r, n=4096)
        summed = minkowski_sum(eroded.vertices, ball)
        area_o = shoelace(summed)
        k_r = ConvexPolygon(summed)
        per_o = k_r.perimeter_F(norm)
        area, per = hexa.rolling_body(norm, r)
        assert area == pytest.approx(area_o, rel=1e-4)
        assert per == pytest.approx(per_o, rel=1e-4)


class TestDistanceField:
    def test_rect_euclidean(self):
        poly = ConvexPolygon.rectangle(1, 4)
        df = distance_field(poly, LQ2, build_grid(poly, 0.05))
        assert df.inradius == pytest.approx(1.0, abs=1e-9)
        assert abs(df.argmax[0]) < 1e-9

    def test_rect_ellipse(self):
        poly = ConvexPolygon.rectangle(1, 4)
        df = distance_field(poly, ELL, build_grid(poly, 0.05))
        assert df.inradius == pytest.approx(0.5, abs=1e-9)

    def test_wulff_center(self):
        w = wulff_domain(LQ2, 1.0, 256)
        df = distance_field(w, LQ2, build_grid(w, 0.02))
        assert df.inradius == pytest.approx(1.0, abs=3e-3)
        assert np.hypot(*df.argmax) < 0.03

    def test_range_and_boundary_decay(self):
        poly = ConvexPolygon.regular(6, 1.0)
        df = distance_field(poly, LQ4, build_grid(poly, 0.02))
        vals = df.values[df.mask]
        assert np.all(vals >= 0)
        assert np.all(vals <= df.inradius + 1e-12)
        # nodes adjacent to the zero ring carry O(h)-level distances
        m = df.mask
        collar = m & ~(np.roll(m, 1, 0) & np.roll(m, -1, 0)
                       & np.roll(m, 1, 1) & np.roll(m, -1, 1))
        bpolar = 2.0 ** 0.25  # max of F° = lq:4/3 on the Euclidean unit circle
        assert df.values[collar].max() <= 3.0 * df.h * bpolar

    def test_matches_exact_line_formula(self):
        # interior nodes of a convex polygon: distance = min over edge lines
        poly = ConvexPolygon.regular(6, 1.0)
        for norm in CATALOG_NORMS:
            df = distance_field(poly, norm, build_grid(poly, 0.05))
            pts = np.stack(np.meshgrid(df.x, df.y, indexing="ij"), axis=-1)
            exact = distance_to_boundary_F(poly, norm, pts[df.mask])
            assert df.values[df.mask] == pytest.approx(exact, abs=1e-8)

    def test_eikonal(self):
        for poly, norm in ((ConvexPolygon.rectangle(1, 1), LQ2),
                           (ConvexPolygon.regular(6, 1.0), LQ4)):
            grid = build_grid(poly, poly.diameter / 96)
            df = distance_field(poly, norm, grid)
            h = df.h
            v = df.values
            gx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * h)
            gy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * h)
            fg = norm.value2(gx, gy)
            # the ridge, where the two nearest edge lines are within 2h
            # and the gradient of the distance jumps, from the exact
            # per-edge line distances (c_e - x.n_e) / F(n_e)
            verts = poly.vertices
            e = np.roll(verts, -1, axis=0) - verts
            normals = np.stack([e[:, 1], -e[:, 0]], axis=-1)
            normals /= np.hypot(*normals.T)[:, None]
            offsets = (normals * verts).sum(axis=1)
            pts = np.stack(np.meshgrid(df.x, df.y, indexing="ij"), axis=-1)
            lines = np.sort((offsets - pts @ normals.T)
                            / np.asarray(norm(normals)), axis=-1)
            ridge = lines[..., 1] - lines[..., 0] <= 2.0 * h
            m = df.mask
            ok = (m[1:-1, 1:-1] & m[2:, 1:-1] & m[:-2, 1:-1] & m[1:-1, 2:]
                  & m[1:-1, :-2] & ~ridge[1:-1, 1:-1])
            assert ok.sum() > 100
            assert np.abs(fg[ok] - 1.0).max() <= 5 * h

    def test_midpoint_concavity(self):
        poly = ConvexPolygon.regular(6, 1.0)
        df = distance_field(poly, ELL, build_grid(poly, 0.02))
        rng = np.random.default_rng(4)
        nodes = np.argwhere(df.mask)
        checked = 0
        while checked < 200:
            i, j = rng.integers(0, len(nodes), 2)
            a, b = nodes[i], nodes[j]
            mid = (a + b) // 2
            if not df.mask[tuple(mid)]:
                continue
            lhs = df.values[tuple(mid)]
            rhs = 0.5 * (df.values[tuple(a)] + df.values[tuple(b)])
            assert lhs >= rhs - df.h
            checked += 1

    def test_mask_strictly_inside(self):
        poly = ConvexPolygon.regular(6, 1.0)
        df = distance_field(poly, LQ2, build_grid(poly, 0.03))
        pts = np.stack(np.meshgrid(df.x, df.y, indexing="ij"), axis=-1)
        assert np.all(poly.clearance(pts[df.mask]) > 0.0)
