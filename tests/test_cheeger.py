"""Cheeger bounds and the inner-parallel-set root solve against closed forms."""

import math

import pytest

from anisospec.cheeger import cheeger_estimate
from anisospec.geometry import ConvexPolygon, wulff_domain
from anisospec.norms import MinkowskiNorm

LQ2 = MinkowskiNorm.lq(2)
LQ4 = MinkowskiNorm.lq(4)
ELL = MinkowskiNorm.ellipse(4, 0, 1)


def rect_cheeger_euclid(a: float, k: float) -> float:
    """Closed form for ]-a,a[ x ]-k,k[: 1/r* with |erosion(r*)| = pi r*^2.

    4(a-r)(k-r) = pi r^2  =>  (4-pi) r^2 - 4(a+k) r + 4ak = 0.
    """
    s = a + k
    r = 2.0 * (s - math.sqrt(s * s - (4.0 - math.pi) * a * k)) / (4.0 - math.pi)
    return 1.0 / r


class TestBounds:
    def test_unit_square(self):
        res = cheeger_estimate(ConvexPolygon.rectangle(0.5, 0.5), LQ2)
        assert res.lower == pytest.approx(2.0, abs=1e-9)
        assert res.upper == pytest.approx(4.0, abs=1e-9)

    def test_long_rectangle(self):
        res = cheeger_estimate(ConvexPolygon.rectangle(1, 16), LQ2)
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(min(2.0, 68.0 / 64.0), abs=1e-9)

    def test_wulff(self):
        res = cheeger_estimate(wulff_domain(LQ2, 1.0, 512), LQ2)
        assert res.lower == pytest.approx(1.0, abs=1e-3)
        assert res.upper == pytest.approx(2.0, abs=1e-3)


class TestEstimate:
    def test_unit_square_closed_form(self):
        res = cheeger_estimate(ConvexPolygon.rectangle(0.5, 0.5), LQ2)
        assert res.h_est == pytest.approx(2.0 + math.sqrt(math.pi), rel=1e-12)
        assert res.r_star == pytest.approx(
            (2.0 - math.sqrt(math.pi)) / (4.0 - math.pi), abs=1e-12)

    @pytest.mark.parametrize("a,k", [(1.0, 1.0), (1.0, 4.0), (1.0, 16.0)])
    def test_rectangles_closed_form(self, a, k):
        res = cheeger_estimate(ConvexPolygon.rectangle(a, k), LQ2)
        assert res.h_est == pytest.approx(rect_cheeger_euclid(a, k), rel=1e-12)
        assert res.r_star == pytest.approx(1.0 / rect_cheeger_euclid(a, k),
                                           abs=1e-12)

    @pytest.mark.parametrize("poly", [ConvexPolygon.rectangle(1, 4),
                                      ConvexPolygon.regular(6, 1.0)],
                             ids=["rect1x4", "hexagon"])
    @pytest.mark.parametrize("norm", [LQ2, LQ4, ELL], ids=["lq2", "lq4", "ell"])
    def test_root_equation_and_rolling_body(self, poly, norm):
        # |erode(r*)| = kappa r*^2, and the rolling body at r* is the
        # Cheeger set: its perimeter/area ratio is 1/r* = h_est
        res = cheeger_estimate(poly, norm)
        r = res.r_star
        kappa = norm.wulff_area()
        assert poly.erode(norm, r).area == pytest.approx(kappa * r * r,
                                                         rel=1e-12)
        area, per = poly.rolling_body(norm, r)
        assert per / area == pytest.approx(res.h_est, rel=1e-12)

    def test_long_rectangle_brackets(self):
        res = cheeger_estimate(ConvexPolygon.rectangle(1, 16), LQ2)
        assert 1.0 < res.h_est <= 1.0625 + 1e-9

    @pytest.mark.parametrize("norm", [LQ2, LQ4, ELL])
    def test_wulff_flat_sweep(self, norm):
        w = wulff_domain(norm, 1.0, 256)
        res = cheeger_estimate(w, norm)
        assert res.h_est == pytest.approx(2.0, rel=5e-3)

    def test_sandwich_catalog(self):
        for poly in (ConvexPolygon.rectangle(1, 1),
                     ConvexPolygon.rectangle(1, 4),
                     ConvexPolygon.regular(6, 1.0)):
            for norm in (LQ2, LQ4, ELL):
                res = cheeger_estimate(poly, norm)
                assert res.lower <= res.h_est <= res.upper + 1e-9

    def test_faber_krahn_and_stability(self):
        for poly in (ConvexPolygon.rectangle(1, 1),
                     ConvexPolygon.regular(6, 1.0)):
            for norm in (LQ2, LQ4, ELL):
                res = cheeger_estimate(poly, norm)
                r_vol = math.sqrt(poly.area / norm.wulff_area())
                assert res.h_est >= 2.0 / r_vol * (1.0 - 1e-3)
                lhs = res.h_est - 2.0 / r_vol
                rhs = 2.0 * (1.0 / res.inradius - 1.0 / r_vol)
                assert lhs <= rhs + 1e-9

    def test_monotone_under_inclusion(self):
        vals = [cheeger_estimate(ConvexPolygon.rectangle(1, k), LQ2).h_est
                for k in (1, 2, 4)]
        assert vals[0] > vals[1] > vals[2]
