"""Gauge families: closed forms against independent numeric oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisospec.geometry import ConvexPolygon
from anisospec.harness import slab_sweep
from anisospec.norms import GaugeError, MinkowskiNorm, pi_p, wulff_polygon
from oracles import pi_p_quadrature

LQ2 = MinkowskiNorm.lq(2)
LQ4 = MinkowskiNorm.lq(4)
ELL = MinkowskiNorm.ellipse(4, 0, 1)
FAMILIES = [LQ2, LQ4, MinkowskiNorm.lq(1.5), ELL, MinkowskiNorm.ellipse(2, 0.5, 1)]


def grad(norm, xi):
    """grad F = W / F from the solver kernel ``value_wgrad2``, F = sqrt F^2."""
    xi = np.asarray(xi, float)
    f2, w1, w2 = norm.value_wgrad2(xi[..., 0], xi[..., 1])
    return np.stack([w1, w2], axis=-1) / np.sqrt(f2)[..., None]


def lq_wgrad2_every_power(q, gx, gy):
    """The lq (F^2, W1, W2) out of place, with every power of r taken,
    zeros included: the reference for ``_lq``'s skip of r = 0."""
    ax, ay = np.abs(gx), np.abs(gy)
    y_larger = ax < ay
    m = np.maximum(ax, ay)
    with np.errstate(invalid="ignore"):
        r = np.fmax(np.minimum(ax, ay) / m, 0.0)
    big = np.power(r, q) + 1.0
    u = np.power(big, 1.0 / q)
    f = m * u
    w_max = u * f / big
    w_min = np.power(r, q - 1.0) * w_max
    w1 = np.copysign(np.where(y_larger, w_min, w_max), gx)
    w2 = np.copysign(np.where(y_larger, w_max, w_min), gy)
    return f * f, w1, w2


def polar_sup_oracle(norm, eta, n=20000):
    """sup <xi, eta>/F(xi) by dense sampling of the unit circle + refinement."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    rays = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    vals = rays @ np.asarray(eta, float) / np.asarray(norm(rays))
    i = int(np.argmax(vals))
    lo, hi = theta[i] - 2 * np.pi / n, theta[i] + 2 * np.pi / n

    def f(t):
        ray = np.array([math.cos(t), math.sin(t)])
        return -float(np.dot(ray, eta)) / float(norm(ray))

    from scipy.optimize import minimize_scalar

    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return -res.fun


class TestEval:
    def test_euclidean(self):
        assert LQ2((3, 4)) == pytest.approx(5.0, abs=1e-15)

    def test_lq4(self):
        assert LQ4((1, 1)) == pytest.approx(2.0 ** 0.25, rel=1e-14)

    def test_ellipse_axis(self):
        assert ELL((1, 0)) == pytest.approx(2.0, abs=1e-15)

    def test_zero(self):
        for norm in FAMILIES:
            assert norm((0.0, 0.0)) == 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 2))
        for norm in FAMILIES:
            batch = np.asarray(norm(pts))
            single = [norm(p) for p in pts]
            assert batch == pytest.approx(single, rel=1e-14)

    @given(st.floats(-50, 50), st.floats(-50, 50),
           st.floats(0.01, 100))
    @settings(max_examples=60, deadline=None)
    def test_even_and_homogeneous(self, x, y, t):
        xi = np.array([x, y])
        for norm in (LQ4, ELL):
            f = norm(xi)
            assert norm(-xi) == pytest.approx(f, rel=1e-12, abs=1e-12)
            assert norm(t * xi) == pytest.approx(t * f, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("q", [1.01, 1.2, 1.5, 2.0, 3.0, 4.0, 7.5, 8.0])
    def test_lq_value_bitwise_two_power_formula(self, q):
        # value2 raises only the smaller ratio to q; the reference raises
        # both, and the larger one, ax/m or ay/m, is exactly 1
        rng = np.random.default_rng(int(100 * q))
        tiny = np.finfo(float).tiny
        x = np.concatenate([
            rng.normal(size=4000) * 10.0 ** rng.uniform(-8, 8, 4000),
            rng.normal(size=500) * tiny * rng.uniform(1e-10, 1, 500),
            np.zeros(300), [0.0, -0.0, 5e-324, -5e-324, 1.0]])
        y = np.concatenate([
            rng.normal(size=4000) * 10.0 ** rng.uniform(-8, 8, 4000),
            x[4000:4500] * rng.choice([1.0, -1.0, 0.5], 500),
            rng.normal(size=300), [0.0, 5e-324, 0.0, -5e-324, -1.0]])
        ties = rng.normal(size=500)
        x = np.concatenate([x, ties, -ties])
        y = np.concatenate([y, ties, ties])
        ax, ay = np.abs(x), np.abs(y)
        m = np.maximum(ax, ay)
        with np.errstate(invalid="ignore", divide="ignore"):
            ref = m * np.power(np.power(ax / m, q) + np.power(ay / m, q),
                               1.0 / q)
        ref = np.where(m == 0.0, 0.0, ref)
        got = MinkowskiNorm.lq(q).value2(x, y)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_lq_value_peak_memory(self, q):
        # in units of one float field: the in-place formula holds four
        # fields and a flag array at once; out of place it peaked at 5.1
        rng = np.random.default_rng(7)
        gx, gy = rng.normal(size=(2, 257, 4097))
        norm = MinkowskiNorm.lq(q)
        tracemalloc.start()
        try:
            norm.value2(gx, gy)
            peak = tracemalloc.get_traced_memory()[1] / gx.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 4.5, peak

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (1,), (5, 1)])
    def test_planar_input_only(self, shape):
        with pytest.raises(GaugeError):
            LQ4(np.ones(shape))


class TestGrad:
    def test_euclidean_grad(self):
        assert grad(LQ2, (3, 4)) == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_grad_dual_unit(self):
        g = grad(LQ4, (1.0, 2.0))
        assert LQ4.polar_eval(g) == pytest.approx(1.0, abs=1e-12)

    def test_wgrad_finite_at_origin(self):
        zero = np.zeros(3)
        for norm in FAMILIES:
            f, w1, w2 = norm.value_wgrad2(zero, zero)
            assert np.all(f == 0.0) and np.all(w1 == 0.0) and np.all(w2 == 0.0)

    @pytest.mark.parametrize("q", [1.01, 1.2, 1.5, 3.0, 4.0, 8.0])
    def test_lq_wgrad_against_two_power_formula(self, q):
        # value_wgrad2 builds W from value2's own terms; the reference
        # raises |g_i| / F to the power q - 1 for each component
        rng = np.random.default_rng(int(100 * q) + 1)
        ties = rng.normal(size=300)
        x = np.concatenate([
            rng.normal(size=3000) * 10.0 ** rng.uniform(-8, 8, 3000),
            np.zeros(200), [0.0, -0.0, -0.0, 0.0, 3.0, -3.0], ties, -ties])
        y = np.concatenate([
            rng.normal(size=3000) * 10.0 ** rng.uniform(-8, 8, 3000),
            rng.normal(size=200), [0.0, 0.0, -0.0, -2.0, -0.0, 0.0],
            ties, ties])
        norm = MinkowskiNorm.lq(q)

        def reference(gx, gy):
            f = norm.value2(gx, gy)
            with np.errstate(invalid="ignore", divide="ignore"):
                w1 = np.sign(gx) * np.power(np.abs(gx) / f, q - 1.0) * f
                w2 = np.sign(gy) * np.power(np.abs(gy) / f, q - 1.0) * f
            zero = f == 0.0
            return np.where(zero, 0.0, w1), np.where(zero, 0.0, w2)

        inputs = [(x, y), (x[:3600].reshape(60, 60), y[:3600].reshape(60, 60))]
        # 0-d input: numpy scalars and 0-d arrays
        inputs += [(np.float64(a), np.float64(b))
                   for a, b in zip(x[::97], y[::97])]
        inputs += [(np.asarray(a), np.asarray(b))
                   for a, b in zip(x[-8:], y[-8:])]
        for gx, gy in inputs:
            f2, w1, w2 = norm.value_wgrad2(gx, gy)
            assert np.shape(f2) == np.shape(w1) == np.shape(w2) \
                == np.shape(gx)
            value = np.asarray(norm.value2(gx, gy))
            assert np.array_equal(np.asarray(f2).view(np.int64),
                                  (value * value).view(np.int64))
            f = np.sqrt(f2)
            for got, want in zip((w1, w2), reference(gx, gy)):
                assert np.all(np.abs(got - want) <= 1e-14 * f)

    @pytest.mark.parametrize("q", [1.01, 1.5, 3.0, 4.0, 8.0])
    def test_lq_wgrad_bitwise_at_zeros(self, q):
        # the powers of r skip r = 0 and change no bit: at g = 0 (either
        # sign of zero), on the axes and off them
        rng = np.random.default_rng(int(100 * q) + 7)
        v = rng.normal(size=400) * 10.0 ** rng.uniform(-8, 8, 400)
        zeros = np.array([0.0, -0.0] * 200)
        x = np.concatenate([zeros, zeros, v, v[::-1], [0.0, -0.0, 0.0, -0.0]])
        y = np.concatenate([v, zeros[::-1], zeros, v, [0.0, 0.0, -0.0, -0.0]])
        norm = MinkowskiNorm.lq(q)
        inputs = [(x, y), (x.reshape(-1, 4), y.reshape(-1, 4))]
        inputs += [(np.asarray(a), np.asarray(b)) for a, b in zip(x[::50],
                                                                   y[::50])]
        for gx, gy in inputs:
            got = norm.value_wgrad2(gx, gy)
            for a, b in zip(got, lq_wgrad2_every_power(q, gx, gy)):
                assert np.array_equal(np.asarray(a).view(np.int64),
                                      np.asarray(b).view(np.int64))

    @pytest.mark.parametrize("norm", [LQ2, ELL,
                                      MinkowskiNorm.ellipse(2, 0.5, 1)],
                             ids=["lq2", "ellipse-4-0-1", "ellipse-2-0.5-1"])
    def test_quadratic_square_is_value_squared(self, norm):
        # a quadratic gauge's F^2 = g . A g, with no square root, lies
        # within 4 ulp (4 eps, relative) of value2's F squared
        rng = np.random.default_rng(17)
        x = rng.normal(size=20000) * 10.0 ** rng.uniform(-8, 8, 20000)
        y = rng.normal(size=20000) * 10.0 ** rng.uniform(-8, 8, 20000)
        t = rng.normal(size=2000)
        x = np.concatenate([x, t, t, np.zeros(100), rng.normal(size=100)])
        y = np.concatenate([y, t, -t, rng.normal(size=100), np.zeros(100)])
        f2 = norm.value_wgrad2(x, y)[0]
        want = norm.value2(x, y) ** 2
        assert np.all(np.abs(f2 - want) <= 4.0 * np.finfo(float).eps * want)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_degree_zero_homogeneous(self, x, y):
        if abs(x) + abs(y) < 1e-3:
            return
        xi = np.array([x, y])
        for norm in (LQ4, ELL):
            assert grad(norm, 2 * xi) == pytest.approx(grad(norm, xi),
                                                       rel=1e-10)

    def test_euler_identity(self):
        rng = np.random.default_rng(3)
        for norm in FAMILIES:
            for xi in rng.normal(size=(40, 2)):
                if np.hypot(*xi) < 1e-6:
                    continue
                g = grad(norm, xi)
                assert float(np.dot(g, xi)) == pytest.approx(float(norm(xi)),
                                                             rel=1e-12)


class TestPolar:
    def test_lq4_value(self):
        assert LQ4.polar_eval((1, 1)) == pytest.approx(2.0 ** 0.75, rel=1e-14)

    def test_lq4_against_sup(self):
        assert LQ4.polar_eval((1, 1)) == pytest.approx(
            polar_sup_oracle(LQ4, (1, 1)), abs=1e-6)

    def test_euclidean_self_polar(self):
        assert LQ2.polar_eval((3, 4)) == pytest.approx(5.0, abs=1e-14)

    def test_ellipse_axis(self):
        assert ELL.polar_eval((1, 0)) == pytest.approx(0.5, abs=1e-14)
        assert ELL.polar_eval((1, 0)) == pytest.approx(
            polar_sup_oracle(ELL, (1, 0)), abs=1e-8)

    def test_sup_oracle_random_directions(self):
        rng = np.random.default_rng(11)
        for norm in FAMILIES:
            for eta in rng.normal(size=(4, 2)):
                assert norm.polar_eval(eta) == pytest.approx(
                    polar_sup_oracle(norm, eta), rel=1e-8)

    def test_gradient_duality(self):
        # F°(F_xi(xi)) = 1 and F(F°_xi(xi)) = 1 on 200 random inputs per family
        rng = np.random.default_rng(5)
        for norm in FAMILIES:
            polar = norm.polar()
            xi = rng.normal(size=(200, 2))
            xi = xi[np.hypot(xi[:, 0], xi[:, 1]) > 1e-6]
            a = np.asarray(polar(grad(norm, xi)))
            b = np.asarray(norm(grad(polar, xi)))
            assert np.max(np.abs(a - 1.0)) < 1e-9
            assert np.max(np.abs(b - 1.0)) < 1e-9

    def test_cauchy_schwarz_pairing(self):
        rng = np.random.default_rng(9)
        xi = rng.normal(size=(10_000, 2))
        eta = rng.normal(size=(10_000, 2))
        for norm in FAMILIES:
            lhs = np.abs(np.einsum("ij,ij->i", xi, eta))
            rhs = np.asarray(norm(xi)) * np.asarray(norm.polar()(eta))
            assert np.all(lhs <= rhs + 1e-12)

    def test_polar_involution(self):
        for norm in FAMILIES:
            back = norm.polar().polar()
            rng = np.random.default_rng(2)
            pts = rng.normal(size=(20, 2))
            assert np.asarray(back(pts)) == pytest.approx(
                np.asarray(norm(pts)), rel=1e-12)


class TestPiP:
    def test_p2_is_pi(self):
        assert pi_p(2.0) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
    def test_closed_form_vs_quadrature(self, p):
        cf, qd = pi_p(p), pi_p_quadrature(p)
        assert abs(cf - qd) <= 1e-8 * abs(cf)

    def test_quadrature_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        old_dps = mp.mp.dps
        mp.mp.dps = 30  # the endpoint singularity wants extra working digits
        try:
            for p in (1.5, 3.0):

                def integrand(u, p=p, mp=mp):
                    s = 1 - u**p
                    if s <= 0:
                        return mp.mpf(0)
                    return s ** (mp.mpf(-1) / p)

                val = 2 * (p - 1.0) ** (1.0 / p) * mp.quad(integrand, [0, 1])
                assert pi_p_quadrature(p) == pytest.approx(float(val),
                                                           rel=1e-10)
        finally:
            mp.mp.dps = old_dps

    def test_p15_frozen_value(self):
        # frozen from the quadrature of the defining integral
        assert pi_p(1.5) == pytest.approx(3.0469919990, abs=1e-9)

    def test_conjugate_symmetry(self):
        # the closed form is invariant under p -> p/(p-1)
        for p in (1.5, 2.5, 4.0):
            assert pi_p(p) == pytest.approx(pi_p(p / (p - 1.0)), rel=1e-13)

    def test_invalid_p(self):
        with pytest.raises(GaugeError):
            pi_p(1.0)


class TestWulff:
    def test_euclidean_area(self):
        wp = wulff_polygon(LQ2, 1.0, n=512)
        assert ConvexPolygon(wp).area == pytest.approx(math.pi, abs=1e-3)

    def test_ellipse_vertex_on_axis(self):
        wp = wulff_polygon(ELL, 1.0, n=64)
        assert wp[0] == pytest.approx([2.0, 0.0], abs=1e-14)

    def test_scaling(self):
        w1 = wulff_polygon(LQ4, 1.0, n=64)
        w2 = wulff_polygon(LQ4, 2.0, n=64)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-14)

    def test_vertices_on_level_set(self):
        for norm in FAMILIES:
            wp = wulff_polygon(norm, 1.5, n=128)
            assert wp.shape == (128, 2)
            vals = np.asarray(norm.polar()(wp))
            assert vals == pytest.approx(np.full(128, 1.5), rel=1e-12)

    def test_min_rays(self):
        with pytest.raises(GaugeError):
            wulff_polygon(LQ2, 1.0, n=8)

    @pytest.mark.parametrize("norm", FAMILIES)
    def test_area_closed_form_vs_quadrature(self, norm):
        # kappa = (1/2) integral of rho(theta)^2, rho = 1/F°(unit ray)
        from scipy.integrate import quad

        polar = norm.polar()

        def rho2(t):
            return 1.0 / float(polar((math.cos(t), math.sin(t)))) ** 2

        val, _ = quad(rho2, 0.0, 2.0 * math.pi, limit=200)
        assert norm.wulff_area() == pytest.approx(0.5 * val, rel=1e-9)


class TestSpecStrings:
    @pytest.mark.parametrize("bad", ["lq", "lq:1", "lq:abc", "ellipse:1,2",
                                     "ellipse:1,5,1", "disc:3", ""])
    def test_malformed(self, bad):
        with pytest.raises(GaugeError):
            MinkowskiNorm.parse(bad)

    @pytest.mark.parametrize("spec", ["lq:inf", "lq:-inf", "lq:nan",
                                      "ellipse:inf,0,1", "ellipse:1,inf,1",
                                      "ellipse:1,0,nan"])
    def test_non_finite_rejected(self, spec):
        # rejected up front, before any arithmetic on it can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GaugeError, match="finite"):
                MinkowskiNorm.parse(spec)


class TestAlignment:
    def test_rotated_ellipse_warns(self):
        # F(e1) F°(e1) = 1 exactly for an axis-aligned gauge
        rotated = MinkowskiNorm.ellipse(2, 0.5, 1)
        e1 = np.array([1.0, 0.0])
        assert float(rotated(e1)) * float(rotated.polar_eval(e1)) > 1 + 1e-3
        with pytest.warns(UserWarning):
            slab_sweep(rotated, 2.0, [1], h=1.0 / 16.0)
