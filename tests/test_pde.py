"""Solver oracles, maximum-principle fields, and the comparison profile."""

import gc
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.fft import dstn, idstn
from scipy.special import jn_zeros

from anisospec import harness, pde
from anisospec.geometry import (CoarseGridError, ConvexPolygon, Grid,
                                parse_domain, wulff_domain)
from anisospec.norms import MinkowskiNorm, pi_p
from anisospec.pde import (ConvergenceError, GridField, build_grid,
                           efficiency_ratio, grad_energy, mass_bound_check,
                           p_function, phi_check, phi_profile, solve_eigen,
                           solve_torsion, _edge_energy, _grad_energy_with_grad,
                           _grid_hierarchy, _prolong, _tri_gradients,
                           _TorsionProblem)
from oracles import (edge_energy_per_family, prolong_map_coordinates,
                     radial_eigenvalue, wulff_torsion)

LQ2 = MinkowskiNorm.lq(2)
LQ4 = MinkowskiNorm.lq(4)
ELL = MinkowskiNorm.ellipse(4, 0, 1)

SQUARE = ConvexPolygon.rectangle(1, 1)
J01SQ = float(jn_zeros(0, 1)[0] ** 2)  # 5.783185962946785


def square_torsion_series(x=0.0, y=0.0, terms=40):
    """Fourier solution of -laplace v = 1 on ]-1,1[^2 (independent oracle)."""
    v = (1.0 - x * x) / 2.0
    for n in range(terms):
        k = 2 * n + 1
        v -= (16.0 / math.pi**3) * (-1.0) ** n / k**3 \
            * math.cosh(k * math.pi * y / 2.0) / math.cosh(k * math.pi / 2.0) \
            * math.cos(k * math.pi * x / 2.0)
    return v


def square_torsion_integral(terms=40):
    """integral of the series over the square, term by term."""
    total = 4.0 / 3.0
    for n in range(terms):
        k = 2 * n + 1
        total -= (256.0 / math.pi**5) / k**5 * math.tanh(k * math.pi / 2.0)
    return total


SQUARE_MV = square_torsion_series()          # 0.294685...
SQUARE_T = square_torsion_integral()         # 0.562282...


# -- reference energy-gradient kernels ----------------------------------------
# The energy-gradient kernel written out of place.  Off the quadratic path
# (p != 2) a quadratic gauge's F^2 and W are A g, then g . W; an lq gauge's
# W is the two-power gradient sign(g) (|g| / F)^(q-1) F.  The solver's
# kernel must reproduce the quadratic gauges' arithmetic bit for bit there.
# On the quadratic path (p = 2) the pin is the edge form of g . A g written
# out of place.


def _ref_pow(x, p):
    if p == 2.0:
        return x * x
    if p == 1.0:
        return x
    return np.power(x, p)


def _ref_value_wgrad2(norm, gx, gy):
    a = norm.quadratic_form()
    if a is not None:
        a11, a12, a22 = a
        w1 = a11 * gx + a12 * gy
        w2 = a12 * gx + a22 * gy
        return gx * w1 + gy * w2, w1, w2
    f = norm.value2(gx, gy)
    q = norm.q
    with np.errstate(invalid="ignore", divide="ignore"):
        w1 = np.sign(gx) * np.power(np.abs(gx) / f, q - 1.0) * f
        w2 = np.sign(gy) * np.power(np.abs(gy) / f, q - 1.0) * f
    zero = f == 0.0
    return f * f, np.where(zero, 0.0, w1), np.where(zero, 0.0, w2)


def _ref_fp_grad(norm, gx, gy, p, eps, wgrad2=_ref_value_wgrad2):
    s, w1, w2 = wgrad2(norm, gx, gy)
    r = np.sqrt(s + eps * eps)
    fe = np.divide(s, r + eps, out=np.zeros_like(s), where=(r + eps) > 0.0)
    fe1 = _ref_pow(fe, p - 1.0)
    fp = fe1 * fe
    with np.errstate(divide="ignore", invalid="ignore"):
        c = p * fe1 / r
    c = np.where(r > 0.0, c, 0.0)
    return fp, c * w1, c * w2


def _ref_edge_energy_with_grad(psi, grid, norm):
    """The edge form of g . A g (p = 2, eps = 0), out of place.

    Sum over x-, y- and anti-diagonal edges of c b D^2 with the weights
    cx = a11 hy/hx + a12, cy = a22 hx/hy + a12 and -a12, b = 1/2 on the
    box border, and 2 c b D onto each edge's head and off its tail, in the
    kernel's operation order.  The anti-diagonal term is kept at a12 = 0.
    """
    a = np.eye(2) if norm.family == "lq" else norm.A
    a11, a12, a22 = float(a[0, 0]), float(a[0, 1]), float(a[1, 1])
    r = grid.hy / grid.hx
    dx = psi[1:, :] - psi[:-1, :]
    dy = psi[:, 1:] - psi[:, :-1]
    dd = psi[1:, :-1] - psi[:-1, 1:]
    bx = np.ones_like(dx)
    bx[:, [0, -1]] = 0.5
    by = np.ones_like(dy)
    by[[0, -1], :] = 0.5
    bd = np.ones_like(dd)
    val = 0.0
    g = np.zeros_like(psi)
    for c, d, b, head, tail in (
            (a11 * r + a12, dx, bx, np.s_[1:, :], np.s_[:-1, :]),
            (a22 / r + a12, dy, by, np.s_[:, 1:], np.s_[:, :-1]),
            (-a12, dd, bd, np.s_[1:, :-1], np.s_[:-1, 1:])):
        val = val + c * float((d * d * b).sum())
        grad = d * (2.0 * c) * b
        g[head] = g[head] + grad
        g[tail] = g[tail] - grad
    return val, g


def _ref_grad_energy_with_grad(psi, grid, norm, p, eps,
                               wgrad2=_ref_value_wgrad2):
    gxl, gyl, gxu, gyu = _tri_gradients(psi, grid.hx, grid.hy)
    fpl, ax, ay = _ref_fp_grad(norm, gxl, gyl, p, eps, wgrad2)
    fpu, bx, by = _ref_fp_grad(norm, gxu, gyu, p, eps, wgrad2)
    w = 0.5 * grid.cell_area
    val = float(w * (fpl.sum() + fpu.sum()))
    cx = w / grid.hx
    cy = w / grid.hy
    g = np.zeros_like(psi)
    g[1:, :-1] += cx * ax
    g[:-1, :-1] -= cx * ax + cy * ay
    g[:-1, 1:] += cy * ay
    g[1:, 1:] += cx * bx + cy * by
    g[:-1, 1:] -= cx * bx
    g[1:, :-1] -= cy * by
    return val, g


def _seeded_field(grid, seed):
    """Random values on the free nodes, with a flat patch where grad = 0."""
    rng = np.random.default_rng(seed)
    psi = np.where(grid.mask, rng.standard_normal(grid.mask.shape), 0.0)
    free = np.argwhere(grid.mask)
    i, j = free[len(free) // 2]
    psi[i - 2:i + 3, j - 2:j + 3] = 0.5
    return psi


HEXAGON = ConvexPolygon.regular(6, 1.0)
KERNEL_NORMS = {"lq2": LQ2, "ellipse-4-0-1": ELL,
                "ellipse-2-0.5-1": MinkowskiNorm.ellipse(2, 0.5, 1),
                "lq4": LQ4}


class TestDot:
    @pytest.mark.parametrize("shape", [1, 7, 8, 9, 127, 128, 129,
                                       2**15 - 1, 2**15 + 1, 2**16 + 8,
                                       (257, 4097)])
    def test_dot_is_the_numpy_sum(self, shape):
        # the streamed pairwise sum has the bytes of float((x * y).sum()):
        # on values spread over many binades, with signed zeros and
        # subnormal products, and on products that are all -0.0
        rng = np.random.default_rng(31)
        x = rng.standard_normal(shape) * np.exp2(rng.integers(-60, 60, shape))
        y = rng.standard_normal(shape)
        x.flat[::5] = -0.0
        y.flat[1::7] = 5e-324
        x.flat[3::11] = 1e-300
        y.flat[3::11] = -1e-20  # a subnormal product
        cases = [(x, y), (np.full(shape, -0.0), np.ones(shape))]
        for a, b in cases:
            assert (np.float64(pde._dot(a, b)).tobytes()
                    == np.float64(float((a * b).sum())).tobytes())


class TestKernel:
    @pytest.mark.parametrize("name", ["lq2", "ellipse-4-0-1",
                                      "ellipse-2-0.5-1"])
    # each p with the eps its solves run at: 0 on the quadratic path only
    @pytest.mark.parametrize("eps,p", [(1e-3, 1.5), (0.0, 2.0), (1e-3, 3.0)])
    def test_quadratic_gauges_bitwise(self, name, p, eps):
        norm = KERNEL_NORMS[name]
        for seed, poly in enumerate((ConvexPolygon.rectangle(1, 2), HEXAGON)):
            grid = build_grid(poly, poly.diameter / 40)
            psi = _seeded_field(grid, seed)
            val, g = _grad_energy_with_grad(psi, grid, norm, p, eps)
            if p == 2.0:
                ref_val, ref_g = _ref_edge_energy_with_grad(psi, grid, norm)
            else:
                ref_val, ref_g = _ref_grad_energy_with_grad(psi, grid, norm,
                                                            p, eps)
            assert val == ref_val
            assert np.array_equal(g, ref_g)

    @pytest.mark.parametrize("name", ["lq2", "ellipse-4-0-1",
                                      "ellipse-2-0.5-1"])
    def test_quadratic_kernel_matches_general_formula(self, name):
        # the edge form agrees with F(g)^2 through value_wgrad2 per triangle:
        # on masked fields, on a field that does not vanish on the border,
        # and on a grid with hx far from hy
        norm = KERNEL_NORMS[name]
        cases = []
        for seed, poly in enumerate((ConvexPolygon.rectangle(1, 2), HEXAGON)):
            grid = build_grid(poly, poly.diameter / 40)
            cases.append((grid, _seeded_field(grid, seed)))
        rng = np.random.default_rng(5)
        unmasked = build_grid(HEXAGON, HEXAGON.diameter / 40)
        cases.append((unmasked, rng.standard_normal(unmasked.mask.shape)))
        x, y = np.arange(41) * 0.05, np.arange(27) * 0.08
        stretched = Grid(hx=0.05, hy=0.08, x=x, y=y,
                         mask=np.ones((41, 27), dtype=bool))
        cases.append((stretched, rng.standard_normal(stretched.mask.shape)))
        for grid, psi in cases:
            val, g = _grad_energy_with_grad(psi, grid, norm, 2.0, 0.0)
            ref_val, ref_g = _ref_grad_energy_with_grad(psi, grid, norm, 2.0,
                                                        0.0)
            assert val == pytest.approx(ref_val, rel=1e-13)
            assert np.abs(g - ref_g).max() <= 1e-13 * np.abs(ref_g).max()

    @pytest.mark.parametrize("name", ["lq2", "ellipse-4-0-1",
                                      "ellipse-2-0.5-1"])
    def test_quadratic_kernel_euler_identity(self, name):
        # the energy is a form of degree 2 in psi: psi . grad E = 2 E; and
        # the reported energy is the value the descent minimizes, bit for bit
        norm = KERNEL_NORMS[name]
        for seed, poly in enumerate((ConvexPolygon.rectangle(1, 2), HEXAGON)):
            grid = build_grid(poly, poly.diameter / 40)
            psi = _seeded_field(grid, seed)
            val, g = _grad_energy_with_grad(psi, grid, norm, 2.0, 0.0)
            assert val == pytest.approx(0.5 * float((psi * g).sum()),
                                        rel=1e-12)
            assert grad_energy(psi, grid, norm, 2.0) == val

    @pytest.mark.parametrize("name", ["lq2", "ellipse-4-0-1",
                                      "ellipse-2-0.5-1"])
    def test_quadratic_kernel_peak_memory(self, name):
        # the edge form holds one buffer for the differences, squared in
        # place, and once it is freed the gradient and blocks of rows: at
        # most 1.1 fields on the rect(1,16) grid at h = 1/128
        norm = KERNEL_NORMS[name]
        grid = build_grid(ConvexPolygon.rectangle(1, 16), 1.0 / 128.0)
        assert grid.mask.shape == (257, 4097)
        psi = _seeded_field(grid, 11)
        _grad_energy_with_grad(psi, grid, norm, 2.0, 0.0)  # warm any caches
        tracemalloc.start()
        try:
            _grad_energy_with_grad(psi, grid, norm, 2.0, 0.0)
            peak = tracemalloc.get_traced_memory()[1] / psi.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 1.1, peak

    @pytest.mark.parametrize("name", ["lq2", "ellipse-2-0.5-1"])
    def test_edge_kernel_buffers_bitwise(self, name):
        # the reused buffers change no bit of the energy or the gradient
        # against a fresh D and D^2 per edge family: on masked fields and
        # on fields that do not vanish on the border
        norm = KERNEL_NORMS[name]
        a = norm.quadratic_form()
        rng = np.random.default_rng(3)
        for poly in (wulff_domain(norm, 1.0, 64),
                     ConvexPolygon.rectangle(1, 3)):
            grid = build_grid(poly, 1.0 / 24.0)
            for psi in (_seeded_field(grid, 4),
                        rng.standard_normal(grid.mask.shape)):
                ref_g = np.zeros_like(psi)
                val, g = _edge_energy(psi, grid, a, grad=True)
                assert val == edge_energy_per_family(psi, grid, a, ref_g)
                assert g.tobytes() == ref_g.tobytes()
                assert _edge_energy(psi, grid, a) == val

    @pytest.mark.parametrize("name", ["lq4", "ellipse-4-0-1", "lq2"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_streamed_kernels_bitwise(self, name, p):
        # on rect(1,16) at h = 1/64 both kernels run several row blocks;
        # the value and the gradient's bytes are those of the unstreamed
        # reference formulas, on a masked field and on one that does not
        # vanish on the border.  lq:4 takes F^2 and W from the gauge, as
        # its two-power reference formula rounds differently
        norm = KERNEL_NORMS[name]
        wgrad2 = (_ref_value_wgrad2 if norm.quadratic_form()
                  else MinkowskiNorm.value_wgrad2)
        poly = ConvexPolygon.rectangle(1, 16)
        grid = build_grid(poly, 1.0 / 64.0)
        assert grid.mask.shape == (129, 2049)  # 9 edge and 8 triangle blocks
        eps = pde._eps_for(poly, norm, p)
        rng = np.random.default_rng(17)
        for psi in (_seeded_field(grid, 6),
                    rng.standard_normal(grid.mask.shape)):
            val, g = _grad_energy_with_grad(psi, grid, norm, p, eps)
            if eps == 0.0:
                ref_val, ref_g = _ref_edge_energy_with_grad(psi, grid, norm)
            else:
                ref_val, ref_g = _ref_grad_energy_with_grad(psi, grid, norm,
                                                            p, eps, wgrad2)
            assert val == ref_val
            assert g.tobytes() == ref_g.tobytes()

    def test_nonlinear_kernel_peak_memory(self):
        # one lq:4, p = 3 call on the rect(1,16) grid at h = 1/128 holds
        # the gradient, the grid differences, one half's F_eps^p and its
        # blocks of triangles (9.23 fields unstreamed)
        grid = build_grid(ConvexPolygon.rectangle(1, 16), 1.0 / 128.0)
        psi = _seeded_field(grid, 11)
        eps = pde._eps_for(ConvexPolygon.rectangle(1, 16), LQ4, 3.0)
        _grad_energy_with_grad(psi, grid, LQ4, 3.0, eps)  # warm any caches
        tracemalloc.start()
        try:
            _grad_energy_with_grad(psi, grid, LQ4, 3.0, eps)
            peak = tracemalloc.get_traced_memory()[1] / psi.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 4.6, peak

    @pytest.mark.parametrize("name", list(KERNEL_NORMS))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_peak_memory_not_above_reference(self, name, p):
        # tracemalloc sees numpy's buffers; the peak of one call, in
        # units of one field, must not exceed the reference kernel's
        norm = KERNEL_NORMS[name]
        grid = build_grid(SQUARE, 2.0 / 256)
        assert grid.mask.shape == (257, 257)
        psi = _seeded_field(grid, 7)
        eps = pde._eps_for(SQUARE, norm, p)
        peaks = []
        for kernel in (_grad_energy_with_grad, _ref_grad_energy_with_grad):
            kernel(psi, grid, norm, p, eps)  # warm any caches
            tracemalloc.start()
            try:
                kernel(psi, grid, norm, p, eps)
                peaks.append(tracemalloc.get_traced_memory()[1] / psi.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1], peaks


class TestDescentCost:
    @pytest.mark.parametrize("norm", [LQ2, ELL], ids=["lq2", "ellipse-4-0-1"])
    @pytest.mark.parametrize("solve", [solve_eigen, solve_torsion],
                             ids=["eigen", "torsion"])
    def test_one_evaluation_per_trial_point(self, monkeypatch, norm, solve):
        # a trial point costs one kernel call and no energy pass; what
        # grad_energy still does (one ray curvature per quadratic step and
        # the eps = 0 re-evaluation) stays within the kernel count
        calls = {"energy": 0, "kernel": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pde, "grad_energy",
                            counted("energy", pde.grad_energy))
        monkeypatch.setattr(pde, "_grad_energy_with_grad",
                            counted("kernel", pde._grad_energy_with_grad))
        solve(SQUARE, norm, 2.0, 1.0 / 32.0)
        assert 0 < calls["energy"] <= calls["kernel"], calls

    @pytest.mark.parametrize("norm,p,quadratic", [(LQ2, 2.0, True),
                                                  (ELL, 2.0, True),
                                                  (LQ4, 3.0, False)],
                             ids=["lq2-p2", "ellipse-4-0-1-p2", "lq4-p3"])
    @pytest.mark.parametrize("solve", [solve_eigen, solve_torsion],
                             ids=["eigen", "torsion"])
    def test_quadratic_path_skips_gauge_formulas(self, monkeypatch, norm, p,
                                                 quadratic, solve):
        # at p = 2 a quadratic gauge's energy is g . A g, evaluated from
        # quadratic_form() alone; the general formulas run only elsewhere
        calls = {"value2": 0, "value_wgrad2": 0}

        def counted(name):
            fn = getattr(MinkowskiNorm, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return fn(self, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(MinkowskiNorm, name, counted(name))
        solve(SQUARE, norm, p, 1.0 / 32.0)
        if quadratic:
            assert calls == {"value2": 0, "value_wgrad2": 0}
        else:
            assert calls["value2"] > 0 and calls["value_wgrad2"] > 0, calls

    @pytest.mark.parametrize("norm,p,bound", [(LQ2, 2.0, 6.6),
                                              (LQ4, 3.0, 12.4),
                                              (ELL, 3.0, 12.2)],
                             ids=["lq2-p2", "lq4-p3", "ellipse-4-0-1-p3"])
    @pytest.mark.parametrize("solve", [solve_eigen, solve_torsion],
                             ids=["eigen", "torsion"])
    def test_solve_peak_memory(self, norm, p, bound, solve):
        # the peak of one solve in units of one finest-grid field: the
        # descent holds no old gradient while a trial point is evaluated
        poly = ConvexPolygon.rectangle(1, 16)
        field = build_grid(poly, 1.0 / 32.0).mask.size * 8
        tracemalloc.start()
        try:
            solve(poly, norm, p, 1.0 / 32.0)
            peak = tracemalloc.get_traced_memory()[1] / field
        finally:
            tracemalloc.stop()
        assert peak <= bound, peak

    def test_oracle_eigen_peak_memory(self):
        # a level holds psi, z, d, one trial point and its gradient (or,
        # in the preconditioner, the new z), besides the coarser level's
        # result, the grid masks and blocks of rows
        poly = ConvexPolygon.rectangle(1, 16)
        field = build_grid(poly, 1.0 / 128.0).mask.size * 8
        tracemalloc.start()
        try:
            solve_eigen(poly, LQ2, 2.0, 1.0 / 128.0)
            peak = tracemalloc.get_traced_memory()[1] / field
        finally:
            tracemalloc.stop()
        assert peak <= 5.6, peak

    def test_oracle_eigen_peak_memory_without_gc(self):
        # the same peak when only reference counts free memory: a
        # reference cycle that holds a grid-sized array shows up here
        poly = ConvexPolygon.rectangle(1, 16)
        field = build_grid(poly, 1.0 / 128.0).mask.size * 8
        gc.disable()
        tracemalloc.start()
        try:
            solve_eigen(poly, LQ2, 2.0, 1.0 / 128.0)
            peak = tracemalloc.get_traced_memory()[1] / field
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 5.6, peak


class TestPreconditioner:
    def test_scaled_symbol_inverts_the_stiffness(self):
        # on a rectangle with a12 = 0 the DST operator with symbol
        # a11 lam1 + a22 lam2 is the p = 2 edge energy's Hessian over
        # 2 cell_area: it maps the energy gradient of v back to 2 w v
        grid = build_grid(SQUARE, 1.0 / 32.0)
        assert grid.mask[1:-1, 1:-1].all()
        rng = np.random.default_rng(23)
        v = np.where(grid.mask, rng.standard_normal(grid.mask.shape), 0.0)
        _, g = _edge_energy(v, grid, ELL.quadratic_form(), grad=True)
        z = pde._make_precond(grid, ELL)(g)
        err = np.abs(z / (2.0 * grid.cell_area) - v).max()
        assert err <= 1e-12 * np.abs(v).max(), err

    @pytest.mark.parametrize("norm", [ELL, LQ4], ids=["ellipse-4-0-1", "lq4"])
    @pytest.mark.parametrize("copied", [False, True],
                             ids=["in-place", "copied"])
    def test_in_place_transforms_bitwise(self, monkeypatch, norm, copied):
        # the transforms in the result's interior give the bytes of
        # idstn(dstn(g) / symbol) times the mask, signed zeros included;
        # so do transforms that return a copy instead
        if copied:
            for name, fn in (("dstn", dstn), ("idstn", idstn)):
                monkeypatch.setattr(pde, name, lambda x, *args, fn=fn, **kw:
                                    fn(x.copy(), *args, **kw))
        grid = build_grid(HEXAGON, HEXAGON.diameter / 64)
        rng = np.random.default_rng(29)
        g = rng.standard_normal(grid.mask.shape)
        a11, _, a22 = norm.quadratic_form() or (1.0, 0.0, 1.0)
        m1, m2 = grid.nx - 2, grid.ny - 2
        lam1 = a11 * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, m1 + 1)
                                         / (m1 + 1))) / (grid.hx * grid.hx)
        lam2 = a22 * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, m2 + 1)
                                         / (m2 + 1))) / (grid.hy * grid.hy)
        ref = np.zeros_like(g)
        ref[1:-1, 1:-1] = idstn(dstn(g[1:-1, 1:-1], type=1)
                                / (lam1[:, None] + lam2), type=1)
        ref[1:-1, 1:-1] *= grid.mask[1:-1, 1:-1]
        assert np.signbit(ref[ref == 0.0]).any()  # -0.0 off the mask
        z = pde._make_precond(grid, norm)(g)
        assert z.tobytes() == ref.tobytes()

    def test_scaled_symbol_solves_the_rectangle_at_once(self):
        # rect:1,1 ellipse:4,0,1 at p = 2: at most one iteration on each
        # of the two levels (28 with the Laplacian's symbol)
        res = solve_torsion(SQUARE, ELL, 2.0, 1.0 / 32.0)
        assert res.iterations <= 2, res.iterations


class TestGrid:
    def test_square_alignment(self):
        g = build_grid(SQUARE, 1.0 / 32.0)
        assert g.x[0] == -1.0 and g.x[-1] == pytest.approx(1.0, abs=1e-14)
        assert g.hx == pytest.approx(1.0 / 32.0)
        # free nodes stay clear of the boundary by half a cell
        pts = np.stack(np.meshgrid(g.x, g.y, indexing="ij"), axis=-1)
        clear = SQUARE.clearance(pts[g.mask])
        assert clear.min() > 0.25 * (g.hx + g.hy) - 1e-15

    def test_free_nodes_never_on_grid_border(self):
        for poly in (SQUARE, wulff_domain(LQ4, 1.0, 128)):
            g = build_grid(poly, poly.diameter / 64)
            assert not g.mask[0, :].any() and not g.mask[-1, :].any()
            assert not g.mask[:, 0].any() and not g.mask[:, -1].any()

    def test_coarse_rejected(self):
        with pytest.raises(CoarseGridError):
            build_grid(SQUARE, 0.5)

    def test_tri_gradients_exact_for_linear(self):
        x = np.linspace(0, 1, 9)
        y = np.linspace(0, 2, 7)
        f = 3.0 * x[:, None] - 2.0 * y[None, :] + 1.0
        gxl, gyl, gxu, gyu = _tri_gradients(f, x[1] - x[0], y[1] - y[0])
        for g, want in ((gxl, 3.0), (gxu, 3.0), (gyl, -2.0), (gyu, -2.0)):
            assert np.allclose(g, want, atol=1e-12)

    def test_energy_of_linear_field(self):
        # F(grad)^p of an affine field integrates to area * F(slope)^p
        x = np.linspace(0, 1, 33)
        f = x[:, None] + 0.0 * x[None, :]

        class FakeGrid:
            hx = hy = x[1] - x[0]
            cell_area = hx * hy

        val = grad_energy(f, FakeGrid, LQ4, 3.0)
        assert val == pytest.approx(1.0, rel=1e-12)


def _signed_field(shape, seed):
    """Normal values, a fifth of them replaced by -0.0 and a tenth by +0.0."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.2] = -0.0
    values[rng.random(shape) < 0.1] = 0.0
    return values


def _assert_bitwise(a, b):
    # int64 views: the sign of zero counts
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _hierarchy_pairs(domain, gauge, h=None):
    """(coarse, fine) level pairs of a solve's grid hierarchy; h defaults
    to the catalog's diam/128."""
    poly, norm, default_h = harness.CaseSpec(domain, gauge, 2.0, h=h).build()
    grids = _grid_hierarchy(poly, default_h)
    return list(zip(grids[1:], grids[:-1]))


DEFAULT_HIERARCHIES = list(dict.fromkeys(
    (spec.domain, spec.norm) for spec in harness.default_catalog()))


class TestProlong:
    """``_prolong`` is bit for bit ndimage's order-1, nearest-mode
    ``map_coordinates``."""

    @pytest.mark.parametrize("domain,gauge,h", [
        *((d, g, None) for d, g in DEFAULT_HIERARCHIES),
        ("rect:1,16", "lq:2", 1.0 / 32.0),
        ("wulff:1,512", "lq:2", 1.0 / 32.0)])
    def test_hierarchy_bitwise(self, domain, gauge, h):
        for seed, (coarse, fine) in enumerate(
                _hierarchy_pairs(domain, gauge, h)):
            values = _signed_field((coarse.nx, coarse.ny), seed)
            _assert_bitwise(_prolong(values, coarse, fine),
                            prolong_map_coordinates(values, coarse, fine))

    def test_covers_default_catalog_and_non_nested_pair(self):
        assert len(DEFAULT_HIERARCHIES) == 12
        # only rect:1,4 solves on one level: a coarser grid would leave
        # fewer than 24 nodes across its width
        single = {d for d, g in DEFAULT_HIERARCHIES
                  if not _hierarchy_pairs(d, g)}
        assert single == {"rect:1,4"}
        shapes = [((c.nx, c.ny), (f.nx, f.ny))
                  for c, f in _hierarchy_pairs("rect:1,1", "ellipse:4,0,1")]
        # 46 coarse cells do not nest in 91 fine ones
        assert ((47, 47), (92, 92)) in shapes

    def test_nodes_outside_the_coarse_axis(self):
        # nearest mode clamps the indices, not the coordinate: a node
        # beyond either end mixes the end value with itself, in ndimage's
        # weights, so it need not equal that value bit for bit
        rng = np.random.default_rng(7)
        for seed in range(40):
            ncx, ncy, nfx, nfy = rng.integers(1, 30, 4)
            coarse = Grid(0.3, 0.7, 0.2 + 0.3 * np.arange(ncx),
                          -0.5 + 0.7 * np.arange(ncy),
                          np.ones((ncx, ncy), bool))
            fine = Grid(0.1, 0.1, np.sort(rng.uniform(-3.0, 12.0, nfx)),
                        np.sort(rng.uniform(-4.0, 24.0, nfy)),
                        rng.random((nfx, nfy)) < 0.8)
            values = _signed_field((ncx, ncy), seed)
            _assert_bitwise(_prolong(values, coarse, fine),
                            prolong_map_coordinates(values, coarse, fine))


class TestEigenOracles:
    def test_square_matches_discrete_theory(self):
        # aligned square: the discrete minimum is (8/h^2) sin^2(pi h/4)
        h = 1.0 / 32.0
        res = solve_eigen(SQUARE, LQ2, 2.0, h)
        lam_h = 8.0 / h**2 * math.sin(math.pi * h / 4.0) ** 2
        assert res.lambda_ == pytest.approx(lam_h, rel=1e-8)
        assert res.converged
        assert res.stop == "dual"

    def test_square_value(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 64.0)
        assert res.lambda_ == pytest.approx(math.pi**2 / 2.0, rel=2e-4)

    def test_disk(self):
        disk = wulff_domain(LQ2, 1.0, 512)
        res = solve_eigen(disk, LQ2, 2.0, 1.0 / 64.0)
        assert res.lambda_ == pytest.approx(J01SQ, rel=1e-2)

    def test_ellipse_gauge_on_its_wulff(self):
        # x -> (x1/2, x2) maps the problem to the Euclidean disk exactly
        w = wulff_domain(ELL, 1.0, 512)
        res = solve_eigen(w, ELL, 2.0, 1.0 / 64.0)
        assert res.lambda_ == pytest.approx(J01SQ, rel=1e-2)

    def test_long_rectangle(self):
        res = solve_eigen(ConvexPolygon.rectangle(1, 8), LQ2, 2.0, 1.0 / 32.0)
        expect = math.pi**2 / 4.0 * (1 + 1.0 / 64.0)
        assert res.lambda_ == pytest.approx(expect, rel=1e-2)

    def test_normalization_and_positivity(self):
        res = solve_eigen(SQUARE, LQ4, 1.5, 1.0 / 24.0)
        u = res.u.values
        assert u.max() == pytest.approx(1.0, abs=1e-15)
        assert np.all(u[res.u.grid.mask] > 0)
        assert np.all(u[~res.u.grid.mask] == 0)

    def test_rayleigh_consistency(self):
        res = solve_eigen(SQUARE, LQ4, 3.0, 1.0 / 24.0)
        grid = res.u.grid
        num = grad_energy(res.u.values, grid, LQ4, 3.0)
        den = res.u.integral(power=3.0)
        assert num / den == pytest.approx(res.lambda_, rel=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            solve_eigen(SQUARE, LQ2, 1.0, 1.0 / 32.0)

    def test_nonconvergence_raises_with_partial(self):
        with pytest.raises(ConvergenceError) as err:
            solve_eigen(SQUARE, LQ4, 3.0, 1.0 / 32.0, tol=1e-14, max_iter=40)
        res = err.value.result
        assert res is not None
        assert not res.converged
        assert res.stop == "budget"
        assert res.iterations <= 40  # over all grid levels


    def test_null_field_is_inconclusive(self, monkeypatch):
        # a descent that ends on the zero field raises with a partial
        # result, so the harness reports the case instead of crashing
        solve = pde._coarse_to_fine

        def null_field(*args):
            grid, psi, *rest = solve(*args)
            return (grid, np.zeros_like(psi), *rest)

        monkeypatch.setattr(pde, "_coarse_to_fine", null_field)
        with pytest.raises(ConvergenceError, match="null field") as err:
            solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 16.0)
        res = err.value.result
        assert res is not None and res.converged is False
        assert math.isnan(res.lambda_)
        assert not res.u.values.any()
        with pytest.raises(ConvergenceError, match="no positive") as err:
            solve_torsion(SQUARE, LQ2, 2.0, 1.0 / 16.0)
        res = err.value.result
        assert res is not None and res.converged is False
        assert math.isnan(res.T) and math.isnan(res.Mv)
        spec = harness.CaseSpec("rect:1,1", "lq:2", 2.0)
        assert harness.run_case(spec).status == "inconclusive"


class TestSeededEigen:
    """The eigen descent started from a field on the finest grid."""

    @pytest.mark.parametrize("norm,p,rel", [(LQ4, 3.0, 1e-7),
                                            (ELL, 1.5, 1e-7),
                                            (LQ2, 2.0, 1e-14)],
                             ids=["lq4-p3", "ellipse-4-0-1-p1.5", "lq2-p2"])
    def test_torsion_start_matches_unseeded(self, norm, p, rel):
        h = SQUARE.diameter / 32.0
        v = solve_torsion(SQUARE, norm, p, h).v
        kept = v.values.copy()
        seeded = solve_eigen(SQUARE, norm, p, h, start=v)
        assert seeded.u.grid is v.grid
        assert np.array_equal(v.values, kept)  # the start is not changed
        unseeded = solve_eigen(SQUARE, norm, p, h)
        assert seeded.lambda_ == pytest.approx(unseeded.lambda_, rel=rel)

    def test_null_start_is_the_bbox_seed(self):
        # a start with no positive value falls back to the bounding-box
        # seed, which is where the unseeded solve starts on a one-level
        # hierarchy: the same descent, bit for bit
        h = SQUARE.diameter / 32.0
        grid = build_grid(SQUARE, h)
        assert len(_grid_hierarchy(SQUARE, h)) == 1
        null = GridField(grid, np.zeros((grid.nx, grid.ny)))
        seeded = solve_eigen(SQUARE, ELL, 1.5, h, start=null)
        unseeded = solve_eigen(SQUARE, ELL, 1.5, h)
        assert seeded.lambda_ == unseeded.lambda_
        assert seeded.iterations == unseeded.iterations
        assert np.array_equal(seeded.u.values, unseeded.u.values)
        assert not null.values.any()

    @pytest.mark.parametrize("other", ["coarser", "wider", "shifted"])
    def test_start_on_another_grid_rejected(self, other):
        # rejected before any descent, so the grids can be fine; a shifted
        # square has the same node counts and spacings, other nodes
        h = SQUARE.diameter / 64.0
        poly, spacing = {
            "coarser": (SQUARE, 2.0 * h),
            "wider": (ConvexPolygon.rectangle(1, 1.5), h),
            "shifted": (ConvexPolygon(SQUARE.vertices + 1e-3), h)}[other]
        grid = build_grid(poly, spacing)
        square = build_grid(SQUARE, h)
        assert not (np.array_equal(grid.x, square.x)
                    and np.array_equal(grid.y, square.y))
        start = GridField(grid, grid.mask.astype(float))
        with pytest.raises(ValueError, match="grid"):
            solve_eigen(SQUARE, LQ2, 2.0, h, start=start)


def _scaling_gaps(norm, p, t, n):
    """Relative gaps of lambda t^p, T t^-(N+p') and Mv t^-p' on t x Omega
    against Omega = the unit square, each on its own grid of n cells per
    unit side: the grids scale with the domain, so the twins are exact."""
    q = p / (p - 1.0)
    big = ConvexPolygon.rectangle(t, t)
    lam = solve_eigen(SQUARE, norm, p, 1.0 / n).lambda_
    lam_t = solve_eigen(big, norm, p, t / n).lambda_
    tor = solve_torsion(SQUARE, norm, p, 1.0 / n)
    tor_t = solve_torsion(big, norm, p, t / n)
    return (abs(lam_t * t**p - lam) / lam,
            abs(tor_t.T / t ** (2.0 + q) - tor.T) / tor.T,
            abs(tor_t.Mv / t**q - tor.Mv) / tor.Mv)


class TestEigenProperties:
    def test_scaling(self):
        # measured: p = 2 gaps 1.7e-14, 3.3e-8, 3.5e-8; p = 1.5 gaps
        # 6.6e-10, 9.8e-8, 2.7e-7 (the window stop's error)
        for p, bounds in ((2.0, (1e-13, 1e-7, 1e-7)),
                          (1.5, (3e-9, 3e-7, 1e-6))):
            gaps = _scaling_gaps(LQ4, p, 2.0, 32)
            assert all(g <= b for g, b in zip(gaps, bounds)), (p, gaps)

    def test_scaling_p3(self):
        # measured gaps 2.1e-16, 1.8e-8, 1.5e-8
        gaps = _scaling_gaps(ELL, 3.0, 0.5, 24)
        assert all(g <= b for g, b in zip(gaps, (1e-14, 1e-7, 1e-7))), gaps

    def test_domain_monotonicity(self):
        lams = [solve_eigen(ConvexPolygon.rectangle(1, k), LQ2, 2.0,
                            1.0 / 24.0).lambda_ for k in (1, 2, 4)]
        assert lams[0] > lams[1] > lams[2]

    def test_p_monotonicity(self):
        vals = []
        for p in (1.5, 2.0, 3.0):
            lam = solve_eigen(SQUARE, LQ2, p, 1.0 / 24.0).lambda_
            vals.append(p * lam ** (1.0 / p))
        assert vals[0] < vals[1] < vals[2]


HEXAGON_T = ConvexPolygon(HEXAGON.vertices[::-1, ::-1].copy(),
                          "regular:6,1 transposed")
# (lambda, T and Mv) relative bounds per p; measured at diam/128, largest
# of the two pairs: p = 1.5 5.7e-13 and 9.9e-7, p = 2 5.0e-16 and
# 1.5e-10, p = 3 5.3e-11 and 2.3e-6 (the window stop's error)
TWIN_BOUNDS = {1.5: (1e-11, 5e-6), 2.0: (1e-14, 1e-9), 3.0: (2e-10, 1e-5)}
TWINS = [("rect-1-4", ConvexPolygon.rectangle(1, 4),
          ConvexPolygon.rectangle(4, 1)),
         ("regular-6-1", HEXAGON, HEXAGON_T)]


class TestTransposedTwins:
    # transposing (x, y) maps the grid's anti-diagonals onto themselves, so
    # a domain and gauge and their transposes are exact twins of the discrete
    # problem; with a12 != 0 this checks the anti-diagonal coupling
    @pytest.mark.parametrize("poly,twin,p", [
        pytest.param(poly, twin, p, id=name if p == 2.0 else f"{name}-p{p:g}")
        for name, poly, twin in TWINS for p in TWIN_BOUNDS])
    def test_twins_agree(self, poly, twin, p):
        norm = MinkowskiNorm.ellipse(2, 0.5, 1)
        norm_t = MinkowskiNorm.ellipse(1, 0.5, 2)
        rel_lam, rel_tor = TWIN_BOUNDS[p]
        h = poly.diameter / 128
        assert twin.diameter == poly.diameter
        assert np.array_equal(build_grid(poly, h).mask,
                              build_grid(twin, h).mask.T)
        lam = solve_eigen(poly, norm, p, h).lambda_
        lam_t = solve_eigen(twin, norm_t, p, h).lambda_
        assert lam == pytest.approx(lam_t, rel=rel_lam)
        tor = solve_torsion(poly, norm, p, h)
        tor_t = solve_torsion(twin, norm_t, p, h)
        assert tor.T == pytest.approx(tor_t.T, rel=rel_tor)
        assert tor.Mv == pytest.approx(tor_t.Mv, rel=rel_tor)


def _decimal_ray_root(a, c, dd, e, a0) -> float:
    """The positive root of a2 t^2 + a1 t + a0 in 60-digit arithmetic, with
    b = a0 + c e exact (see ``pde._ray_minimizer``)."""
    with localcontext() as ctx:
        ctx.prec = 60
        a2 = Decimal(a) * Decimal(e) - (Decimal(a0) + Decimal(c)
                                        * Decimal(e)) * Decimal(dd)
        a1 = Decimal(a) - Decimal(c) * Decimal(dd)
        root = (-a1 + (a1 * a1 - 4 * a2 * Decimal(a0)).sqrt()) / (2 * a2)
    return float(root)


class TestTorsionOracles:
    def test_disk(self):
        disk = wulff_domain(LQ2, 1.0, 512)
        res = solve_torsion(disk, LQ2, 2.0, 1.0 / 64.0)
        assert res.Mv == pytest.approx(0.25, rel=1.5e-2)
        assert res.T == pytest.approx(math.pi / 8.0, rel=1.5e-2)

    def test_square_series(self):
        res = solve_torsion(SQUARE, LQ2, 2.0, 1.0 / 32.0)
        assert res.Mv == pytest.approx(SQUARE_MV, rel=1e-2)
        assert res.T == pytest.approx(SQUARE_T, rel=1e-2)

    def test_series_oracle_values(self):
        # freeze the oracle itself
        assert SQUARE_MV == pytest.approx(0.2947, abs=2e-4)
        assert SQUARE_T == pytest.approx(0.5623, abs=2e-4)

    def test_wulff_radial_solution(self):
        # v = (R^q - F°(x)^q) / (q N^(q-1)) solves the torsion problem on
        # the Wulff shape; its maximum is R^q/(q N^(q-1))
        for norm, p in ((LQ4, 1.5), (ELL, 2.0), (LQ2, 3.0)):
            q = p / (p - 1.0)
            w = wulff_domain(norm, 1.0, 256)
            res = solve_torsion(w, norm, p, w.diameter / 96)
            expect = 1.0 / (q * 2.0 ** (q - 1.0))
            assert res.Mv == pytest.approx(expect, rel=2.5e-2)

    @pytest.mark.parametrize("norm,p,h", [(LQ4, 3.0, 1.0 / 24.0),
                                          (ELL, 2.0, 1.0 / 64.0)],
                             ids=["lq4-p3", "ellipse-p2"])
    def test_dual_consistency(self, norm, p, h):
        # T_dual = T holds at the exact discrete minimizer; its defect
        # measures how far the stopping rule leaves the field from it
        res = solve_torsion(SQUARE, norm, p, h, tol=1e-8)
        assert abs(res.T_dual - res.T) / res.T <= 10 * 1e-8

    def test_failed_line_search_not_converged(self, monkeypatch):
        # a line search that finds no decrease reports the measured dual
        # residual, and converges only when it is below sqrt(tol)
        monkeypatch.setattr(_TorsionProblem, "trial",
                            lambda self, psi, d, alpha: (None, math.inf,
                                                         None, 0.0))
        with pytest.raises(ConvergenceError) as err:
            solve_torsion(SQUARE, LQ2, 2.0, 1.0 / 32.0)
        res = err.value.result
        assert res.converged is False
        assert res.stop == "line_search"
        assert math.isfinite(res.residual) and res.residual > 1e-8
        assert res.residual != np.finfo(float).eps

    @pytest.mark.parametrize("rise,accepted", [(-1.0, True), (0.0, True),
                                               (0.5, True), (2.0, False)])
    def test_wolfe_step_takes_rounding_rise(self, monkeypatch, rise, accepted):
        # at a flat trial a rise of at most TIE |f| is the value's rounding
        # and is accepted; a larger one is not, and with no decreasing
        # trial the search fails
        f = 4.93
        fc = f * (1.0 + rise * pde.TIE)
        problem = _TorsionProblem(build_grid(SQUARE, 1.0 / 16.0), LQ2, 2.0,
                                  0.0)
        psi = np.zeros_like(problem.free)
        monkeypatch.setattr(_TorsionProblem, "first_step",
                            lambda self, *args: 1.0)
        # the zero gradient makes the slope at every trial 0
        monkeypatch.setattr(_TorsionProblem, "trial",
                            lambda self, psi, d, alpha: (psi, fc, psi, 1.0))
        found = pde._wolfe_step(problem, psi, psi, f, -1.0, None)
        assert (found is not None) is accepted

    def test_quadratic_path_one_trial_per_iteration(self, monkeypatch):
        # the exact ray minimizer is the first trial, and it is accepted
        calls = []
        trial = _TorsionProblem.trial

        def counted(self, psi, d, alpha):
            calls.append(alpha)
            return trial(self, psi, d, alpha)

        monkeypatch.setattr(_TorsionProblem, "trial", counted)
        res = solve_torsion(SQUARE, LQ2, 2.0, 1.0 / 32.0)
        assert res.stop == "dual"
        assert len(calls) == res.iterations

    @pytest.mark.parametrize("problem_cls", [pde._EigenProblem,
                                             _TorsionProblem],
                             ids=["eigen", "torsion"])
    def test_overshooting_first_step_brackets(self, monkeypatch, problem_cls):
        # a first trial 1e6 times the exact ray minimizer raises the value;
        # the search brackets back to a decrease instead of giving up
        problem = problem_cls(build_grid(SQUARE, 1.0 / 16.0), LQ2, 2.0, 0.0)
        psi = problem.prepare(np.zeros(problem.free.shape))
        f, g = problem.value_grad(psi)
        d = -problem.precond(g)
        slope = float((g * d).sum())
        exact = problem.first_step(psi, d, f, slope, None)
        assert problem.trial(psi, d, 1e6 * exact)[1] > f
        monkeypatch.setattr(problem_cls, "first_step",
                            lambda self, *args: 1e6 * exact)
        found = pde._wolfe_step(problem, psi, d, f, slope, None)
        assert found is not None
        assert found[2] < f

    def test_wolfe_fallback_evaluates_the_best_trial_again(self,
                                                            monkeypatch):
        # trials whose slope stays steep are never accepted; the search
        # falls back on the least value, keeping only its step, and
        # evaluates that step again instead of holding its point
        problem = _TorsionProblem(build_grid(SQUARE, 1.0 / 16.0), LQ2, 2.0,
                                  0.0)
        psi = np.zeros(problem.free.shape)
        d = np.ones_like(psi)
        calls = []

        def trial(self, psi, d, alpha):
            calls.append(alpha)
            return np.full_like(psi, alpha), (alpha - 3.0) ** 2 - 9.0, -d, 1.0

        monkeypatch.setattr(_TorsionProblem, "first_step",
                            lambda self, *args: 1.0)
        monkeypatch.setattr(_TorsionProblem, "trial", trial)
        found = pde._wolfe_step(problem, psi, d, 0.0, -float(d.size), None)
        values = [(a - 3.0) ** 2 - 9.0 for a in calls[:-1]]
        best = calls[values.index(min(values))]
        assert found[0] == best and calls[-1] == best
        assert found[2] == min(values)
        assert found[1].tobytes() == np.full_like(psi, best).tobytes()

    def test_failed_cg_search_ends_the_level(self, monkeypatch):
        # a search that fails along a CG direction (beta > 0) is not
        # retried along -z: the level ends on that one failed call
        problem = _TorsionProblem(build_grid(SQUARE, 1.0 / 16.0), LQ4, 3.0,
                                  pde._eps_for(SQUARE, LQ4, 3.0))
        steepest = []  # per _wolfe_step call: is its direction -z?
        wolfe_step = pde._wolfe_step

        def fail_cg(problem, psi, d, *args):
            z = problem.precond(problem.value_grad(psi)[1])
            steepest.append(np.array_equal(d, -z))
            return wolfe_step(problem, psi, d, *args) if steepest[-1] else None

        monkeypatch.setattr(pde, "_wolfe_step", fail_cg)
        _, it, _, _, stop = pde._descend(problem, None, 1e-8, 100)
        assert stop == "line_search"
        assert steepest == [True, False] and it == 2

    def test_ray_minimizer_keeps_a_small_slope(self):
        # near convergence c e >> |slope|: forming b - c e from
        # b = slope/2 + c e loses the slope, and the ray then has no
        # positive stationary step; the exact a0 = slope/2 gives it
        a0, c, e, dd = -2.0**-33, 4.0, 2.0**20, 2.0**40
        a = 1.0 + c * dd  # a - c dd = 1
        assert (a0 + c * e) - c * e == 0.0
        t = pde._ray_minimizer(a, c, dd, e, a0)
        assert t == pytest.approx(_decimal_ray_root(a, c, dd, e, a0), rel=1e-6)

    @pytest.mark.parametrize("a0", [-1e-4, -1e-6, -1e-13])
    def test_ray_minimizer_small_root_is_stable(self, a0):
        # 4 |a2 a0| << a1^2: the textbook root (-a1 + sqrt(disc)) / (2 a2)
        # cancels, and at a0 = -1e-13 it reads 0, leaving no positive step
        a, c, dd, e = 1e7, 0.0, 1e6, 1e3
        t = pde._ray_minimizer(a, c, dd, e, a0)
        root = _decimal_ray_root(a, c, dd, e, a0)
        assert root > 0
        assert t == pytest.approx(root, rel=1e-12, abs=0.0)

    def test_failed_wolfe_search_not_converged(self, monkeypatch):
        # the nonlinear path: every trial point after each level's start
        # reads +inf, so no step decreases the value along either direction
        started = []  # the problems themselves, so no id is reused
        calls = []  # value_grad calls of each started problem
        value_grad = _TorsionProblem.value_grad

        def first_finite(self, psi):
            f, g = value_grad(self, psi)
            for k, problem in enumerate(started):
                if problem is self:
                    calls[k] += 1
                    return math.inf, g
            started.append(self)
            calls.append(1)
            return f, g

        monkeypatch.setattr(_TorsionProblem, "value_grad", first_finite)
        with pytest.raises(ConvergenceError) as err:
            solve_torsion(SQUARE, LQ4, 3.0, 1.0 / 24.0)
        res = err.value.result
        assert res.converged is False
        assert res.stop == "line_search"
        assert res.iterations == len(started)  # one failed step per level
        assert math.isfinite(res.residual) and res.residual > 1e-4
        # a failed search ends its level: the start plus one search per
        # level
        assert all(n <= pde.MAX_TRIALS + 1 for n in calls), calls

    def test_nonnegative(self):
        res = solve_torsion(ConvexPolygon.regular(6, 1.0), LQ4, 1.5,
                            1.0 / 32.0)
        assert res.v.values.min() >= 0.0


# relative errors of (lambda_h, Mv, T) on wulff:1,256 at h = diam/128
# against W_1's exact values (T with the polygon's own area as kappa, lambda
# not corrected for the polygon), as measured when these tests were written
WULFF_ERRORS = {
    ("lq:2", 1.5): (5.38e-3, -1.08e-2, -1.79e-2),
    ("lq:4", 1.5): (8.02e-3, -1.55e-2, -2.60e-2),
    ("ellipse:4,0,1", 1.5): (6.50e-3, -1.31e-2, -2.17e-2),
    # p = 2: lq:2 and the ellipse run the quadratic path, lq:4 does not
    ("lq:2", 2.0): (5.85e-3, -5.88e-3, -1.17e-2),
    ("lq:4", 2.0): (7.71e-3, -7.28e-3, -1.53e-2),
    ("ellipse:4,0,1", 2.0): (6.57e-3, -6.68e-3, -1.33e-2),
    ("lq:2", 3.0): (8.17e-3, -4.25e-3, -9.46e-3),
    ("lq:4", 3.0): (9.61e-3, -4.21e-3, -1.12e-2),
    ("ellipse:4,0,1", 3.0): (9.10e-3, -4.95e-3, -1.06e-2),
}


class TestWulffOracles:
    def test_shooting_is_the_bessel_zero(self):
        assert radial_eigenvalue(2.0) == pytest.approx(J01SQ, rel=1e-9)

    @pytest.mark.parametrize("gauge,p", list(WULFF_ERRORS))
    def test_wulff_errors(self, gauge, p):
        # each error keeps its sign and grows by at most 25 %
        norm = MinkowskiNorm.parse(gauge)
        poly = parse_domain("wulff:1,256", norm=norm)
        h = poly.diameter / 128
        torsion = solve_torsion(poly, norm, p, h)
        eigen = solve_eigen(poly, norm, p, h, start=torsion.v)
        mv, t = wulff_torsion(p, 1.0, poly.area)
        errors = (eigen.lambda_ / radial_eigenvalue(p) - 1.0,
                  torsion.Mv / mv - 1.0, torsion.T / t - 1.0)
        for err, want in zip(errors, WULFF_ERRORS[gauge, p]):
            assert 0.0 < err / want <= 1.25, errors


class TestStopRules:
    """Each descent path stops on its own rule, within one budget."""

    def test_max_iter_bounds_all_levels(self):
        # the coarse levels draw on the same budget as the finest one
        hexa = parse_domain("regular:6,1")
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            solve_torsion(hexa, LQ4, 3.0, 1.0 / 64.0, max_iter=5)
        res = err.value.result
        assert res.converged is False
        assert res.stop == "budget"
        assert res.iterations <= 5
        assert math.isfinite(res.residual)

    def test_max_iter_bounds_the_one_quadratic_level(self):
        # a quadratic torsion solve descends its finest grid alone, on the
        # whole budget
        hexa = parse_domain("regular:6,1")
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            solve_torsion(hexa, LQ2, 2.0, hexa.diameter / 64.0, max_iter=3)
        res = err.value.result
        assert res.stop == "budget"
        assert res.iterations <= 3

    def test_one_level_quadratic_torsion_meets_its_reference(self):
        # from zero on the finest grid, the dual stop leaves T and Mv 9.0e-11
        # and 3.2e-11 from a tol = 1e-12 solve (measured).  That reference
        # stops on dual too; the nonlinear path's tol = 1e-12 runs are no
        # such reference, as they disagree with each other by up to ~3e-8
        poly = parse_domain("wulff:1,512", norm=LQ2)
        got = solve_torsion(poly, LQ2, 2.0, 1.0 / 64.0)
        ref = solve_torsion(poly, LQ2, 2.0, 1.0 / 64.0, tol=1e-12)
        assert ref.stop == "dual"
        assert got.T == pytest.approx(ref.T, rel=3e-10)
        assert got.Mv == pytest.approx(ref.Mv, rel=1e-10)

    @pytest.mark.parametrize("domain,gauge", [("regular:6,1", "lq:2"),
                                              ("rect:1,1", "ellipse:2,0.5,1")])
    def test_quadratic_path_never_stops_on_window(self, monkeypatch, domain,
                                                  gauge):
        # a one-iteration window would stop a descent after its first
        # steps; the quadratic path stops on its dual residual alone
        monkeypatch.setattr(pde, "WINDOW", 1)
        norm = MinkowskiNorm.parse(gauge)
        poly = parse_domain(domain, norm=norm)
        h = 1.0 / 16.0
        torsion = solve_torsion(poly, norm, 2.0, h)
        eigen = solve_eigen(poly, norm, 2.0, h, start=torsion.v)
        for res in (torsion, eigen):
            assert res.stop == "dual"
            assert res.residual < 1e-8

    def test_catalog_quadratic_eigen_stops_on_dual(self):
        # a catalog quadratic eigen solve whose 25-iteration window fills
        # before its dual residual meets tol
        spec = harness.CaseSpec("regular:6,1", "ellipse:4,0,1", 2.0)
        poly, norm, h = spec.build()
        torsion = solve_torsion(poly, norm, 2.0, h)
        eigen = solve_eigen(poly, norm, 2.0, h, start=torsion.v)
        assert eigen.stop == "dual"
        assert eigen.residual < spec.tol


class TestPFunction:
    def test_square_max_principle(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 48.0)
        pf = p_function(res, LQ2, 2.0)
        assert pf.max_interior <= 0.02 * res.lambda_

    def test_value_at_eigen_max(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 48.0)
        pf = p_function(res, LQ2, 2.0)
        i, j = np.unravel_index(np.argmax(res.u.values), res.u.values.shape)
        assert abs(pf.field.values[i, j]) <= 1e-3 * res.lambda_

    def test_interior_mostly_negative(self):
        res = solve_eigen(ConvexPolygon.regular(6, 1.0), LQ4, 3.0, 1.0 / 48.0)
        pf = p_function(res, LQ4, 3.0)
        vals = pf.field.values[pf.valid]
        assert np.quantile(vals, 0.9) < 0.0

    def test_slab_identity_on_profile(self):
        # on a long rectangle the mid-band obeys P ~ 0 (the slab identity);
        # the short ends always carry P ~ -lambda, so the band matters
        res = solve_eigen(ConvexPolygon.rectangle(1, 16), LQ2, 2.0, 1.0 / 24.0)
        pf = p_function(res, LQ2, 2.0)
        grid = res.u.grid
        band = pf.valid & (np.abs(grid.y[None, :]) <= 1.0)
        assert np.abs(pf.field.values[band]).max() <= 0.02 * res.lambda_
        ends = pf.valid & (np.abs(grid.y[None, :]) >= 15.0)
        assert pf.field.values[ends].min() < -0.5 * res.lambda_


class TestPhi:
    def test_endpoints(self):
        for p in (1.5, 2.0, 3.0):
            q = p / (p - 1.0)
            assert phi_profile(0.0, p) == pytest.approx(0.0, abs=1e-12)
            assert phi_profile(1.0, p) == pytest.approx(
                (0.5 * pi_p(p)) ** q, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_quadrature_oracle(self, p):
        # direct adaptive quadrature of the defining inner integral
        from scipy.integrate import quad

        q = p / (p - 1.0)
        upper = (p - 1.0) ** (1.0 / p)
        for s in (0.1, 0.5, 0.9, 0.99):
            def integrand(t):
                return (1.0 - t**p / (p - 1.0)) ** (-1.0 / p)

            inner, _ = quad(integrand, s * upper, upper, limit=400)
            expect = (0.5 * pi_p(p)) ** q - inner**q
            assert phi_profile(s, p) == pytest.approx(expect, rel=1e-6)

    def test_monotone_increasing(self):
        s = np.linspace(0, 1, 200)
        for p in (1.5, 2.0, 3.0):
            vals = phi_profile(s, p)
            assert np.all(np.diff(vals) > -1e-14)

    def test_comparison_inequality_square(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 32.0)
        tor = solve_torsion(SQUARE, LQ2, 2.0, 1.0 / 32.0)
        assert phi_check(res, tor, 2.0) <= 0.5 * (1.0 / 32.0)
        payne_lhs = harness.slab_constant(2.0)
        assert payne_lhs == pytest.approx(0.5 * (math.pi / 2.0) ** 2,
                                          rel=1e-12)
        assert res.lambda_ * tor.Mv >= payne_lhs

    def test_grid_mismatch_rejected(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 32.0)
        tor = solve_torsion(SQUARE, LQ2, 2.0, 1.0 / 24.0)
        with pytest.raises(ValueError):
            phi_check(res, tor, 2.0)

    def test_grid_mismatch_of_equal_shape_rejected(self):
        # same node counts and spacings, nodes shifted by a thousandth
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 16.0)
        tor = solve_torsion(ConvexPolygon(SQUARE.vertices + 1e-3), LQ2, 2.0,
                            1.0 / 16.0)
        assert res.u.values.shape == tor.v.values.shape
        with pytest.raises(ValueError, match="different grids"):
            phi_check(res, tor, 2.0)


class TestScalarChecks:
    def test_efficiency_square(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 64.0)
        assert efficiency_ratio(res, SQUARE.area, 2.0) == pytest.approx(
            (2.0 / math.pi) ** 2, rel=3e-3)

    def test_efficiency_bounds(self):
        for p, norm in ((1.5, LQ4), (3.0, ELL)):
            res = solve_eigen(SQUARE, norm, p, 1.0 / 24.0)
            eff = efficiency_ratio(res, SQUARE.area, p)
            assert eff**p <= 1.0 / p
            assert eff <= (p - 1.0) ** (-1.0 / p) \
                * (2.0 / pi_p(p)) ** (1.0 / (p - 1.0))

    def test_mass_bound_square(self):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 64.0)
        assert mass_bound_check(res, SQUARE.area, 2.0) == pytest.approx(
            0.5, abs=5e-3)

    def test_mass_bound_any_rectangle_is_half(self):
        # product-cosine eigenfunction: p * integral(u^p) / area = 1/2 for
        # every rectangle; the value 1 is only approached by the true
        # one-dimensional slab, which no bounded rectangle realizes
        res = solve_eigen(ConvexPolygon.rectangle(1, 16), LQ2, 2.0, 1.0 / 16.0)
        ratio = mass_bound_check(res, 64.0, 2.0)
        assert ratio == pytest.approx(0.5, abs=2e-2)
        assert ratio <= 1.0 + 1e-9

    def test_field_csv(self, tmp_path):
        res = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 24.0)
        path = tmp_path / "field.csv"
        res.u.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + res.u.grid.nx * res.u.grid.ny

    def test_field_csv_matches_savetxt(self, tmp_path):
        # streamed column by column, the file is byte for byte np.savetxt
        # of the whole (N, 3) matrix of x-major rows, on a masked grid
        grid = build_grid(HEXAGON, 1.0 / 16.0)
        assert not grid.mask.all()
        values = _seeded_field(grid, 5)
        GridField(grid, values).to_csv(tmp_path / "field.csv")
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        rows = np.column_stack([xx.ravel(), yy.ravel(), values.ravel()])
        np.savetxt(tmp_path / "ref.csv", rows, fmt="%.12g", delimiter=",",
                   header="x,y,value", comments="")
        assert (tmp_path / "field.csv").read_bytes() \
            == (tmp_path / "ref.csv").read_bytes()

    def test_field_csv_peak_memory(self, tmp_path):
        # the export holds one grid column of rows, not the (N, 3) matrix
        grid = build_grid(HEXAGON, 1.0 / 64.0)
        field = GridField(grid, _seeded_field(grid, 6))
        tracemalloc.start()
        try:
            field.to_csv(tmp_path / "field.csv")
            peak = tracemalloc.get_traced_memory()[1] / field.values.nbytes
        finally:
            tracemalloc.stop()
        assert peak <= 1.0, peak
