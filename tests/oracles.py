"""Independent reference formulas that only the tests use.

* ``pi_p_quadrature``: the defining integral of the generalized pi, by
  adaptive quadrature, against the closed form ``norms.pi_p``.
* ``distance_to_boundary_F``: the exact polar-gauge distance from interior
  points of a convex polygon to its boundary, built from the vertices
  alone, against the gridded ``geometry.distance_field``.
* ``prolong_map_coordinates``: bilinear prolongation by
  ``scipy.ndimage.map_coordinates``, against ``pde._prolong``.
* ``inradius_linprog``, ``erode_hull`` and ``cheeger_radius_brentq``: the
  anisotropic inradius as a Chebyshev-center linear program, the erosion
  as the polar dual of a convex hull, and the Cheeger radius as a
  bracketed root of the hull erosion's area, against the erosion
  skeleton behind ``ConvexPolygon.inradius_F``, ``erode`` and
  ``cheeger_estimate``.
* ``radial_eigenvalue`` and ``wulff_torsion``: the exact first eigenvalue
  and torsion of a Wulff shape, for every gauge, by shooting the radial
  p-Laplacian ODE and by the torsion's closed form, against
  ``pde.solve_eigen`` and ``pde.solve_torsion``.
* ``edge_energy_per_family``: the quadratic path's edge kernel with a
  fresh difference array and its square per edge family, against
  ``pde._edge_energy``, which writes them into two reused buffers.
* ``rect_discrete``: the quadratic path's discrete eigenvalue, torsion
  integral and torsion maximum on a grid whose free nodes fill its
  bounding box's interior, by sine-transform diagonalization, against
  ``pde.solve_eigen``, ``pde.solve_torsion`` and ``harness.run_case``.
"""

import itertools

import numpy as np
from scipy.fft import dstn, idstn
from scipy.integrate import quad, solve_ivp
from scipy.ndimage import map_coordinates
from scipy.optimize import brentq, linprog
from scipy.spatial import ConvexHull

from anisospec.geometry import ConvexPolygon
from anisospec.norms import MinkowskiNorm


def pi_p_quadrature(p: float) -> float:
    """Adaptive quadrature of the defining integral of ``pi_p``, p > 1.

    Integrates 2*(1 - t^p/(p-1))^(-1/p) dt over [0, (p-1)^(1/p)].  After
    the substitution t = (p-1)^(1/p) * tau the endpoint singularity is the
    algebraic weight (1-tau)^(-1/p), which QUADPACK handles exactly.
    """

    def smooth_part(tau: float) -> float:
        if tau >= 1.0:
            return p ** (-1.0 / p)
        num = 1.0 - tau**p
        return (num / (1.0 - tau)) ** (-1.0 / p)

    val, _ = quad(smooth_part, 0.0, 1.0, weight="alg", wvar=(0.0, -1.0 / p),
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return 2.0 * (p - 1.0) ** (1.0 / p) * val


def distance_to_boundary_F(poly: ConvexPolygon, norm: MinkowskiNorm,
                           points: np.ndarray) -> np.ndarray:
    """min over edges of (v_e - x).n_e / F(n_e) for points x inside ``poly``.

    v_e is the edge's first vertex and n_e its unit outer normal; for an
    interior point of a convex polygon the least of these line distances
    is attained on the boundary, so it is the exact distance.
    """
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    normals = np.stack([d[:, 1], -d[:, 0]], axis=-1)
    normals /= np.hypot(d[:, 0], d[:, 1])[:, None]
    out = np.full(len(points), np.inf)
    for vertex, n, f in zip(v, normals, np.asarray(norm(normals))):
        np.minimum(out, (vertex - points) @ n / f, out=out)
    return out


def prolong_map_coordinates(values: np.ndarray, coarse, fine) -> np.ndarray:
    """Order-1, nearest-mode ``map_coordinates`` of ``values`` (on the
    ``coarse`` grid) at the nodes of ``fine``, zero off its free nodes."""
    ci, cj = np.meshgrid((fine.x - coarse.x[0]) / coarse.hx,
                         (fine.y - coarse.y[0]) / coarse.hy, indexing="ij")
    out = map_coordinates(values, [ci, cj], order=1, mode="nearest")
    out[~fine.mask] = 0.0
    return out


def edge_lines(poly: ConvexPolygon, norm: MinkowskiNorm):
    """Unit outer normals n_e, offsets c_e (x.n_e <= c_e inside), F(n_e)."""
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    normals = np.stack([d[:, 1], -d[:, 0]], axis=-1)
    normals /= np.hypot(d[:, 0], d[:, 1])[:, None]
    return normals, np.einsum("ij,ij->i", normals, v), np.asarray(norm(normals))


def inradius_linprog(poly: ConvexPolygon, norm: MinkowskiNorm):
    """max r s.t. x.n_e + r F(n_e) <= c_e: (R_F, a center).

    HiGHS solves the LP to its feasibility tolerance (1e-7), and near
    collinear edges can make it report the wrong one of two nearly equal
    constraints as binding.  So the answer is the best feasible vertex
    among those of the (at most eight) constraints HiGHS leaves closest
    to binding, within 1e-6: each triple solved exactly, and each pair by
    least squares, which covers a collapse to a segment between two
    parallel edges.
    """
    normals, offsets, fn = edge_lines(poly, norm)
    a_ub = np.column_stack([normals, fn])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=offsets,
                  bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    assert res.success, res.message
    scale = 1.0 + np.abs(offsets).max()
    slack = offsets - a_ub @ res.x
    near = np.argsort(slack)[:8]
    near = near[slack[near] <= 1e-6 * scale]
    best = None
    for k in (2, 3):
        for rows in itertools.combinations(near, k):
            rows = list(rows)
            z = np.linalg.lstsq(a_ub[rows], offsets[rows], rcond=None)[0]
            if (np.all(offsets - a_ub @ z >= -1e-14 * scale)
                    and (best is None or z[2] > best[2])):
                best = z
    assert best is not None
    return float(best[2]), best[:2]


def erode_hull(poly: ConvexPolygon, norm: MinkowskiNorm, r: float):
    """CCW vertices of {x.n_e <= c_e - r F(n_e)}, 0 < r < R_F.

    Around the LP center every shifted half-plane keeps a margin
    m_e >= (R_F - r) F(n_e) > 0, so by polar duality the active planes
    are the hull vertices of n_e / m_e, and consecutive ones meet at the
    erosion's vertices (solved by LU with pivoting, whose small residual
    keeps the vertices of nearly parallel planes on both lines).
    """
    normals, offsets, fn = edge_lines(poly, norm)
    _, center = inradius_linprog(poly, norm)
    margins = offsets - r * fn - normals @ center
    act = ConvexHull(normals / margins[:, None]).vertices  # CCW
    pairs = np.stack([normals[act], np.roll(normals[act], -1, axis=0)], axis=1)
    rhs = np.stack([margins[act], np.roll(margins[act], -1)], axis=-1)
    return np.linalg.solve(pairs, rhs[..., None])[..., 0] + center


def shoelace(v: np.ndarray) -> float:
    """Area of a CCW polygon, with the coordinates taken from its mean."""
    x, y = (v - v.mean(axis=0)).T
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def cheeger_radius_brentq(poly: ConvexPolygon, norm: MinkowskiNorm) -> float:
    """The root r* of |erode_hull(r)| = kappa_F r^2 on ]0, R_F[ by brentq."""
    r_f, _ = inradius_linprog(poly, norm)
    kappa = norm.wulff_area()

    def gap(r: float) -> float:
        area = shoelace(erode_hull(poly, norm, r)) if r < r_f else 0.0
        return area - kappa * r * r

    return brentq(gap, 0.0, r_f, xtol=1e-15 * r_f)


def radial_eigenvalue(p: float) -> float:
    """lambda_p(B_1), the first Dirichlet eigenvalue of the p-Laplacian on
    the unit disk (N = 2); lambda_F(p, W_R) = lambda_p(B_1) R^(-p) on the
    Wulff shape W_R = {F° < R} of every gauge F (Belloni, Ferone & Kawohl,
    ZAMP 54, 2003).

    Shoots (r |phi'|^(p-2) phi')' = -lambda r phi^(p-1) with lambda = 1 in
    phi and w = |phi'|^(p-2) phi' (DOP853, rtol 1e-12) from the series
    start phi ~ 1 - (r/2)^(p'-1) r / p', w ~ -r/2 at r0 = 1e-6 to phi's
    first zero z.  The equation is homogeneous: phi(z r) solves it with
    lambda = z^p and vanishes at r = 1, so no search over lambda is needed.
    """
    q = 1.0 / (p - 1.0)  # phi' = sign(w) |w|^q; p' = q + 1

    def rhs(r, y):
        phi, w = y
        return [np.sign(w) * abs(w) ** q,
                -np.sign(phi) * abs(phi) ** (p - 1.0) - w / r]

    def zero(r, y):
        return y[0]

    zero.terminal = True
    zero.direction = -1
    r0 = 1e-6
    start = [1.0 - 0.5 ** q * r0 ** (q + 1.0) / (q + 1.0), -0.5 * r0]
    sol = solve_ivp(rhs, (r0, 10.0), start, method="DOP853", rtol=1e-12,
                    atol=1e-14, events=zero)
    return float(sol.t_events[0][0]) ** p


def wulff_torsion(p: float, R: float, kappa: float) -> tuple[float, float]:
    """(Mv, T) of the torsion (R^p' - F°(x)^p') / (p' N^(p'-1)) on W_R,
    N = 2, p' = p/(p-1), with kappa the area of W_1."""
    n = 2.0
    q = p / (p - 1.0)
    mv = R ** q / (q * n ** (q - 1.0))
    return mv, kappa * R ** (n + q) / ((n + q) * n ** (q - 1.0))


def edge_energy_per_family(psi: np.ndarray, grid, a, g=None) -> float:
    """sum c D^2 over the x-, y- and anti-diagonal edge families, border
    terms halved, and 2 c D onto each edge's head and off its tail when
    ``g`` is given; each family's D and D^2 are new arrays."""
    a11, a12, a22 = a
    r = grid.hy / grid.hx
    families = (
        (a11 * r + a12, np.s_[1:, :], np.s_[:-1, :],
         (np.s_[:, 0], np.s_[:, -1])),
        (a22 / r + a12, np.s_[:, 1:], np.s_[:, :-1],
         (np.s_[0, :], np.s_[-1, :])),
        (-a12, np.s_[1:, :-1], np.s_[:-1, 1:], ()),
    )
    val = 0.0
    for c, head, tail, border in families:
        if c == 0.0:
            continue
        d = psi[head] - psi[tail]
        sq = d * d
        for b in border:
            sq[b] *= 0.5
        val += c * float(sq.sum())
        if g is not None:
            d *= 2.0 * c
            for b in border:
                d[b] *= 0.5
            g[head] += d
            g[tail] -= d
    return val


def rect_discrete(grid, a) -> tuple[float, float, float]:
    """(lambda_h, T_h, Mv_h) of the p = 2 discrete problems for the gauge
    F^2 = g . A g, a = (a11, 0, a22), on a grid whose free nodes are the
    interior of its bounding box.

    There the energy's Hessian over 2 cell_area is the 5-point operator
    -(a11 d_xx + a22 d_yy), which the DST-I diagonalizes with the symbol
    a11 lam1[k] + a22 lam2[l], lam[k] = 4 sin^2(k pi / (2 (m + 1))) / h^2.
    That form, unlike 2 - 2 cos(k pi / (m + 1)), does not cancel at small
    k.  lambda_h is the least symbol, and the torsion field is one
    ``idstn(dstn(1) / symbol)``.
    """
    a11, a12, a22 = a
    m1, m2 = grid.nx - 2, grid.ny - 2
    assert a12 == 0.0
    assert grid.mask[1:-1, 1:-1].all() and grid.mask.sum() == m1 * m2

    def lam(m, step):
        k = np.arange(1, m + 1)
        return 4.0 * np.sin(k * np.pi / (2.0 * (m + 1))) ** 2 / (step * step)

    symbol = a11 * lam(m1, grid.hx)[:, None] + a22 * lam(m2, grid.hy)
    v = idstn(dstn(np.ones((m1, m2)), type=1) / symbol, type=1)
    return float(symbol[0, 0]), grid.cell_area * float(v.sum()), float(v.max())
