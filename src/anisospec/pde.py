"""Finite-difference variational solvers on masked uniform grids.

The first Dirichlet eigenvalue of the anisotropic p-Laplacian is computed
by minimizing the discrete Rayleigh quotient

    R(psi) = sum F_eps(grad psi)^p / sum |psi|^p

over fields that vanish outside the interior mask; the torsion function
minimizes J(v) = (1/p) sum F_eps(grad v)^p - sum v.  Gradients live on the
two right triangles of every grid cell (the symmetric pair of one-sided
differences sharing a corner), which integrates F(grad .)^p with midpoint
accuracy and, unlike nodal central differences, leaves no oscillating
null field that would let the quotient collapse.

Minimization is a monotone projected descent on the quotient: nonlinear
conjugate-gradient directions preconditioned by the inverse of the
operator's principal part on the bounding box's grid (applied by fast
sine transforms; its symbol is a11 lam1 + a22 lam2, with A's diagonal
for a gauge with a ``quadratic_form`` and 1, 1 without one),
nonnegativity clamping for eigenfields, and coarse-to-fine seeding
across a grid hierarchy.  A torsion solve on the quadratic path (p = 2
with a quadratic gauge) is linear, and the DST preconditioner is a fast
Poisson one for it (Concus & Golub 1973), so it descends its finest grid
alone, from zero: there coarse levels only delay it.  So does an eigen
solve where ``_precond_exact`` holds, from its seed ``_bbox_seed``, the
discrete eigenvector (Buzbee, Golub & Nielson 1970), even when given a
start.  One restart rule forms each level's first direction and keeps
every direction a descent one: no direction yet, or a CG direction
whose slope is not negative, becomes the preconditioned steepest
descent -z before its search.  Elsewhere an eigen solve may start from
a given field on the finest grid (the harness passes the case's torsion
field, the first inverse power step from a constant); it then runs that
one level, and its iteration count is that level's.  A level's own
start (zero, or the seed) is feasible as formed and enters the descent
as it is; only a caller's field, a given start or the coarser level's
result prolonged, is projected (clamped nonnegative for an eigen solve,
zeroed off the free nodes), once, by ``_start_values``.  One bracketing
Wolfe line search picks every step: a trial is accepted once its value
exceeds the current one by at most its rounding (``TIE``) and the slope
along the ray has shrunk to ``WOLFE_C2`` times the initial one.  Its
first trial is the exact minimizer along the ray on the quadratic path
(p = 2 with a quadratic gauge), whose slope is ~0, so it is taken at
once; elsewhere it is the last accepted step.  Every trial point costs
one value-and-gradient evaluation, the search receives the slope of its
direction rather than the old gradient, and the accepted trial's value
and gradient start the next iteration.  Each solve reports which rule
stopped it:

* ``"dual"`` - the quadratic path's rule: the preconditioned dual
  residual (the iterate's relative energy-norm error) is below ``tol``.
  Where ``_precond_exact`` holds, the level first reads it from the bound
  g . z <= |g|^2 / sigma_min (sigma_min the least DST symbol): when that
  bound's residual is below ``tol`` the level stops and reports it,
  without forming z; else it forms z as everywhere.  The bound never
  stops a level the dual residual would not stop, so only the reported
  residual of such a stop differs from z's, and it bounds it from above;
* ``"window"`` - the nonlinear path's rule, checked once 25 iterations
  have run (the DST preconditioner does not match the p != 2 Hessian):
  the relative value decrease over the last 25 is below ``tol``;
* ``"line_search"`` - the line search finds no step along the
  iteration's direction that decreases the value; converged only when
  the dual residual is below sqrt(tol), i.e. when the value gap the
  quadratic model predicts is below ``tol``;
* ``"budget"`` - ``max_iter``, the budget of all grid levels together,
  ran out; never converged.  This and "line_search" report the dual
  residual.

Off the quadratic path the descent minimizes the regularized
F_eps = sqrt(F^2 + eps^2) - eps, with F_eps(0) = 0.  F^p is differentiable
for p > 1, but without eps the descent stops further from the minimizer
where gradients vanish (at p = 1.1, h = diam/64 and lq:2, T 3.1 % low on
wulff:1,256), while the catalog's lambda, T and Mv move by at most 1.6e-6.
Only the descent's kernel ``_grad_energy_with_grad`` evaluates F_eps, and
``grad_energy`` is the eps = 0 energy that reports lambda and T_dual.  Off
the quadratic path both work per triangle: the kernel takes F^2 from the
gauge's ``value_wgrad2`` as it comes (g . A g for a quadratic gauge, with
no square root), and ``grad_energy`` raises ``value2`` to p.  The
quadratic path runs at eps = 0; there both call ``_edge_energy``, the
edge-weight form of P1 stiffness for F^2 = g . A g (A from the gauge's
``quadratic_form``), with no per-triangle pass and no call into
``norms``.  (p, gauge) alone picks the formula.
Grids and their free-node masks come from ``geometry``.

Memory: while a level descends it holds psi, z, d, one trial point and
its gradient (while the preconditioner runs, the new z in place of the
trial point), besides the grid masks and the coarser level's result,
which the level prolongs itself: five grid-sized arrays on the
quadratic path (psi and its gradient where the bound above stops it at
iteration 0, having formed no z and no direction).  Anything else a
level forms is either grid-sized only while no trial gradient exists
(the edge kernel's value buffer, the masked copies of the ray
curvatures, the eigen denominator and the torsion load) or formed a
block of rows at a time (the edge kernel's gradient, the eigen
denominator's gradient, the sine-transform divisor).  Inner products
are ``_dot``, which forms no full-size product; the sine transforms run
in place in the new z; the CG update works in the old z's storage and
in d; and the line search keeps only the step and value of its best
trial.  Off the
quadratic path the kernel also holds the two arrays of grid differences
and one half's F_eps^p, and forms the rest in blocks of at most
``BLOCK`` triangles.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn
from scipy.special import betainc

from .config import DEFAULTS
from .geometry import (CoarseGridError, ConvexPolygon, Grid, build_grid,
                       grid_axes)
from .norms import MinkowskiNorm, pi_p

WINDOW = 25  # iterations spanned by the nonlinear path's convergence rule
EPS_FACTOR = 1e-8  # gradient regularization per unit of domain diameter
WOLFE_C2 = 0.3  # accepted |slope| as a share of the initial one
MAX_TRIALS = 60  # trial points per direction of the Wolfe line search
_EPS = float(np.finfo(float).eps)
TIE = 4.0 * _EPS  # relative rise of an accepted trial: the value's rounding
BLOCK = 2**15  # elements of a streamed block of rows, and of _dot's leaves


class ConvergenceError(RuntimeError):
    """Solver failed to meet the tolerance within the iteration budget."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True, eq=False)
class GridField:
    """Scalar values on a grid; zero outside the interior mask."""

    grid: Grid
    values: np.ndarray

    def integral(self, power: float = 1.0) -> float:
        return _mass(self.values, self.grid, power)

    def to_csv(self, path) -> None:
        """x,y,value rows, x-major, written one grid column at a time."""
        y = self.grid.y.tolist()
        with open(path, "w") as fh:
            fh.write("x,y,value\n")
            for x, column in zip(self.grid.x.tolist(), self.values):
                fh.writelines(f"{x:.12g},{yj:.12g},{v:.12g}\n"
                              for yj, v in zip(y, column.tolist()))


# -- energy kernels -----------------------------------------------------------


def _tri_gradients(psi: np.ndarray, hx: float, hy: float):
    """P1 gradients on the lower-left / upper-right triangle of each cell."""
    dx = (psi[1:, :] - psi[:-1, :]) / hx
    dy = (psi[:, 1:] - psi[:, :-1]) / hy
    return dx[:, :-1], dy[:-1, :], dx[:, 1:], dy[1:, :]


def _pow(x: np.ndarray, p: float, out=None) -> np.ndarray:
    """x^p; ``out``, when given, is x itself (an in-place power)."""
    if p == 2.0:
        return np.multiply(x, x, out=out)
    if p == 1.0:
        return x
    return np.power(x, p, out=out)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``float((x * y).sum())`` bit for bit, without the full-size product.

    x and y are C-contiguous arrays of one shape.  NumPy sums a
    contiguous array pairwise (Higham, SIAM J. Sci. Comput. 14, 1993):
    above 128 elements it adds the sums of the first n2 and the last
    n - n2, with n2 half the length rounded down to a multiple of 8.  This
    follows that split down to leaves of at most BLOCK elements, whose
    products NumPy sums in the same way.  A zero's sign may differ inside,
    but NumPy adds the total to +0.0, so the result does not.  The
    recursion is a module-level function: a nested function that calls
    itself is a reference cycle, which holds x and y until the garbage
    collector runs.
    """
    n = x.size
    if n <= BLOCK:
        return float((x * y).sum())
    x, y = x.reshape(-1), y.reshape(-1)
    mid = n // 2 - n // 2 % 8
    return _dot(x[:mid], y[:mid]) + _dot(x[mid:], y[mid:])


def _mass(psi: np.ndarray, grid: Grid, p: float = 1.0) -> float:
    """The integral of psi^p over the free nodes, for psi >= 0."""
    v = psi[grid.mask]  # a copy, raised to p in place
    return float(grid.cell_area * _pow(v, p, out=v).sum())


def _quadratic_form(norm: MinkowskiNorm, p: float):
    """The gauge's (a11, a12, a22) where F^p is the quadratic g . A g.

    That is p = 2 with a gauge whose square is quadratic; else None, and
    the kernels evaluate the general formula.
    """
    return norm.quadratic_form() if p == 2.0 else None


def _edge_energy(psi: np.ndarray, grid: Grid, a, grad: bool = False):
    """The quadratic path's energy, a sum over the grid's edges.

    With F^2 = g . A g (``a`` = (a11, a12, a22)), a triangle's differences
    Dx and Dy along its legs and Dd = Dx - Dy along its anti-diagonal give
    Dx Dy = (Dx^2 + Dy^2 - Dd^2) / 2, so its area times F^2 is
    (cx Dx^2 + cy Dy^2 - a12 Dd^2) / 2 with cx = a11 hy/hx + a12 and
    cy = a22 hx/hy + a12.  An x- or y-edge lies in two triangles, or in
    one on the border of the box, and an anti-diagonal in both triangles
    of its cell, so the energy is sum c D^2 over three edge families (a
    weighted graph Laplacian), with the border terms halved; it holds for
    fields that do not vanish on the border too.  Each family's
    differences are written into one buffer allocated once per call (each
    family uses a contiguous leading part of it) and squared there for
    the sum: no per-triangle gradient and no per-triangle scatter.

    With ``grad`` it returns (energy, gradient), adding 2 c D onto each
    edge's head and -2 c D onto its tail (halved on the border).  The
    gradient array only comes once the value pass has freed its buffer,
    and is filled a block of at most ``BLOCK`` elements' rows at a time
    (the whole grid where one block covers it); each block takes every
    family in turn, so each node receives the same additions in the same
    order as family by family over the whole grid.  The value does not
    depend on ``grad``, so the energy with and without the gradient is the
    same bit for bit.
    """
    a11, a12, a22 = a
    r = grid.hy / grid.hx
    nx, ny = psi.shape
    # (weight, head row offset, head columns, tail columns, border axis):
    # the edge in row e joins node (e + offset, head column) to
    # (e, tail column); the x-family's border edges are its first and
    # last columns, the y-family's its first and last rows
    families = [f for f in (
        (a11 * r + a12, 1, np.s_[:], np.s_[:], 1),
        (a22 / r + a12, 0, np.s_[1:], np.s_[:-1], 0),
        (-a12, 1, np.s_[:-1], np.s_[1:], None),
    ) if f[0] != 0.0]  # a12 = 0: no anti-diagonal term
    buf = np.empty(max((nx - 1) * ny, nx * (ny - 1)))  # the largest family
    val = 0.0
    for c, dh, hc, tc, axis in families:
        head, tail = psi[dh:, hc], psi[:nx - dh, tc]
        d = buf[:head.size].reshape(head.shape)
        _edge_diff(head, tail, d, None, axis, True, True)
        val += c * float(d.sum())  # a BLAS dot may vary with its threads
    if not grad:
        return val
    del buf, d, head, tail
    g = np.zeros_like(psi)
    rows = min(nx, max(1, BLOCK // ny))
    buf = np.empty((rows + 1) * ny)
    for r0 in range(0, nx, rows):
        r1 = min(r0 + rows, nx)
        for c, dh, hc, tc, axis in families:
            e0, e1 = max(r0 - dh, 0), min(r1, nx - dh)  # edges at r0:r1
            head, tail = psi[e0 + dh:e1 + dh, hc], psi[e0:e1, tc]
            d = buf[:head.size].reshape(head.shape)
            _edge_diff(head, tail, d, 2.0 * c, axis, e0 == 0, e1 == nx)
            g[e0 + dh:r1, hc] += d[:r1 - dh - e0]
            g[r0:e1, tc] -= d[r0 - e0:]
    return val, g


def _edge_diff(head, tail, d, scale, axis, first, last):
    """head - tail into ``d``, squared without ``scale``, else times it;
    border edges halved (the y-family's first and last rows only when
    ``first`` and ``last`` say d holds them)."""
    np.subtract(head, tail, out=d)
    if scale is None:
        d *= d
    else:
        d *= scale
    if axis == 1:
        d[:, 0] *= 0.5
        d[:, -1] *= 0.5
    elif axis == 0:
        if first:
            d[0] *= 0.5
        if last:
            d[-1] *= 0.5


def _fp(norm: MinkowskiNorm, gx, gy, p: float) -> np.ndarray:
    """F^p, the eps = 0 energy density, off the quadratic path."""
    return _pow(norm.value2(gx, gy), p)


def _fp_grad(norm: MinkowskiNorm, gx, gy, p: float, eps: float):
    """(F_eps^p, c W1, c W2) with c = p F_eps^(p-1) / sqrt(F^2 + eps^2).

    Off the quadratic path only (``_edge_energy`` covers it), where eps > 0
    and no divisor vanishes.  Works in place on the arrays ``value_wgrad2``
    returns (F^2, taken as it comes, and W), with the operations of the
    closed form in their order, so the values are those of the
    out-of-place formula bit for bit.
    """
    s, w1, w2 = norm.value_wgrad2(gx, gy)
    r = s + eps * eps
    np.sqrt(r, out=r)
    fe = np.divide(s, r + eps, out=s)
    fe1 = _pow(fe, p - 1.0)
    fp = fe1 * fe  # one power call; bit-identical to fe * fe at p = 2
    fe1 *= p  # fe is spent; at p = 2 fe1 is fe
    c = np.divide(fe1, r, out=r)
    w1 *= c
    w2 *= c
    return fp, w1, w2


def grad_energy(psi: np.ndarray, grid: Grid, norm: MinkowskiNorm,
                p: float) -> float:
    """sum over triangles of area * F(grad psi)^p, the energy at eps = 0."""
    a = _quadratic_form(norm, p)
    if a is not None:
        return _edge_energy(psi, grid, a)
    gxl, gyl, gxu, gyu = _tri_gradients(psi, grid.hx, grid.hy)
    w = 0.5 * grid.cell_area
    return float(w * (_fp(norm, gxl, gyl, p).sum()
                      + _fp(norm, gxu, gyu, p).sum()))


def _grad_energy_with_grad(psi, grid, norm, p, eps):
    a = _quadratic_form(norm, p)
    if a is not None:
        return _edge_energy(psi, grid, a, grad=True)
    g = np.zeros_like(psi)
    gxl, gyl, gxu, gyu = _tri_gradients(psi, grid.hx, grid.hy)
    w = 0.5 * grid.cell_area
    cx = w / grid.hx
    cy = w / grid.hy
    # a block of at most BLOCK triangles at a time, every lower block
    # before any upper one, so that each node receives the same additions
    # in the same order as half by half over the grid; a half's F_eps^p is
    # summed as a whole once its last block is in
    n = gxl.shape[0]
    rows = max(1, BLOCK // gxl.shape[1])
    fp = None
    for i in range(0, n, rows):
        j = min(i + rows, n)
        fpb, ax, ay = _fp_grad(norm, gxl[i:j], gyl[i:j], p, eps)
        fp = _rows_into(fp, fpb, i, n)
        if j == n:
            sum_l, fp = fp.sum(), None
        del fpb
        ax *= cx
        ay *= cy
        g[i + 1:j + 1, :-1] += ax
        ax += ay
        g[i:j, :-1] -= ax
        g[i:j, 1:] += ay
        del ax, ay
    lag = None
    for i in range(0, n, rows):
        j = min(i + rows, n)
        fpb, bx, by = _fp_grad(norm, gxu[i:j], gyu[i:j], p, eps)
        fp = _rows_into(fp, fpb, i, n)
        if j == n:
            sum_u, fp = fp.sum(), None
        bx *= cx
        by *= cy
        g[i + 1:j + 1, 1:] += np.add(bx, by, out=fpb)
        g[i:j, 1:] -= bx
        del fpb, bx
        # the last row this block's -by reaches takes -bx from the next
        # block first, so -by is applied one block late
        if lag is not None:
            g[lag[0]:lag[1], :-1] -= lag[2]
        lag = i + 1, j + 1, by
    g[lag[0]:lag[1], :-1] -= lag[2]
    return float(w * (sum_l + sum_u)), g


def _rows_into(whole, part, i: int, n: int) -> np.ndarray:
    """``part`` as rows i: of an n-row array: ``part`` itself when it has
    all n rows, else copied into ``whole`` (allocated for the first part)."""
    if len(part) == n:
        return part
    if whole is None:
        whole = np.empty((n,) + part.shape[1:])
    whole[i:i + len(part)] = part
    return whole


# -- preconditioner and prolongation -----------------------------------------


def _make_precond(grid: Grid, norm: MinkowskiNorm):
    """Inverse of the 5-point operator -(a11 d_xx + a22 d_yy) on the full
    bounding grid (zero BC), the principal part of the gauge's operator.

    (a11, a22) is the diagonal of the gauge's ``quadratic_form`` at every
    p, and (1, 1), the Laplacian, for a gauge without one.  Applied
    through DST-I diagonalization, dividing by the symbol a11 lam1[i] +
    a22 lam2[j] a block of ``rows`` rows at a time (no grid-sized table of
    it); restricted to the mask on the way out by multiplying with it.
    Where ``_precond_exact`` holds this inverts the p = 2 energy's
    Hessian, up to the factor 2 cell_area; elsewhere it is spectrally
    equivalent to it.  Returns (apply, sigma_min), sigma_min = a11 lam1[0]
    + a22 lam2[0] the symbol's least value: the operator is symmetric with
    largest eigenvalue 1 / sigma_min, and the mask cannot raise it, so
    g . apply(g) <= |g|^2 / sigma_min for every g.  The result's interior
    receives a copy of g's, and both transforms run in place there
    (``overwrite_x`` on the strided view), so no transform array lives
    beside it; only its border is zeroed.  The transforms use one thread
    per CPU this process may run on, not per CPU of the machine (the
    results do not depend on the count).
    """
    a11, _, a22 = norm.quadratic_form() or (1.0, 0.0, 1.0)
    m1, m2 = grid.nx - 2, grid.ny - 2
    lam1 = a11 * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, m1 + 1)
                                     / (m1 + 1))) / (grid.hx * grid.hx)
    lam2 = a22 * (2.0 - 2.0 * np.cos(np.pi * np.arange(1, m2 + 1)
                                     / (m2 + 1))) / (grid.hy * grid.hy)
    sigma_min = float(lam1[0] + lam2[0])  # both rise with their index
    rows = max(1, BLOCK // m2)
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count()

    def apply(g: np.ndarray) -> np.ndarray:
        z = np.empty_like(g)
        zi = z[1:-1, 1:-1]
        zi[...] = g[1:-1, 1:-1]
        t = dstn(zi, type=1, workers=workers, overwrite_x=True)
        for i in range(0, m1, rows):
            t[i:i + rows] /= lam1[i:i + rows, None] + lam2
        t = idstn(t, type=1, workers=workers, overwrite_x=True)
        if not np.may_share_memory(t, z):  # a transform that copied
            zi[...] = t
        # the border (never free) is zeroed before the mask multiplies
        # all of z, as the mask does not clear what np.empty left there
        z[0] = z[-1] = z[:, 0] = z[:, -1] = 0.0
        z *= grid.mask
        return z

    return apply, sigma_min


def _precond_exact(grid: Grid, a) -> bool:
    """Whether ``_make_precond`` inverts the p = 2 Hessian on ``grid``."""
    return a is not None and a[1] == 0.0 and bool(grid.mask[1:-1, 1:-1].all())


def _linear_stencil(fine: np.ndarray, start: float, h: float):
    """Per-axis lower coarse node floor(t) and ndimage's order-1 weights."""
    t = (fine - start) / h
    i0 = np.floor(t)
    w0 = 1.0 - (t - i0)
    return i0.astype(np.intp), (w0, 1.0 - w0)


def _prolong(values: np.ndarray, coarse: Grid, fine: Grid) -> np.ndarray:
    """Bilinear interpolation of a coarse-level field onto the fine grid.

    Bit-identical to ``scipy.ndimage.map_coordinates(values, coords,
    order=1, mode="nearest")`` at the fine nodes.  Per axis the coarse
    coordinate t has the nodes i0 = floor t and i0 + 1, with ndimage's
    weights w0 = 1 - (t - i0) and w1 = 1 - w0.  Nearest mode clamps the
    node indices to the coarse axis, not t, which is ``np.take``'s
    ``mode="clip"``.  The value is summed in ndimage's corner order from a
    +0.0 accumulator, so a -0.0 product reads +0.0:

        0.0 + c00 wx0 wy0 + c01 wx0 wy1 + c10 wx1 wy0 + c11 wx1 wy1,

    each product taken as (c wx) wy.  The rows are gathered and weighted
    at coarse-row length, then the columns.  Non-free fine nodes are zero.
    """
    ix, wx = _linear_stencil(fine.x, coarse.x[0], coarse.hx)
    iy, wy = _linear_stencil(fine.y, coarse.y[0], coarse.hy)
    out = np.zeros((fine.nx, fine.ny))
    col = np.empty_like(out)
    for di in (0, 1):
        rows = np.take(values, ix + di, axis=0, mode="clip") * wx[di][:, None]
        for dj in (0, 1):
            np.take(rows, iy + dj, axis=1, out=col, mode="clip")
            col *= wy[dj]
            out += col
    out[~fine.mask] = 0.0
    return out


def _bbox_seed(grid: Grid) -> np.ndarray:
    """The eigen descent's one seed: the box's first sine mode on the free
    nodes, the discrete eigenvector where ``_precond_exact`` holds.  It is
    feasible as formed: positive on the free nodes and +0.0 elsewhere."""
    sx = np.sin(np.pi / (grid.nx - 1) * np.arange(grid.nx))
    sy = np.sin(np.pi / (grid.ny - 1) * np.arange(grid.ny))
    # sin(pi) rounds to +-1e-16 on the box's last nodes, never free: a
    # negative one would leave -0.0 on the fixed nodes
    sx[-1] = sy[-1] = 0.0
    seed = sx[:, None] * sy
    seed *= grid.mask
    return seed


# -- descent engine -----------------------------------------------------------


class _DescentProblem:
    """Shared state for the monotone preconditioned descent.

    ``own_start()`` is the first array of a level given no start,
    feasible as formed; ``_start_values`` projects (``feasible``) only a
    caller's field.  ``prepare(psi)`` turns that feasible array into the
    level's first iterate, in place: as it is here, and normalized (or,
    if massless, replaced by the own start) for the eigen problem.
    ``sigma_min`` is the preconditioner's least symbol where
    ``_precond_exact`` holds, so that ``_descend`` can bound the dual
    residual without applying it, and None elsewhere.
    """

    clamp = linear = False

    def __init__(self, grid: Grid, norm: MinkowskiNorm, p: float, eps: float):
        self.grid = grid
        self.norm = norm
        self.p = p
        self.eps = eps
        # multiplying by the bool mask zeroes the fixed nodes, as by 0.0
        self.free = grid.mask
        a = _quadratic_form(norm, p)
        self.quadratic = a is not None
        self.precond, sigma_min = _make_precond(grid, norm)
        self.sigma_min = sigma_min if _precond_exact(grid, a) else None

    def own_start(self) -> np.ndarray:
        return np.zeros((self.grid.nx, self.grid.ny))

    def prepare(self, psi):
        return psi

    def feasible(self, out: np.ndarray) -> np.ndarray:
        """Clamp (eigen problem) and zero the fixed nodes of ``out`` in place."""
        if self.clamp:
            np.clip(out, 0.0, None, out=out)
        out *= self.free
        return out

    def ray_point(self, psi, d, alpha):
        """The iterate at ``feasible(psi + alpha d)`` and its scale s.

        The iterate is that point divided by s; s is 1 here, and the
        eigen problem normalizes the denominator.  (None, 0) for a point
        that cannot be normalized.
        """
        cand = alpha * d  # the one new array of a trial point
        cand += psi
        return self.feasible(cand), 1.0

    def trial(self, psi, d, alpha):
        """(iterate, value, gradient, scale s) at step ``alpha`` along ``d``.

        The slope of the value along the ray is g . d / s: the eigen
        quotient is 0-homogeneous, so its gradient at the unnormalized
        point is g / s.  (None, inf, None, 0) for a point that cannot be
        normalized.
        """
        cand, s = self.ray_point(psi, d, alpha)
        if cand is None:
            return None, math.inf, None, s
        fc, gc = self.value_grad(cand)
        return cand, fc, gc, s


class _EigenProblem(_DescentProblem):
    clamp = True

    def own_start(self) -> np.ndarray:
        return _bbox_seed(self.grid)

    def prepare(self, psi):
        d = _mass(psi, self.grid, self.p)
        if d <= 0.0:
            psi = self.own_start()
            d = _mass(psi, self.grid, self.p)
        psi /= d ** (1.0 / self.p)
        return psi

    def value_grad(self, psi):
        num, gn = _grad_energy_with_grad(psi, self.grid, self.norm, self.p,
                                         self.eps)
        p = self.p
        # d/dpsi of the denominator, a block of rows at a time; iterates
        # are clamped nonnegative, and the denominator is 1 by normalization
        rows = max(1, BLOCK // psi.shape[1])
        for i in range(0, psi.shape[0], rows):
            gd = _pow(psi[i:i + rows], p - 1.0) * (p * self.grid.cell_area)
            gd *= num
            gn[i:i + rows] -= gd
        gn *= self.free
        return num, gn

    def first_step(self, psi, d, f, slope, alpha0):
        """The line search's first trial: on the quadratic path the exact
        ray minimizer, else (or if there is none) the last accepted step
        ``alpha0``, and before any a step of half the iterate's scale."""
        if self.quadratic:
            # numerator and denominator are quadratic forms along the ray,
            # and the numerator's cross term follows from the quotient
            # slope: with the iterate normalized, <gradN, d> = slope + 2 f e
            n_d = grad_energy(d, self.grid, self.norm, self.p)
            w = self.grid.cell_area
            dm = d[self.grid.mask]
            e = w * _dot(psi[self.grid.mask], dm)
            dd = w * _dot(dm, dm)
            alpha = _ray_minimizer(n_d, f, dd, e, 0.5 * slope)
            if alpha is not None:
                return alpha
        if alpha0 is not None and alpha0 > 0:
            return alpha0
        nrm_d = float(np.abs(d).max())
        nrm_p = float(np.abs(psi).max())
        return 0.5 * (nrm_p + 1e-30) / (nrm_d + 1e-30)

    def ray_point(self, psi, d, alpha):
        cand, _ = super().ray_point(psi, d, alpha)
        dc = _mass(cand, self.grid, self.p)
        if dc <= 0.0:
            return None, 0.0
        s = dc ** (1.0 / self.p)
        cand /= s
        return cand, s


class _TorsionProblem(_DescentProblem):
    linear = True  # on the quadratic path: one level, from zero

    def value_grad(self, psi):
        load = _mass(psi, self.grid)  # its copy of psi goes before gn comes
        num, gn = _grad_energy_with_grad(psi, self.grid, self.norm, self.p,
                                         self.eps)
        gn /= self.p
        gn -= self.grid.cell_area  # the load, then zero on the fixed nodes
        gn *= self.free
        return num / self.p - load, gn

    def first_step(self, psi, d, f, slope, alpha0):
        """As for the eigen problem; the exact step is -slope / (d . A d)."""
        if self.quadratic:
            n_d = grad_energy(d, self.grid, self.norm, self.p)
            if n_d > 0:
                return -slope / n_d
        if alpha0 is not None and alpha0 > 0:
            return alpha0
        return 1.0  # the line search's extrapolation fixes a bad scale


def _ray_minimizer(a, c, dd, e, a0) -> float | None:
    """The exact minimizer along a ray whose quotient is quadratic/quadratic.

    Of the positive stationary steps of (c + 2b t + a t^2) /
    (1 + 2e t + dd t^2), the one with the least quotient; None if none.
    ``a0`` is half the quotient's slope at t = 0, b - c e, given exactly:
    b = a0 + c e, and forming b - c e instead cancels when c e >> |a0|.
    The roots of a2 t^2 + a1 t + a0 are the stable pair q / a2, a0 / q,
    q = -(a1 + sign(a1) sqrt(disc)) / 2, which keeps the small root when
    4 |a2 a0| << a1^2.
    """
    b = a0 + c * e
    a2 = a * e - b * dd
    a1 = a - c * dd
    roots = []
    if abs(a2) > 1e-300:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc >= 0.0:
            q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
            if q != 0.0:  # else a1 = a0 = 0: the double root t = 0
                roots = [q / a2, a0 / q]
    elif abs(a1) > 1e-300:
        roots = [-a0 / a1]

    def ratio(t):
        den = 1.0 + 2.0 * e * t + dd * t * t
        if den <= 0.0:
            return math.inf
        return (c + 2.0 * b * t + a * t * t) / den

    return min((t for t in roots if t > 0.0 and math.isfinite(ratio(t))),
               key=ratio, default=None)


def _start_values(start: GridField | None, problem) -> np.ndarray:
    """A fresh feasible array of a level's start on ``problem.grid``: the
    problem's ``own_start()``, feasible as formed, without ``start``; else
    a copy of its values, or their prolongation when they live on the
    coarser grid, which ``feasible`` clamps (eigen) and zeroes off the
    free nodes: the one place a start is projected."""
    if start is None:
        return problem.own_start()
    if start.grid is problem.grid:
        values = start.values.copy()  # the caller's field stays unchanged
    else:
        values = _prolong(start.values, start.grid, problem.grid)
    return problem.feasible(values)


def _descend(problem: _DescentProblem, start: GridField | None, tol: float,
             max_iter: int):
    """Monotone preconditioned CG descent on one grid, from ``start``.

    ``_start_values`` forms the level's start, projecting a caller's field
    but not the problem's own start, and ``prepare`` turns it into the
    first iterate in place.  Each iterate, the start and every accepted
    step, forms its z before its stop checks, except where
    ``problem.sigma_min`` is set (``_precond_exact``): there the residual
    of the bound g . z <= |g|^2 / sigma_min is read first, and below
    ``tol`` (and 1, where it rises with g . z for either sign of f) it
    stops the level on "dual" with no z.  The level starts with no
    direction; the restart rule forms the first one, and replaces a CG
    direction whose slope is not negative, as the preconditioned steepest
    descent -z.  On both paths the step comes from one line search,
    ``_wolfe_step``, and a failed search ends the level on "line_search".
    The search receives the slope of its direction, so the old gradient
    is freed before any trial point is evaluated; each trial point costs
    one ``value_grad``, and the accepted one's value and gradient start
    the next iteration.
    No accepted step raises the value by more than ``TIE`` |f|, the
    rounding of the value.

    The quadratic path converges on "dual" only, the nonlinear path on a
    full "window" only.  Returns (psi, iterations, residual, converged,
    stop), where ``stop`` names the rule that ended the descent (see the
    module docstring) and ``residual`` is the window decrease for "window"
    and the dual residual (or, where the bound stopped the level, the
    bound's) for every other stop.
    """
    psi = problem.prepare(_start_values(start, problem))
    f, g = problem.value_grad(psi)
    hist = [f]
    w = problem.grid.cell_area
    z = d = alpha_prev = None
    it = 0
    while True:
        if problem.sigma_min is not None:
            # g . z <= |g|^2 / sigma_min: below 1 the bound's dual bounds
            # the dual for either sign of f, so the stop needs no z
            dual = _dual_residual(f, _dot(g, g) / problem.sigma_min, w)
            if dual < min(tol, 1.0):
                return psi, it, dual, True, "dual"
        zn = problem.precond(g)
        if d is not None:
            # PR+ beta from (z - zn) g in the old z's storage, and d in place
            z -= zn
            z *= g
            beta = max(-float(z.sum()) / gz, 0.0)
            if not math.isfinite(beta):
                beta = 0.0
            d *= beta
            d -= zn
        z = zn
        gz = _dot(g, z)
        dual = _dual_residual(f, gz, w)
        if problem.quadratic:
            if dual < tol:
                return psi, it, dual, True, "dual"
        elif len(hist) > WINDOW:
            window = _window_residual(hist)
            if window < tol:
                return psi, it, window, True, "window"
        if it >= max_iter:
            return psi, it, dual, False, "budget"
        it += 1
        slope = math.nan if d is None else _dot(g, d)
        if not slope < 0.0:  # first or restart: -z descends wherever gz > 0
            d, slope = -z, -gz
        del g  # beta needs only z and gz of the old point
        found = _wolfe_step(problem, psi, d, f, slope, alpha_prev)
        if found is None:
            # converged only if the predicted value gap dual^2 is below tol
            return psi, it, dual, dual < math.sqrt(tol), "line_search"
        alpha_prev, psi, f, g = found
        del found  # else it keeps this g alive through the next step
        hist.append(f)


def _wolfe_step(problem, psi, d, f, slope0, alpha_prev):
    """A bracketing line search for a strong Wolfe step along ``d``.

    With phi(alpha) the value at step alpha and phi' its slope (phi'(0) is
    ``slope0``), a trial is accepted when phi(alpha) <= f + TIE |f| and
    |phi'(alpha)| <= WOLFE_C2 |phi'(0)|: a rise that small is the rounding
    of the value (its sums, and the eigen iterate's normalization), not a
    stall.  The first trial is ``problem.first_step``: the exact ray
    minimizer on the quadratic path, whose slope is ~0, else the last
    accepted step.  While the slope stays steeper than that, the step
    grows by the secant of phi' (at most 8x); once a trial brackets the
    minimizer (no decrease on the best point so far, or a positive
    slope), the next one interpolates inside the bracket, kept to
    [0.1, 0.9] of it.  After MAX_TRIALS trials, or once the bracket is too
    short for a decrease above float resolution, the best trial that
    strictly decreases the value is taken.  The search keeps only that
    trial's step and value, not its point and gradient, and evaluates it
    again in this rare fallback (13 of 5,182 searches over the 36 default
    cases), which gives the same bits; so while a trial point is evaluated
    no other one is held.

    Returns (alpha, iterate, value, gradient) of the accepted trial, or
    None when ``d`` does not descend, or when no trial is accepted and
    none strictly decreases the value.
    """
    if not slope0 < 0.0:
        return None  # not a descent direction
    alpha = problem.first_step(psi, d, f, slope0, alpha_prev)
    lo, f_lo, s_lo = 0.0, f, slope0  # the best point, still descending
    hi = math.inf
    f_hi = s_hi = math.nan
    best = None
    for _ in range(MAX_TRIALS):
        cand, fc, gc, s = problem.trial(psi, d, alpha)
        slope = math.nan if cand is None else _dot(gc, d) / s
        if fc <= f + TIE * abs(f) and abs(slope) <= WOLFE_C2 * abs(slope0):
            return alpha, cand, fc, gc
        if fc < f and (best is None or fc < best[1]):
            best = alpha, fc
        del cand, gc  # before the next trial point is evaluated
        if fc < f_lo and slope < 0.0:
            prev, s_prev = lo, s_lo
            lo, f_lo, s_lo = alpha, fc, slope
            if hi == math.inf:
                grow = 8.0 * alpha
                if slope > s_prev:  # zero of the secant of phi'
                    grow = min(grow, alpha - slope * (alpha - prev)
                               / (slope - s_prev))
                alpha = grow
                continue
        else:
            hi, f_hi, s_hi = alpha, fc, slope
        if -s_lo * (hi - lo) <= _EPS * abs(f_lo):
            break  # no representable decrease is left in the bracket
        alpha = _interpolate(lo, f_lo, s_lo, hi, f_hi, s_hi)
        if not lo < alpha < hi:
            break  # the bracket is below float resolution
    if best is None:
        return None
    cand, fc, gc, _ = problem.trial(psi, d, best[0])  # the same bits again
    return best[0], cand, fc, gc


def _interpolate(lo, f_lo, s_lo, hi, f_hi, s_hi) -> float:
    """Next trial inside the bracket [lo, hi], kept to [0.1, 0.9] of it.

    phi'(lo) < 0.  If phi decreased up to hi with a positive slope there,
    take the zero of the secant of phi'; otherwise the minimizer of the
    quadratic through phi(lo), phi'(lo) and phi(hi), which a non-finite
    phi(hi) sends to the 0.1 end.
    """
    width = hi - lo
    if f_hi < f_lo and s_hi > s_lo:
        t = -s_lo / (s_hi - s_lo)
    else:
        t = -s_lo * width / (2.0 * (f_hi - f_lo - s_lo * width))
    return lo + width * (min(t, 0.9) if t > 0.1 else 0.1)


def _dual_residual(f: float, gz: float, cell_area: float) -> float:
    """Relative energy-norm error sqrt(gz / (2 w |f0|)) of an iterate.

    f0 = f - gz / (2 w) is the minimum the quadratic model with Hessian
    w P^-1 predicts; measuring against f0 rather than f keeps the ratio
    finite at the torsion solve's v = 0 start, where J = 0.
    """
    f0 = f - gz / (2.0 * cell_area)
    return math.sqrt(gz / (2.0 * cell_area * max(abs(f0), 1e-300)))


def _window_residual(hist) -> float:
    """Relative value decrease over the last WINDOW iterations."""
    return abs(hist[-1 - WINDOW] - hist[-1]) / max(abs(hist[-1]), 1e-300)


def _grid_hierarchy(poly: ConvexPolygon, fine: Grid):
    """``fine`` and up to five coarser grids, each of twice the spacing."""
    grids = [fine]
    while len(grids) < 6:
        try:
            grids.append(build_grid(poly, grids[-1].h * 2.0, min_axis=24))
        except CoarseGridError:
            break
    return grids  # fine -> coarse


# -- public solver results ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenResult:
    """First Dirichlet eigenvalue and eigenfield, normalized to max u = 1.

    ``stop`` names the rule that ended the finest-level descent ("dual",
    "window", "line_search" or "budget"); ``residual`` is what it measured,
    on a "dual" stop where ``_precond_exact`` holds the residual of the
    preconditioner's norm bound, which bounds the dual residual from
    above.  ``iterations`` is 0 when that rule accepts the start as it is.
    """

    lambda_: float
    u: GridField
    iterations: int
    residual: float
    converged: bool
    stop: str


@dataclass(frozen=True, eq=False)
class TorsionResult:
    """Torsion field v, its integral T, maximum Mv, and the dual energy.

    ``stop`` and ``residual`` are as for ``EigenResult``: where
    ``_precond_exact`` holds, a "dual" stop reports the norm bound's
    residual.
    """

    v: GridField
    T: float
    Mv: float
    T_dual: float
    iterations: int
    residual: float
    converged: bool
    stop: str


def check_p_tol(p: float, tol: float) -> None:
    """ValueError unless p is finite and above 1 and tol finite and above 0."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and exceed 1, got {p:g}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol:g}")


def _eps_for(poly: ConvexPolygon, norm: MinkowskiNorm, p: float) -> float:
    if _quadratic_form(norm, p) is not None:
        return 0.0  # the energy is already smooth (quadratic)
    return EPS_FACTOR * poly.diameter


def _start_grid(start: GridField, poly: ConvexPolygon, h: float) -> Grid:
    """``start.grid``, once its axes equal those of ``build_grid(poly, h)``
    (``grid_axes``, found without building the mask); ValueError when the
    start lives on another grid.
    """
    _, _, x, y = grid_axes(poly, h)
    grid = start.grid
    if not (np.array_equal(grid.x, x) and np.array_equal(grid.y, y)):
        raise ValueError(f"the start field's grid is not the h = {h:g} grid "
                         f"of {poly.provenance}")
    return grid


def _coarse_to_fine(problem_cls, poly: ConvexPolygon, norm: MinkowskiNorm,
                    p: float, h: float, tol: float, max_iter: int,
                    start: GridField | None = None):
    """Descend on each grid level from the coarsest, prolonging upwards.

    The finest grid (``build_grid(poly, h)``, or a given ``start``'s)
    decides the levels.  A ``linear`` problem on the quadratic path, and a
    solve where ``_precond_exact`` holds, descend it alone from the
    problem's ``own_start()`` (zero, or the eigen seed ``_bbox_seed``),
    even when given a start; else a start is descended on its grid alone,
    from a copy of its values, and an unseeded solve runs
    ``_grid_hierarchy``'s levels.  The coarsest level starts from its
    ``own_start()``; every finer level receives the coarser level's
    result and prolongs it itself, so the driver holds no prolonged copy
    while the level descends.  Each level's budget is what the levels
    before it left of ``max_iter``.  Returns (finest grid, iterate, the
    iterations of the levels run, and the finest level's residual,
    converged and stop).
    """
    check_p_tol(p, tol)
    eps = _eps_for(poly, norm, p)
    a = _quadratic_form(norm, p)
    fine = (build_grid(poly, h) if start is None
            else _start_grid(start, poly, h))
    if (problem_cls.linear and a is not None) or _precond_exact(fine, a):
        grids, start = [fine], None  # the level's own start is exact
    else:
        grids = [fine] if start is not None else _grid_hierarchy(poly, fine)
    total_it = 0
    for grid in reversed(grids):
        psi, it, residual, converged, stop = _descend(
            problem_cls(grid, norm, p, eps), start, tol, max_iter - total_it)
        total_it += it
        start = GridField(grid, psi)
    return grids[0], psi, total_it, residual, converged, stop


def _checked(kind: str, poly: ConvexPolygon, result, outcome: str):
    """The solves' one exit: ``result`` if converged, else ConvergenceError."""
    if result.converged:
        return result
    raise ConvergenceError(
        f"{kind} solve on {poly.provenance} {outcome} (stop "
        f"{result.stop}, residual {result.residual:.2e} after "
        f"{result.iterations} iterations)", result)


def solve_eigen(poly: ConvexPolygon, norm: MinkowskiNorm, p: float, h: float,
                tol: float = DEFAULTS["tol"],
                max_iter: int = DEFAULTS["max_iter"],
                start: GridField | None = None) -> EigenResult:
    """Minimize the discrete Rayleigh quotient; returns max-normalized u.

    Where ``_precond_exact`` holds the descent runs on the finest grid
    alone from ``_bbox_seed``, the discrete eigenvector, even when given
    a ``start``, and stops there on the preconditioner's norm bound
    without applying it.  Elsewhere a start on the grid ``build_grid(poly, h)``
    would build (in practice the torsion field v of the same case) is
    descended on that grid alone, its values unchanged (one with no
    positive free value falls back to the seed), and without one the
    descent runs coarse to fine from the seed.  ValueError when a start
    lives on another grid.  ``iterations`` counts the iterations of every
    level run, and ``max_iter`` bounds it.
    The reported eigenvalue re-evaluates the quotient of the minimizer at
    eps = 0.  ``tol`` bounds the dual residual on the quadratic path and
    the 25-iteration relative quotient decrease on the nonlinear path (see
    the module docstring).  Raises ConvergenceError (carrying the partial
    result) when its path's rule is not met within ``max_iter``
    iterations or the line search fails short of sqrt(tol), and when the
    descent ends on a null field (the partial result then holds the zero
    field and lambda = nan).  u is the iterate itself, normalized in
    place, so the quotient's re-evaluation holds no second field.
    """
    grid, psi, total_it, residual, converged, stop = _coarse_to_fine(
        _EigenProblem, poly, norm, p, h, tol, max_iter, start)
    umax = float(psi.max())
    null = not umax > 0.0
    if null:
        u, lam = np.zeros_like(psi), math.nan
    else:
        u = psi
        u /= umax  # in place: the bits of psi / umax, and no second field
        lam = grad_energy(u, grid, norm, p) / _mass(u, grid, p)
    result = EigenResult(lambda_=lam, u=GridField(grid, u), iterations=total_it,
                         residual=residual,
                         converged=converged and not null, stop=stop)
    return _checked("eigen", poly, result,
                    "produced a null field" if null else "did not converge")


def solve_torsion(poly: ConvexPolygon, norm: MinkowskiNorm, p: float, h: float,
                  tol: float = DEFAULTS["tol"],
                  max_iter: int = DEFAULTS["max_iter"]) -> TorsionResult:
    """Minimize J(v) = (1/p) sum F_eps(grad v)^p - sum v over zero-boundary fields.

    On the quadratic path (p = 2 with a quadratic gauge) the descent runs
    on the finest grid alone, from zero; elsewhere it runs coarse to fine.
    ``tol`` and ``max_iter`` act, and ConvergenceError is raised, as in
    ``solve_eigen``; when the descent ends with no positive value, the
    partial result reports T, Mv and T_dual as nan.  ``v`` is the
    iterate unclipped, so a sign defect stays visible.
    """
    grid, psi, total_it, residual, converged, stop = _coarse_to_fine(
        _TorsionProblem, poly, norm, p, h, tol, max_iter)
    mv = float(psi.max())
    null = not mv > 0.0
    if null:
        mv = t_int = t_dual = math.nan
    else:
        t_int = _mass(psi, grid)
        t_dual = grad_energy(psi, grid, norm, p)
    result = TorsionResult(v=GridField(grid, psi), T=t_int, Mv=mv,
                           T_dual=t_dual, iterations=total_it, residual=residual,
                           converged=converged and not null, stop=stop)
    return _checked("torsion", poly, result, "produced no positive value"
                    if null else "did not converge")


# -- derived checks ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PFunctionResult:
    """Gradient-maximum field (p-1)F^p(grad u) + lambda (u^p - 1).

    The interior maximum principle predicts nonpositive values away from
    the boundary; ``max_interior`` excludes the one-node collar where the
    central-difference stencil straddles the Dirichlet kink.
    """

    field: GridField
    valid: np.ndarray
    max_interior: float


def p_function(result: EigenResult, norm: MinkowskiNorm,
               p: float) -> PFunctionResult:
    grid = result.u.grid
    u = result.u.values
    gx = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * grid.hx)
    gy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * grid.hy)
    f = norm.value2(gx, gy)
    inner = (p - 1.0) * np.power(f, p) + result.lambda_ * (
        np.power(np.abs(u[1:-1, 1:-1]), p) - 1.0)
    values = np.zeros_like(u)
    values[1:-1, 1:-1] = inner
    m = grid.mask
    valid = np.zeros_like(m)
    valid[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[2:, 1:-1] & m[:-2, 1:-1]
                         & m[1:-1, 2:] & m[1:-1, :-2])
    values[~m] = 0.0
    max_interior = float(values[valid].max()) if valid.any() else math.nan
    return PFunctionResult(field=GridField(grid, values), valid=valid,
                           max_interior=max_interior)


def phi_profile(s, p: float):
    """The comparison profile Phi(s) on [0, 1] (eigenfield normalized to 1).

    Phi(s) = (pi_p/2)^q - I(s)^q with q = p/(p-1) and I(s) the remaining
    arclength integral from s to the maximum; I reduces to an incomplete
    Beta function, so no quadrature is needed: I(s) = (pi_p/2) *
    (1 - betainc(1/p, 1 - 1/p, s^p)).  Phi(0) = 0 and Phi(1) = (pi_p/2)^q.
    """
    if not (p > 1.0):
        raise ValueError("p must exceed 1")
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    q = p / (p - 1.0)
    half_pi_p = 0.5 * pi_p(p)
    inner = half_pi_p * (1.0 - betainc(1.0 / p, 1.0 - 1.0 / p, np.power(s, p)))
    out = half_pi_p**q - np.power(inner, q)
    return float(out) if out.ndim == 0 else out


def phi_check(eigen: EigenResult, torsion: TorsionResult, p: float) -> float:
    """Pointwise comparison Phi(u) <= q lambda^(1/(p-1)) v.

    Returns the max over nodes of the left side minus the right side,
    which should not exceed the grid tolerance.
    """
    gu, gv = eigen.u.grid, torsion.v.grid
    if not (np.array_equal(gu.x, gv.x) and np.array_equal(gu.y, gv.y)):
        raise ValueError("eigen and torsion fields live on different grids")
    q = p / (p - 1.0)
    lhs = phi_profile(eigen.u.values, p)
    rhs = q * eigen.lambda_ ** (1.0 / (p - 1.0)) * torsion.v.values
    viol = lhs - rhs
    return float(viol[gu.mask].max())


def efficiency_ratio(eigen: EigenResult, area: float, p: float) -> float:
    """E = (integral of u^(p-1))^(1/(p-1)) / (|domain|^(1/(p-1)) max u)."""
    s = eigen.u.integral(power=p - 1.0)
    return (s ** (1.0 / (p - 1.0))) / (area ** (1.0 / (p - 1.0)))


def mass_bound_check(eigen: EigenResult, area: float, p: float) -> float:
    """p * integral(u^p) / (max u^p * |domain|); at most 1 by the maximum principle."""
    return p * eigen.u.integral(power=p) / area
