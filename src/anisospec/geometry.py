"""Convex planar domains and their anisotropic geometric functionals.

Domains are strictly convex CCW polygons; curved shapes (disks, Wulff
shapes) enter as fine polygonal approximations.  That choice keeps the
perimeter, erosion and inradius computations exact polygon arithmetic:

* anisotropic perimeter  P_F = sum over edges of length * F(outer normal)
* inner parallel bodies  (erosion by r times the Wulff shape) from the
  erosion skeleton: every edge moves inward at speed F(normal) up to its
  vanish radius, and the erosion at r intersects the edges alive at r
  (Eppstein & Erickson, "Raising roofs, crashing cycles, and playing
  pool", 1999, for the weighted straight skeleton).  The skeleton is
  built once per (polygon, gauge) and also gives
* anisotropic inradius   R_F = the radius at which the erosion collapses,
  with the collapse point as an incenter, and
* the eroded area        an exact quadratic in r between events, which the
  Cheeger root solve reads (``eroded_area``)
* rolling bodies         K_r = (erode r) ⊕ r*Wulff via the planar
  mixed-area identities

The module owns the solvers' grids: ``build_grid`` masks the free nodes
by the edge half-planes, with ``clearance`` as the per-node margin.  The
gridded anisotropic distance field evaluates the exact formula d_F(x) =
min over edges of (c_e - x.n_e) / F(n_e) at each free node of a case's
solver grid, not fast marching, with the same edge loop as
``clearance``, so its error is set by the grid alone.  Everything here
is numpy: no scipy solver loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .norms import MinkowskiNorm, wulff_polygon

_DEDUP_TOL = 1e-12
# edges whose vanishing radii differ by rounding alone vanish together
_EVENT_RTOL = 16.0 * np.finfo(float).eps


class GeometryError(ValueError):
    """Invalid polygon or invalid geometric operation."""


class CoarseGridError(GeometryError):
    """The requested grid spacing does not resolve the domain."""


def _dedup_ccw(vertices: np.ndarray, tol: float) -> np.ndarray:
    """Keep each vertex farther than ``tol`` (max norm) from the last one kept;
    then drop the last one kept while it lies within ``tol`` of the first."""
    def near(a, b):
        return max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= tol

    kept = []
    for v in vertices.tolist():  # Python floats: ~7x faster than numpy rows
        if not kept or not near(v, kept[-1]):
            kept.append(v)
    while len(kept) > 1 and near(kept[0], kept[-1]):
        kept.pop()
    return np.array(kept).reshape(-1, 2)


def _turns(v: np.ndarray) -> np.ndarray:
    """Cross product of each edge with the next (positive: a left turn)."""
    e = np.roll(v, -1, axis=0) - v
    nxt = np.roll(e, -1, axis=0)
    return e[:, 0] * nxt[:, 1] - e[:, 1] * nxt[:, 0]


def _shoelace(v: np.ndarray) -> float:
    """Signed area of the polygon with vertices ``v`` (positive if CCW).

    Summed about the vertex mean, as the skeleton's area quadratics are,
    so a polygon far from the origin loses no digits to cancellation.
    """
    c = v - v.mean(axis=0)
    x, y = c[:, 0], c[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """Strictly convex polygon with CCW vertices and a provenance tag."""

    vertices: np.ndarray
    provenance: str = "poly"

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError("vertices must be an (n, 2) array")
        if not np.isfinite(v).all():
            raise GeometryError("vertices must be finite")
        v = _dedup_ccw(v, _DEDUP_TOL)
        if len(v) < 3:
            raise GeometryError("polygon needs at least 3 distinct vertices")
        if np.any(_turns(v) <= 0.0):
            raise GeometryError("vertices must be strictly convex in CCW order")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def rectangle(a: float, k: float) -> "ConvexPolygon":
        """The rectangle ]-a, a[ x ]-k, k[."""
        if not (0 < a < math.inf and 0 < k < math.inf):
            raise GeometryError("rectangle needs finite positive half-sides")
        verts = [(-a, -k), (a, -k), (a, k), (-a, k)]
        return ConvexPolygon(np.array(verts, float), f"rect:{a:g},{k:g}")

    @staticmethod
    def regular(n: int, circumradius: float = 1.0) -> "ConvexPolygon":
        if n < 3 or not (0 < circumradius < math.inf):
            raise GeometryError("regular polygon needs n >= 3, finite R > 0")
        th = 2.0 * math.pi * np.arange(n) / n
        verts = circumradius * np.stack([np.cos(th), np.sin(th)], axis=-1)
        return ConvexPolygon(verts, f"regular:{n},{circumradius:g}")

    # -- cached edge data ------------------------------------------------------

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unit outer normals, offsets c with x.n <= c inside, edge lengths)."""
        v = self.vertices
        d = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.stack([d[:, 1], -d[:, 0]], axis=-1) / lengths[:, None]
        offsets = np.einsum("ij,ij->i", normals, v)
        return normals, offsets, lengths

    # -- scalars ---------------------------------------------------------------

    @cached_property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @cached_property
    def diameter(self) -> float:
        v = self.vertices
        d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
        return math.sqrt(float(d2.max()))

    @cached_property
    def bounding_box(self) -> tuple[float, float, float, float]:
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 0].max()),
                float(v[:, 1].min()), float(v[:, 1].max()))

    # -- point queries -----------------------------------------------------------

    def clearance(self, points: np.ndarray) -> np.ndarray:
        """Signed Euclidean distance to the boundary (positive inside).

        min over edges of c_e - x.n_e, in blocks of 64 edges by 1024
        points.  Valid as a distance only for points inside the polygon;
        outside it is just the most violated half-plane margin.  This is
        the per-node formula that defines a grid's free nodes:
        ``build_grid`` decides most nodes from per-column intervals and
        calls it only for the nodes within rounding of an interval end.
        """
        return self._least_margin(points)

    def _least_margin(self, points: np.ndarray,
                      norm: MinkowskiNorm | None = None) -> np.ndarray:
        """min over edges of c_e - x.n_e, divided by F(n_e) if ``norm`` is
        given: blocks of 64 edges by 1024 points, so the scratch matrix
        stays at 0.5 MB however many points come, and the minimum runs
        down its columns."""
        points = np.asarray(points, float)
        flat = points.reshape(-1, 2)
        normals, offsets, _ = self._edges
        speeds = None if norm is None else np.asarray(norm(normals))
        out = np.full(len(flat), np.inf)
        for p in range(0, len(flat), 1024):
            least = out[p:p + 1024]
            for s in range(0, len(normals), 64):
                block = normals[s:s + 64] @ flat[p:p + 1024].T
                np.subtract(offsets[s:s + 64, None], block, out=block)
                if speeds is not None:
                    block /= speeds[s:s + 64, None]
                np.minimum(least, block.min(axis=0), out=least)
        return out.reshape(points.shape[:-1])

    # -- anisotropic functionals ----------------------------------------------

    def perimeter_F(self, norm: MinkowskiNorm) -> float:
        """Boundary integral of F applied to the Euclidean unit outer normal."""
        normals, _, lengths = self._edges
        return float(np.dot(lengths, np.asarray(norm(normals))))

    @lru_cache(maxsize=256)
    def _skeleton(self, norm: MinkowskiNorm) -> "_Skeleton":
        """The erosion skeleton, built once per (polygon, gauge) pair."""
        normals, offsets, _ = self._edges
        return _erosion_skeleton(self.vertices, normals, offsets,
                                 np.asarray(norm(normals), dtype=float))

    def inradius_F(self, norm: MinkowskiNorm) -> tuple[float, np.ndarray]:
        """Exact anisotropic inradius and an incenter.

        The polar distance from x to the boundary is min over edges of
        (c_e - x.n_e) / F(n_e), so the largest ball r*Wulff inside the
        polygon has r = R_F, the radius at which the erosion collapses.
        The incenter is the collapse point, or the midpoint of the segment
        the erosion collapses to; it is a shared read-only array.
        """
        sk = self._skeleton(norm)
        return float(sk.radii[-1]), sk.center

    def eroded_area(self, norm: MinkowskiNorm) -> tuple[np.ndarray, np.ndarray]:
        """The area of the erosion by r*Wulff as a piecewise quadratic in r.

        Returns breakpoints 0 = r_0 < ... < r_m = R_F and an (m, 3) array
        a with |erode(r)| = a_k0 + a_k1 t + a_k2 t^2, t = r - r_k, on
        [r_k, r_k+1]; each piece is exact, from the shoelace formula on
        the skeleton's moving vertices.
        """
        sk = self._skeleton(norm)
        return sk.radii, sk.area

    # -- erosion and rolling bodies ----------------------------------------------

    def erode(self, norm: MinkowskiNorm, r: float) -> "ConvexPolygon | None":
        """Inner parallel body: shrink every edge half-plane by r*F(normal).

        Returns None when the intersection has empty interior (always the
        case once r reaches the anisotropic inradius).  erode(0) returns
        the polygon itself.  The edges with vanish radius above r, each
        moved in by r F(n_e), meet at ``_corner``s.  Near an event,
        rounding can leave an edge within the constructor's duplicate
        tolerance (it goes) or turn a corner the wrong way (the shorter of
        its edges goes); the corners are then retaken from the remaining
        exact lines.
        """
        if r < 0:
            raise GeometryError("erosion radius must be nonnegative")
        if r == 0.0:
            return self
        sk = self._skeleton(norm)
        if r >= sk.radii[-1] * (1.0 - 1e-13):
            return None
        normals, offsets, _ = self._edges
        alive = sk.vanish > r
        origin = self.vertices.mean(axis=0)  # as in the skeleton
        unit = normals[alive, 0] + 1j * normals[alive, 1]
        lines = offsets - normals @ origin - r * np.asarray(norm(normals))
        lines = lines[alive]
        while len(unit) >= 3:
            prev = np.roll(unit, 1)
            w = prev.conj() * unit
            if (w.imag <= 0.0).any():
                return None
            z = _corner(prev, w, np.roll(lines, 1), lines)
            verts = np.column_stack([z.real, z.imag]) + origin
            edges = np.roll(verts, -1, axis=0) - verts  # edge k is line k
            drop = np.abs(edges).max(axis=1) <= _DEDUP_TOL
            if not drop.any():
                wrong = np.flatnonzero(_turns(verts) <= 0.0)
                if not len(wrong):
                    return ConvexPolygon(verts, f"{self.provenance}~erode:{r:g}")
                # the corner after edge k joins edges k and k + 1
                length = np.hypot(edges[:, 0], edges[:, 1])
                nxt = (wrong + 1) % len(unit)
                drop[np.where(length[wrong] <= length[nxt], wrong, nxt)] = True
            unit, lines = unit[~drop], lines[~drop]
        return None

    def rolling_body(self, norm: MinkowskiNorm, r: float) -> tuple[float, float]:
        """Area and anisotropic perimeter of (erode r) ⊕ r*Wulff.

        Planar mixed-area identities for a convex body E and the Wulff
        shape W with area kappa:  |E + rW| = |E| + r P_F(E) + r^2 kappa,
        P_F(E + rW) = P_F(E) + 2 r kappa.
        """
        eroded = self.erode(norm, r)
        if eroded is None:
            raise GeometryError(f"erosion by r={r:g} is empty")
        kappa = norm.wulff_area()
        area_e = eroded.area
        per_e = eroded.perimeter_F(norm)
        return (area_e + r * per_e + r * r * kappa, per_e + 2.0 * r * kappa)


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The erosion of a convex polygon by r*Wulff for every r in [0, R_F].

    Each edge line moves inward at speed F(n_e) until its ``vanish``
    radius (R_F for the edges left at the collapse), so the erosion at r
    is the intersection of the edge half-planes with vanish > r.
    ``radii`` are the event radii, where edges vanish, ending at R_F,
    ``area`` the quadratic of the eroded area between them (see
    ``ConvexPolygon.eroded_area``) and ``center`` the incenter.
    """

    radii: np.ndarray
    area: np.ndarray
    center: np.ndarray
    vanish: np.ndarray


def _corner(n_a: np.ndarray, w: np.ndarray, c_a: np.ndarray,
            c_b: np.ndarray) -> np.ndarray:
    """The point x with n_a.x = c_a and n_b.x = c_b, w = conj(n_a) n_b.

    Points and unit normals are complex numbers, and Re w and Im w are the
    cosine and sine of the turn from n_a to n_b (Im w > 0).  The point is
    n_a (c_a + i (c_b - c_a Re w) / Im w): both equations hold to rounding
    even for nearly parallel lines, whose meeting point is ill-conditioned
    only along the lines, which moves no area.
    """
    return n_a * (c_a + 1j * ((c_b - c_a * w.real) / w.imag))


def _erosion_skeleton(vertices: np.ndarray, normals: np.ndarray,
                      offsets: np.ndarray, speeds: np.ndarray) -> _Skeleton:
    """Follow the vertices of the erosion from r = 0 to its collapse.

    On each interval the active edges keep their neighbours.  Vertex k,
    where active edge k meets its predecessor a, moves with the velocity
    q solving n_a.q = -F(n_a), n_k.q = -F(n_k), so every edge length
    falls or grows linearly, and the interval ends when the first one
    reaches 0: that is the edge's vanish radius.  Edges that vanish at
    the same radius, up to rounding (``_EVENT_RTOL``), go together; the
    erosion has collapsed once fewer than three edges remain or two
    consecutive ones turn by pi or more.  A vertex born at an event is
    placed where its own two edge lines meet (``_corner``), not where the
    vanished edge ended.  Positions are taken relative to the vertex mean,
    which keeps the shoelace sums free of the domain's offset.
    """
    origin = vertices.mean(axis=0)
    offsets = offsets - normals @ origin
    unit = normals[:, 0] + 1j * normals[:, 1]
    act = np.arange(len(vertices))    # vertex k starts edge act[k]
    start = (vertices[:, 0] - origin[0]) + 1j * (vertices[:, 1] - origin[1])
    born = np.zeros(len(act))         # vertex k sits at start + (r - born) vel
    fresh = np.zeros(len(act), dtype=bool)  # born at r, not yet placed
    vanish, last = np.empty(len(act)), (start, np.ones(len(act)))
    r, radii, area = 0.0, [0.0], []
    while len(act) >= 3:
        back = np.arange(-1, len(act) - 1)  # index of the previous vertex
        ahead = back + 2                    # and of the next one
        ahead[-1] = 0
        prev = act[back]
        n_a, n_b = unit[prev], unit[act].conj()
        w = n_a.conj() * unit[act]
        if (w.imag <= 0.0).any():
            break
        f_a, f_b = speeds[prev], speeds[act]
        vel = n_a * (-f_a + 1j * ((f_a * w.real - f_b) / w.imag))
        if fresh.any():
            start[fresh] = _corner(n_a[fresh], w[fresh],
                                   offsets[prev[fresh]] - r * f_a[fresh],
                                   offsets[act[fresh]] - r * f_b[fresh])
        pos = start + (r - born) * vel
        pn, qn = pos[ahead], vel[ahead]
        shrink = (n_b * (vel - qn)).imag
        life = np.full(len(act), np.inf)
        np.divide((n_b * (pn - pos)).imag, shrink, out=life, where=shrink > 0.0)
        step = max(float(life.min()), 0.0)
        if not math.isfinite(step):
            raise GeometryError("erosion does not shrink")
        if step > 0.0:
            area.append([0.5 * np.vdot(pos, pn).imag,
                         0.5 * (np.vdot(pos, qn) + np.vdot(vel, pn)).imag,
                         0.5 * np.vdot(vel, qn).imag])
            radii.append(r + step)
        gone = life <= step + _EVENT_RTOL * (r + step)
        r += step
        last = (pos + step * vel, w.imag)
        vanish[act[gone]] = r
        # vertex k dies with edge k, and is reborn when its predecessor goes
        fresh = gone | gone[back]
        born[fresh] = r
        keep = ~gone
        act, born, start, fresh = act[keep], born[keep], start[keep], fresh[keep]
    vanish[act] = r
    # the collapse point, or the midpoint of the collapse segment, from
    # the best-conditioned corners of the last interval
    ends, turn = last
    sharp = ends[turn >= 0.5 * turn.max()]
    center = origin + 0.5 * np.array([sharp.real.min() + sharp.real.max(),
                                      sharp.imag.min() + sharp.imag.max()])
    center.setflags(write=False)
    return _Skeleton(radii=np.array(radii), area=np.array(area).reshape(-1, 3),
                     center=center, vanish=vanish)


def wulff_domain(norm: MinkowskiNorm, r: float = 1.0, n: int = 256) -> ConvexPolygon:
    """Polygonal Wulff shape of ``norm`` (``n`` rays) as a domain."""
    return ConvexPolygon(wulff_polygon(norm, r, n), f"wulff:{r:g},{n}")


def parse_domain(spec: str, norm: MinkowskiNorm | None = None) -> ConvexPolygon:
    """Parse the domain grammar.

    ``rect:<a>,<k>`` | ``regular:<n>,<circumradius>`` | ``wulff:<r>,<n>``
    | ``poly:<x1>,<y1>;<x2>,<y2>;...``.  The wulff family needs the case
    gauge to be meaningful, hence the ``norm`` argument.
    """
    spec = spec.strip()
    head, sep, tail = spec.partition(":")
    if not sep:
        raise GeometryError(f"malformed domain spec {spec!r}")
    try:
        if head == "rect":
            a, k = (float(t) for t in tail.split(","))
            return ConvexPolygon.rectangle(a, k)
        if head == "regular":
            n, rr = tail.split(",")
            return ConvexPolygon.regular(int(n), float(rr))
        if head == "wulff":
            if norm is None:
                raise GeometryError("wulff domain needs a gauge")
            r, n = tail.split(",")
            return wulff_domain(norm, float(r), int(n))
        if head == "poly":
            pts = np.array([[float(c) for c in pair.split(",")]
                            for pair in tail.split(";")])
            try:
                return ConvexPolygon(pts, f"poly:{len(pts)}")
            except GeometryError:
                return ConvexPolygon(pts[::-1], f"poly:{len(pts)}")
    except GeometryError:
        raise
    except ValueError as exc:
        raise GeometryError(f"malformed domain spec {spec!r}: {exc}") from None
    raise GeometryError(f"unknown domain family {head!r}")


# -- uniform grids and the gridded distance field -------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid covering the domain's bounding box exactly.

    The spacing is snapped per axis (hx = width / round(width / h), same
    for hy) so that grid nodes land exactly on the bounding box; straight
    edges parallel to an axis then carry no systematic half-cell boundary
    offset.  ``mask`` flags the free (interior) nodes; every other node
    carries a hard zero Dirichlet value.  Free nodes keep more than
    0.25 (hx + hy), about half a cell, of clearance to the boundary, so
    the ring of zero nodes straddles the true boundary instead of sitting
    uniformly outside it.  A convex polygon meets each grid column in one
    interval, so the free nodes of a column are one run of consecutive
    nodes (see ``build_grid``).
    """

    hx: float
    hy: float
    x: np.ndarray
    y: np.ndarray
    mask: np.ndarray

    @property
    def h(self) -> float:
        return max(self.hx, self.hy)

    @property
    def nx(self) -> int:
        return len(self.x)

    @property
    def ny(self) -> int:
        return len(self.y)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy


def grid_axes(poly: ConvexPolygon, h: float):
    """(hx, hy, x, y): the snapped spacings and nodes of ``build_grid``."""
    if not (h > 0):
        raise CoarseGridError("grid spacing must be positive")
    xmin, xmax, ymin, ymax = poly.bounding_box
    ncx = max(int(round((xmax - xmin) / h)), 4)
    ncy = max(int(round((ymax - ymin) / h)), 4)
    hx = (xmax - xmin) / ncx
    hy = (ymax - ymin) / ncy
    return (hx, hy, xmin + hx * np.arange(ncx + 1),
            ymin + hy * np.arange(ncy + 1))


def build_grid(poly: ConvexPolygon, h: float, min_axis: int = 16) -> Grid:
    """Grid whose free nodes keep half a cell of clearance to the boundary.

    The first zero node along any grid line lies within half a spacing of
    the true boundary on either side, which keeps the effective Dirichlet
    boundary centered on the exact one.  The mask is exactly
    ``poly.clearance(node) > 0.25 (hx + hy)`` at every node, built column
    by column from the edge half-planes (``_free_nodes``) rather than by
    evaluating every node of the bounding box against every edge.  Cost:
    O(columns x edges + band nodes) arithmetic, the band being the few
    nodes per column within rounding of a run's end, plus writing the
    mask, the one grid-sized array it forms.
    """
    hx, hy, x, y = grid_axes(poly, h)
    mask = _free_nodes(poly, x, y, 0.25 * (hx + hy))
    if min(mask.any(axis=1).sum(), mask.any(axis=0).sum()) < min_axis:
        raise CoarseGridError(
            f"h={h:g} leaves fewer than {min_axis} interior nodes per axis "
            f"of {poly.provenance}")
    return Grid(hx=hx, hy=hy, x=x, y=y, mask=mask)


def _free_nodes(poly: ConvexPolygon, x: np.ndarray, y: np.ndarray,
                thr: float) -> np.ndarray:
    """The mask clearance > thr on the nodes (x_i, y_j), one column at a time.

    Node (x, y) is free iff c_e - x n_x - y n_y > thr for every edge e.  In
    the column at x an edge with n_y > 0 bounds y from above by
    (c_e - thr - x n_x) / n_y, an edge with n_y < 0 bounds it from below,
    and an edge with n_y = 0 keeps or drops the whole column, so the free
    nodes of a column lie strictly inside one interval.  Each bound
    carries a band of 64 eps times the size of the margin's terms (over
    |n_y|), which covers the rounding of both this formula and the
    per-node one.  ``np.searchsorted`` on the ascending y turns the
    bounds into index runs: the nodes of the run [a, b) are free for
    certain and written as one slice, and only the few undecided nodes of
    [j0, a) and [b, j1) are decided by ``poly.clearance`` itself, so the
    mask equals clearance(nodes) > thr.  Cost: O(columns x edges + band
    nodes) arithmetic and one slice per column, with no grid-sized array
    besides the mask and no whole-grid ``nonzero``.
    """
    normals, offsets, _ = poly._edges
    n_x, n_y = normals[:, 0], normals[:, 1]
    band = 64.0 * np.finfo(float).eps * (np.abs(offsets) + thr + np.abs(x).max() * np.abs(n_x)
                          + np.abs(y).max() * np.abs(n_y))

    def bounds(edges):
        # each edge's bound on y in each column, and its band
        b = (offsets[edges] - thr) - x[:, None] * n_x[edges]
        b /= n_y[edges]
        return b, band[edges] / np.abs(n_y[edges])

    # free for certain above lo_in and below hi_in; outside for certain
    # below lo_out or above hi_out
    b, w = bounds(n_y > 0.0)
    hi_in, hi_out = (b - w).min(axis=1), (b + w).min(axis=1)
    b, w = bounds(n_y < 0.0)
    lo_in, lo_out = (b + w).max(axis=1), (b - w).max(axis=1)
    flat = n_y == 0.0
    margin = (offsets[flat] - thr) - x[:, None] * n_x[flat]
    lo_in[(margin <= band[flat]).any(axis=1)] = np.inf
    lo_out[(margin < -band[flat]).any(axis=1)] = np.inf
    # as index runs on the ascending y: free for certain on [a, b),
    # undecided on [j0, a) and [b, j1)
    a = np.searchsorted(y, lo_in, side="right")
    b = np.searchsorted(y, hi_in, side="left")
    j0 = np.searchsorted(y, lo_out, side="left")
    j1 = np.maximum(np.searchsorted(y, hi_out, side="right"), j0)
    sure = a < b
    a[~sure] = b[~sure] = j1[~sure]  # no sure run: [j0, j1) is undecided
    mask = np.zeros((len(x), len(y)), dtype=bool)
    cols = np.flatnonzero(sure)
    for i, lo, hi in zip(cols.tolist(), a[cols].tolist(), b[cols].tolist()):
        mask[i, lo:hi] = True
    # the undecided nodes, run by run: column i and rows start, start + 1, ...
    starts, runs = np.concatenate([j0, b]), np.concatenate([a - j0, j1 - b])
    i = np.repeat(np.tile(np.arange(len(x)), 2), runs)
    j = np.repeat(starts - np.cumsum(runs) + runs, runs) + np.arange(len(i))
    if len(i):
        mask[i, j] = poly.clearance(np.column_stack([x[i], y[j]])) > thr
    return mask


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Anisotropic distance to the boundary sampled on a uniform grid.

    ``values`` is zero outside ``mask``; ``h`` is the larger of the two
    axis spacings.
    """

    h: float
    x: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    values: np.ndarray
    inradius: float
    argmax: np.ndarray


def distance_field(poly: ConvexPolygon, norm: MinkowskiNorm,
                   grid: Grid) -> DistanceField:
    """Sample d_F(x) = inf over boundary points y of F°(x - y) on ``grid``.

    For an interior point of a convex polygon the infimum over an edge's
    whole line is (c_e - x.n_e) / F(n_e), and the least of these over the
    edges is attained on the boundary, so d_F is that minimum exactly,
    taken in the same blocks as ``clearance``.  ``grid`` is a
    ``build_grid`` grid of ``poly``; a case passes its solver grid.
    """
    i, j = np.nonzero(grid.mask)  # the free nodes in C order
    best = poly._least_margin(np.column_stack([grid.x[i], grid.y[j]]), norm)

    values = np.zeros(grid.mask.shape)
    values[i, j] = best
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return DistanceField(h=grid.h, x=grid.x, y=grid.y, mask=grid.mask,
                         values=values,
                         inradius=float(values[i, j]),
                         argmax=np.array([grid.x[i], grid.y[j]]))
