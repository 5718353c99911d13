"""Convex planar domains and their anisotropic geometric functionals.

Domains are strictly convex CCW polygons; curved shapes (disks, Wulff
shapes) enter as fine polygonal approximations.  That choice keeps the
perimeter, erosion and inradius computations exact polygon arithmetic:

* anisotropic perimeter  P_F = sum over edges of length * F(outer normal)
* anisotropic inradius   R_F = Chebyshev center in the polar metric,
  solved exactly as a tiny linear program, once per (polygon, gauge):
  ``inradius_F`` is cached, and erosion reads its incenter
* inner parallel bodies  (erosion by r times the Wulff shape) via
  half-plane clipping with per-edge offsets r * F(normal)
* rolling bodies         K_r = (erode r) ⊕ r*Wulff via the planar
  mixed-area identities

The module owns the solvers' grids: ``build_grid`` masks the free nodes
by the edge half-planes, with ``clearance`` as the per-node margin.  The
gridded anisotropic distance field evaluates the exact formula d_F(x) =
min over edges of (c_e - x.n_e) / F(n_e) at each free node, not fast
marching, so its error is set by the grid alone.

``linprog`` and ``ConvexHull`` are imported inside ``inradius_F`` and
``erode``, their only callers.  The eigen and torsion solvers use this
module's grids but neither function, so a process that only solves the
PDEs never pays for importing scipy.optimize and scipy.spatial, or the
scipy.linalg and scipy.sparse they load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .norms import MinkowskiNorm, wulff_polygon

_DEDUP_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid polygon or invalid geometric operation."""


class CoarseGridError(GeometryError):
    """The requested grid spacing does not resolve the domain."""


def _dedup_ccw(vertices: np.ndarray, tol: float) -> np.ndarray:
    keep = [vertices[0]]
    for v in vertices[1:]:
        if np.max(np.abs(v - keep[-1])) > tol:
            keep.append(v)
    if len(keep) > 1 and np.max(np.abs(keep[0] - keep[-1])) <= tol:
        keep.pop()
    return np.asarray(keep)


def _turns(v: np.ndarray) -> np.ndarray:
    """Cross product of each edge with the next (positive: a left turn)."""
    e = np.roll(v, -1, axis=0) - v
    nxt = np.roll(e, -1, axis=0)
    return e[:, 0] * nxt[:, 1] - e[:, 1] * nxt[:, 0]


def _shoelace(v: np.ndarray) -> float:
    """Signed area of the polygon with vertices ``v`` (positive if CCW)."""
    x, y = v[:, 0], v[:, 1]
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
        if not (a > 0 and k > 0):
            raise GeometryError("rectangle needs positive half-sides")
        verts = [(-a, -k), (a, -k), (a, k), (-a, k)]
        return ConvexPolygon(np.array(verts, float), f"rect:{a:g},{k:g}")

    @staticmethod
    def regular(n: int, circumradius: float = 1.0) -> "ConvexPolygon":
        if n < 3 or not (circumradius > 0):
            raise GeometryError("regular polygon needs n >= 3 and R > 0")
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

        min over edges of c_e - x.n_e, taken 64 edges at a time.  Valid as
        a distance only for points inside the polygon; outside it is just
        the most violated half-plane margin.  This is the per-node formula
        that defines a grid's free nodes: ``build_grid`` decides most nodes
        from per-column intervals and calls it only for the nodes within
        rounding of an interval end.
        """
        points = np.asarray(points, float)
        normals, offsets, _ = self._edges
        out = np.full(points.shape[:-1], np.inf)
        for s in range(0, len(normals), 64):
            block = offsets[s:s + 64] - points @ normals[s:s + 64].T
            np.minimum(out, block.min(axis=-1), out=out)
        return out

    # -- anisotropic functionals ----------------------------------------------

    def perimeter_F(self, norm: MinkowskiNorm) -> float:
        """Boundary integral of F applied to the Euclidean unit outer normal."""
        normals, _, lengths = self._edges
        return float(np.dot(lengths, np.asarray(norm(normals))))

    @lru_cache(maxsize=256)
    def inradius_F(self, norm: MinkowskiNorm) -> tuple[float, np.ndarray]:
        """Exact anisotropic inradius and an incenter, via linear programming.

        For a convex polygon the polar distance from x to the boundary is
        min over edges of (c_e - x.n_e) / F(n_e), so the inradius is the
        Chebyshev-center LP  max r  s.t.  x.n_e + r F(n_e) <= c_e.  The
        result is cached per (polygon, gauge) pair, so the incenter is a
        shared read-only array.
        """
        from scipy.optimize import linprog

        normals, offsets, _ = self._edges
        fn = np.asarray(norm(normals))
        a_ub = np.column_stack([normals, fn])
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=offsets,
                      bounds=[(None, None), (None, None), (0.0, None)],
                      method="highs")
        if not res.success:
            raise GeometryError(f"inradius LP failed: {res.message}")
        center = res.x[:2].copy()
        center.setflags(write=False)
        return float(res.x[2]), center

    # -- erosion and rolling bodies ----------------------------------------------

    def erode(self, norm: MinkowskiNorm, r: float) -> "ConvexPolygon | None":
        """Inner parallel body: shrink every edge half-plane by r*F(normal).

        Returns None when the intersection has empty interior (always the
        case once r reaches the anisotropic inradius).  erode(0) returns
        the polygon itself.
        """
        if r < 0:
            raise GeometryError("erosion radius must be nonnegative")
        if r == 0.0:
            return self
        from scipy.spatial import ConvexHull, QhullError

        r_f, center = self.inradius_F(norm)
        if r >= r_f * (1.0 - 1e-13):
            return None
        normals, offsets, _ = self._edges
        shifted = offsets - r * np.asarray(norm(normals))
        # the incenter keeps margin (R_F - r) F(n) > 0, so polar duality
        # applies: active planes = hull vertices of n_e / margin_e
        margins = shifted - normals @ center
        try:
            hull = ConvexHull(normals / margins[:, None])
            act = hull.vertices  # CCW
            n1, c1 = normals[act], margins[act]
            n2 = normals[np.roll(act, -1)]
            c2 = margins[np.roll(act, -1)]
            det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
            verts = np.stack([(c1 * n2[:, 1] - c2 * n1[:, 1]) / det,
                              (n1[:, 0] * c2 - n2[:, 0] * c1) / det],
                             axis=-1) + center
        except (QhullError, FloatingPointError):
            verts = _clip_halfplanes(self.vertices, normals, shifted)
        if verts is None:
            return None
        verts = _clean_convex(verts, max(self.diameter, 1.0))
        if verts is None:
            return None
        return ConvexPolygon(verts, f"{self.provenance}~erode:{r:g}")

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


def _clip_halfplanes(vertices: np.ndarray, normals: np.ndarray,
                     offsets: np.ndarray) -> np.ndarray | None:
    """Sutherland-Hodgman clip of a convex polygon by x.n <= c half-planes."""
    poly = vertices
    for n, c in zip(normals, offsets):
        if len(poly) < 3:
            return None
        s = poly @ n - c
        if np.all(s <= 0.0):
            continue
        if np.all(s >= 0.0):
            return None
        out = []
        m = len(poly)
        for i in range(m):
            j = (i + 1) % m
            si, sj = s[i], s[j]
            if si <= 0.0:
                out.append(poly[i])
            if (si > 0.0) != (sj > 0.0):
                t = si / (si - sj)
                out.append(poly[i] + t * (poly[j] - poly[i]))
        if len(out) < 3:
            return None
        poly = np.asarray(out)
    return poly


def _clean_convex(verts: np.ndarray, scale: float) -> np.ndarray | None:
    """Dedup and prune collinear-by-noise vertices; None if degenerate."""
    verts = _dedup_ccw(verts, 1e-12 * scale)
    for _ in range(len(verts)):
        if len(verts) < 3:
            return None
        bad = _turns(verts) <= 1e-14 * scale * scale
        if not bad.any():
            break
        # drop the vertex at the apex of each flat/reflex corner
        verts = verts[np.roll(~bad, 1)]
    else:
        return None
    return None if _shoelace(verts) <= 1e-12 * scale * scale else verts


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

    def same_layout(self, other: "Grid") -> bool:
        return (self.mask.shape == other.mask.shape
                and math.isclose(self.hx, other.hx)
                and math.isclose(self.hy, other.hy)
                and math.isclose(self.x[0], other.x[0])
                and math.isclose(self.y[0], other.y[0]))


def build_grid(poly: ConvexPolygon, h: float, min_axis: int = 16) -> Grid:
    """Grid whose free nodes keep half a cell of clearance to the boundary.

    The first zero node along any grid line lies within half a spacing of
    the true boundary on either side, which keeps the effective Dirichlet
    boundary centered on the exact one.  The mask is exactly
    ``poly.clearance(node) > 0.25 (hx + hy)`` at every node, built column
    by column from the edge half-planes (``_free_nodes``) rather than by
    evaluating every node of the bounding box against every edge.
    """
    if not (h > 0):
        raise CoarseGridError("grid spacing must be positive")
    xmin, xmax, ymin, ymax = poly.bounding_box
    ncx = max(int(round((xmax - xmin) / h)), 4)
    ncy = max(int(round((ymax - ymin) / h)), 4)
    hx = (xmax - xmin) / ncx
    hy = (ymax - ymin) / ncy
    x = xmin + hx * np.arange(ncx + 1)
    y = ymin + hy * np.arange(ncy + 1)
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
    per-node one; the few nodes inside a band are decided by
    ``poly.clearance`` itself, so the mask equals clearance(nodes) > thr.
    Cost: O(columns x edges + nodes) comparisons, with no point array.
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
    mask = (y > lo_in[:, None]) & (y < hi_in[:, None])
    i, j = np.nonzero((y >= lo_out[:, None]) & (y <= hi_out[:, None]) & ~mask)
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
                   h: float) -> DistanceField:
    """Sample d_F(x) = inf over boundary points y of F°(x - y) on a grid.

    For an interior point of a convex polygon the infimum over an edge's
    whole line is (c_e - x.n_e) / F(n_e), and the least of these over the
    edges is attained on the boundary, so d_F is that minimum exactly.
    The grid is ``build_grid``'s, with at least 32 free nodes per axis.
    """
    grid = build_grid(poly, h, min_axis=32)
    i, j = np.nonzero(grid.mask)  # the free nodes in C order
    pts = np.column_stack([grid.x[i], grid.y[j]])
    normals, offsets, _ = poly._edges
    fn = np.asarray(norm(normals))
    # one edge at a time: a points x edges matrix takes 26 MB on the
    # 256-gon Wulff domain at the catalog's spacing
    best = np.full(len(pts), np.inf)
    for n, c, f in zip(normals, offsets, fn):
        np.minimum(best, (c - pts @ n) / f, out=best)

    values = np.zeros(grid.mask.shape)
    values[i, j] = best
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    return DistanceField(h=grid.h, x=grid.x, y=grid.y, mask=grid.mask,
                         values=values,
                         inradius=float(values[i, j]),
                         argmax=np.array([grid.x[i], grid.y[j]]))
