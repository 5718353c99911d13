"""Independent reference formulas that only the tests use.

* ``pi_p_quadrature``: the defining integral of the generalized pi, by
  adaptive quadrature, against the closed form ``norms.pi_p``.
* ``distance_to_boundary_F``: the exact polar-gauge distance from interior
  points of a convex polygon to its boundary, built from the vertices
  alone, against the gridded ``geometry.distance_field``.
* ``prolong_map_coordinates``: bilinear prolongation by
  ``scipy.ndimage.map_coordinates``, against ``pde._prolong``.
"""

import numpy as np
from scipy.integrate import quad
from scipy.ndimage import map_coordinates

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
