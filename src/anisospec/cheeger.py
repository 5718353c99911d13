"""Exact anisotropic Cheeger constant of a convex polygon, with inradius bounds.

For a convex planar domain the Cheeger set is convex and unique.  Kawohl
& Lachand-Robert (Pacific J. Math. 225, 2006) characterize it in the
Euclidean case, and Kawohl & Novaga (J. Convex Anal. 15, 2008) extend the
characterization to Finsler norms: the Cheeger set is the rolling body

    K_r = (domain eroded by r * Wulff) ⊕ r * Wulff,

and h_F = 1/r, where r is the unique root of

    |domain eroded by r * Wulff| = kappa_F r^2,   0 < r < R_F,

with kappa_F the area of the Wulff shape.  The eroded area decreases
continuously from |domain| to 0 on [0, R_F] while kappa_F r^2 grows, so
the root is unique.  Between two events of the erosion skeleton (see
``ConvexPolygon.eroded_area``) the eroded area is an exact quadratic in
r, so ``h_est`` is the exact constant of the polygon, up to rounding: the
root of one quadratic, on the one interval where the gap changes sign.
``cheeger_estimate`` also returns the rigorous inradius bounds

    1 / R_F  <=  h_F  <=  min(N / R_F, P_F / area)

as its ``lower`` and ``upper``, with R_F from the same cached skeleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexPolygon
from .norms import MinkowskiNorm

N_DIM = 2


@dataclass(frozen=True, eq=False)
class CheegerResult:
    """Cheeger constant, the radius r* = 1/h_est, and the rigorous bounds.

    ``perimeter_F`` (P_F of the domain) and ``wulff_area`` (kappa_F) are
    the inputs of the upper bound and of the root equation.
    """

    h_est: float
    r_star: float
    lower: float
    upper: float
    inradius: float
    perimeter_F: float
    wulff_area: float


def cheeger_estimate(poly: ConvexPolygon,
                     norm: MinkowskiNorm) -> CheegerResult:
    """Solve |erode(r)| = kappa_F r^2 on [0, R_F]; h_F = 1/r.

    The gap |erode(r)| - kappa_F r^2 is |domain| > 0 at r = 0 and
    -kappa_F R_F^2 < 0 at r = R_F, and it decreases, so it changes sign
    on exactly one skeleton interval [r_k, r_k+1].  There it is the
    quadratic c + b t + a t^2 in t = r - r_k with c >= 0 and b <= 0, whose
    root t = 2c / (sqrt(b^2 - 4ac) - b) has no cancellation.  The bounds
    are 1/R_F and min(N/R_F, P_F/|area|); the second upper term takes
    K = domain.
    """
    radii, area = poly.eroded_area(norm)
    r_f = float(radii[-1])
    per = poly.perimeter_F(norm)
    upper = min(N_DIM / r_f, per / poly.area)
    kappa = norm.wulff_area()

    r_k = radii[:-1]
    k = int(np.flatnonzero(area[:, 0] - kappa * r_k * r_k >= 0.0)[-1])
    c = area[k, 0] - kappa * r_k[k] ** 2
    b = area[k, 1] - 2.0 * kappa * r_k[k]
    a = area[k, 2] - kappa
    t = 2.0 * c / (math.sqrt(max(b * b - 4.0 * a * c, 0.0)) - b)
    r_star = float(r_k[k] + min(t, radii[k + 1] - r_k[k]))
    return CheegerResult(h_est=1.0 / r_star, r_star=r_star,
                         lower=1.0 / r_f, upper=upper, inradius=r_f,
                         perimeter_F=per, wulff_area=kappa)
