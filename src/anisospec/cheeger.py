"""Exact anisotropic Cheeger constant of a convex polygon, with inradius bounds.

For a convex planar domain the Cheeger set is convex and unique.  Kawohl
& Lachand-Robert (Pacific J. Math. 225, 2006) characterize it in the
Euclidean case, and Kawohl & Novaga (J. Convex Anal. 15, 2008) extend the
characterization to Finsler norms: the Cheeger set is the rolling body

    K_r = (domain eroded by r * Wulff) ⊕ r * Wulff,

and h_F = 1/r, where r is the unique root of

    |domain eroded by r * Wulff| = kappa_F r^2,   0 < r < R_F,

with kappa_F the area of the Wulff shape.  The eroded area decreases
continuously from |domain| to 0 on [0, R_F] while kappa_F r^2 grows, so a
single bracketed root solve gives ``h_est``, the exact constant of the
polygon (up to the root solver's rounding).  ``cheeger_estimate`` also
returns the rigorous inradius bounds

    1 / R_F  <=  h_F  <=  min(N / R_F, P_F / area)

as its ``lower`` and ``upper``, from the same cached inradius LP.
``brentq`` is imported inside ``cheeger_estimate``, as ``geometry``
imports its LP and hull solvers, so that a process that only solves the
PDEs never loads scipy.optimize.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    An empty erosion counts as area 0, so the gap is |domain| > 0 at r = 0
    and -kappa_F R_F^2 < 0 at r = R_F, and the bracket always holds.  The
    bounds are 1/R_F and min(N/R_F, P_F/|area|); the second upper term
    takes K = domain.
    """
    from scipy.optimize import brentq

    r_f, _ = poly.inradius_F(norm)
    per = poly.perimeter_F(norm)
    upper = min(N_DIM / r_f, per / poly.area)
    kappa = norm.wulff_area()

    def gap(r: float) -> float:
        eroded = poly.erode(norm, r)
        area = eroded.area if eroded is not None else 0.0
        return area - kappa * r * r

    # brentq's default xtol is absolute (2e-12); scale it with the domain
    r_star = brentq(gap, 0.0, r_f, xtol=1e-15 * r_f)
    return CheegerResult(h_est=1.0 / r_star, r_star=float(r_star),
                         lower=1.0 / r_f, upper=upper, inradius=r_f,
                         perimeter_F=per, wulff_area=kappa)
