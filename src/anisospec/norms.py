"""Planar Minkowski gauges (anisotropies), their polar gauges, and Wulff shapes.

A gauge F is an even, positively 1-homogeneous, convex function on R^2,
positive away from the origin.  Two closed-form families are shipped:

* ``lq:<q>``                  F(xi) = (|xi_1|^q + |xi_2|^q)^(1/q),  q > 1
* ``ellipse:<a11>,<a12>,<a22>``  F(xi) = sqrt(xi . A xi), A symmetric
  positive definite (2x2)

Both families admit closed forms for the polar gauge (dual exponent,
inverse matrix) and the area of the unit polar ball (the Wulff shape),
so no numeric sup/inversion sits on the solver hot path.  Each gauge has
one evaluation formula, ``value2`` on the x/y parts, and one gradient
formula, ``value_wgrad2``, which returns F^2 and W = F grad F (grad F =
W / F away from the origin); calling the gauge on (..., 2) points
evaluates ``value2``.  ``quadratic_form`` returns the matrix A with
F^2 = xi . A xi for the gauges whose square is quadratic (every ellipse,
and lq:2 with A the identity) and None for the others.  For those,
``value_wgrad2`` gives W = A xi and F^2 = xi . W, with no square root
and no rounding pinned to lq:2's value formula; the solver's p = 2
kernel reads A directly, without ``value2`` or ``value_wgrad2``, and its
preconditioner's symbol a11 lam1 + a22 lam2 takes A's diagonal at every
p.  The lq formula is written once, in place (``_lq``): ``value2``
returns its F, and ``value_wgrad2`` reuses its terms and returns F * F,
so there is one value formula per family; its powers of the smaller
ratio skip exact zeros, which NumPy's power is slow on.  The sup-based
polar is kept in the test suite as an independent oracle.

The module also provides ``pi_p``, the generalized pi governing the
one-dimensional eigenvalue problem, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma


class GaugeError(ValueError):
    """Invalid gauge parameters or invalid gauge input."""


@dataclass(frozen=True, eq=False)
class MinkowskiNorm:
    """A gauge from one of the closed-form families.

    ``family`` is "lq" or "ellipse"; exactly one of ``q`` / ``A`` is set.
    Instances are immutable and all methods are pure, so sharing across
    workers is safe.
    """

    family: str
    q: float | None = None
    A: np.ndarray | None = None

    def __post_init__(self):
        if self.family == "lq":
            if self.q is None or not (1.0 < self.q < math.inf):
                raise GaugeError("lq family needs a finite exponent q > 1")
        elif self.family == "ellipse":
            A = np.asarray(self.A, dtype=float)
            if A.shape != (2, 2) or not np.isfinite(A).all() \
                    or not np.allclose(A, A.T, atol=1e-14):
                raise GaugeError("ellipse family needs a finite symmetric 2x2 "
                                 "matrix")
            ev = np.linalg.eigvalsh(A)
            if ev[0] <= 0:
                raise GaugeError("ellipse matrix must be positive definite")
            A = A.copy()
            A.setflags(write=False)
            object.__setattr__(self, "A", A)
        else:
            raise GaugeError(f"unknown gauge family {self.family!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def lq(q: float) -> "MinkowskiNorm":
        return MinkowskiNorm("lq", q=float(q))

    @staticmethod
    def ellipse(a11: float, a12: float, a22: float) -> "MinkowskiNorm":
        return MinkowskiNorm("ellipse", A=np.array([[a11, a12], [a12, a22]], float))

    @staticmethod
    def parse(spec: str) -> "MinkowskiNorm":
        """Parse the gauge grammar ``lq:<q>`` or ``ellipse:<a11>,<a12>,<a22>``."""
        spec = spec.strip()
        head, sep, tail = spec.partition(":")
        if not sep:
            raise GaugeError(f"malformed gauge spec {spec!r}")
        try:
            if head == "lq":
                return MinkowskiNorm.lq(float(tail))
            if head == "ellipse":
                a11, a12, a22 = (float(t) for t in tail.split(","))
                return MinkowskiNorm.ellipse(a11, a12, a22)
        except GaugeError:
            raise
        except ValueError as exc:
            raise GaugeError(f"malformed gauge spec {spec!r}: {exc}") from None
        raise GaugeError(f"unknown gauge family {head!r}")

    # -- evaluation --------------------------------------------------------

    def __call__(self, xi) -> np.ndarray | float:
        """Evaluate F(xi) by ``value2``; xi is a planar vector or (..., 2) array."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1:] != (2,):
            raise GaugeError("gauge inputs are planar: (..., 2) arrays")
        val = self.value2(xi[..., 0], xi[..., 1])
        return float(val) if val.ndim == 0 else val

    def polar(self) -> "MinkowskiNorm":
        """The polar gauge F°(v) = sup_{xi != 0} <xi, v>/F(xi), in closed form."""
        if self.family == "lq":
            return MinkowskiNorm.lq(self.q / (self.q - 1.0))
        return MinkowskiNorm("ellipse", A=np.linalg.inv(self.A))

    def polar_eval(self, eta) -> np.ndarray | float:
        return self.polar()(eta)

    # -- vectorized 2-D kernels (solver hot path) --------------------------

    def value2(self, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        """F evaluated componentwise on arrays of x/y parts."""
        if self.family == "ellipse":
            a = self.A
            s = a[0, 0] * gx * gx + 2.0 * a[0, 1] * gx * gy + a[1, 1] * gy * gy
            return np.sqrt(np.maximum(s, 0.0))
        return self._lq(gx, gy)[0]

    def value_wgrad2(self, gx, gy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (F^2, W1, W2) with W = F * grad F = grad(F^2)/2, finite at 0.

        A quadratic gauge (``quadratic_form``) gives W = A g and F^2 = g . W,
        with no square root; the a12 terms are skipped when a12 = 0.  For lq
        with q != 2, W reuses the terms of ``_lq``: W is F u / big on the
        larger component and that times r^(q-1) on the smaller, each signed
        like its component of g, and F^2 is F * F with F bitwise the value
        of ``value2``.  The p = 2 solver kernel does not call this for a
        quadratic gauge; it reads ``quadratic_form`` instead.
        """
        a = self.quadratic_form()
        if a is not None:
            a11, a12, a22 = a
            w1 = a11 * gx
            w2 = a22 * gy
            if a12 != 0.0:
                w1 += a12 * gy
                w2 += a12 * gx
            f2 = gx * w1
            f2 += gy * w2
            return f2, w1, w2
        f, r, big, u, y_larger, live = self._lq(gx, gy)
        w_max = u  # the larger component's W, F u / big
        w_max *= f
        w_max /= big
        w_min = np.power(r, self.q - 1.0, out=r, where=live)
        w_min *= w_max
        w1 = np.where(y_larger, w_min, w_max)
        w2 = np.where(y_larger, w_max, w_min)
        np.copysign(w1, gx, out=w1)
        np.copysign(w2, gy, out=w2)
        f *= f
        return f, w1, w2

    def _lq(self, gx, gy):
        """The lq formula, in place: (F, r, big, u, y_larger, live).

        With m = max(|gx|, |gy|), r = min / m (0 at g = 0), big = 1 + r^q
        and u = big^(1/q), F = m u: the larger of |gx| / m, |gy| / m is
        exactly 1, and so is its q-th power.  ``y_larger`` flags
        |gx| < |gy|, and ``live`` flags r > 0: the division and the powers
        of r skip r = 0 (axis-aligned g, and g = 0 outside a domain's
        mask), where NumPy's power takes about 4x as long as on a positive
        element.  Four new float arrays, even for 0-d input.
        """
        q = self.q
        shape = np.broadcast(gx, gy).shape
        ax = np.abs(gx, out=np.empty(shape))
        ay = np.abs(gy, out=np.empty(shape))
        y_larger = ax < ay
        f = np.maximum(ax, ay, out=np.empty(shape))
        r = np.minimum(ax, ay, out=ax)
        live = r > 0.0
        np.divide(r, f, out=r, where=live)
        ay.fill(0.0)  # r^q where the power skips r = 0
        big = np.power(r, q, out=ay, where=live)
        big += 1.0
        u = np.power(big, 1.0 / q, out=np.empty(shape))
        f *= u
        return f, r, big, u, y_larger, live

    # -- derived quantities --------------------------------------------------

    def quadratic_form(self) -> tuple[float, float, float] | None:
        """(a11, a12, a22) with F(xi)^2 = xi . A xi, or None.

        A is the ellipse's matrix, and the identity for lq:2; no other lq
        gauge has a quadratic square, so it returns None.  At every p,
        ``value_wgrad2`` and the solver's preconditioner read it.  The
        solver's quadratic path (p = 2) is decided by this alone: there
        the energy is a sum over the grid's x-, y- and anti-diagonal edges
        of squared differences, with weights a11 hy/hx + a12,
        a22 hx/hy + a12 and -a12 built from these entries.
        """
        if self.family == "ellipse":
            a = self.A
            return float(a[0, 0]), float(a[0, 1]), float(a[1, 1])
        return (1.0, 0.0, 1.0) if self.q == 2.0 else None

    def wulff_area(self) -> float:
        """Area of the unit Wulff shape {F° <= 1} (closed form per family)."""
        if self.family == "ellipse":
            return math.pi * math.sqrt(float(np.linalg.det(self.A)))
        s = self.q / (self.q - 1.0)  # polar exponent; Wulff = unit ls-ball
        return 4.0 * gamma(1.0 + 1.0 / s) ** 2 / gamma(1.0 + 2.0 / s)


def wulff_polygon(norm: MinkowskiNorm, r: float, n: int = 512) -> np.ndarray:
    """Sample the Wulff shape {F° = r} of ``norm`` by ``n`` rays.

    Returns the (n, 2) CCW vertex array: vertex i sits on the ray at angle
    2*pi*i/n, scaled so that its polar gauge equals r exactly.  The polygon
    is convex and inscribed in the true shape; its area tends to
    ``norm.wulff_area() * r**2``.
    """
    if n < 16:
        raise GaugeError("wulff polygon needs n >= 16 rays")
    if not (0 < r < math.inf):
        raise GaugeError("wulff polygon needs a finite radius r > 0")
    theta = 2.0 * math.pi * np.arange(n) / n
    rays = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    rho = r / np.asarray(norm.polar()(rays))
    return rho[:, None] * rays


def pi_p(p: float) -> float:
    """The generalized pi: 2*pi*(p-1)^(1/p) / (p*sin(pi/p)), p > 1.

    Governs the one-dimensional / slab eigenvalue (pi_p / (2a))^p and
    reduces to pi at p = 2.
    """
    if not (p > 1.0):
        raise GaugeError("pi_p requires p > 1")
    return 2.0 * math.pi * (p - 1.0) ** (1.0 / p) / (p * math.sin(math.pi / p))

