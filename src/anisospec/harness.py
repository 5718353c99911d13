"""Case harness: inequality audits, slab-limit sweeps, convergence studies.

``run_case`` solves one (domain, gauge, p) case end to end - torsion,
eigenvalue, distance field, Cheeger constant - computing each reported
value once, then scores the sixteen geometric/spectral inequalities from
those values with explicit slack against the per-id tolerance budget.
Solver non-convergence marks the case ``inconclusive`` instead of failed,
so numerical trouble never masquerades as a counterexample.

Every caller that solves both problems on one grid (``run_case``,
``slab_sweep``, ``convergence_study``) solves the torsion first and starts
the eigen descent from its field v on the finest grid: v is the first
step of the inverse power method from a constant, so it is already close
to the eigenfield, and the eigen solve needs no coarse levels.  On the
quadratic path (p = 2 with a quadratic gauge) the torsion solve needs
none either; elsewhere it runs coarse to fine.  Where ``pde`` has the
exact seed (p = 2, a12 = 0, free nodes filling the box's interior) it
takes that instead of v.  A case has that one grid: the P-function, the
Phi comparison and the distance field (``grid_inradius``,
``grid_argmax``) sample it too.

Reports are plain dict/JSON-serializable structures whose serialized
form is byte-identical across reruns of the same spec (no timestamps,
sorted keys, deterministic reductions).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cheeger import N_DIM, cheeger_estimate
from .config import DEFAULTS, INEQUALITIES
from .geometry import ConvexPolygon, distance_field, parse_domain
from .norms import MinkowskiNorm, pi_p
from .pde import (ConvergenceError, check_p_tol, efficiency_ratio,
                  mass_bound_check, p_function, phi_check, solve_eigen,
                  solve_torsion)

@dataclass(frozen=True)
class CaseSpec:
    """One catalog entry: domain grammar, gauge grammar, p, and overrides."""

    domain: str
    norm: str
    p: float
    h: float | None = None
    tol: float = DEFAULTS["tol"]

    def __post_init__(self):
        check_p_tol(self.p, self.tol)
        if self.h is not None and not (self.h > 0):
            raise ValueError("h must be positive")

    @property
    def case_id(self) -> str:
        return f"{self.domain}|{self.norm}|p={self.p:g}"

    def build(self) -> tuple[ConvexPolygon, MinkowskiNorm, float]:
        gauge = MinkowskiNorm.parse(self.norm)
        poly = parse_domain(self.domain, norm=gauge)
        h = self.h if self.h is not None else \
            poly.diameter * DEFAULTS["h_over_diameter"]
        return poly, gauge, h


def default_catalog() -> list[CaseSpec]:
    """Square, tall rectangle, hexagon, Wulff shape x three gauges x three p."""
    domains = ["rect:1,1", "rect:1,4", "regular:6,1",
               f"wulff:1,{DEFAULTS['wulff_vertices']}"]
    norms = ["lq:2", "lq:4", "ellipse:4,0,1"]
    ps = [1.5, 2.0, 3.0]
    return [CaseSpec(d, n, p) for d in domains for n in norms for p in ps]


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Scored inequality records plus case metadata and solver diagnostics."""

    case: dict
    geometry: dict
    solver: dict
    records: tuple[dict, ...]
    status: str  # "pass" | "fail" | "inconclusive"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        payload = {
            "case": self.case,
            "geometry": self.geometry,
            "solver": self.solver,
            "records": list(self.records),
            "status": self.status,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def record(self, ineq_id: str) -> dict:
        for rec in self.records:
            if rec["id"] == ineq_id:
                return rec
        raise KeyError(ineq_id)


def _record(ineq_id: str, lhs: float, rhs: float, tols: dict, h: float,
            parts: list | None = None, note: str | None = None) -> dict:
    """One scored record; ``tols`` maps an id to a (rel, c) that replaces
    its ``INEQUALITIES`` default."""
    slack = rhs - lhs
    if parts:
        slack = min(p["rhs"] - p["lhs"] for p in parts)
    name, rel, c = INEQUALITIES[ineq_id]
    rel, c = tols.get(ineq_id, (rel, c))
    tol = rel * abs(rhs) + c * h
    rec = {
        "id": ineq_id,
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "slack": slack,
        "tolerance": tol,
        "passed": bool(slack >= -tol) and math.isfinite(slack),
    }
    if parts:
        rec["parts"] = parts
    if note:
        rec["note"] = note
    return rec


def evaluate_inequalities(p: float, geometry: dict, solver: dict, h: float,
                          tols: dict) -> tuple[dict, ...]:
    """Score the sixteen checks from a report's own ``geometry`` and
    ``solver`` blocks, so every record is built from the reported numbers."""
    lam = solver["lambda"]
    mv = solver["Mv"]
    t_rig = solver["T"]
    area = geometry["area"]
    per = geometry["perimeter_F"]
    r_f = geometry["inradius_F"]
    kappa = geometry["wulff_area"]
    r_vol = math.sqrt(area / kappa)
    q = p / (p - 1.0)
    half_pi = 0.5 * pi_p(p)
    h_est = geometry["cheeger_estimate"]
    eff = solver["efficiency"]
    mass = solver["mass_ratio"]

    recs = [
        _record("hersch", half_pi**p / r_f**p, lam, tols, h),
        _record("cheeger", (h_est / p) ** p, lam, tols, h,
                note="left side uses the exact Cheeger constant of the polygon"),
        _record("better_cheeger", (half_pi * h_est / N_DIM) ** p, lam, tols, h,
                note="better than the classic constant iff p*pi_p >= 2N; "
                     f"here p*pi_p = {p * pi_p(p):.6g} vs 2N = {2 * N_DIM}"),
        _record("reverse_cheeger", lam, half_pi**p * h_est**p, tols, h),
        _record("perimeter_upper", lam, (half_pi * per / area) ** p, tols, h),
        _record("payne", solver["payne_slab_constant"], lam * mv ** (p - 1.0),
                tols, h),
        _record("functional_chain", lam * (t_rig / area) ** (p - 1.0),
                (area * mv / t_rig) ** (p - 1.0), tols, h, parts=[
                    {"name": "torsion mean below max",
                     "lhs": lam * (t_rig / area) ** (p - 1.0),
                     "rhs": lam * mv ** (p - 1.0)},
                    {"name": "eigen-torsion product bound",
                     "lhs": lam * mv ** (p - 1.0),
                     "rhs": (area * mv / t_rig) ** (p - 1.0)},
                ]),
        _record("efficiency_power", eff**p, 1.0 / p, tols, h),
        _record("efficiency_sharp", eff,
                (p - 1.0) ** (-1.0 / p) * (1.0 / half_pi) ** (1.0 / (p - 1.0)),
                tols, h),
        _record("inradius_lower", 1.0 / r_f, h_est, tols, h),
        _record("inradius_upper", h_est, N_DIM / r_f, tols, h),
        _record("faber_krahn", N_DIM / r_vol, h_est, tols, h),
        _record("stability", h_est - N_DIM / r_vol,
                N_DIM * (1.0 / r_f - 1.0 / r_vol), tols, h),
        _record("torsion_max", r_f**q / (q * N_DIM ** (q - 1.0)), r_f**q / q,
                tols, h, parts=[
                    {"name": "torsion max lower bound",
                     "lhs": r_f**q / (q * N_DIM ** (q - 1.0)), "rhs": mv},
                    {"name": "torsion max upper bound",
                     "lhs": mv, "rhs": r_f**q / q},
                ]),
        _record("isoperimetric",
                N_DIM * kappa ** (1.0 / N_DIM) * area ** (1.0 - 1.0 / N_DIM),
                per, tols, h),
        _record("mass_concentration", mass, 1.0, tols, h),
    ]
    return tuple(recs)


def slab_constant(p: float) -> float:
    """((p-1)/p)^(p-1) (pi_p/2)^p: the one-dimensional lower bound on
    lambda Mv^(p-1), attained in the slab limit."""
    return ((p - 1.0) / p) ** (p - 1.0) * (0.5 * pi_p(p)) ** p


def run_case(spec: CaseSpec, tols: dict | None = None) -> InequalityReport:
    """Solve one case and score every inequality record.

    The torsion is solved first; the eigen descent starts from its field v
    (or ``pde``'s exact seed) on its finest grid, which the distance field
    samples too.  Solver non-convergence is caught: the partial fields
    still produce a report (the eigen solve then starts from the partial
    v), but with status "inconclusive" so failures stay separated from
    numerics.  ``tols`` maps inequality ids to (rel, c) budgets that
    replace their ``INEQUALITIES`` defaults.
    """
    poly, gauge, h = spec.build()
    inconclusive = False
    try:
        torsion = solve_torsion(poly, gauge, spec.p, h, tol=spec.tol)
    except ConvergenceError as exc:
        torsion = exc.result
        inconclusive = True
    try:
        eigen = solve_eigen(poly, gauge, spec.p, h, tol=spec.tol,
                            start=torsion.v)
    except ConvergenceError as exc:
        eigen = exc.result
        inconclusive = True

    dist = distance_field(poly, gauge, torsion.v.grid)
    ch = cheeger_estimate(poly, gauge)

    case = {
        "id": spec.case_id,
        "domain": spec.domain,
        "norm": spec.norm,
        "p": spec.p,
        "h": h,
        "tol": spec.tol,
    }
    geometry = {
        "area": poly.area,
        "perimeter_F": ch.perimeter_F,
        "inradius_F": ch.inradius,
        "wulff_area": ch.wulff_area,
        "diameter": poly.diameter,
        "grid_inradius": dist.inradius,
        "grid_argmax": [float(dist.argmax[0]), float(dist.argmax[1])],
        "cheeger_estimate": ch.h_est,
        "cheeger_lower": ch.lower,
        "cheeger_upper": ch.upper,
        "cheeger_r_star": ch.r_star,
    }
    solver = {
        "lambda": eigen.lambda_,
        "eigen_iterations": eigen.iterations,
        "eigen_residual": eigen.residual,
        "eigen_converged": eigen.converged,
        "T": torsion.T,
        "T_dual": torsion.T_dual,
        "Mv": torsion.Mv,
        "torsion_iterations": torsion.iterations,
        "torsion_residual": torsion.residual,
        "torsion_converged": torsion.converged,
        "efficiency": efficiency_ratio(eigen, poly.area, spec.p),
        "mass_ratio": mass_bound_check(eigen, poly.area, spec.p),
        "p_function_max": p_function(eigen, gauge, spec.p).max_interior,
        "phi_violation": phi_check(eigen, torsion, spec.p),
        "payne_slab_constant": slab_constant(spec.p),
        "h": h,
    }
    records = evaluate_inequalities(spec.p, geometry, solver, h, tols or {})
    if inconclusive:
        status = "inconclusive"
    else:
        status = "pass" if all(r["passed"] for r in records) else "fail"
    return InequalityReport(case=case, geometry=geometry, solver=solver,
                            records=records, status=status)


def aggregate_csv_rows(reports: list[InequalityReport]) -> list[str]:
    """One CSV row per case x inequality, header first.

    Case ids carry commas (domain parameters), so that field is quoted.
    """
    rows = ["case,inequality,lhs,rhs,slack,tolerance,passed,status"]
    for rep in reports:
        for rec in rep.records:
            rows.append(
                f"\"{rep.case['id']}\",{rec['id']},{rec['lhs']:.12g},"
                f"{rec['rhs']:.12g},{rec['slack']:.12g},"
                f"{rec['tolerance']:.12g},{int(rec['passed'])},{rep.status}")
    return rows


# -- slab-limit optimality sweep ------------------------------------------------


def slab_sweep(gauge: MinkowskiNorm, p: float, ks: list[float],
               h: float | None = None) -> list[dict]:
    """Optimality ratios of the rectangle family ]-1,1[ x ]-k,k[ per k.

    r1 = lambda R_F^p / (pi_p/2)^p            (inradius lower bound)
    r2 = h_est * R_F                          (Cheeger inradius lower bound)
    r3 = P_F R_F / area                       (perimeter-inradius bound)
    r4 = lambda Mv^(p-1) / slab_constant(p)   (torsion-max bound)

    All four tend to 1 from above as k grows; the grid is tied to the
    short side (h = 2 slab_h_fraction by default) so the accuracy is
    k-independent.  They are scale-free: ]-a,a[ x ]-k,k[ at h gives the
    ratios of k/a at h/a.  The limits assume R_F = F°(e1), and a k whose
    inradius differs warns.  As R_F <= 1 / F(e1) <= F°(e1), with
    equality in the second step iff the gauge is axis-aligned
    (F(e1) F°(e1) = 1), an unaligned gauge warns at every k.
    """
    check_p_tol(p, DEFAULTS["tol"])  # before any solve
    half_pi = 0.5 * pi_p(p)
    h_eff = h if h is not None else 2.0 * DEFAULTS["slab_h_fraction"]
    rows = []
    for k in ks:
        poly = ConvexPolygon.rectangle(1.0, k)
        ch = cheeger_estimate(poly, gauge)
        r_f = ch.inradius
        expect_rf = float(gauge.polar_eval(np.array([1.0, 0.0])))
        if abs(r_f - expect_rf) > 1e-9 * max(expect_rf, 1.0):
            warnings.warn(f"slab sweep at k={k:g}: inradius {r_f:g} is not "
                          f"F°(e1)={expect_rf:g}; the limit formulas assume "
                          "an axis-aligned gauge whose short direction "
                          "dominates", stacklevel=2)
        torsion = solve_torsion(poly, gauge, p, h_eff)
        eigen = solve_eigen(poly, gauge, p, h_eff, start=torsion.v)
        rows.append({
            "k": float(k),
            "r1": eigen.lambda_ * r_f**p / half_pi**p,
            "r2": ch.h_est * r_f,
            "r3": ch.perimeter_F * r_f / poly.area,
            "r4": eigen.lambda_ * torsion.Mv ** (p - 1.0) / slab_constant(p),
        })
    return rows


def sweep_csv_rows(rows: list[dict]) -> list[str]:
    out = ["k,r1,r2,r3,r4"]
    for row in rows:
        out.append(f"{row['k']:g},{row['r1']:.12g},{row['r2']:.12g},"
                   f"{row['r3']:.12g},{row['r4']:.12g}")
    return out


# -- grid convergence study ----------------------------------------------------


@dataclass(frozen=True)
class ConvergenceEntry:
    quantity: str
    hs: tuple[float, ...]
    values: tuple[float, ...]
    order: float
    richardson: float
    monotone: bool


def convergence_study(spec: CaseSpec,
                      hs: list[float]) -> dict[str, ConvergenceEntry]:
    """Observed order and Richardson value for lambda, Mv, T over >= 3 grids.

    Grids must refine by a uniform factor (h[i]/h[i+1] constant); the
    order comes from the last three levels and a non-monotone value
    sequence is flagged via ``monotone``.
    """
    if len(hs) < 3:
        raise ValueError("convergence study needs at least 3 grid levels")
    hs = sorted(float(h) for h in hs)[::-1]  # coarse -> fine
    ratios = [hs[i] / hs[i + 1] for i in range(len(hs) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * ratios[0] for r in ratios):
        raise ValueError("grid levels must refine by a uniform ratio")
    rho = ratios[0]
    poly, gauge, _ = spec.build()
    lam, mvs, ts = [], [], []
    for h in hs:
        torsion = solve_torsion(poly, gauge, spec.p, h, tol=spec.tol)
        eigen = solve_eigen(poly, gauge, spec.p, h, tol=spec.tol,
                            start=torsion.v)
        lam.append(eigen.lambda_)
        mvs.append(torsion.Mv)
        ts.append(torsion.T)

    out = {}
    for name, vals in (("lambda", lam), ("Mv", mvs), ("T", ts)):
        v1, v2, v3 = vals[-3], vals[-2], vals[-1]
        d12, d23 = v2 - v1, v3 - v2
        if d12 == 0.0 or d23 == 0.0 or (d12 > 0) != (d23 > 0):
            order = math.nan
            rich = v3
            monotone = False
        else:
            order = math.log(abs(d12) / abs(d23)) / math.log(rho)
            rich = v3 + d23 / (rho**order - 1.0)
            diffs = np.diff(vals)
            monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
        out[name] = ConvergenceEntry(quantity=name, hs=tuple(hs),
                                     values=tuple(vals), order=order,
                                     richardson=rich, monotone=monotone)
    return out
