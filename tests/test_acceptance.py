"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion, each printing a single line

    ACCEPTANCE <n> PASS|FAIL -- <summary>

(`pytest tests/test_acceptance.py -v -s` shows them live).  Expensive
solves at the pinned spacing h = 1/128 are shared through session
fixtures; the full suite is self-contained.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from anisospec.cheeger import cheeger_estimate
from anisospec.geometry import ConvexPolygon, wulff_domain
from anisospec.harness import (CaseSpec, convergence_study, default_catalog,
                               run_case, slab_sweep)
from anisospec.norms import MinkowskiNorm, pi_p
from anisospec.pde import (efficiency_ratio, p_function, solve_eigen,
                           solve_torsion)
from oracles import pi_p_quadrature

LQ2 = MinkowskiNorm.lq(2)
SQUARE = ConvexPolygon.rectangle(1, 1)
J01SQ = float(jn_zeros(0, 1)[0] ** 2)
H = 1.0 / 128.0


def announce(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def eigen_128():
    """Criterion-2 oracle solves at h = 1/128, with wall times."""
    out = {}
    for key, poly, norm in (
            ("square", SQUARE, LQ2),
            ("disk", wulff_domain(LQ2, 1.0, 512), LQ2),
            ("rect16", ConvexPolygon.rectangle(1, 16), LQ2)):
        t0 = time.perf_counter()
        out[key] = solve_eigen(poly, norm, 2.0, H)
        out[key + "_time"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def torsion_128():
    out = {}
    for key, poly in (("disk", wulff_domain(LQ2, 1.0, 512)),
                      ("square", SQUARE)):
        t0 = time.perf_counter()
        out[key] = solve_torsion(poly, LQ2, 2.0, H)
        out[key + "_time"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def catalog_reports():
    t0 = time.perf_counter()
    reports = [(spec, run_case(spec)) for spec in default_catalog()]
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def slab_rows():
    return slab_sweep(LQ2, 2.0, [1, 2, 4, 8, 16])


def test_criterion_1_pi_p():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1.2, 1.5, 2.0, 3.0, 5.0):
        cf, qd = pi_p(p), pi_p_quadrature(p)
        worst = max(worst, abs(cf - qd) / abs(cf))
    pi2_err = abs(pi_p(2.0) - math.pi)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and pi2_err <= 1e-12 and elapsed < 1.0
    announce(1, ok, f"pi_p closed vs quadrature rel err {worst:.2e} "
                    f"(<=1e-8), |pi_2 - pi| = {pi2_err:.2e} (<=1e-12), "
                    f"{elapsed:.3f}s (<1s)")


def test_criterion_2_eigen_oracles(eigen_128):
    sq = eigen_128["square"].lambda_
    dk = eigen_128["disk"].lambda_
    r16 = eigen_128["rect16"].lambda_
    e_sq = abs(sq / (math.pi**2 / 2.0) - 1.0)
    e_dk = abs(dk / 5.78319 - 1.0)
    e_r16 = abs(r16 / 2.47700 - 1.0)
    tmax = max(eigen_128["square_time"], eigen_128["disk_time"],
               eigen_128["rect16_time"])
    ok = e_sq <= 0.01 and e_dk <= 0.01 and e_r16 <= 0.015 and tmax < 60.0
    announce(2, ok, f"h=1/128 eigenvalues: square {sq:.5f} ({e_sq:.2e}<=1%), "
                    f"disk {dk:.5f} ({e_dk:.2e}<=1%), "
                    f"rect(1,16) {r16:.5f} ({e_r16:.2e}<=1.5%), "
                    f"slowest case {tmax:.0f}s (<60s)")


def test_criterion_3_torsion_oracles(torsion_128):
    mv_d = torsion_128["disk"].Mv
    t_d = torsion_128["disk"].T
    mv_s = torsion_128["square"].Mv
    e1 = abs(mv_d / 0.25 - 1.0)
    e2 = abs(t_d / (math.pi / 8.0) - 1.0)
    e3 = abs(mv_s / 0.2947 - 1.0)
    ok = e1 <= 0.01 and e2 <= 0.01 and e3 <= 0.015
    announce(3, ok, f"h=1/128 torsion: disk Mv {mv_d:.5f} ({e1:.2e}<=1%), "
                    f"disk T {t_d:.5f} ({e2:.2e}<=1%), "
                    f"square Mv {mv_s:.5f} ({e3:.2e}<=1.5%)")


def test_criterion_4_maximum_principle(catalog_reports):
    reports, _ = catalog_reports
    worst_case, worst = None, -math.inf
    for spec, rep in reports:
        ratio = rep.solver["p_function_max"] / rep.solver["lambda"]
        if ratio > worst:
            worst_case, worst = spec.case_id, ratio
    catalog_ok = worst <= 0.02

    # slab proxy: the 1-D identity P = 0 holds on the central band; the
    # short ends of any bounded rectangle carry P near -lambda instead
    res = solve_eigen(ConvexPolygon.rectangle(1, 32), LQ2, 2.0, 1.0 / 32.0)
    pf = p_function(res, LQ2, 2.0)
    band = pf.valid & (np.abs(res.u.grid.y[None, :]) <= 1.0)
    band_absmax = float(np.abs(pf.field.values[band]).max())
    global_max = pf.max_interior
    slab_ok = band_absmax <= 0.02 * res.lambda_ and \
        global_max <= 0.02 * res.lambda_
    ok = catalog_ok and slab_ok
    announce(4, ok, f"max interior P/lambda over catalog {worst:.4f} at "
                    f"{worst_case} (<=0.02); rect(1,32) band max|P| "
                    f"{band_absmax:.4f} and global max P {global_max:.4f} "
                    f"(<=0.02*lambda={0.02 * res.lambda_:.4f})")


def test_criterion_5_inequality_suite(catalog_reports):
    reports, elapsed = catalog_reports
    failures = []
    for spec, rep in reports:
        if rep.status == "fail":
            failures.extend((spec.case_id, r["id"]) for r in rep.records
                            if not r["passed"])
        elif rep.status == "inconclusive":
            failures.append((spec.case_id, "inconclusive"))
    min_slack = min(min(r["slack"] + r["tolerance"] for r in rep.records)
                    for _, rep in reports)
    ok = not failures and elapsed < 300.0
    announce(5, ok, f"36 cases x 16 inequalities: {len(failures)} hard "
                    f"failures, min budgeted slack {min_slack:+.2e}, "
                    f"{elapsed:.0f}s (<300s)")


def test_criterion_6_slab_optimality(slab_rows):
    rows = slab_rows
    mono = all(
        all(a[key] >= b[key] - 1e-9 for a, b in zip(rows, rows[1:]))
        for key in ("r1", "r2", "r3", "r4"))
    last = rows[-1]
    target = 1.0 + 1.0 / 256.0
    r1_err = abs(last["r1"] / target - 1.0)
    ok = (mono and last["r1"] <= 1.02 and last["r3"] <= 1.07
          and last["r4"] <= 1.05 and r1_err <= 0.01)
    announce(6, ok, f"slab ratios nonincreasing={mono}; at k=16: "
                    f"r1={last['r1']:.5f} (<=1.02, {r1_err:.2e} from "
                    f"{target:.5f}), r3={last['r3']:.5f} (<=1.07), "
                    f"r4={last['r4']:.5f} (<=1.05)")


def test_criterion_7_cheeger(catalog_reports):
    res = cheeger_estimate(ConvexPolygon.rectangle(0.5, 0.5), LQ2)
    target = 2.0 + math.sqrt(math.pi)
    e_sq = abs(res.h_est / target - 1.0)

    wulff_errs = []
    for norm in (LQ2, MinkowskiNorm.lq(4), MinkowskiNorm.ellipse(4, 0, 1)):
        w = wulff_domain(norm, 1.0, 256)
        wr = cheeger_estimate(w, norm)
        wulff_errs.append(abs(wr.h_est / 2.0 - 1.0))

    reports, _ = catalog_reports
    sandwich = all(
        rep.geometry["cheeger_lower"] <= rep.geometry["cheeger_estimate"]
        <= rep.geometry["cheeger_upper"] + 1e-9 for _, rep in reports)
    ok = e_sq <= 0.005 and max(wulff_errs) <= 0.005 and sandwich
    announce(7, ok, f"unit square h_est {res.h_est:.6f} vs {target:.6f} "
                    f"({e_sq:.2e}<=0.5%); wulff errs "
                    f"{max(wulff_errs):.2e} (<=0.5%); bounds sandwich "
                    f"holds on all 36 cases: {sandwich}")


def test_criterion_8_scaling_monotonicity():
    lam1 = solve_eigen(SQUARE, LQ2, 2.0, 1.0 / 64.0).lambda_
    lam2 = solve_eigen(ConvexPolygon.rectangle(2, 2), LQ2, 2.0,
                       2.0 / 64.0).lambda_
    scale_err = abs(lam2 * 4.0 / lam1 - 1.0)

    ell = MinkowskiNorm.ellipse(4, 0, 1)
    lam3 = solve_eigen(SQUARE, ell, 3.0, 1.0 / 48.0).lambda_
    lam4 = solve_eigen(ConvexPolygon.rectangle(0.5, 0.5), ell, 3.0,
                       0.5 / 48.0).lambda_
    scale_err3 = abs(lam4 * 0.5**3 / lam3 - 1.0)

    nested = [solve_eigen(ConvexPolygon.rectangle(1, k), LQ2, 2.0,
                          1.0 / 32.0).lambda_ for k in (1, 2, 4)]
    mono = nested[0] > nested[1] > nested[2]

    pvals = [p * solve_eigen(SQUARE, LQ2, p, 1.0 / 32.0).lambda_ ** (1.0 / p)
             for p in (1.5, 2.0, 3.0)]
    pmono = pvals[0] < pvals[1] < pvals[2]
    ok = scale_err <= 0.01 and scale_err3 <= 0.01 and mono and pmono
    announce(8, ok, f"scaling t=2 err {scale_err:.2e}, t=1/2 p=3 err "
                    f"{scale_err3:.2e} (<=1%); nested rectangles "
                    f"monotone={mono}; p*lambda^(1/p) increasing={pmono}")


def test_criterion_9_efficiency(eigen_128, catalog_reports):
    eff = efficiency_ratio(eigen_128["square"], SQUARE.area, 2.0)
    target = (2.0 / math.pi) ** 2
    e_eff = abs(eff / target - 1.0)

    reports, _ = catalog_reports
    bounds_ok = all(rep.record("efficiency_power")["passed"]
                    and rep.record("efficiency_sharp")["passed"]
                    for _, rep in reports)
    ok = e_eff <= 0.01 and bounds_ok
    announce(9, ok, f"rectangle E {eff:.6f} vs (2/pi)^2 {target:.6f} "
                    f"({e_eff:.2e}<=1%); power/sharp efficiency bounds "
                    f"hold on all 36 cases: {bounds_ok}")


def test_criterion_10_convergence():
    spec = CaseSpec("rect:1,1", "lq:2", 2.0)
    out = convergence_study(spec, [1 / 32, 1 / 64, 1 / 128])
    lam = out["lambda"]
    rich_err = abs(lam.richardson / (math.pi**2 / 2.0) - 1.0)
    ok = 1.5 <= lam.order <= 2.2 and rich_err <= 0.002
    announce(10, ok, f"lambda order {lam.order:.3f} (in [1.5, 2.2]); "
                     f"Richardson {lam.richardson:.6f} vs pi^2/2 "
                     f"({rich_err:.2e}<=0.2%)")
