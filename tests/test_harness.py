"""Case reports, determinism, slab sweeps, and convergence studies."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import anisospec.geometry as geometry
import anisospec.harness as harness
import anisospec.pde as pde
from anisospec.config import INEQUALITIES
from anisospec.geometry import ConvexPolygon
from anisospec.harness import (CaseSpec, aggregate_csv_rows, convergence_study,
                               default_catalog, run_case, slab_sweep,
                               sweep_csv_rows)
from anisospec.norms import MinkowskiNorm
from anisospec.pde import ConvergenceError, GridField
from oracles import distance_to_boundary_F

FAST = CaseSpec("rect:1,1", "lq:2", 2.0, h=1.0 / 24.0)


@pytest.fixture(scope="module")
def fast_report():
    return run_case(FAST)


class TestCaseSpec:
    def test_defaults(self):
        spec = CaseSpec("rect:1,1", "lq:2", 2.0)
        poly, gauge, h = spec.build()
        assert h == pytest.approx(poly.diameter / 128.0)
        assert spec.case_id == "rect:1,1|lq:2|p=2"

    def test_validation(self):
        with pytest.raises(ValueError):
            CaseSpec("rect:1,1", "lq:2", 1.0)
        with pytest.raises(ValueError):
            CaseSpec("rect:1,1", "lq:2", 2.0, h=-0.1)

    def test_catalog_shape(self):
        cat = default_catalog()
        assert len(cat) == 36
        assert len({c.case_id for c in cat}) == 36


class TestRunCase:
    def test_all_sixteen_records(self, fast_report):
        ids = [r["id"] for r in fast_report.records]
        assert ids == list(INEQUALITIES)
        assert len(ids) == 16

    def test_record_schema(self, fast_report):
        for rec in fast_report.records:
            for key in ("id", "name", "lhs", "rhs", "slack", "tolerance",
                        "passed"):
                assert key in rec
            assert math.isfinite(rec["slack"])
            assert rec["passed"] == (rec["slack"] >= -rec["tolerance"])

    def test_status_pass(self, fast_report):
        assert fast_report.status == "pass"
        assert fast_report.passed

    def test_two_sided_records_have_parts(self, fast_report):
        assert len(fast_report.record("functional_chain")["parts"]) == 2
        assert len(fast_report.record("torsion_max")["parts"]) == 2

    def test_solver_block(self, fast_report):
        s = fast_report.solver
        assert s["eigen_converged"] and s["torsion_converged"]
        assert s["lambda"] == pytest.approx(math.pi**2 / 2.0, rel=1e-2)
        assert abs(s["T_dual"] - s["T"]) <= 1e-6 * s["T"]

    def test_deterministic_json(self, fast_report):
        again = run_case(FAST)
        assert again.to_json() == fast_report.to_json()

    def test_tolerance_override_can_fail(self):
        rep = run_case(FAST, {"mass_concentration": (-2.0, 0.0)})
        assert rep.status == "fail"
        assert not rep.record("mass_concentration")["passed"]

    def test_inconclusive_on_nonconvergence(self, monkeypatch):
        import anisospec.pde as pde

        real = pde.solve_eigen

        def flaky(*args, **kwargs):
            raise ConvergenceError("forced", real(*args, **kwargs))

        monkeypatch.setattr(harness, "solve_eigen", flaky)
        rep = run_case(FAST)
        assert rep.status == "inconclusive"

    def test_inconclusive_on_torsion_nonconvergence(self, monkeypatch):
        real = pde.solve_torsion

        def flaky(*args, **kwargs):
            raise ConvergenceError("forced", real(*args, **kwargs))

        monkeypatch.setattr(harness, "solve_torsion", flaky)
        rep = run_case(FAST)
        assert rep.status == "inconclusive"
        assert rep.solver["eigen_converged"]

    def test_strongly_coupled_ellipse_stays_inconclusive(self):
        # with a12 = 0.9 the discrete first eigenvector changes sign (30 of
        # 484 nodes negative at diam/32), which the eigen clamp cannot
        # reach: the solve ends on an unconverged line search, never a pass
        diam = ConvexPolygon.rectangle(1, 1).diameter
        rep = run_case(CaseSpec("rect:1,1", "ellipse:1,0.9,1", 2.0,
                                h=diam / 32.0))
        assert rep.status == "inconclusive"
        assert rep.solver["eigen_converged"] is False

    def test_null_torsion_field_falls_back_to_the_bbox_seed(self,
                                                              monkeypatch):
        # a failed torsion solve whose partial v is null still seeds the
        # eigen solve: from the bounding-box seed on the finest grid
        real = pde.solve_torsion
        starts = []

        def null_v(*args, **kwargs):
            res = real(*args, **kwargs)
            v = GridField(res.v.grid, np.zeros_like(res.v.values))
            raise ConvergenceError("forced", dataclasses.replace(res, v=v))

        def eigen(*args, **kwargs):
            starts.append(kwargs["start"])
            return pde.solve_eigen(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_torsion", null_v)
        monkeypatch.setattr(harness, "solve_eigen", eigen)
        rep = run_case(FAST)
        assert rep.status == "inconclusive"
        assert len(starts) == 1 and not starts[0].values.any()
        poly, gauge, h = FAST.build()
        problem = pde._EigenProblem(starts[0].grid, gauge, FAST.p, 0.0)
        bbox = problem.feasible(pde._bbox_seed(starts[0].grid))
        assert np.array_equal(problem.prepare(starts[0].values),
                              bbox / pde._mass(bbox, starts[0].grid, 2.0)
                              ** 0.5)
        assert rep.solver["eigen_converged"]
        assert rep.solver["lambda"] == pytest.approx(
            pde.solve_eigen(poly, gauge, FAST.p, h).lambda_, rel=1e-14)

    def test_exact_records_have_no_grid_term(self):
        # the five records computed in exact polygon arithmetic are
        # budgeted by the relative part alone
        for ineq_id in ("inradius_lower", "inradius_upper", "faber_krahn",
                        "stability", "isoperimetric"):
            for rhs in (-2.5, 0.0, 3.0):
                rec = harness._record(ineq_id, 0.0, rhs, {}, 0.05)
                assert rec["tolerance"] == 1e-6 * abs(rhs)

    def test_grid_inradius_samples_the_solver_grid(self):
        # rect:1,4 at diam/128 has 31 cells across its short side, so no
        # node sits on the midline and the grid maximum is 30/31 R_F
        spec = CaseSpec("rect:1,4", "lq:2", 2.0)
        poly, gauge, h = spec.build()
        grid = pde.solve_torsion(poly, gauge, spec.p, h).v.grid
        assert grid.nx == 32
        i, j = np.nonzero(grid.mask)
        d_f = distance_to_boundary_F(poly, gauge,
                                     np.column_stack([grid.x[i], grid.y[j]]))
        geo = run_case(spec).geometry
        assert geo["grid_inradius"] == pytest.approx(d_f.max(), rel=1e-14)
        assert geo["grid_inradius"] == pytest.approx(30.0 / 31.0, rel=1e-12)
        assert geo["inradius_F"] == pytest.approx(1.0, rel=1e-12)

    def test_aggregate_rows(self, fast_report):
        rows = aggregate_csv_rows([fast_report])
        assert rows[0].startswith("case,inequality")
        assert len(rows) == 17
        # the case field is quoted so embedded commas stay one field
        assert rows[1].split('",')[0] == '"rect:1,1|lq:2|p=2'


def _count_calls(monkeypatch, owner, attr) -> list:
    """Replace ``owner.attr`` by a wrapper that logs one entry per call."""
    calls = []
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestEachQuantityOnce:
    def test_run_case_counts(self, monkeypatch):
        # efficiency and mass ratio: one power integral each; P_F and
        # kappa_F once, in the Cheeger solve, which carries them to the
        # report; one erosion skeleton, which gives R_F and the Cheeger root
        integrals = _count_calls(monkeypatch, GridField, "integral")
        perimeters = _count_calls(monkeypatch, ConvexPolygon, "perimeter_F")
        kappas = _count_calls(monkeypatch, MinkowskiNorm, "wulff_area")
        skeletons = _count_calls(monkeypatch, geometry, "_erosion_skeleton")
        run_case(FAST)
        assert (len(integrals), len(perimeters), len(kappas), len(skeletons)) \
            == (2, 1, 1, 1)

    def test_seeded_eigen_runs_one_level(self, monkeypatch):
        # from the torsion field the eigen solve descends once, on the
        # field's grid, and builds no grid; unseeded it runs the hierarchy
        poly, gauge = ConvexPolygon.rectangle(1, 1), MinkowskiNorm.lq(4)
        h = poly.diameter / 128.0
        v = pde.solve_torsion(poly, gauge, 1.5, h).v
        descents = _count_calls(monkeypatch, pde, "_descend")
        grids = _count_calls(monkeypatch, pde, "build_grid")
        pde.solve_eigen(poly, gauge, 1.5, h, start=v)
        assert (len(descents), len(grids)) == (1, 0)
        descents.clear()
        pde.solve_eigen(poly, gauge, 1.5, h)
        assert len(descents) >= 2 and len(grids) >= len(descents)

    @pytest.mark.parametrize("gauge,p,one_level", [
        ("lq:2", 2.0, True), ("ellipse:4,0,1", 2.0, True),
        ("lq:4", 2.0, False), ("lq:2", 1.5, False)])
    def test_quadratic_torsion_runs_one_level(self, monkeypatch, gauge, p,
                                              one_level):
        # on the quadratic path (p = 2, quadratic gauge) the torsion solve
        # builds and descends the finest grid alone; elsewhere the coarse
        # levels pay, and it runs the hierarchy
        norm = MinkowskiNorm.parse(gauge)
        poly = geometry.parse_domain("regular:6,1", norm=norm)
        h = poly.diameter / 64.0
        fine = geometry.build_grid(poly, h)
        assert len(pde._grid_hierarchy(poly, fine)) >= 2
        descents = _count_calls(monkeypatch, pde, "_descend")
        grids = _count_calls(monkeypatch, pde, "build_grid")
        pde.solve_torsion(poly, norm, p, h)
        if one_level:
            assert (len(descents), len(grids)) == (1, 1)
        else:
            assert len(descents) >= 2 and len(grids) >= len(descents)

    @pytest.mark.parametrize("domain,gauge", [("rect:1,4", "ellipse:4,0,1"),
                                              ("rect:1,16", "lq:2")])
    def test_box_interior_quadratic_eigen_runs_one_level(self, monkeypatch,
                                                         domain, gauge):
        # where the free nodes fill the box's interior and a12 = 0, the
        # seed is the discrete eigenvector: the finest grid alone, built
        # once, and the dual rule accepts the seed before any step
        norm = MinkowskiNorm.parse(gauge)
        poly = geometry.parse_domain(domain, norm=norm)
        descents = _count_calls(monkeypatch, pde, "_descend")
        grids = _count_calls(monkeypatch, pde, "build_grid")
        prolongs = _count_calls(monkeypatch, pde, "_prolong")
        res = pde.solve_eigen(poly, norm, 2.0, 1.0 / 32.0)
        assert (len(descents), len(grids), len(prolongs)) == (1, 1, 0)
        assert descents[0][0].grid is res.u.grid
        assert (res.stop, res.iterations) == ("dual", 0)

    @pytest.mark.parametrize("domain,gauge", [
        ("rect:1,1", "ellipse:2,0.5,1"),  # a12 != 0
        ("rect:1,1", "lq:4"),  # p = 2 off the quadratic path
        ("regular:6,1", "lq:2")])  # free nodes short of the box's interior
    def test_other_unseeded_eigen_solves_keep_the_hierarchy(
            self, monkeypatch, domain, gauge):
        norm = MinkowskiNorm.parse(gauge)
        poly = geometry.parse_domain(domain, norm=norm)
        h = 1.0 / 32.0
        fine = geometry.build_grid(poly, h)
        assert len(pde._grid_hierarchy(poly, fine)) >= 2
        descents = _count_calls(monkeypatch, pde, "_descend")
        grids = _count_calls(monkeypatch, pde, "build_grid")
        prolongs = _count_calls(monkeypatch, pde, "_prolong")
        pde.solve_eigen(poly, norm, 2.0, h)
        assert len(descents) >= 2 and len(grids) >= len(descents)
        assert len(prolongs) == len(descents) - 1

    def test_seeded_box_interior_eigen_takes_the_seed(self, monkeypatch):
        # where the seed is the discrete eigenvector, a given start is
        # replaced by it: one level from no start, on the start's grid
        poly, norm = ConvexPolygon.rectangle(1, 4), MinkowskiNorm.lq(2)
        h = 1.0 / 32.0
        v = pde.solve_torsion(poly, norm, 2.0, h).v
        assert pde._precond_exact(v.grid, norm.quadratic_form())
        descents = _count_calls(monkeypatch, pde, "_descend")
        res = pde.solve_eigen(poly, norm, 2.0, h, start=v)
        assert len(descents) == 1 and descents[0][1] is None
        assert res.iterations == 0 and res.u.grid is v.grid

    def test_seeded_eigen_keeps_its_start_elsewhere(self, monkeypatch):
        # where the DST does not invert the Hessian, a given start is
        # descended as it is, on its grid alone
        norm = MinkowskiNorm.lq(2)
        poly = geometry.parse_domain("regular:6,1", norm=norm)
        h = 1.0 / 32.0
        v = pde.solve_torsion(poly, norm, 2.0, h).v
        assert not pde._precond_exact(v.grid, norm.quadratic_form())
        descents = _count_calls(monkeypatch, pde, "_descend")
        res = pde.solve_eigen(poly, norm, 2.0, h, start=v)
        assert len(descents) == 1 and descents[0][1] is v
        assert res.iterations > 0 and res.u.grid is v.grid

    def test_run_case_builds_only_the_torsion_grids(self, monkeypatch):
        # the eigen solve and the distance field sample the torsion's
        # finest grid: a case builds the grids a bare torsion solve builds
        grids = _count_calls(monkeypatch, pde, "build_grid")
        distance_grids = _count_calls(monkeypatch, geometry, "build_grid")
        poly, gauge, h = FAST.build()
        pde.solve_torsion(poly, gauge, FAST.p, h, tol=FAST.tol)
        torsion_grids = len(grids)
        assert torsion_grids >= 1
        grids.clear()
        run_case(FAST)
        assert (len(grids), len(distance_grids)) == (torsion_grids, 0)

    def test_run_case_seeds_the_eigen_solve(self, monkeypatch):
        # the torsion is solved first and its field starts the eigen solve
        order = []
        torsion = _count_calls(monkeypatch, harness, "solve_torsion")
        eigen = _count_calls(monkeypatch, harness, "solve_eigen")
        real = pde._coarse_to_fine

        def logged(problem_cls, *args):
            order.append(problem_cls.__name__)
            return real(problem_cls, *args)

        monkeypatch.setattr(pde, "_coarse_to_fine", logged)
        run_case(FAST)
        assert order == ["_TorsionProblem", "_EigenProblem"]
        assert (len(torsion), len(eigen)) == (1, 1)

    def test_slab_sweep_one_skeleton_per_k(self, monkeypatch):
        skeletons = _count_calls(monkeypatch, geometry, "_erosion_skeleton")
        slab_sweep(MinkowskiNorm.lq(2), 2.0, [1, 2], h=1.0 / 16.0)
        assert len(skeletons) == 2

    def test_cached_incenter_is_read_only(self):
        _, center = ConvexPolygon.rectangle(1, 2).inradius_F(MinkowskiNorm.lq(2))
        with pytest.raises(ValueError):
            center[0] = 1.0


@pytest.fixture(scope="module")
def rows():
    return slab_sweep(MinkowskiNorm.lq(2), 2.0, [1, 2, 4], h=1.0 / 24.0)


@pytest.fixture(scope="module")
def catalog_sweeps():
    # the catalog gauges are axis-aligned, so their sweeps must not warn
    sweeps = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in ("lq:2", "lq:4", "ellipse:4,0,1"):
            gauge = MinkowskiNorm.parse(spec)
            sweeps[spec] = gauge, slab_sweep(gauge, 2.0, [1, 4],
                                             h=1.0 / 16.0)
    return sweeps


class TestSlabSweep:

    def test_columns(self, rows):
        for row in rows:
            assert set(row) == {"k", "r1", "r2", "r3", "r4"}

    def test_ratios_above_one(self, rows):
        for row in rows:
            for key in ("r1", "r2", "r3", "r4"):
                assert row[key] >= 1.0 - 1e-3

    def test_nonincreasing(self, rows):
        for key in ("r1", "r2", "r3", "r4"):
            vals = [row[key] for row in rows]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_aligned_catalog_gauges_do_not_warn(self, catalog_sweeps):
        for _, sweep in catalog_sweeps.values():
            assert [row["k"] for row in sweep] == [1.0, 4.0]

    def test_r3_exact(self, catalog_sweeps):
        # P_F R_F / area on ]-1,1[ x ]-k,k[ with R_F = 1/F(e1)
        for gauge, sweep in catalog_sweeps.values():
            f1, f2 = (float(gauge(e)) for e in np.eye(2))
            for row in sweep:
                assert row["r3"] == pytest.approx(1.0 + f2 / (row["k"] * f1),
                                                  rel=1e-9)

    def test_r1_separation_of_variables(self, rows):
        for row in rows:
            assert row["r1"] == pytest.approx(1.0 + 1.0 / row["k"] ** 2,
                                              rel=3e-3)

    def test_csv(self, rows):
        lines = sweep_csv_rows(rows)
        assert lines[0] == "k,r1,r2,r3,r4"
        assert len(lines) == 4

    def test_unaligned_norm_warns(self):
        with pytest.warns(UserWarning):
            slab_sweep(MinkowskiNorm.ellipse(2, 0.5, 1), 2.0, [1],
                       h=1.0 / 16.0)


class TestConvergence:
    def test_square_second_order(self):
        out = convergence_study(FAST, [1 / 16, 1 / 32, 1 / 64])
        lam = out["lambda"]
        assert 1.8 <= lam.order <= 2.2
        assert lam.richardson == pytest.approx(math.pi**2 / 2.0, rel=5e-4)
        assert lam.monotone
        assert out["Mv"].richardson == pytest.approx(0.294685, rel=2e-3)
        assert out["T"].richardson == pytest.approx(0.562282, rel=2e-3)

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            convergence_study(FAST, [1 / 16, 1 / 32])

    def test_uniform_ratio_required(self):
        with pytest.raises(ValueError):
            convergence_study(FAST, [1 / 16, 1 / 32, 1 / 40])

    def test_non_monotone_flagged(self, monkeypatch):
        vals = iter([(2.0, 0.3, 0.5), (1.0, 0.3, 0.5), (1.5, 0.3, 0.5)])

        class FakeEigen:
            def __init__(self, lam):
                self.lambda_ = lam

        class FakeTorsion:
            def __init__(self, mv, t):
                self.Mv, self.T, self.v = mv, t, None

        state = {}

        def fake_torsion(*a, **k):  # solved first; the eigen solve reads v
            lam, mv, t = next(vals)
            state["lam"] = lam
            return FakeTorsion(mv, t)

        def fake_eigen(*a, **k):
            return FakeEigen(state["lam"])

        monkeypatch.setattr(harness, "solve_eigen", fake_eigen)
        monkeypatch.setattr(harness, "solve_torsion", fake_torsion)
        out = convergence_study(FAST, [1 / 16, 1 / 32, 1 / 64])
        assert not out["lambda"].monotone
        assert math.isnan(out["lambda"].order)
