"""The benchmark workloads and their correctness gates.

Each workload is built from a seed, then runs whole passes over its items
in one closed loop: the next item starts when the previous one returns.
``run_pass`` returns one ``Item`` per item, with its wall time and the
gate checks it broke; oracle errors accumulate in ``errors``.

* ``catalog``     - ``anisospec verify`` (jobs = 1) on a fixed third of the
  default catalog, through ``cli.main``.  The seed permutes case order.
* ``fine_oracle`` - the criterion-2/3 oracle solves at h = 1/128, p = 2,
  Euclidean gauge, through ``pde.solve_eigen`` / ``pde.solve_torsion``.
  The seed permutes solve order.

Public functions are looked up on their modules at call time, so the
wrappers that ``tracing.install_wrappers`` puts in place are the ones
called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as time_now

from anisospec import cli, geometry, harness, pde
from anisospec.norms import MinkowskiNorm

# relative slack for comparing the gridded distance maximum with the LP
# inradius, which the LP solver returns rounded
LP_REL_TOL = 1e-9

# closed forms used by acceptance criteria 2, 3 and 7
LAMBDA_SQUARE = math.pi**2 / 2.0       # rect:1,1 (side 2)
LAMBDA_RECT_1_4 = math.pi**2 / 4.0 * (1.0 + 1.0 / 16.0)
LAMBDA_DISK = 5.78319                  # j_01^2, unit disk
LAMBDA_RECT_1_16 = 2.47700
MV_SQUARE = 0.2947
MV_DISK = 0.25
T_DISK = math.pi / 8.0
H_UNIT_SQUARE = 2.0 + math.sqrt(math.pi)
H_WULFF = 2.0                          # unit Wulff shape, any gauge


@dataclass
class Item:
    label: str
    seconds: float
    failures: list[str] = field(default_factory=list)


class Workload:
    name = ""
    report_bytes = 0

    def __init__(self):
        self.errors = {"lambda": 0.0, "torsion": 0.0, "cheeger": 0.0}

    def prepare(self, out_dir: Path) -> None:
        """File set-up outside the timed passes."""

    def finish(self) -> None:
        """Persist state once the run is over."""

    def oracle(self, kind: str, label: str, value: float, target: float,
               tol: float, failures: list[str]) -> None:
        err = abs(value / target - 1.0)
        self.errors[kind] = max(self.errors[kind], err)
        if not err <= tol:
            failures.append(f"{label}: relative error {err:.3e} > {tol:g}")


# -- catalog ---------------------------------------------------------------------

# One p per (domain, gauge) pair of the default catalog: each domain meets
# every p, each p appears four times, and the Euclidean p = 2 oracle cases
# stay in.  Its serial time is a third of the full catalog's.
CATALOG_P = {
    ("rect:1,1", "lq:2"): 2.0, ("rect:1,1", "lq:4"): 3.0,
    ("rect:1,1", "ellipse:4,0,1"): 1.5,
    ("rect:1,4", "lq:2"): 2.0, ("rect:1,4", "lq:4"): 1.5,
    ("rect:1,4", "ellipse:4,0,1"): 3.0,
    ("regular:6,1", "lq:2"): 1.5, ("regular:6,1", "lq:4"): 2.0,
    ("regular:6,1", "ellipse:4,0,1"): 3.0,
    ("wulff:1,256", "lq:2"): 2.0, ("wulff:1,256", "lq:4"): 3.0,
    ("wulff:1,256", "ellipse:4,0,1"): 1.5,
}

# The criterion-2/3 tolerances hold at h = 1/128; the catalog grid is
# coarser (h = diameter/128), so only the eigenvalues the catalog audits
# against closed forms and the grid-free Cheeger constants are gated here.
CATALOG_ORACLES = {
    "rect:1,1|lq:2|p=2": [("lambda", "lambda", LAMBDA_SQUARE, 0.01),
                          ("cheeger", "cheeger_estimate",
                           H_UNIT_SQUARE / 2.0, 0.005)],
    "rect:1,4|lq:2|p=2": [("lambda", "lambda", LAMBDA_RECT_1_4, 0.01)],
    "wulff:1,256|lq:2|p=2": [("cheeger", "cheeger_estimate", H_WULFF, 0.005)],
    "wulff:1,256|lq:4|p=3": [("cheeger", "cheeger_estimate", H_WULFF, 0.005)],
    "wulff:1,256|ellipse:4,0,1|p=1.5": [("cheeger", "cheeger_estimate",
                                         H_WULFF, 0.005)],
}


def source_digest(src: Path) -> str:
    """sha256 over the package sources, naming the code a hash belongs to."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Catalog(Workload):
    name = "catalog"

    def __init__(self, seed: int):
        super().__init__()
        specs = [s for s in harness.default_catalog()
                 if CATALOG_P[(s.domain, s.norm)] == s.p]
        random.Random(seed).shuffle(specs)
        self.specs = specs
        self.config = json.dumps({"run": {"jobs": 1}, "cases": [
            {"domain": s.domain, "norm": s.norm, "p": s.p} for s in specs]})
        self.known: dict[str, str] = {}

    def prepare(self, out_dir: Path) -> None:
        self.config_path = out_dir / "catalog-config.json"
        self.config_path.write_text(self.config)
        # only this run's reports count towards cli.report_bytes
        self.report_dir = out_dir / "catalog-reports"
        shutil.rmtree(self.report_dir, ignore_errors=True)
        # report hashes of earlier runs, keyed by source digest, so that a
        # report that is not byte-identical across processes shows up even
        # when runs of different sources alternate
        src = Path(harness.__file__).resolve().parent
        self.hash_path = out_dir / "catalog-hashes.json"
        try:
            self.stored = json.loads(self.hash_path.read_text())
        except (OSError, ValueError):
            self.stored = {}
        if not isinstance(self.stored, dict):
            self.stored = {}
        self.known = self.stored.setdefault(source_digest(src), {})

    def finish(self) -> None:
        tmp = self.hash_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.stored, sort_keys=True))
        os.replace(tmp, self.hash_path)

    def check(self, rep, failures: list[str]) -> None:
        cid = rep.case["id"]
        if rep.status != "pass":
            failures.append(f"{cid}: status {rep.status}")
        g = rep.geometry
        if not g["cheeger_lower"] <= g["cheeger_estimate"] <= g["cheeger_upper"]:
            failures.append(f"{cid}: Cheeger estimate outside its bounds")
        if not g["grid_inradius"] <= g["inradius_F"] * (1.0 + LP_REL_TOL):
            failures.append(f"{cid}: distance maximum above the inradius")
        values = {**rep.solver, **g}
        for kind, key, target, tol in CATALOG_ORACLES.get(cid, ()):
            self.oracle(kind, f"{cid} {key}", values[key], target, tol,
                        failures)
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        if self.known.setdefault(cid, digest) != digest:
            failures.append(f"{cid}: report bytes differ from an earlier "
                            "run of the same sources")

    def run_pass(self, tracer=None) -> list[Item]:
        done: list[tuple[Item, object]] = []
        run_case = cli.run_case

        def timed_run_case(spec, tols=None):
            t0 = time_now()
            if tracer is not None:
                tracer.begin_item(spec.case_id)
                rep = tracer.call("harness.run_case", run_case, (spec, tols),
                                  {})
            else:
                rep = run_case(spec, tols)
            done.append((Item(spec.case_id, time_now() - t0), rep))
            return rep

        argv = ["verify", "--config", str(self.config_path), "--out",
                str(self.report_dir), "--jobs", "1"]
        cli.run_case = timed_run_case
        try:
            with contextlib.redirect_stdout(io.StringIO()) as text:
                if tracer is not None:
                    tracer.begin_item(None)
                    code = tracer.call("cli.verify", cli.main, (argv,), {})
                else:
                    code = cli.main(argv)
        finally:
            cli.run_case = run_case
        if len(done) != len(self.specs):
            raise RuntimeError(f"verify ran {len(done)} of {len(self.specs)} "
                               f"cases (exit {code})")
        for item, rep in done:
            self.check(rep, item.failures)
        items = [item for item, _ in done]
        if code not in (cli.EXIT_OK, cli.EXIT_INEQUALITY):
            raise RuntimeError(f"verify exited {code}: "
                               f"{text.getvalue().strip()[-200:]}")
        self.report_bytes = sum(p.stat().st_size
                                for p in self.report_dir.iterdir())
        return items


# -- fine_oracle -------------------------------------------------------------------

FINE_H = 1.0 / 128.0
FINE_SOLVES = [
    # (label, solver, domain, [(kind, quantity, target, tolerance)])
    ("eigen square", "eigen", "rect:1,1",
     [("lambda", "lambda_", LAMBDA_SQUARE, 0.01)]),
    ("eigen disk", "eigen", "wulff:1,512",
     [("lambda", "lambda_", LAMBDA_DISK, 0.01)]),
    ("eigen rect(1,16)", "eigen", "rect:1,16",
     [("lambda", "lambda_", LAMBDA_RECT_1_16, 0.015)]),
    ("torsion disk", "torsion", "wulff:1,512",
     [("torsion", "Mv", MV_DISK, 0.01), ("torsion", "T", T_DISK, 0.01)]),
    ("torsion square", "torsion", "rect:1,1",
     [("torsion", "Mv", MV_SQUARE, 0.015)]),
]


class FineOracle(Workload):
    name = "fine_oracle"

    def __init__(self, seed: int):
        super().__init__()
        self.gauge = MinkowskiNorm.parse("lq:2")
        polys = {dom: geometry.parse_domain(dom, norm=self.gauge)
                 for _, _, dom, _ in FINE_SOLVES}
        self.solves = [(label, kind, polys[dom], checks)
                       for label, kind, dom, checks in FINE_SOLVES]
        random.Random(seed).shuffle(self.solves)

    def run_pass(self, tracer=None) -> list[Item]:
        items = []
        for label, kind, poly, checks in self.solves:
            solve = pde.solve_eigen if kind == "eigen" else pde.solve_torsion
            if tracer is not None:
                tracer.begin_item(label)
            failures: list[str] = []
            t0 = time_now()
            try:
                res = solve(poly, self.gauge, 2.0, FINE_H)
            except pde.ConvergenceError as exc:
                res = exc.result
                failures.append(f"{label}: did not converge")
            item = Item(label, time_now() - t0, failures)
            for okind, quantity, target, tol in checks:
                self.oracle(okind, f"{label} {quantity}",
                            getattr(res, quantity), target, tol, failures)
            items.append(item)
        return items


WORKLOADS = {w.name: w for w in (Catalog, FineOracle)}
