"""Each formula has one owner: a static scan of the package sources.

The polygon's edge half-planes are private to ``geometry``, which builds
the grid masks from them, so no other module reads ``_edges``; and
``geometry`` sits below ``pde``, so it never imports it.  No module
imports another module's underscore names.  The solver's eps = 0 energy
takes no regularization.  No package module imports scipy.optimize,
scipy.spatial, scipy.ndimage or scipy.integrate (the tests' oracles may),
and a process that solves the PDEs, the Cheeger problem and whole cases
loads none of the first three, nor scipy.sparse or scipy.linalg.
"""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import anisospec
from anisospec import pde

PACKAGE = Path(anisospec.__file__).resolve().parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree):
    """Dotted names a module imports, relative ones resolved to the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "anisospec" if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _private_imports(tree):
    """Underscore names a module imports from a package module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("anisospec")):
            yield from (f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_"))


def test_only_geometry_reads_edges():
    readers = sorted(name for name, tree in _trees()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "_edges")
    assert set(readers) == {"geometry.py"}, readers


def test_geometry_does_not_import_pde():
    tree = dict(_trees())["geometry.py"]
    imported = set(_imported_modules(tree))
    assert not {"anisospec.pde", "pde"} & imported, sorted(imported)


def test_no_cross_module_private_imports():
    found = sorted(f"{name}: {imp}" for name, tree in _trees()
                   for imp in _private_imports(tree))
    assert not found, found


def test_scan_sees_imports_and_edges():
    # the scan itself: it resolves relative imports and finds attributes
    tree = ast.parse("from . import pde\nfrom .pde import build_grid\n"
                     "import anisospec.pde\nx = poly._edges\n")
    assert {"anisospec.pde", "anisospec.pde.build_grid"} \
        <= set(_imported_modules(tree))
    assert any(isinstance(n, ast.Attribute) and n.attr == "_edges"
               for n in ast.walk(tree))
    tree = ast.parse("from __future__ import annotations\n"
                     "from .geometry import ConvexPolygon, _cached\n"
                     "from anisospec.pde import _fp\nfrom numpy import _x\n")
    assert list(_private_imports(tree)) == ["geometry._cached",
                                            "anisospec.pde._fp"]


def test_energy_has_no_regularization_parameter():
    assert "eps" not in inspect.signature(pde.grad_energy).parameters
    assert "eps" not in inspect.signature(pde._fp).parameters


def test_no_module_imports_ndimage_optimize_or_spatial():
    found = sorted(f"{name}: {imp}" for name, tree in _trees()
                   for imp in _imported_modules(tree)
                   if imp.startswith(("scipy.ndimage", "scipy.optimize",
                                      "scipy.spatial", "scipy.integrate")))
    assert not found, found


PROBE = """
import json, sys
import anisospec, anisospec.cli
from anisospec.cheeger import cheeger_estimate
from anisospec.geometry import ConvexPolygon, parse_domain
from anisospec.harness import CaseSpec, run_case
from anisospec.norms import MinkowskiNorm
from anisospec.pde import solve_eigen, solve_torsion

gauge = MinkowskiNorm.parse("lq:2")
poly = parse_domain("rect:1,1", norm=gauge)
solve_eigen(poly, gauge, 2.0, 1.0 / 16.0)
solve_torsion(poly, gauge, 2.0, 1.0 / 16.0)
h_est = cheeger_estimate(ConvexPolygon.rectangle(0.5, 0.5), gauge).h_est
status = run_case(CaseSpec("wulff:1,256", "ellipse:4,0,1", 2.0,
                           h=1.0 / 24.0)).status
heavy = ("scipy.optimize", "scipy.spatial", "scipy.ndimage", "scipy.sparse",
         "scipy.linalg")
loaded = [name for name in heavy if name in sys.modules]
print(json.dumps({"loaded": loaded, "h_est": h_est, "status": status}))
"""


def test_solve_path_loads_no_optimize_spatial_or_ndimage():
    # a fresh interpreter: this one has imported them for other tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["loaded"] == []
    assert math.isclose(result["h_est"], 2.0 + math.sqrt(math.pi),
                        rel_tol=1e-12)
    assert result["status"] == "pass"
