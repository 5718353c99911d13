"""Anisotropic spectral geometry on convex planar domains.

First Dirichlet eigenvalues and torsion functions of the anisotropic
p-Laplacian, Wulff-shape geometry (perimeter, distance, inradius,
erosion), Cheeger-constant bounds and estimates, and a harness that
audits the full family of sharp inequalities tying them together.
"""

from .cheeger import CheegerResult, cheeger_estimate
from .config import DEFAULTS, INEQUALITIES
from .geometry import (ConvexPolygon, DistanceField, GeometryError,
                       CoarseGridError, Grid, build_grid, distance_field,
                       parse_domain, wulff_domain)
from .harness import (CaseSpec, InequalityReport, convergence_study,
                      default_catalog, run_case, slab_sweep)
from .norms import GaugeError, MinkowskiNorm, pi_p, wulff_polygon
from .pde import (ConvergenceError, EigenResult, GridField,
                  PFunctionResult, TorsionResult, efficiency_ratio,
                  mass_bound_check, p_function, phi_check, phi_profile,
                  solve_eigen, solve_torsion)

__version__ = "0.1.0"

__all__ = [
    "CaseSpec", "CheegerResult", "CoarseGridError", "ConvergenceError",
    "ConvexPolygon", "DEFAULTS", "DistanceField", "EigenResult", "GaugeError",
    "GeometryError", "Grid", "GridField", "INEQUALITIES",
    "InequalityReport", "MinkowskiNorm", "PFunctionResult", "TorsionResult",
    "build_grid", "cheeger_estimate", "convergence_study", "default_catalog",
    "distance_field", "efficiency_ratio", "mass_bound_check", "p_function",
    "parse_domain", "phi_check", "phi_profile", "pi_p", "run_case",
    "slab_sweep", "solve_eigen", "solve_torsion", "wulff_domain",
    "wulff_polygon",
]
