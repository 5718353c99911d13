"""Central defaults and the table of audited inequalities.

Every tunable default lives here:

===================  =========  ==================================================
name                 default    meaning
===================  =========  ==================================================
h_over_diameter      1/128      grid spacing = diameter(domain) / 128 when unset
tol                  1e-8       solver tolerance: dual residual (p = 2, quadratic
                                gauge) or relative decrease over 25 iterations
max_iter             50000      total iteration budget per solve, over all
                                grid levels
wulff_vertices       256        default polygon resolution of Wulff domains
slab_h_fraction      1/128      slab sweeps: h = (short side) * this
===================  =========  ==================================================

Each audited inequality has one ``INEQUALITIES`` entry: its formula text
(a report record's ``name``) and the default (rel, c) of its slack budget.
A check passes when  slack >= -(rel * |rhs| + c * h);  ``rel`` defaults to
1e-6 everywhere, and the grid coefficient ``c`` separates records fed by
solver output (c = 1) from the five records evaluated in exact polygon
arithmetic (c = 0: ``inradius_lower``, ``inradius_upper``,
``faber_krahn``, ``stability`` and ``isoperimetric``, whose inradius,
Cheeger constant, area and perimeter carry no grid error).  A config
file's ``[tolerances]`` section overrides (rel, c) per id.
"""

from __future__ import annotations

DEFAULTS = {
    "h_over_diameter": 1.0 / 128.0,
    "tol": 1e-8,
    "max_iter": 50_000,
    "wulff_vertices": 256,
    "slab_h_fraction": 1.0 / 128.0,
}

#: inequality id -> (formula text, relative part rel, grid coefficient c of
#: the slack budget), in the order of a report's records
INEQUALITIES: dict[str, tuple[str, float, float]] = {
    "hersch": ("lambda >= (pi_p/(2 R_F))^p", 1e-6, 1.0),
    "cheeger": ("lambda >= (h_F/p)^p", 1e-6, 1.0),
    "better_cheeger": ("lambda >= (pi_p h_F/(2N))^p", 1e-6, 1.0),
    "reverse_cheeger": ("lambda <= (pi_p h_F/2)^p", 1e-6, 1.0),
    "perimeter_upper": ("lambda <= (pi_p P_F/(2 area))^p", 1e-6, 1.0),
    "payne": ("((p-1)/p)^(p-1) (pi_p/2)^p <= lambda Mv^(p-1)", 1e-6, 1.0),
    "functional_chain": (
        "lambda (T/area)^(p-1) <= lambda Mv^(p-1) <= (area Mv/T)^(p-1)",
        1e-6, 1.0),
    "efficiency_power": ("E^p <= 1/p", 1e-6, 1.0),
    "efficiency_sharp": ("E <= (p-1)^(-1/p) (2/pi_p)^(1/(p-1))", 1e-6, 1.0),
    "inradius_lower": ("1/R_F <= h_F", 1e-6, 0.0),
    "inradius_upper": ("h_F <= N/R_F", 1e-6, 0.0),
    "faber_krahn": ("h_F >= h_F(Wulff shape of equal area)", 1e-6, 0.0),
    "stability": ("h_F - h_F(W_vol) <= N (1/R_F - 1/R_vol)", 1e-6, 0.0),
    "torsion_max": ("R_F^q/(q N^(q-1)) <= Mv <= R_F^q/q", 1e-6, 1.0),
    "isoperimetric": ("P_F >= N kappa^(1/N) area^(1-1/N)", 1e-6, 0.0),
    "mass_concentration": ("p integral(u^p) <= max(u)^p area", 1e-6, 1.0),
}
