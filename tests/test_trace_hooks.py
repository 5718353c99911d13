"""The benchmark tracer finds every name it wraps, and puts them all back."""

import importlib.util
from pathlib import Path

from anisospec import cheeger, geometry, harness, pde
from anisospec.geometry import ConvexPolygon
from anisospec.norms import MinkowskiNorm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_install_and_unwrap_restore_every_owner():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = (cheeger, geometry, harness, pde, ConvexPolygon, MinkowskiNorm)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        # a wrapped name that no longer exists raises here
        tracing.install_wrappers(tracer)
        assert MinkowskiNorm.__dict__["value2"] is not before[-1]["value2"]
        assert pde.solve_eigen is not before[3]["solve_eigen"]
    finally:
        tracer.unwrap_all()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[key] is value for key, value in saved.items())
