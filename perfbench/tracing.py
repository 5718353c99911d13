"""Spans around the public calls of each anisospec layer, recorded from outside.

The tracer replaces public functions and methods by wrappers at the
places they are looked up (a module global such as
``anisospec.harness.solve_eigen`` or a class attribute such as
``MinkowskiNorm.value_wgrad2``) and restores them afterwards.  Each call
becomes one span: name, start, end, parent span and item.  Spans stay in
memory; ``write_jsonl`` saves them when the run ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans named after it
(the text before the first dot).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with reversible patches."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent, item]
        self.items: list[str] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def begin_item(self, label: str | None) -> None:
        """Attribute the following spans to item ``label`` (None: to none)."""
        if label is None:
            self.item = -1
            return
        self.items.append(label)
        self.item = len(self.items) - 1

    def call(self, name: str, fn, args, kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [nid, time.perf_counter(), 0.0, parent, self.item]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``unwrap_all``.

        ``observe(result)`` runs on each returned value, and on the partial
        result carried by an exception that has a ``result`` attribute.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                out = tracer.call(name, original, args, kwargs)
            except Exception as exc:
                partial = getattr(exc, "result", None)
                if observe is not None and partial is not None:
                    observe(partial)
                raise
            if observe is not None:
                observe(out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds."""
        spans = self.spans
        if not spans:
            return {}
        arr = np.array([(s[0], s[2] - s[1], s[3]) for s in spans], dtype=float)
        nid = arr[:, 0].astype(np.int64)
        dur = arr[:, 1]
        parent = arr[:, 2].astype(np.int64)
        child = np.zeros(len(spans))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {"count": float(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    @staticmethod
    def span_cost_s(n: int = 20000) -> float:
        """Seconds one wrapped call adds, timed on a no-op function."""
        probe = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            probe.call("probe", int, (), {})
        return (time.perf_counter() - t0) / n

    def write_jsonl(self, path) -> None:
        """One span per line in start order; ``parent`` is a line index."""
        with open(path, "w") as fh:
            for s in self.spans:
                item = self.items[s[4]] if s[4] >= 0 else None
                fh.write(json.dumps({"name": self.names[s[0]], "start": s[1],
                                     "end": s[2], "parent": s[3],
                                     "item": item}) + "\n")


def layer_self_times(summary: dict) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_s"]
    return dict(out)


def install_wrappers(tracer: Tracer) -> None:
    """Trace the public calls of every layer, where the program looks them up.

    Solver results also feed counters: iterations, solves that exited
    with the hard-coded residual of a failed line search (float eps),
    unconverged solves and free nodes.
    """
    from anisospec import cheeger, geometry, harness, pde
    from anisospec.geometry import ConvexPolygon
    from anisospec.norms import MinkowskiNorm

    counters = tracer.counters
    eps = float(np.finfo(float).eps)

    def solved(kind, field_of):
        def observe(res):
            counters[f"pde.{kind}_iters"] += res.iterations
            counters["pde.eps_exits"] += res.residual == eps
            counters["pde.unconverged"] += not res.converged
            counters["pde.free_nodes"] += int(field_of(res).grid.mask.sum())
        return observe

    def distance_nodes(res):
        counters["geometry.distance_nodes"] += int(res.mask.sum())

    eigen = solved("eigen", lambda r: r.u)
    torsion = solved("torsion", lambda r: r.v)
    for module in (pde, harness):
        tracer.wrap(module, "solve_eigen", "pde.solve_eigen", eigen)
        tracer.wrap(module, "solve_torsion", "pde.solve_torsion", torsion)
    for module in (geometry, harness):
        tracer.wrap(module, "parse_domain", "geometry.parse_domain")
        tracer.wrap(module, "distance_field", "geometry.distance_field",
                    distance_nodes)
    for module in (cheeger, harness):
        tracer.wrap(module, "cheeger_estimate", "cheeger.cheeger_estimate")
    for attr in ("evaluate_inequalities", "p_function", "phi_check"):
        tracer.wrap(harness, attr, "harness.score")
    tracer.wrap(pde, "grad_energy", "pde.grad_energy")
    tracer.wrap(pde, "build_grid", "pde.build_grid")
    for attr in ("erode", "rolling_body", "clearance", "inradius_F"):
        tracer.wrap(ConvexPolygon, attr, f"geometry.{attr}")
    for attr in ("__call__", "value2", "value_wgrad2", "polar_eval"):
        tracer.wrap(MinkowskiNorm, attr, f"norms.{attr.strip('_')}")
