"""anisospec benchmark: one command, two workloads, metrics by name.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py``): ``catalog`` and ``fine_oracle``.  One
process runs whole passes of the workload in a closed loop and starts
another pass only while one as long as the last still fits in
``--seconds``; a pass longer than that runs once.  No second load
generator runs.  The process and its children run on one CPU with one
BLAS thread (see ``pin_to_one_cpu``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, measured on
the traced passes and given per pass, with each span's count and self
time; the spans go to ``perfbench/out/trace-<workload>-<seed>.jsonl``.

Every item is checked (oracle tolerances of acceptance criteria 2, 3 and
7, case status, Cheeger bounds, distance maximum against the inradius,
byte-identical reports); an item that breaks a check counts as failed and
the command exits 1.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 9

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r})
print(time.perf_counter() - t0)
"""


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU with one BLAS thread.

    The program's threads (``scipy.fft`` with ``workers=-1``, threaded
    OpenBLAS) wait on each other across CPUs: on a 2-vCPU Xeon VM, catalog
    passes took 10.2-11.7 s pinned against 11.4-15.1 s unpinned, in runs
    taken in turns.  Call before NumPy is imported.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh interpreters of import plus building the inputs."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                              seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_context() -> dict:
    import numpy
    import scipy

    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_after_run": threads,
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "fft_workers": "-1 (os.cpu_count() threads)",
    }


def timed_pass(workload, tracer=None):
    t0 = time.perf_counter()
    items = workload.run_pass(tracer)
    return time.perf_counter() - t0, items


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(workload, passes, items, setup_s) -> dict:
    return {
        "wall_s": metric(statistics.median(passes), "s"),
        "item_p50_s": metric(statistics.median(i.seconds for i in items), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "oracle_err_max": metric(max(workload.errors.values()), "rel"),
    }


def per_layer(workload, tracer, traced, untraced) -> dict:
    import tracing

    n = len(traced)
    summ = tracer.summary()
    layers = tracing.layer_self_times(summ)

    def count(name):
        return summ.get(name, {}).get("count", 0.0) / n

    def total(name):
        return summ.get(name, {}).get("total_s", 0.0) / n

    def self_s(name):
        return summ.get(name, {}).get("self_s", 0.0) / n

    energy = count("pde.grad_energy")
    grads = count("norms.value_wgrad2") / 2.0
    wall = statistics.median(traced)
    out = {
        "pde.energy_evals": metric(energy, "count"),
        "pde.grad_evals": metric(grads, "count"),
        "pde.grad_per_energy": metric(grads / energy if energy else 0.0,
                                      "ratio"),
        "pde.eps_exits": metric(tracer.counters["pde.eps_exits"] / n, "count"),
        "pde.eigen_iters": metric(tracer.counters["pde.eigen_iters"] / n,
                                  "count"),
        "pde.torsion_iters": metric(tracer.counters["pde.torsion_iters"] / n,
                                    "count"),
        "pde.unconverged": metric(tracer.counters["pde.unconverged"] / n,
                                  "count"),
        "pde.free_nodes": metric(tracer.counters["pde.free_nodes"] / n,
                                 "count"),
        "pde.eigen_s": metric(total("pde.solve_eigen"), "s"),
        "pde.torsion_s": metric(total("pde.solve_torsion"), "s"),
        "pde.build_grid_s": metric(total("pde.build_grid"), "s"),
        "pde.self_s": metric(layers.get("pde", 0.0) / n, "s"),
        "norms.self_s": metric(layers.get("norms", 0.0) / n, "s"),
        "norms.calls": metric(sum(count(k) for k in summ
                                  if k.startswith("norms.")), "count"),
        "cheeger.estimate_s": metric(total("cheeger.cheeger_estimate"), "s"),
        "cheeger.self_s": metric(layers.get("cheeger", 0.0) / n, "s"),
        "cheeger.rolling_body_calls": metric(count("geometry.rolling_body"),
                                             "count"),
        "geometry.distance_field_s": metric(total("geometry.distance_field"),
                                            "s"),
        "geometry.distance_nodes": metric(
            tracer.counters["geometry.distance_nodes"] / n, "count"),
        "geometry.parse_s": metric(total("geometry.parse_domain"), "s"),
        "geometry.erode_calls": metric(count("geometry.erode"), "count"),
        "geometry.self_s": metric(layers.get("geometry", 0.0) / n, "s"),
        "harness.score_s": metric(self_s("harness.score"), "s"),
        "harness.run_case_self_s": metric(self_s("harness.run_case"), "s"),
        "cli.verify_self_s": metric(self_s("cli.verify"), "s"),
        "cli.report_bytes": metric(workload.report_bytes, "B"),
        "pde.lambda_err_max": metric(workload.errors["lambda"], "rel"),
        "pde.torsion_err_max": metric(workload.errors["torsion"], "rel"),
        "cheeger.h_err_max": metric(workload.errors["cheeger"], "rel"),
        "trace.wall_s": metric(wall, "s"),
        "trace.overhead_s": metric(wall - statistics.median(untraced), "s"),
        # share of wall_s inside spans below the cli.verify root span
        "trace.coverage": metric(
            sum(v for k, v in layers.items() if k != "cli") / n / wall,
            "ratio"),
        "trace.spans": metric(len(tracer.spans) / n, "count"),
    }
    return out


def print_trace_tables(tracer, n_passes: int, wall: float) -> None:
    import tracing

    summ = tracer.summary()
    print(f"trace: {n_passes} traced pass(es), per pass:")
    print(f"  {'span':32s} {'count':>10s} {'self_s':>10s} {'total_s':>10s}")
    for name, row in sorted(summ.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} {row['count'] / n_passes:10.0f} "
              f"{row['self_s'] / n_passes:10.4f} "
              f"{row['total_s'] / n_passes:10.4f}")
    layers = tracing.layer_self_times(summ)
    print("layer self time, share of traced wall_s:")
    for layer, sec in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {sec / n_passes:10.4f} s "
              f"{100.0 * sec / n_passes / wall:6.1f} %")
    stages = {"eigen": "pde.solve_eigen", "torsion": "pde.solve_torsion",
              "cheeger": "cheeger.cheeger_estimate",
              "distance": "geometry.distance_field", "score": "harness.score"}
    shares = {k: summ[v]["total_s"] / n_passes / wall
              for k, v in stages.items() if v in summ}
    if shares:
        print("stage split of traced wall_s: " + ", ".join(
            f"{k} {100.0 * v:.1f} %" for k, v in shares.items()))
    cost = tracer.span_cost_s()
    print(f"tracing cost: {len(tracer.spans) / n_passes:.0f} spans per pass x "
          f"{1e6 * cost:.2f} us = {len(tracer.spans) / n_passes * cost:.4f} s "
          "per pass (trace.overhead_s is traced minus untraced wall_s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["catalog", "fine_oracle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "anisospec" / "__init__.py").is_file():
        print(f"error: no anisospec sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workload.prepare(OUT_DIR)

    untraced: list[float] = []
    traced: list[float] = []
    items = []
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        dt, got = timed_pass(workload)
        untraced.append(dt)
        items += got
        step = dt
        if tracer is not None:
            tracing.install_wrappers(tracer)
            try:
                dt, got = timed_pass(workload, tracer)
            finally:
                tracer.unwrap_all()
            traced.append(dt)
            items += got
            step += dt
        # start another pass only while one as long as the last still fits
        if time.perf_counter() - start + step > args.seconds:
            break
    workload.finish()

    failed = [i for i in items if i.failures]
    for item in failed:
        for reason in item.failures:
            print(f"FAILED {reason}")
    print("context: " + json.dumps(run_context(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items; "
          f"untraced passes {[round(t, 3) for t in untraced]} s, "
          f"traced passes {[round(t, 3) for t in traced]} s")
    if tracer is not None:
        print_trace_tables(tracer, len(traced), statistics.median(traced))
        tracer.write_jsonl(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = per_layer(workload, tracer, traced, untraced)
    else:
        metrics = end_to_end(workload, untraced, items, setup_s)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(items),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
