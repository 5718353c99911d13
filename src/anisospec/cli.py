"""Command-line interface.

Subcommands
-----------
eigen / torsion
    Solve one case given ``--domain``/``--norm``/``--p`` flags, print the
    headline numbers and write the field CSV under ``--out``.
cheeger
    Print the exact Cheeger constant of ``--domain`` under ``--norm`` and
    its inradius bounds.
verify
    Run a case catalog (default or from ``--config``), write one JSON
    report per case plus an aggregate CSV (a file whose bytes would not
    change is left as it is; case reports of earlier runs that this run
    did not write are removed), and exit 0 only if every converged case
    passes every inequality.
sweep
    Ratios on the slabs ]-1,1[ x ]-k,k[; emits ``k,r1,r2,r3,r4`` CSV.

Exit codes: 0 success, 1 inequality failure (verify), 2 argument, config
or file-system error (an ``--out`` that names a file), 3 solver
non-convergence (or inconclusive cases under ``--strict``).

Config files are either JSON or a flat key-value text with ``[run]``,
``[tolerances]`` and ``[case]`` sections.  The text form is read into the
JSON layout (``{"run": {...}, "tolerances": {...}, "cases": [...]}``),
and one validator type-checks both: an unknown section or key, or a
value of the wrong type, is a config error (exit 2).  ``--dump-config``
prints the canonical text form, which parses back to the identical run
configuration; ``verify`` flags override the config's values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .cheeger import cheeger_estimate
from .config import DEFAULTS, INEQUALITIES
from .geometry import GeometryError, parse_domain
from .harness import (CaseSpec, default_catalog, aggregate_csv_rows, run_case,
                      slab_sweep, sweep_csv_rows)
from .norms import GaugeError, MinkowskiNorm
from .pde import ConvergenceError, check_p_tol, solve_eigen, solve_torsion

EXIT_OK = 0
EXIT_INEQUALITY = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Parsed verify-run configuration."""

    cases: list[CaseSpec] = field(default_factory=list)
    tolerances: dict[str, tuple[float, float]] = field(default_factory=dict)
    out_dir: str | None = None
    jobs: int = 1
    strict: bool = False

    def dump_text(self) -> str:
        lines = ["[run]", f"jobs = {self.jobs}", f"strict = {int(self.strict)}"]
        if self.out_dir:
            lines.append(f"out = {self.out_dir}")
        if self.tolerances:
            lines.append("[tolerances]")
            for key in sorted(self.tolerances):
                rel, c = self.tolerances[key]
                lines.append(f"{key} = {rel!r}, {c!r}")
        for case in self.cases:
            lines.append("[case]")
            lines.append(f"domain = {case.domain}")
            lines.append(f"norm = {case.norm}")
            lines.append(f"p = {case.p!r}")
            if case.h is not None:
                lines.append(f"h = {case.h!r}")
            if case.tol != DEFAULTS["tol"]:
                lines.append(f"tol = {case.tol!r}")
        return "\n".join(lines) + "\n"


CASE_KEYS = ("domain", "norm", "p", "h", "tol")
RUN_KEYS = ("jobs", "strict", "out")
JSON_KEYS = ("run", "tolerances", "cases")


def parse_config_text(text: str) -> RunConfig:
    """Parse a config file, JSON or the key-value text form."""
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
    else:
        data = _text_layout(text)
    return _config_from_data(data)


def _text_layout(text: str) -> dict:
    """The key-value text form in the JSON layout, every value a string.

    A ``[tolerances]`` value ``rel, c`` becomes the list of its two parts.
    """
    data: dict = {"run": {}, "tolerances": {}, "cases": []}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section == "case":
                data["cases"].append({})
            elif section not in ("run", "tolerances"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of a section")
        key, val = (part.strip() for part in line.split("=", 1))
        if section == "case":
            data["cases"][-1][key] = val
        elif section == "tolerances":
            data["tolerances"][key] = [tok.strip() for tok in val.split(",")]
        else:
            data["run"][key] = val
    return data


def _mapping(value, what: str, keys) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {', '.join(unknown)}")
    return value


def _number(value, kind: type, what: str):
    """``value`` as a finite ``kind`` (int or float).

    JSON gives numbers and the text form gives strings; a bool, or a float
    where an int is due, is a config error.
    """
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError:
            pass
    types = int if kind is int else (int, float)
    if (isinstance(value, bool) or not isinstance(value, types)
            or not math.isfinite(value)):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return kind(value)


def _jobs(value, what: str) -> int:
    """A worker count: an integer of at least 1."""
    jobs = _number(value, int, what)
    if jobs < 1:
        raise ConfigError(f"{what} must be at least 1, got {jobs}")
    return jobs


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _config_from_data(data) -> RunConfig:
    """Type-check a config in the JSON layout; any bad value is a ConfigError."""
    data = _mapping(data, "top-level", JSON_KEYS)
    run = _mapping(data.get("run", {}), "run", RUN_KEYS)
    cfg = RunConfig()
    if "jobs" in run:
        cfg.jobs = _jobs(run["jobs"], "run jobs")
    strict = run.get("strict", False)
    if strict not in (False, True, "0", "1"):  # a JSON bool or 0/1; text 0/1
        raise ConfigError(f"run strict must be 0 or 1, got {strict!r}")
    cfg.strict = strict in (True, "1")
    if run.get("out") is not None:
        cfg.out_dir = _string(run["out"], "run out")
    tolerances = _mapping(data.get("tolerances", {}), "tolerances",
                          INEQUALITIES)
    for key, pair in tolerances.items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"tolerance {key} needs [rel, c], got {pair!r}")
        cfg.tolerances[key] = (_number(pair[0], float, f"tolerance {key}"),
                               _number(pair[1], float, f"tolerance {key}"))
    cases = data.get("cases", [])
    if not isinstance(cases, list):
        raise ConfigError(f"cases must be a list, got {cases!r}")
    for entry in cases:
        entry = _mapping(entry, "case", CASE_KEYS)
        h = entry.get("h")
        fields = {
            "domain": _string(entry.get("domain"), "case domain"),
            "norm": _string(entry.get("norm"), "case norm"),
            "p": _number(entry.get("p"), float, "case p"),
            "h": None if h is None else _number(h, float, "case h"),
            "tol": _number(entry.get("tol", DEFAULTS["tol"]), float,
                           "case tol"),
        }
        try:
            cfg.cases.append(CaseSpec(**fields))
        except ValueError as exc:
            raise ConfigError(f"bad case {entry!r}: {exc}") from None
    return cfg


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: "--h" on a command without it is an error, not
    # an abbreviation of "--help"
    ap = argparse.ArgumentParser(
        prog="anisospec", allow_abbrev=False,
        description="anisotropic eigenvalues, torsion, Cheeger constants, "
                    "and inequality audits on convex planar domains")
    subs = ap.add_subparsers(dest="command", required=True)

    for name in ("eigen", "torsion", "cheeger"):
        sub = subs.add_parser(name, allow_abbrev=False)
        sub.add_argument("--domain", required=True,
                         help="rect:a,k | regular:n,R | wulff:r,n | poly:x,y;...")
        sub.add_argument("--norm", required=True,
                         help="lq:q | ellipse:a11,a12,a22")
        if name == "cheeger":
            continue  # exact polygon arithmetic: no p, grid or tolerance
        sub.add_argument("--p", type=float, default=2.0)
        sub.add_argument("--h", type=float, default=None,
                         help="grid spacing (default: diameter/128)")
        sub.add_argument("--tol", type=float, default=DEFAULTS["tol"])
        sub.add_argument("--out", default=None,
                         help="output directory for the field CSV")

    ver = subs.add_parser("verify", allow_abbrev=False)
    ver.add_argument("--config", default=None, help="config file (text or JSON)")
    ver.add_argument("--out", default=None)
    ver.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: the config's, else 1)")
    ver.add_argument("--strict", action="store_true",
                     help="inconclusive cases fail the run with exit 3")
    ver.add_argument("--dump-config", action="store_true",
                     help="print the canonical config text and exit")

    sw = subs.add_parser("sweep", allow_abbrev=False)
    sw.add_argument("--k", default="1,2,4,8,16",
                    help="comma-separated half-lengths")
    sw.add_argument("--norm", default="lq:2")
    sw.add_argument("--p", type=float, default=2.0)
    sw.add_argument("--h", type=float, default=None)
    sw.add_argument("--out", default=None)
    return ap


def _cmd_solve(args) -> int:
    """The eigen or torsion subcommand, by ``args.command``."""
    spec = CaseSpec(args.domain, args.norm, args.p, args.h, args.tol)
    poly, gauge, h = spec.build()
    if args.out:  # before the solve, so a bad directory costs none
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    if args.command == "eigen":
        res = solve_eigen(poly, gauge, args.p, h, tol=args.tol)
        print(f"lambda = {res.lambda_:.10g}")
        field = res.u
    else:
        res = solve_torsion(poly, gauge, args.p, h, tol=args.tol)
        print(f"T = {res.T:.10g}")
        print(f"Mv = {res.Mv:.10g}")
        field = res.v
    print(f"iterations = {res.iterations}  residual = {res.residual:.3e}  "
          f"stop = {res.stop}")
    if args.out:
        path = out / f"{args.command}_field.csv"
        field.to_csv(path)
        print(f"field written to {path}")
    return EXIT_OK


def _cmd_cheeger(args) -> int:
    gauge = MinkowskiNorm.parse(args.norm)
    res = cheeger_estimate(parse_domain(args.domain, norm=gauge), gauge)
    print(f"h_est = {res.h_est:.10g}  (r* = {res.r_star:.6g})")
    print(f"bounds: {res.lower:.10g} <= h <= {res.upper:.10g}")
    return EXIT_OK


def _write_if_changed(path: Path, text: str) -> None:
    """Write ``text`` unless ``path`` already holds exactly these bytes.

    Comparing costs far less than overwriting, and an unchanged report
    keeps its modification time.
    """
    data = text.encode()
    try:
        if path.read_bytes() == data:
            return
    except FileNotFoundError:
        pass
    path.write_bytes(data)


def _run_one(payload):
    return run_case(*payload)  # (spec, tolerance overrides)


def _cmd_verify(args) -> int:
    if args.config:
        try:
            cfg = parse_config_text(Path(args.config).read_text())
        except (OSError, ConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not cfg.cases:
            print("config error: empty catalog", file=sys.stderr)
            return EXIT_USAGE
    else:
        cfg = RunConfig(cases=default_catalog())
    if args.jobs is not None:
        cfg.jobs = _jobs(args.jobs, "--jobs")
    if args.strict:
        cfg.strict = True
    if args.out:
        cfg.out_dir = args.out
    if args.dump_config:
        sys.stdout.write(cfg.dump_text())
        return EXIT_OK

    if cfg.out_dir:  # before any case runs, so a bad directory costs none
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    payloads = [(spec, cfg.tolerances) for spec in cfg.cases]
    # the pool forks all its workers at the first submit: no more than cases
    workers = min(cfg.jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, payloads))
    else:
        reports = [_run_one(p) for p in payloads]
    reports.sort(key=lambda rep: rep.case["id"])

    if cfg.out_dir:
        written = set()
        for rep in reports:
            safe = rep.case["id"].replace(":", "_").replace("|", "__") \
                .replace(",", "-").replace("=", "")
            name = f"case_{safe}.json"
            written.add(name)
            _write_if_changed(out / name, rep.to_json() + "\n")
        _write_if_changed(out / "aggregate.csv",
                          "\n".join(aggregate_csv_rows(reports)) + "\n")
        # a reused directory keeps no report of a case outside this run
        for path in out.glob("case_*.json"):
            if path.name not in written:
                path.unlink()

    n_fail = n_inc = 0
    for rep in reports:
        bad = [r["id"] for r in rep.records if not r["passed"]]
        line = f"{rep.status.upper():12s} {rep.case['id']}"
        if bad and rep.status == "fail":
            line += f"  violated: {','.join(bad)}"
        print(line)
        n_fail += rep.status == "fail"
        n_inc += rep.status == "inconclusive"
    print(f"{len(reports)} cases: {len(reports) - n_fail - n_inc} pass, "
          f"{n_fail} fail, {n_inc} inconclusive")
    if n_fail:
        return EXIT_INEQUALITY
    if n_inc and cfg.strict:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    gauge = MinkowskiNorm.parse(args.norm)
    ks = [float(tok) for tok in args.k.split(",") if tok.strip()]
    if not ks:
        raise GaugeError("sweep needs at least one k")
    check_p_tol(args.p, DEFAULTS["tol"])  # as slab_sweep does, before --out
    if args.out:  # before the sweep, so a bad directory costs none
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    rows = slab_sweep(gauge, args.p, ks, h=args.h)
    text = "\n".join(sweep_csv_rows(rows)) + "\n"
    if args.out:
        (out / "slab_sweep.csv").write_text(text)
        print(f"sweep written to {out / 'slab_sweep.csv'}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "eigen": _cmd_solve,
    "torsion": _cmd_solve,
    "cheeger": _cmd_cheeger,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (GaugeError, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
