"""Command dispatch, exit codes, config round-trips, and output files."""

import json
import warnings

import pytest

import anisospec.cli as cli
from anisospec.cli import (EXIT_INEQUALITY, EXIT_NOT_CONVERGED, EXIT_OK,
                           EXIT_USAGE, RunConfig, main, parse_config_text)
from anisospec.harness import CaseSpec, run_case
from anisospec.pde import ConvergenceError

MINI_CFG = """
[run]
jobs = 1
[tolerances]
payne = 1e-6, 1.5
[case]
domain = rect:1,1
norm = lq:2
p = 2
h = 0.0625
[case]
domain = rect:0.5,0.5
norm = lq:4
p = 1.5
h = 0.04
"""


class TestSolverCommands:
    def test_eigen(self, capsys, tmp_path):
        code = main(["eigen", "--domain", "rect:1,1", "--norm", "lq:2",
                     "--p", "2", "--h", "0.0625", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lam = float(out.splitlines()[0].split("=")[1])
        assert lam == pytest.approx(4.9348, abs=0.05)
        assert out.splitlines()[1].endswith("stop = dual")
        field = (tmp_path / "eigen_field.csv").read_text().splitlines()
        assert field[0] == "x,y,value"

    def test_torsion(self, capsys, tmp_path):
        code = main(["torsion", "--domain", "wulff:1,256", "--norm", "lq:2",
                     "--p", "2", "--h", "0.03", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        mv = float(out.splitlines()[1].split("=")[1])
        assert mv == pytest.approx(0.25, abs=0.01)
        assert out.splitlines()[2].endswith("stop = dual")
        assert (tmp_path / "torsion_field.csv").exists()

    def test_cheeger(self, capsys, tmp_path):
        code = main(["cheeger", "--domain", "rect:0.5,0.5", "--norm", "lq:2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.startswith("h_est = 3.772453851 ")
        # the constant is exact polygon arithmetic: no output file, no p,
        # grid or tolerance to set ("--h" is no abbreviation of "--help")
        for flag, value in (("--out", str(tmp_path)), ("--p", "3"),
                            ("--h", "0.01"), ("--tol", "1e-6")):
            assert main(["cheeger", "--domain", "rect:0.5,0.5", "--norm",
                         "lq:2", flag, value]) == EXIT_USAGE
        capsys.readouterr()

    def test_parse_error_exit_2(self, capsys):
        assert main(["eigen", "--domain", "rect:oops", "--norm", "lq:2"]) \
            == EXIT_USAGE
        assert main(["eigen", "--domain", "rect:1,1", "--norm", "blob:1"]) \
            == EXIT_USAGE
        assert main(["eigen", "--domain", "rect:1,1", "--norm", "lq:2",
                     "--p", "0.5"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("flag,value", [
        ("--p", "inf"), ("--p", "nan"), ("--tol", "-1"), ("--tol", "0"),
        ("--tol", "nan"), ("--tol", "inf")])
    @pytest.mark.parametrize("command", ["eigen", "torsion"])
    def test_bad_p_or_tol_exit_2(self, capsys, command, flag, value):
        # rejected before any solve: no stopping rule can hold there
        assert main([command, "--domain", "rect:1,1", "--norm", "lq:2",
                     "--h", "0.0625", flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be finite" in err

    @pytest.mark.parametrize("domain,norm", [
        ("rect:1,1", "lq:inf"), ("rect:1,1", "ellipse:inf,0,1"),
        ("rect:inf,1", "lq:2"), ("regular:3,inf", "lq:2"),
        ("wulff:inf,64", "lq:2")])
    def test_non_finite_gauge_or_domain_exit_2(self, capsys, domain, norm):
        # a usage error with its reason, before any arithmetic can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cheeger", "--domain", domain, "--norm", norm]) \
                == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["eigen", "--nope"]) == EXIT_USAGE
        assert main(["verify", "--h", "1"]) == EXIT_USAGE  # not "--help"
        assert main(["sweep", "--a", "1"]) == EXIT_USAGE  # the short side is 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["eigen", "torsion", "sweep", "verify"])
    def test_out_naming_a_file_exit_2(self, capsys, monkeypatch, tmp_path,
                                      command):
        # one error line, no traceback; every command fails before it
        # solves, so stdout holds no solved line
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {"eigen": ["--domain", "rect:1,1", "--norm", "lq:2"],
                "torsion": ["--domain", "rect:1,1", "--norm", "lq:2"],
                "sweep": ["--k", "1"], "verify": []}[command]
        if command != "verify":
            argv += ["--h", "0.0625"]
        calls = []
        for name in ("run_case", "solve_eigen", "solve_torsion", "slab_sweep"):
            monkeypatch.setattr(cli, name, lambda *args, fn=getattr(cli, name),
                                **kw: calls.append(fn) or fn(*args, **kw))
        assert main([command, *argv, "--out", str(taken)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert calls == []
        assert taken.read_text() == ""

    def test_nonconvergence_exit_3(self, capsys, monkeypatch):
        def fail(*a, **k):
            raise ConvergenceError("forced")

        monkeypatch.setattr(cli, "solve_eigen", fail)
        assert main(["eigen", "--domain", "rect:1,1", "--norm", "lq:2"]) \
            == EXIT_NOT_CONVERGED
        capsys.readouterr()


class TestVerify:
    def test_mini_catalog(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_CFG)
        out_dir = tmp_path / "out"
        code = main(["verify", "--config", str(cfg), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == 2
        agg = (out_dir / "aggregate.csv").read_text().splitlines()
        assert len(agg) == 1 + 2 * 16
        case_files = sorted(out_dir.glob("case_*.json"))
        assert len(case_files) == 2
        payload = json.loads(case_files[0].read_text())
        assert payload["status"] == "pass"
        assert len(payload["records"]) == 16

    def test_forced_failure_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
[tolerances]
mass_concentration = -2.0, 0.0
[case]
domain = rect:1,1
norm = lq:2
p = 2
h = 0.0625
""")
        assert main(["verify", "--config", str(cfg)]) == EXIT_INEQUALITY
        assert "violated: mass_concentration" in capsys.readouterr().out

    def test_empty_catalog_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("[run]\njobs = 1\n")
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        capsys.readouterr()

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[case]\nnot a key value\n")
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["tol = -1", "tol = 0", "p = 1"])
    def test_bad_case_rejected_before_any_solve(self, capsys, tmp_path,
                                                monkeypatch, line):
        # a bad last case is a config error, not a crash after the others
        # are solved; a later key of a case overrides an earlier one
        solved = []
        monkeypatch.setattr(cli, "_run_one", solved.append)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MINI_CFG + "[case]\ndomain = rect:1,1\nnorm = lq:2\n"
                       f"p = 2\nh = 0.0625\n{line}\n")
        out_dir = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out",
                     str(out_dir)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error" in err and "must be finite" in err
        assert solved == [] and not out_dir.exists()

    def test_strict_inconclusive_exit_3(self, capsys, tmp_path, monkeypatch):
        real = run_case

        def degrade(spec, tols=None):
            rep = real(spec, tols)
            object.__setattr__(rep, "status", "inconclusive")
            return rep

        monkeypatch.setattr(cli, "_run_one", lambda payload: degrade(payload[0]))
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_CFG)
        assert main(["verify", "--config", str(cfg), "--strict"]) \
            == EXIT_NOT_CONVERGED
        assert main(["verify", "--config", str(cfg)]) == EXIT_OK
        capsys.readouterr()

    def test_unchanged_reports_not_rewritten(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        case = "[case]\ndomain = rect:1,1\nnorm = lq:2\np = 2\nh = 0.0625\n"
        cfg.write_text(case)
        out_dir = tmp_path / "out"
        argv = ["verify", "--config", str(cfg), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        files = sorted(out_dir.iterdir())
        assert len(files) == 2
        stamps = [f.stat().st_mtime_ns for f in files]
        assert main(argv) == EXIT_OK
        assert [f.stat().st_mtime_ns for f in files] == stamps
        agg = out_dir / "aggregate.csv"
        before = agg.read_text()
        cfg.write_text("[tolerances]\npayne = 1e-6, 1.5\n" + case)
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert agg.read_text() != before
        assert agg.stat().st_mtime_ns != stamps[files.index(agg)]

    def test_stale_reports_removed(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_CFG)
        out_dir = tmp_path / "out"
        argv = ["verify", "--config", str(cfg), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        assert len(list(out_dir.glob("case_*.json"))) == 2
        (out_dir / "notes.txt").write_text("kept")
        # the same directory, now with only the second case
        cfg.write_text(MINI_CFG.split("[case]")[0] + "[case]"
                       + MINI_CFG.split("[case]")[2])
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        (left,) = out_dir.glob("case_*.json")
        case_id = json.loads(left.read_text())["case"]["id"]
        assert case_id.startswith("rect:0.5,0.5|lq:4|")
        rows = (out_dir / "aggregate.csv").read_text().splitlines()[1:]
        assert len(rows) == 16
        assert all(row.startswith(f'"{case_id}",') for row in rows)
        assert (out_dir / "notes.txt").read_text() == "kept"

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_CFG)
        serial = tmp_path / "serial"
        par = tmp_path / "par"
        assert main(["verify", "--config", str(cfg), "--out",
                     str(serial)]) == EXIT_OK
        assert main(["verify", "--config", str(cfg), "--out", str(par),
                     "--jobs", "2"]) == EXIT_OK
        capsys.readouterr()
        assert (serial / "aggregate.csv").read_text() \
            == (par / "aggregate.csv").read_text()

    def test_pool_no_larger_than_catalog(self, capsys, tmp_path, monkeypatch):
        # the pool forks all of its workers at the first submit, so it is
        # sized to the cases; a stub records the size and maps serially
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_CFG)
        assert main(["verify", "--config", str(cfg), "--jobs", "64"]) \
            == EXIT_OK
        assert sizes == [2]
        one = tmp_path / "one.cfg"
        one.write_text("[case]".join(MINI_CFG.split("[case]")[:2]))
        assert main(["verify", "--config", str(one), "--jobs", "64"]) \
            == EXIT_OK
        assert sizes == [2]  # a single case runs in this process
        capsys.readouterr()


class TestConfig:
    def test_round_trip(self):
        cfg = parse_config_text(MINI_CFG)
        assert len(cfg.cases) == 2
        assert cfg.tolerances["payne"] == (1e-6, 1.5)
        again = parse_config_text(cfg.dump_text())
        assert again.dump_text() == cfg.dump_text()
        assert again.cases == cfg.cases
        assert again.tolerances == cfg.tolerances

    def test_dump_parses_back_exactly(self):
        cfg = RunConfig(cases=[CaseSpec("rect:1,1", "lq:2", 1.1234567890123457,
                                        h=0.1 / 3.0, tol=1e-8 / 3.0)],
                        tolerances={"hersch": (1e-6 / 3.0, 2.0 / 3.0)})
        assert parse_config_text(cfg.dump_text()) == cfg

    def test_dump_config_command(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(MINI_CFG)
        assert main(["verify", "--config", str(cfg), "--dump-config"]) \
            == EXIT_OK
        text = capsys.readouterr().out
        again = parse_config_text(text)
        assert again.dump_text() == text

    def test_config_jobs_kept_without_flag(self, capsys, tmp_path):
        cfg = tmp_path / "jobs.cfg"
        cfg.write_text(MINI_CFG.replace("jobs = 1", "jobs = 4"))
        assert main(["verify", "--config", str(cfg), "--dump-config"]) \
            == EXIT_OK
        assert "jobs = 4\n" in capsys.readouterr().out
        assert main(["verify", "--config", str(cfg), "--dump-config",
                     "--jobs", "2"]) == EXIT_OK
        assert "jobs = 2\n" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_flag_below_one_rejected(self, capsys, jobs):
        # the config's rule: "jobs = 0" would not parse back
        assert main(["verify", "--dump-config", "--jobs", jobs]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--jobs must be at least 1, got {jobs}" in captured.err

    def test_json_config(self):
        payload = {
            "run": {"jobs": 2, "strict": True},
            "tolerances": {"hersch": [1e-7, 0.5]},
            "cases": [{"domain": "rect:1,1", "norm": "lq:2", "p": 2}],
        }
        cfg = parse_config_text(json.dumps(payload))
        assert cfg.jobs == 2 and cfg.strict
        assert cfg.tolerances["hersch"] == (1e-7, 0.5)
        assert cfg.cases == [CaseSpec("rect:1,1", "lq:2", 2.0)]

    def test_unknown_inequality_rejected(self):
        with pytest.raises(cli.ConfigError):
            parse_config_text("[tolerances]\nbogus = 1e-6, 1\n")

    @pytest.mark.parametrize("key,value", [("tolerance", "1e-3"),
                                           ("sweep_m", "64")])
    def test_unknown_case_key_rejected(self, capsys, tmp_path, key, value):
        text = f"[case]\ndomain = rect:1,1\nnorm = lq:2\np = 2\n{key} = {value}\n"
        with pytest.raises(cli.ConfigError, match=key):
            parse_config_text(text)
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("payload,key", [
        ({"cases": [{"domain": "rect:1,1", "norm": "lq:2", "p": 2,
                     "tolerance": 1e-3}]}, "tolerance"),
        ({"run": {"jobz": 4},
          "cases": [{"domain": "rect:1,1", "norm": "lq:2", "p": 2}]}, "jobz"),
        ({"tolerance": {"payne": [1e-6, 1.5]},
          "cases": [{"domain": "rect:1,1", "norm": "lq:2", "p": 2}]},
         "tolerance"),
    ], ids=["case", "run", "top"])
    def test_unknown_json_key_rejected(self, capsys, tmp_path, payload, key):
        with pytest.raises(cli.ConfigError, match=key):
            parse_config_text(json.dumps(payload))
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"run": 5},
        {"tolerances": [1, 2]},
        {"tolerances": {"payne": [1]}},
        {"run": {"strict": "false"}},
        {"run": {"jobs": 2.5}},
        {"cases": {"domain": "rect:1,1"}},
        {"cases": [{"domain": 1, "norm": "lq:2", "p": 2}]},
        {"cases": [{"domain": "rect:1,1", "norm": "lq:2", "p": "two"}]},
    ], ids=["run-int", "tolerances-list", "tolerance-pair", "strict-string",
            "jobs-float", "cases-object", "domain-int", "p-string"])
    def test_wrong_json_type_rejected(self, capsys, tmp_path, payload):
        payload = {"cases": [{"domain": "rect:1,1", "norm": "lq:2", "p": 2}],
                   **payload}
        with pytest.raises(cli.ConfigError):
            parse_config_text(json.dumps(payload))
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(cfg)]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[run]\nstrict = yes\n", "[run]\njobs = 0\n",
        "[tolerances]\npayne = 1e-6\n", "[case]\ndomain = rect:1,1\n",
        "[case]\ndomain = rect:1,1\nnorm = lq:2\np = 0.5\n",
    ], ids=["strict-word", "jobs-zero", "tolerance-single", "case-missing",
            "p-below-1"])
    def test_bad_text_value_rejected(self, text):
        with pytest.raises(cli.ConfigError):
            parse_config_text(text)

    def test_default_catalog_when_no_config(self, capsys):
        code = main(["verify", "--dump-config"])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert text.count("[case]") == 36


class TestSweepCommand:
    def test_header_and_values(self, capsys):
        code = main(["sweep", "--k", "1,2", "--norm", "lq:2", "--p", "2",
                     "--h", "0.0625"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "k,r1,r2,r3,r4"
        row1 = [float(t) for t in lines[1].split(",")]
        assert row1[0] == 1.0
        assert row1[3] == pytest.approx(2.0, rel=1e-9)  # r3 = 1 + 1/k

    def test_out_file(self, capsys, tmp_path):
        code = main(["sweep", "--k", "1", "--h", "0.0625", "--out",
                     str(tmp_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert (tmp_path / "slab_sweep.csv").read_text().startswith("k,r1")

    @pytest.mark.parametrize("flag,value", [("--p", "inf"), ("--p", "nan")])
    def test_bad_p_exit_2(self, capsys, flag, value):
        assert main(["sweep", "--k", "1", "--h", "0.0625", flag, value]) \
            == EXIT_USAGE
        assert "p must be finite" in capsys.readouterr().err

    def test_bad_p_creates_no_out_directory(self, capsys, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--k", "1", "--p", "0.5", "--out", str(out)]) \
            == EXIT_USAGE
        assert "p must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_k_exit_2(self, capsys):
        assert main(["sweep", "--k", ","]) == EXIT_USAGE
        capsys.readouterr()
