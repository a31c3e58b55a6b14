"""Command-line harness tests: persistence, reproducibility, reports."""

import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cscf import cli
from cscf.benchmarks import benchmark_problem
from cscf.engineering import PENALTY_MODES, PenaltyParams
from cscf.errors import ConfigError
from cscf.hybrid import ALGORITHMS, OptimizerConfig, RunRecord, as_read, unread


def run_cli(*argv):
    return cli.main(list(argv))


def read_records(directory):
    rows = []
    for path in sorted(directory.glob("*.json")):
        for line in path.read_text().splitlines():
            rows.append(json.loads(line))
    return rows


class TestListing:
    def test_list_problems(self, capsys):
        assert run_cli("list-problems") == 0
        out = capsys.readouterr().out
        assert "fn6\tsphere" in out
        assert "welded_beam" in out

    def test_list_maps(self, capsys):
        assert run_cli("list-maps") == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "logistic" and len(out) == 12

    @pytest.mark.parametrize("command", ["list-problems", "list-maps"])
    def test_closed_pipe_exits_1_quietly(self, command):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a plain shell
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run([sys.executable, "-m", "cscf.cli", command],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestRun:
    def test_smallest_job(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = run_cli("run", "--problem", "sphere", "--algo", "cscf",
                       "--dim", "4", "--iters", "10", "--seed", "42",
                       "--replicates", "1", "--out", str(out))
        assert code == 0
        records = list(out.glob("*.json"))
        curves = list(out.glob("*.curve.csv"))
        assert len(records) == 1 and len(curves) == 1
        row = json.loads(records[0].read_text())
        assert row["seed"] == 42 and row["problem"] == "sphere"
        assert RunRecord.from_dict(row) == RunRecord.from_dict(row)
        assert len(row["best_curve"]) == 11

    def test_skip_existing_then_force(self, tmp_path, capsys):
        out = tmp_path / "res"
        args = ("run", "--problem", "sphere", "--dim", "3", "--iters", "5",
                "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 0
        record = next(out.glob("*.json"))
        first = record.read_text()
        assert run_cli(*args) == 0
        assert "skipped 1 existing" in capsys.readouterr().out
        assert record.read_text() == first
        assert run_cli(*args, "--force") == 0
        assert json.loads(record.read_text())["seed"] == 1

    def test_failed_curve_write_reruns_the_job(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "res"
        args = ("run", "--problem", "sphere", "--dim", "3", "--iters", "5",
                "--replicates", "2", "--out", str(out))
        write_curve = cli.analysis.write_convergence_csv
        calls = []

        def fail_once(record, path):
            calls.append(path)
            if len(calls) == 1:
                Path(path).write_text("partial")
                raise OSError("disk full")
            write_curve(record, path)

        monkeypatch.setattr(cli.analysis, "write_convergence_csv", fail_once)
        assert run_cli(*args) == 1
        captured = capsys.readouterr()
        assert "ran 2 job(s), 1 failed, skipped 0 existing" in captured.out
        assert "failed: OSError: disk full" in captured.err
        assert len(list(out.glob("*.json"))) == 1 and list(out.glob("*.tmp")) == []
        assert run_cli(*args) == 0
        assert "ran 1 job(s), 0 failed, skipped 1 existing" in capsys.readouterr().out
        records = sorted(p.name.removesuffix(".json") for p in out.glob("*.json"))
        curves = sorted(p.name.removesuffix(".curve.csv") for p in out.glob("*.curve.csv"))
        assert len(records) == 2 and curves == records

    def test_reproducible_modulo_wall_time(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("run", "--problems", "sphere,rastrigin", "--algo", "cscf,ff",
                    "--dim", "5", "--iters", "20", "--seed", "7",
                    "--replicates", "2", "--out", str(out))
        rows_a, rows_b = read_records(a), read_records(b)
        assert len(rows_a) == len(rows_b) == 8
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("wall_time"), rb.pop("wall_time")
            assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
        for ca, cb in zip(sorted(a.glob("*.curve.csv")), sorted(b.glob("*.curve.csv"))):
            assert ca.read_bytes() == cb.read_bytes()

    def test_replicate_seeds_derived_from_base(self, tmp_path):
        out = tmp_path / "res"
        run_cli("run", "--problem", "sphere", "--dim", "3", "--iters", "2",
                "--seed", "100", "--replicates", "3", "--out", str(out))
        seeds = sorted(row["seed"] for row in read_records(out))
        assert seeds == [100, 101, 102]

    def test_problem_range_expansion(self, tmp_path):
        out = tmp_path / "res"
        run_cli("run", "--problems", "fn1..fn3", "--dim", "3", "--iters", "1",
                "--out", str(out))
        names = {row["problem"] for row in read_records(out)}
        assert names == {"ackley", "griewank", "floor_step"}

    def test_spellings_of_one_problem_run_once(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "fn1,ackley", "--dim", "3", "--iters", "1",
                       "--out", str(out)) == 0
        assert "ran 1 job(s)" in capsys.readouterr().out
        assert [row["problem"] for row in read_records(out)] == ["ackley"]

    @pytest.mark.parametrize("flag,value", [
        ("--problems", ""), ("--problems", "fn5..fn2"), ("--dims", ""),
        ("--algo", ""), ("--variant", ""), ("--map", ""),
    ])
    def test_selector_naming_nothing_exits_2(self, tmp_path, capsys, flag, value):
        code = run_cli("run", flag, value, "--out", str(tmp_path / "res"))
        assert code == 2
        key = next(row.key for row in cli._SELECTORS if flag in row.flags)
        assert capsys.readouterr().err == f"error: {flag}: {key} names nothing\n"
        assert not (tmp_path / "res").exists()

    def test_engineering_problem_runs(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli("run", "--problem", "welded_beam", "--iters", "30",
                       "--out", str(out))
        assert code == 0
        row = read_records(out)[0]
        assert row["dim"] == 4
        assert "feasible" in row
        assert len(row["best_constraints"]) == 7

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "nonesuch", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == "error: --problems: unknown benchmark 'nonesuch'\n"

    @pytest.mark.parametrize("via", ["flag", "ini"])
    @pytest.mark.parametrize("flag,section,option,value,message", [
        ("--seed", "experiment", "seed", "-1", "seed must be >= 0, got -1"),
        ("--replicates", "experiment", "replicates", "0", "replicates must be >= 1, got 0"),
        ("--jobs", "experiment", "jobs", "0", "jobs must be >= 1, got 0"),
        ("--dims", "problem", "dims", "0", "dimension must be >= 1, got 0"),
        ("--algo", "algorithm", "algos", "bogus",
         "unknown algorithm 'bogus'; known: ('ff', 'iff', 'sca', 'cscf')"),
        ("--variant", "variant", "variants", "bogus", "unknown variant 'bogus'"),
        ("--map", "chaos", "maps", "nonesuch", "unknown chaotic map 'nonesuch'"),
        ("--problems", "problem", "names", "nonesuch", "unknown benchmark 'nonesuch'"),
    ])
    def test_selector_error_names_its_source(self, tmp_path, capsys, monkeypatch, via,
                                             flag, section, option, value, message):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[{section}]\n{option} = {value}\n")
        given = (flag, value) if via == "flag" else ("--config", str(ini))
        monkeypatch.setattr(cli, "_attempt", lambda job: pytest.fail("a job ran"))
        assert run_cli("run", *given, "--out", str(tmp_path / "res")) == 2
        source = flag if via == "flag" else str(ini)
        assert capsys.readouterr().err == f"error: {source}: {message}\n"
        assert not (tmp_path / "res").exists()

    def test_design_names_ignore_case(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "Welded_Beam", "--iters", "1",
                       "--out", str(out)) == 0
        (record,) = out.glob("*.json")
        assert record.name.startswith("welded_beam__")
        assert read_records(out)[0]["problem"] == "welded_beam"

    @pytest.mark.parametrize("via", ["flag", "ini"])
    def test_unknown_penalty_mode_is_one_error_line(self, tmp_path, capsys, via):
        ini = tmp_path / "exp.ini"
        ini.write_text("[penalty]\nmode = bogus\n")
        given = ("--penalty-mode", "bogus") if via == "flag" else ("--config", str(ini))
        code = run_cli("run", "--problem", "sphere", "--iters", "1", *given,
                       "--out", str(tmp_path / "res"))
        source = "--penalty-mode" if via == "flag" else str(ini)
        assert code == 2
        assert capsys.readouterr().err == f"error: {source}: unknown penalty mode 'bogus'\n"
        assert not (tmp_path / "res").exists()

    def test_bad_population_names_its_flag(self, tmp_path, capsys):
        code = run_cli("run", "--problem", "sphere", "--pop", "2", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --pop: population must be >= 3")

    def test_unknown_range_endpoint_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[problem]\nnames = fn1..nonesuch\n")
        for source, given in (("--problems", ("--problems", "fn1..nonesuch")),
                              (str(ini), ("--config", str(ini)))):
            assert run_cli("run", *given, "--out", str(tmp_path / "res")) == 2
            assert capsys.readouterr().err == f"error: {source}: unknown benchmark 'nonesuch'\n"

    @pytest.mark.parametrize("selector", [("--variant", "bogus"), ("--map", "nonesuch")])
    def test_unknown_variant_or_map_exits_2_for_any_algorithm(self, tmp_path, capsys, selector):
        code = run_cli("run", "--problem", "sphere", "--algo", "ff", *selector, "--dim", "2",
                       "--iters", "1", "--out", str(tmp_path / "res"))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.json")) == []

    @pytest.mark.parametrize("selector", [("--replicates", "0"), ("--seed", "-1"),
                                          ("--dim", "-1"), ("--dim", "0"),
                                          ("--problem", "welded_beam", "--dim", "-1"),
                                          ("--beta", "nan"), ("--alpha0", "nan"),
                                          ("--alpha0", "inf"), ("--j-step", "inf"),
                                          ("--jobs", "0"),
                                          ("--penalty-mode", "static-penalty",
                                           "--penalty-weight", "nan")],
                             ids="=".join)
    def test_out_of_range_selector_exits_2(self, tmp_path, capsys, selector):
        code = run_cli("run", "--problem", "sphere", "--iters", "1", *selector,
                       "--out", str(tmp_path / "res"))
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.json")) == []

    @pytest.mark.parametrize("data", [b"out = res\n", b"[chaos]\nmaps = logistic%\n",
                                      b"\xff\xfe[x]\n"],
                             ids=["no-section-header", "lone-percent", "not-utf8"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, data):
        ini = tmp_path / "exp.ini"
        ini.write_bytes(data)
        code = run_cli("run", "--config", str(ini), "--problem", "sphere", "--dim", "2",
                       "--iters", "1", "--out", str(tmp_path / "res"))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ini}: ")
        assert list(tmp_path.rglob("*.json")) == []

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "none.ini"
        code = run_cli("run", "--config", str(ini), "--problem", "sphere",
                       "--out", str(tmp_path / "res"))
        assert code == 2
        assert capsys.readouterr().err == f"error: config file {ini} not found or unreadable\n"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_output_path_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys,
                                                             monkeypatch, out):
        (tmp_path / "file").write_text("in the way\n")
        monkeypatch.setattr(cli, "_attempt", lambda job: pytest.fail("a job ran"))
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--iters", "1",
                       "--out", str(tmp_path / out))
        assert code == 2
        assert "error: cannot use" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "in the way\n"

    def test_parallel_jobs(self, tmp_path):
        out = tmp_path / "res"
        code = run_cli("run", "--problems", "sphere,rastrigin", "--dim", "3",
                       "--iters", "5", "--replicates", "2", "--jobs", "2",
                       "--out", str(out))
        assert code == 0
        assert len(read_records(out)) == 4

    def test_workers_capped_at_pending_jobs(self, tmp_path, monkeypatch):
        started = []

        class InlinePool:  # records its size and runs the jobs in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        code = run_cli("run", "--problem", "sphere", "--dim", "2", "--iters", "2",
                       "--replicates", "2", "--jobs", "4", "--out", str(tmp_path / "res"))
        assert code == 0
        assert started == [2]
        assert len(read_records(tmp_path / "res")) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[problem]\nnames = sphere\ndims = 3\n"
            "[algorithm]\nalgos = cscf\nmax_iter = 5\npopulation = 6\n"
            "[variant]\nvariants = i\n"
            "[chaos]\nmaps = tent\n"
            "[experiment]\nreplicates = 1\nseed = 3\n"
        )
        out = tmp_path / "res"
        code = run_cli("run", "--config", str(config), "--seed", "9",
                       "--out", str(out))
        assert code == 0
        row = read_records(out)[0]
        assert row["seed"] == 9            # flag wins over config
        assert row["variant"] == "i" and row["map"] == "tent"
        assert row["population"] == 6

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CSCF_OUT", str(tmp_path / "envout"))
        run_cli("run", "--problem", "sphere", "--dim", "3", "--iters", "1")
        assert (tmp_path / "envout").is_dir()

    def test_changed_config_gets_new_record(self, tmp_path, capsys):
        out = tmp_path / "res"
        args = ("run", "--problem", "sphere", "--dim", "3", "--seed", "1", "--out", str(out))
        assert run_cli(*args, "--iters", "5") == 0
        # the stem is a sha256 of the run's fields, the same in every process
        assert [p.name for p in out.glob("*.json")] == \
            ["sphere__cscf__all__logistic__d3__r0__b98707787f.json"]
        assert run_cli(*args, "--iters", "50") == 0
        assert "ran 1 job(s), 0 failed, skipped 0 existing" in capsys.readouterr().out
        curves = sorted(len(row["best_curve"]) for row in read_records(out))
        assert curves == [6, 51]

    @pytest.mark.parametrize("via", ["flag", "ini"])
    def test_tunable_sweep_runs_each_value(self, tmp_path, capsys, via):
        out, ini = tmp_path / "res", tmp_path / "exp.ini"
        common = ("run", "--problems", "sphere,rastrigin", "--dim", "2", "--iters", "2",
                  "--out", str(out))

        def sweep(limits):
            ini.write_text(f"[algorithm]\ntrial_limit = {limits}\n")
            given = ("--trial-limit", limits) if via == "flag" else ("--config", str(ini))
            assert run_cli(*common, *given) == 0
            return capsys.readouterr().out

        assert "ran 4 job(s), 0 failed, skipped 0 existing" in sweep("1,10")
        assert sorted((r["problem"], r["trial_limit"]) for r in read_records(out)) == [
            ("rastrigin", 1), ("rastrigin", 10), ("sphere", 1), ("sphere", 10)]
        assert "ran 2 job(s), 0 failed, skipped 4 existing" in sweep("1, 10, 3")
        assert sorted(r["trial_limit"] for r in read_records(out)) == [1, 1, 3, 3, 10, 10]

    def test_baseline_runs_once_whatever_its_variants(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "sphere,rastrigin", "--algo", "ff",
                       "--variant", "i,ii", "--map", "tent,sine", "--dim", "2",
                       "--iters", "2", "--out", str(out)) == 0
        assert "ran 2 job(s)" in capsys.readouterr().out
        assert sorted((r["problem"], r["variant"], r["map"]) for r in read_records(out)) == [
            ("rastrigin", "-", "-"), ("sphere", "-", "-")]

    def test_run_is_named_by_what_it_reads(self, tmp_path, capsys):
        # no baseline reads trial_limit, and sphere reads no penalty: 8 configs, 2 runs
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "sphere", "--algo", "sca,ff", "--dims", "3",
                       "--pop", "4", "--iters", "5", "--penalty-mode",
                       "static-penalty,feasibility-rules", "--trial-limit", "1,10",
                       "--out", str(out)) == 0
        assert "ran 2 job(s)" in capsys.readouterr().out
        assert run_cli("report", "--in", str(out)) == 0
        assert capsys.readouterr().err == ""
        with (out / "summary.csv").open(newline="") as fh:
            assert [r["algorithm"] for r in csv.DictReader(fh)] == ["ff", "sca"]

    def test_baseline_does_not_sweep_an_unread_tunable(self):
        spec = build_spec("--problems", "ackley,sphere", "--algo", "cscf,sca", "--dims", "20",
                          "--trial-limit", "1,3,10", "--replicates", "10")
        jobs = cli._job_list(spec)
        assert (len(spec.cells), len(jobs)) == (8, 80)  # each distinct run once, no copies
        # an sca record holds no trial_limit, as its run reads none
        assert {(j.fields["algo"], j.fields.get("trial_limit")) for j in jobs} == {
            ("cscf", 1), ("cscf", 3), ("cscf", 10), ("sca", None)}

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("name", ["sphere", "spring"])
    @pytest.mark.parametrize("mode", PENALTY_MODES)
    def test_record_carries_the_tunables_its_run_reads(self, algo, name, mode):
        problem = cli._build_problem(name, 2)
        config = as_read(OptimizerConfig(algorithm=algo, penalty=PenaltyParams(mode=mode)),
                         problem)
        job, skip = cli._job(problem, 0, config), unread(config, problem)
        assert job.fields.keys() & {t[3] for t in TUNABLES} == \
            {p.key for p in cli._PARAMS if p.path not in skip}
        assert (job.fields["variant"] == "-") == (job.fields["map"] == "-") == \
            ("variant" in skip)
        # the stem still hashes every tunable of the run's config, as when a record held all
        # ten, so no record written before tunables were dropped from it is run again
        digest = STEM_DIGESTS[name, mode][ALGORITHMS.index(algo)]
        assert job.stem.endswith(f"__d{problem.dim}__r0__{digest}")

    def test_changed_version_gets_new_record(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "res"
        args = ("run", "--problem", "sphere", "--dim", "3", "--iters", "5", "--out", str(out))
        assert run_cli(*args) == 0
        monkeypatch.setattr(cli, "RECORD_VERSION", "000000000000")
        assert run_cli(*args) == 0
        assert "ran 1 job(s), 0 failed, skipped 0 existing" in capsys.readouterr().out
        # the two versions do not pool, and neither does a record without one
        assert run_cli("report", "--in", str(out)) == 2
        assert "differ in record_version" in capsys.readouterr().err
        old = next(p for p in out.glob("*.json") if "000000000000" not in p.read_text())
        old.write_text(json.dumps({k: v for k, v in json.loads(old.read_text()).items()
                                   if k != "record_version"}) + "\n")
        assert run_cli("report", "--in", str(out)) == 2
        err = capsys.readouterr().err
        assert "differ in record_version" in err and "None" in err

    def test_pressure_vessel_records_the_evaluated_design(self, tmp_path):
        out = tmp_path / "res"
        assert run_cli("run", "--problem", "pressure_vessel", "--iters", "20",
                       "--out", str(out)) == 0
        for thickness in read_records(out)[0]["best_position"][0:2]:
            assert thickness / 0.0625 == round(thickness / 0.0625)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_job_does_not_abort_batch(self, tmp_path, capsys, jobs):
        # henon orbits seeded at 6 and 8 diverge on the spring; 7 completes
        out = tmp_path / "res"
        code = run_cli("run", "--problems", "spring", "--map", "henon", "--seed", "6",
                       "--replicates", "3", "--iters", "40", "--jobs", jobs,
                       "--out", str(out))
        assert code == 1
        assert [row["seed"] for row in read_records(out)] == [7]
        captured = capsys.readouterr()
        assert "2 failed" in captured.out
        assert captured.err.count("DivergedOrbitError") == 2
        assert "spring__cscf__all__henon__d3__r0__" in captured.err


# (flag, INI section, INI option, record key, a non-default value)
# The stem digests of seed 0, replicate 0 runs of ff, iff, sca and cscf, pinned from
# records that held all ten tunables.
STEM_DIGESTS = {
    ("sphere", "static-penalty"): ("94c8f0790d", "7dfffdaca5", "b2bfa21511", "c3ad32a7bb"),
    ("sphere", "feasibility-rules"): ("94c8f0790d", "7dfffdaca5", "b2bfa21511", "c3ad32a7bb"),
    ("spring", "static-penalty"): ("1ae96fd126", "b160af06db", "e1ea5bd035", "e0852fba8d"),
    ("spring", "feasibility-rules"): ("efff3fa042", "63fa6691bf", "034176518b", "e83a3fad33"),
}

TUNABLES = [
    ("--pop", "algorithm", "population", "population", 7),
    ("--iters", "algorithm", "max_iter", "max_iter", 3),
    ("--trial-limit", "algorithm", "trial_limit", "trial_limit", 2),
    ("--penalty-mode", "penalty", "mode", "penalty_mode", "static-penalty"),
    ("--penalty-weight", "penalty", "weight", "penalty_weight", 500.0),
    ("--alpha0", "algorithm", "alpha0", "alpha0", 0.5),
    ("--beta", "algorithm", "beta", "beta", 0.75),
    ("--j-step", "algorithm", "j_step", "j_step", 0.1),
    ("--k-step", "algorithm", "k_step", "k_step", 0.3),
    ("--a-const", "algorithm", "a_const", "a_const", 1.5),
]


def test_tunables_cover_the_parameter_table():
    assert sorted(row[3] for row in TUNABLES) == sorted(p.key for p in cli._PARAMS)


def test_every_axis_help_says_it_takes_a_comma_list():
    parser = cli._make_parser()
    run = next(a for a in parser._actions if a.dest == "command").choices["run"]
    helps = {action.dest: action.help for action in run._actions}
    axes = [row.key for row in cli._SELECTORS + cli._PARAMS if row.path]
    assert len(axes) == 13
    assert [key for key in axes if "comma list" not in helps[key]] == []


# a run that reads the tunable, where the default run does not
READER = {"a_const": ["--algo", "sca"],
          "penalty_weight": ["--problem", "spring", "--penalty-mode", "static-penalty"]}


@pytest.mark.parametrize("flag,section,option,key,value", TUNABLES)
def test_flag_and_ini_option_set_the_same_field(tmp_path, flag, section, option, key, value):
    common = ["--problem", "welded_beam"] + ([] if key == "max_iter" else ["--iters", "3"]) \
        + READER.get(key, [])
    config = tmp_path / "exp.ini"
    config.write_text(f"[{section}]\n{option} = {value}\n")
    by_flag, by_ini = tmp_path / "flag", tmp_path / "ini"
    assert run_cli("run", *common, flag, str(value), "--out", str(by_flag)) == 0
    assert run_cli("run", *common, "--config", str(config), "--out", str(by_ini)) == 0
    (row_flag,), (row_ini,) = read_records(by_flag), read_records(by_ini)
    assert row_flag[key] == row_ini[key] == value
    row_flag.pop("wall_time"), row_ini.pop("wall_time")
    assert row_flag == row_ini
    assert sorted(p.name for p in by_flag.iterdir()) == sorted(p.name for p in by_ini.iterdir())


# (ExperimentSpec field or axis, INI section, INI option, flag spellings, text,
# parsed value: for an axis, the values its configs hold at its path)
SELECTORS = [
    ("problems", "problem", "names", ("--problem", "--problems"), "fn1..fn2, welded_beam",
     ["fn1", "fn2", "welded_beam"]),
    ("dims", "problem", "dims", ("--dim", "--dims"), "3, 5", [3, 5]),
    ("algos", "algorithm", "algos", ("--algo",), "ff, sca", ["ff", "sca"]),
    ("variants", "variant", "variants", ("--variant",), "i, iv", ["i", "iv"]),
    ("maps", "chaos", "maps", ("--map",), "tent, sine", ["tent", "sine"]),
    ("replicates", "experiment", "replicates", ("--replicates",), "4", 4),
    ("base_seed", "experiment", "seed", ("--seed",), "11", 11),
    ("out", "experiment", "out", ("--out",), "elsewhere", Path("elsewhere")),
    ("jobs", "experiment", "jobs", ("--jobs",), "2", 2),
]


def build_spec(*argv):
    return cli._build_spec(cli._make_parser().parse_args(["run", *argv]))


def spec_value(spec, key):
    """The spec's field ``key``, or for an axis row its configs' values at its path."""
    row = next(row for row in cli._SELECTORS if row.key == key)
    if not row.path:
        return getattr(spec, key)
    return [functools.reduce(getattr, row.path.split("."), c) for c in spec.configs]


def test_selectors_cover_the_selector_table():
    assert sorted(row[0] for row in SELECTORS) == sorted(s.key for s in cli._SELECTORS)


@pytest.mark.parametrize("key,section,option,flags,text,value", SELECTORS)
def test_flag_and_ini_option_set_the_same_selector(tmp_path, key, section, option, flags,
                                                   text, value):
    config = tmp_path / "exp.ini"
    config.write_text(f"[{section}]\n{option} = {text}\n")
    specs = [build_spec("--config", str(config))] + [build_spec(flag, text) for flag in flags]
    assert [spec_value(spec, key) for spec in specs] == [value] * (1 + len(flags))
    assert spec_value(build_spec(), key) != value


def test_later_spelling_of_a_paired_flag_wins():
    assert build_spec("--problem", "sphere", "--problems", "fn1..fn2").problems == ["fn1", "fn2"]
    assert build_spec("--problems", "fn1..fn2", "--problem", "sphere").problems == ["sphere"]
    assert build_spec("--dims", "3,5", "--dim", "4").dims == [4]


@pytest.mark.parametrize("key,value,message", [
    ("replicates", 0, "replicates must be >= 1, got 0"),
    ("replicates", 2.5, "replicates must be an integer, got 2.5"),
    ("jobs", 0, "jobs must be >= 1, got 0"),
    ("jobs", True, "jobs must be an integer, got True"),
])
def test_spec_counts_follow_the_count_rule(key, value, message):
    spec = cli.ExperimentSpec(dims=[2])
    for make in (lambda: cli.ExperimentSpec(dims=[2], **{key: value}),
                 lambda: dataclasses.replace(spec, **{key: value})):
        with pytest.raises(ConfigError) as info:
            make()
        assert str(info.value) == message


@pytest.mark.parametrize("key,value,message", [
    ("problems", "sphere", "problems must be a list, got 'sphere'"),
    ("dims", 5, "dims must be a list, got 5"),
    ("configs", OptimizerConfig(), "configs must be a list, got OptimizerConfig("),
    ("configs", ["cscf"], "configs must hold OptimizerConfig, got 'cscf'"),
    ("configs", [None], "configs must hold OptimizerConfig, got None"),
])
def test_spec_refuses_a_field_of_the_wrong_type(key, value, message):
    spec = cli.ExperimentSpec(dims=[2])
    for make in (lambda: cli.ExperimentSpec(**{"dims": [2], key: value}),
                 lambda: dataclasses.replace(spec, **{key: value})):
        with pytest.raises(ConfigError) as info:
            make()
        assert str(info.value).startswith(message)


def test_spec_is_frozen():
    spec = cli.ExperimentSpec(dims=[2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.replicates = 0


def test_numpy_dimension_is_recorded_as_an_int(tmp_path, capsys):
    spec = cli.ExperimentSpec(dims=[np.int64(3)], configs=[OptimizerConfig(max_iter=1)],
                              out=tmp_path)
    assert cli.cmd_run(spec) == 0
    (row,) = read_records(tmp_path)
    assert row["dim"] == 3


class TestReport:
    def _populate(self, out, algos="cscf,ff"):
        run_cli("run", "--problems", "sphere,rastrigin", "--algo", algos,
                "--dim", "4", "--iters", "10", "--replicates", "3",
                "--seed", "0", "--out", str(out))

    def test_full_report(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._populate(out)
        assert run_cli("report", "--in", str(out)) == 0
        for name in ("summary.csv", "summary.jsonl", "wilcoxon.csv",
                     "walltime.csv", "mae_grid.csv", "variant_rank.csv"):
            assert (out / name).exists(), name
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "problem,algorithm,n,mean,std,best,worst"
        assert len(summary) == 1 + 2 * 2  # 2 problems x 2 algorithms

    def test_each_problem_is_built_once_per_report(self, tmp_path, monkeypatch):
        # each record's name is read through a built problem (an fnN id reads
        # as its alias) and each MAE cell through its reference: 12 records of
        # two problems build each (name, dim) once, not once per record
        out = tmp_path / "res"
        self._populate(out)
        built, build = [], cli._build_problem

        def counted(name, dim):
            built.append((name, dim))
            return build(name, dim)

        monkeypatch.setattr(cli, "_build_problem", counted)
        assert run_cli("report", "--in", str(out)) == 0
        assert sorted(built) == [("rastrigin", 1), ("rastrigin", 4), ("sphere", 1),
                                 ("sphere", 4)]

    def test_report_separate_out_dir(self, tmp_path):
        out, tables = tmp_path / "res", tmp_path / "tables"
        self._populate(out)
        assert run_cli("report", "--in", str(out), "--out", str(tables)) == 0
        assert (tables / "summary.csv").exists()

    def test_single_algorithm_skips_wilcoxon(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._populate(out, algos="cscf")
        assert run_cli("report", "--in", str(out)) == 0
        err = capsys.readouterr().err
        assert "skipping Wilcoxon" in err
        assert (out / "summary.csv").exists()
        assert not (out / "wilcoxon.csv").exists()

    def test_algorithms_sharing_no_problem_skip_wilcoxon(self, tmp_path, capsys):
        out = tmp_path / "res"
        for problem, algo in (("sphere", "cscf"), ("rastrigin", "ff")):
            assert run_cli("run", "--problems", problem, "--algo", algo, "--dim", "2",
                           "--iters", "2", "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out)) == 0
        assert "cscf and ff share no problem" in capsys.readouterr().err
        assert not (out / "wilcoxon.csv").exists()
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 2

    def test_variant_rank_orders_variants_by_mean_mae(self, tmp_path):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "spring", "--variant", "i,iv",
                       "--map", "logistic,tent", "--pop", "6", "--iters", "20",
                       "--replicates", "2", "--seed", "0", "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "mae_grid.csv").open(newline="") as fh:
            grid = list(csv.DictReader(fh))
        with (out / "variant_rank.csv").open(newline="") as fh:
            ranks = list(csv.DictReader(fh))
        assert [(row["problem"], row["map"]) for row in grid] == [("spring", "logistic"),
                                                                   ("spring", "tent")]
        assert sorted(row["variant"] for row in ranks) == ["i", "iv"]
        assert [int(row["rank"]) for row in ranks] == [1, 2]
        assert float(ranks[0]["mean_mae"]) <= float(ranks[1]["mean_mae"])

    def test_problem_without_reference_gets_no_mae_row(self, tmp_path):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "camel,sphere", "--dim", "2", "--iters", "5",
                       "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "mae_grid.csv").open(newline="") as fh:
            assert [row["problem"] for row in csv.DictReader(fh)] == ["sphere"]
        with (out / "summary.csv").open(newline="") as fh:
            assert sorted(row["problem"] for row in csv.DictReader(fh)) == ["camel_d2",
                                                                            "sphere_d2"]

    @pytest.mark.parametrize("field,value", [("problem", "gearbox"), ("dim", 0)])
    def test_record_of_no_problem_gets_no_mae_cell(self, tmp_path, capsys, field, value):
        # a name or dimension that builds no problem has no reference: the
        # record is summarised, and the MAE grid leaves it out
        out = tmp_path / "res"
        self._populate(out)
        row = next(r for r in read_records(out) if r["algo"] == "cscf")
        (out / "zz_external.json").write_text(json.dumps({**row, field: value}) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--in", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "13 records, 0 corrupt line(s)" in captured.out
        with (out / "mae_grid.csv").open(newline="") as fh:
            cells = [(r["problem"], r["dim"]) for r in csv.DictReader(fh)]
        assert sorted(cells) == [("rastrigin", "4"), ("sphere", "4")]
        external = {**row, field: value}
        with (out / "summary.csv").open(newline="") as fh:
            summarised = [(r["problem"], r["algorithm"], r["n"]) for r in csv.DictReader(fh)]
        assert (f"{external['problem']}_d{external['dim']}", "cscf", "1") in summarised

    def test_corrupt_line_counted_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._populate(out)
        (out / "zz_corrupt.json").write_text("{not json}\n")
        assert run_cli("report", "--in", str(out)) == 0
        captured = capsys.readouterr()
        assert "skipping corrupt record" in captured.err
        assert "1 corrupt line(s)" in captured.out

    @pytest.mark.parametrize("field", ["problem", "dim", "algo", "variant", "map"])
    def test_record_without_a_cell_field_is_corrupt(self, tmp_path, capsys, field):
        out = tmp_path / "res"
        self._populate(out)
        row = next(r for r in read_records(out) if r["algo"] == "cscf")
        del row[field]
        (out / "zz_external.json").write_text(json.dumps(row) + "\n")
        assert run_cli("report", "--in", str(out)) == 0
        captured = capsys.readouterr()
        assert "skipping corrupt record line in zz_external.json" in captured.err
        assert "12 records, 1 corrupt line(s)" in captured.out

    @pytest.mark.parametrize("field,value", [("best_cost", "abc"), ("best_cost", None),
                                             ("wall_time", None), ("dim", "3"), ("dim", True),
                                             ("problem", ["x"]), ("map", 1),
                                             ("seed", [0]), ("seed", {"s": 0}), ("seed", True),
                                             ("seed", 0.0), ("seed", None), ("replicate", [0]),
                                             ("replicate", "0"), ("replicate", False)])
    def test_wrongly_typed_record_is_corrupt(self, tmp_path, capsys, field, value):
        out, clean, dirty = tmp_path / "res", tmp_path / "clean", tmp_path / "dirty"
        self._populate(out)
        assert run_cli("report", "--in", str(out), "--out", str(clean)) == 0
        row = next(r for r in read_records(out) if r["algo"] == "cscf")
        (out / "zz_external.json").write_text(json.dumps({**row, field: value}) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--in", str(out), "--out", str(dirty)) == 0
        captured = capsys.readouterr()
        assert captured.err.count("warning: skipping corrupt record line") == 1
        assert "12 records, 1 corrupt line(s)" in captured.out
        for table in clean.iterdir():
            assert (dirty / table.name).read_bytes() == table.read_bytes(), table.name

    def test_record_without_a_replicate_is_read(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._populate(out)
        row = next(r for r in read_records(out) if r["algo"] == "cscf")
        del row["replicate"]
        # blank lines around the record are skipped, not counted as corrupt
        (out / "zz_external.json").write_text("\n" + json.dumps(row) + "\n\n  \t\n")
        assert run_cli("report", "--in", str(out)) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err
        assert "13 records, 0 corrupt line(s)" in captured.out

    def test_report_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out, tables = tmp_path / "res", tmp_path / "tables"
        self._populate(out)
        tables.write_text("in the way\n")
        assert run_cli("report", "--in", str(out), "--out", str(tables)) == 2
        assert "error: cannot use" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_mae_grid_scores_each_dimension_against_its_own_reference(self, tmp_path):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "schwefel", "--dims", "5,10", "--iters", "20",
                       "--replicates", "2", "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "mae_grid.csv").open(newline="") as fh:
            grid = list(csv.DictReader(fh))
        assert [(row["problem"], row["dim"]) for row in grid] == [("schwefel", "5"),
                                                                   ("schwefel", "10")]
        records = read_records(out)
        for row in grid:
            dim = int(row["dim"])
            reference = benchmark_problem("schwefel", dim=dim).f_reference
            errors = [abs(r["best_cost"] - reference) for r in records if r["dim"] == dim]
            assert len(errors) == 2
            assert float(row["variant_all"]) == pytest.approx(sum(errors) / 2, rel=1e-12)

    def test_records_differing_in_a_tunable_are_not_pooled(self, tmp_path, capsys):
        # each value of a tunable that varies is a row of its own, tagged
        # in table order with every varying tunable its records carry
        out = tmp_path / "res"
        for iters in ("5", "50"):
            assert run_cli("run", "--problem", "sphere", "--dim", "3", "--seed", "1",
                           "--iters", iters, "--trial-limit", "1,2", "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out)) == 0
        assert "4 records, 0 corrupt line(s)" in capsys.readouterr().out
        with (out / "summary.csv").open(newline="") as fh:
            rows = [(r["algorithm"], r["n"]) for r in csv.DictReader(fh)]
        assert rows == [(f"cscf[max_iter={i},trial_limit={t}]", "1")
                        for i in (5, 50) for t in (1, 2)]

    def _sweep(self, out):
        return run_cli("run", "--problems", "sphere,spring", "--algo", "cscf,sca",
                       "--dim", "2", "--pop", "4", "--iters", "3", "--replicates", "2",
                       "--trial-limit", "1,10", "--out", str(out))

    def test_sweep_rows_are_tagged(self, tmp_path, capsys):
        # sca reads no trial_limit, so it runs once per cell and is not tagged
        out = tmp_path / "res"
        assert self._sweep(out) == 0
        assert "ran 12 job(s)" in capsys.readouterr().out
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "summary.csv").open(newline="") as fh:
            summary = [(r["problem"], r["algorithm"], r["n"]) for r in csv.DictReader(fh)]
        # labels sort as text: "cscf[trial_limit=10]" before "cscf[trial_limit=1]"
        assert summary == [(p, label, "2") for label in ("cscf[trial_limit=10]",
                                                         "cscf[trial_limit=1]", "sca")
                           for p in ("sphere_d2", "spring_d3")]
        with (out / "wilcoxon.csv").open(newline="") as fh:
            assert "cscf[trial_limit=10]_vs_cscf[trial_limit=1]" in \
                [r["pair"] for r in csv.DictReader(fh)]
        with (out / "mae_grid.csv").open(newline="") as fh:
            assert csv.DictReader(fh).fieldnames[3:] == ["variant_all[trial_limit=10]",
                                                         "variant_all[trial_limit=1]"]
        with (out / "walltime.csv").open(newline="") as fh:
            assert [r["variant"] for r in csv.DictReader(fh)] == [
                "all[trial_limit=10]", "all[trial_limit=1]", "sca"]

    def test_record_without_tunables_is_not_tagged(self, tmp_path, capsys):
        # a record from an external optimizer carries no tunable, so no tag
        out = tmp_path / "res"
        assert self._sweep(out) == 0
        assert "ran 12 job(s)" in capsys.readouterr().out
        row = next(r for r in read_records(out) if r["algo"] == "sca")
        external = {k: v for k, v in row.items() if k not in {t[3] for t in TUNABLES}}
        (out / "zz_external.json").write_text(json.dumps({**external, "algo": "myopt"}) + "\n")
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "summary.csv").open(newline="") as fh:
            algorithms = {r["algorithm"] for r in csv.DictReader(fh)}
        assert algorithms == {"myopt", "cscf[trial_limit=1]", "cscf[trial_limit=10]", "sca"}

    @pytest.mark.parametrize("grid", [
        # sphere reads no penalty, so its runs hold the default mode
        ("--problems", "sphere,spring", "--penalty-mode", "static-penalty"),
        # variant iii tunes r1 chaotically, so it reads no a_const
        ("--problems", "sphere", "--variant", "i,iii", "--a-const", "1.5"),
    ])
    def test_one_value_that_some_runs_do_not_read_tags_no_label(self, tmp_path, capsys, grid):
        out = tmp_path / "res"
        assert run_cli("run", *grid, "--algo", "cscf,sca", "--dims", "3", "--pop", "4",
                       "--iters", "5", "--out", str(out)) == 0
        assert run_cli("report", "--in", str(out)) == 0
        assert capsys.readouterr().err == ""
        with (out / "summary.csv").open(newline="") as fh:
            summary = [(r["problem"], r["algorithm"]) for r in csv.DictReader(fh)]
        problems = sorted({p for p, _ in summary})
        assert summary == [(p, algo) for algo in ("cscf", "sca") for p in problems]

    def _old_records(self, out, row, limits):
        """Records of ``row``'s run as written when a record held all ten tunables."""
        defaults = {"population": 20, "max_iter": 500, "trial_limit": 10,
                    "penalty_mode": "feasibility-rules", "penalty_weight": 1e6, "alpha0": 1.0,
                    "beta": 1.0, "j_step": 0.2, "k_step": 0.2, "a_const": 2.0}
        for limit in limits:
            old = {**defaults, **row, "trial_limit": limit}
            (out / f"old_{limit}.json").write_text(json.dumps(old) + "\n")

    def test_old_baseline_records_of_two_unread_values_are_two_rows(self, tmp_path, capsys):
        # a directory written before runs were named by what they read holds a
        # baseline once per trial_limit; each value stays a tagged row of its own
        out = tmp_path / "res"
        assert run_cli("run", "--problem", "sphere", "--algo", "sca", "--dim", "2",
                       "--iters", "3", "--out", str(out)) == 0
        (record,) = out.glob("*.json")
        row = json.loads(record.read_text())
        record.unlink()
        self._old_records(out, row, (10, 1))
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "summary.csv").open(newline="") as fh:
            assert [r["algorithm"] for r in csv.DictReader(fh)] == [
                "sca[trial_limit=10]", "sca[trial_limit=1]"]

    def test_record_next_to_its_old_copy_is_a_duplicate(self, tmp_path, capsys):
        # a tunable that a record does not carry reads as its default, so a record
        # and its copy written with all ten tunables name the same run
        out = tmp_path / "res"
        assert run_cli("run", "--problem", "sphere", "--algo", "sca", "--dim", "2",
                       "--iters", "3", "--out", str(out)) == 0
        (record,) = out.glob("*.json")
        self._old_records(out, json.loads(record.read_text()), (10,))
        assert run_cli("report", "--in", str(out)) == 2
        assert "error: duplicate run: two records of sphere d2 sca" in capsys.readouterr().err

    def test_penalty_sweep_tags_the_runs_that_read_no_penalty_with_its_default(
            self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli("run", "--problems", "sphere,spring", "--algo", "cscf,sca", "--dims",
                       "2", "--pop", "4", "--iters", "3", "--penalty-mode",
                       "static-penalty,feasibility-rules", "--out", str(out)) == 0
        assert "ran 6 job(s)" in capsys.readouterr().out
        assert not any("penalty_mode" in r for r in read_records(out) if r["problem"] == "sphere")
        assert run_cli("report", "--in", str(out)) == 0
        assert capsys.readouterr().err == ""
        with (out / "summary.csv").open(newline="") as fh:
            summary = [(r["problem"], r["algorithm"]) for r in csv.DictReader(fh)]
        assert summary == [("sphere_d2", "cscf[penalty_mode=feasibility-rules]"),
                           ("spring_d3", "cscf[penalty_mode=feasibility-rules]"),
                           ("spring_d3", "cscf[penalty_mode=static-penalty]"),
                           ("sphere_d2", "sca[penalty_mode=feasibility-rules]"),
                           ("spring_d3", "sca[penalty_mode=feasibility-rules]"),
                           ("spring_d3", "sca[penalty_mode=static-penalty]")]

    def test_record_with_a_list_tunable_is_read(self, tmp_path, capsys):
        # a tunable's value is not type-checked, and a list is not hashable
        out = tmp_path / "res"
        self._populate(out, algos="cscf")
        row = next(r for r in read_records(out) if r["replicate"] == 0)
        (out / "zz_external.json").write_text(json.dumps({**row, "population": [20]}) + "\n")
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "summary.csv").open(newline="") as fh:
            algorithms = {r["algorithm"] for r in csv.DictReader(fh)}
        assert algorithms == {"cscf[population=20]", "cscf[population=[20]]"}

    def test_sweep_keeps_the_version_and_duplicate_refusals(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert self._sweep(out) == 0
        record = next(out.glob("sphere__cscf__*.json"))
        (out / ("old_" + record.name)).write_text(record.read_text())
        assert run_cli("report", "--in", str(out)) == 2
        assert "error: duplicate run: two records of sphere d2 cscf" in capsys.readouterr().err
        (out / ("old_" + record.name)).unlink()
        row = json.loads(record.read_text())
        record.write_text(json.dumps({**row, "record_version": "000000000000"}) + "\n")
        assert run_cli("report", "--in", str(out)) == 2
        assert "error: records of sphere d2 cscf differ in record_version" in \
            capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_duplicate_run_is_not_pooled(self, tmp_path, capsys):
        out = tmp_path / "res"
        self._populate(out)
        record = next(out.glob("*.json"))
        (out / ("old_" + record.name)).write_text(record.read_text())
        assert run_cli("report", "--in", str(out)) == 2
        assert "error: duplicate run" in capsys.readouterr().err

    def test_run_under_id_and_alias_is_a_duplicate(self, tmp_path, capsys):
        # records that name a problem by its fnN id count as the alias's
        out = tmp_path / "res"
        assert run_cli("run", "--problem", "fn1", "--dim", "3", "--iters", "1",
                       "--out", str(out)) == 0
        record = next(out.glob("ackley__*.json"))
        text = record.read_text().replace('"problem": "ackley"', '"problem": "fn1"')
        (out / record.name.replace("ackley", "fn1")).write_text(text)
        assert run_cli("report", "--in", str(out)) == 2
        assert "error: duplicate run: two records of ackley d3" in capsys.readouterr().err

    def test_run_under_id_and_alias_is_one_row(self, tmp_path, capsys):
        # a record that names its problem fn6 is reported as sphere's
        out = tmp_path / "res"
        assert run_cli("run", "--problem", "sphere", "--dim", "3", "--iters", "1",
                       "--replicates", "2", "--out", str(out)) == 0
        record = next(out.glob("sphere__*__r1__*.json"))
        text = record.read_text().replace('"problem": "sphere"', '"problem": "fn6"')
        (out / record.name.replace("sphere", "fn6")).write_text(text)
        record.unlink()
        assert run_cli("report", "--in", str(out)) == 0
        with (out / "summary.csv").open(newline="") as fh:
            assert [(r["problem"], r["n"]) for r in csv.DictReader(fh)] == [("sphere_d3", "2")]
        with (out / "mae_grid.csv").open(newline="") as fh:
            assert [r["problem"] for r in csv.DictReader(fh)] == ["sphere"]

    def test_unreadable_file_counted_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert run_cli("run", "--problem", "sphere", "--dim", "2", "--iters", "1",
                       "--out", str(out)) == 0
        (out / "bytes.json").write_bytes(b"\xff\xfe{}")
        (out / "sub.json").mkdir()
        capsys.readouterr()
        assert run_cli("report", "--in", str(out)) == 0
        captured = capsys.readouterr()
        for name in ("bytes.json", "sub.json"):
            assert captured.err.count(f"warning: skipping unreadable file {name}\n") == 1
        assert "1 records, 2 corrupt line(s)" in captured.out
        assert (out / "summary.csv").exists()

    def test_in_that_is_not_a_directory_exits_1(self, tmp_path, capsys):
        (tmp_path / "file").write_text("in the way\n")
        for path in (tmp_path / "file", tmp_path / "missing"):
            assert run_cli("report", "--in", str(path)) == 1
            assert capsys.readouterr().err == f"error: {path} is not a directory\n"

    def test_all_corrupt_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "res"
        out.mkdir()
        (out / "a.json").write_text("garbage\n")
        assert run_cli("report", "--in", str(out)) == 1

    def test_empty_directory_exits_nonzero(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("report", "--in", str(empty)) == 1


# sha256 of what `cscf report` writes for the grid below.  The grid covers
# both Wilcoxon paths (cscf/sca share 19 problems: normal approximation;
# ff shares 3: exact), problems without a reference (fn9, fn11: no MAE row)
# and empty MAE cells (variant ii on fn2, griewank, with the tent map is deleted).
PINNED_TABLES = {
    "summary.csv": "2d2144e956cfcba8c6b43b6b993123355d1b7ac59582908ee38e9f4bd99cf3ce",
    "summary.jsonl": "43e628f16e30232a5bffdccd36aa13f9c59151b6607b3c8b65effa87842a4374",
    "wilcoxon.csv": "e501dc02a8317d91cfc525baae7a98c7a14b6a491d93be2e1e74d9822e0935a1",
    "mae_grid.csv": "cb255a546c50c4e811a3793b15d1596311f9d60038807e24603dcbbcf626b6b9",
    "variant_rank.csv": "e22ffe650b3ef3ee2ead7ba1e767a70dd09304529e6c7666186f795e5ed0c1f7",
}


def test_report_tables_are_pinned(tmp_path):
    out = tmp_path / "res"
    common = ("--dim", "3", "--pop", "5", "--iters", "6", "--replicates", "2", "--seed", "0",
              "--out", str(out))
    assert run_cli("run", "--problems", "fn1..fn13,fn15..fn20", "--algo", "cscf,sca",
                   *common) == 0
    assert run_cli("run", "--problems", "fn1..fn3", "--algo", "ff", *common) == 0
    assert run_cli("run", "--problems", "fn1,fn2", "--variant", "i,ii",
                   "--map", "logistic,tent", *common) == 0
    for path in out.glob("griewank__cscf__ii__tent__*"):
        path.unlink()
    assert run_cli("report", "--in", str(out)) == 0
    with (out / "wilcoxon.csv").open(newline="") as fh:
        assert [row["pair"] for row in csv.DictReader(fh)] == ["cscf_vs_ff", "cscf_vs_sca",
                                                              "ff_vs_sca"]
    assert ",," in (out / "mae_grid.csv").read_text()
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_TABLES} == PINNED_TABLES
