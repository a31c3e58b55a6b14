"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from cscf import analysis, cli  # noqa: E402
from cscf.benchmarks import benchmark_problem  # noqa: E402
from cscf.engineering import engineering_problem  # noqa: E402
from cscf.errors import DivergedOrbitError  # noqa: E402
from cscf.hybrid import OptimizerConfig, optimize  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

RNG = np.random.default_rng(20240611)


# -- the independent implementations agree with the program ----------------


@pytest.mark.parametrize("name", sorted(reference.OBJECTIVES))
@pytest.mark.parametrize("dim", [2, 10, 20])
def test_objectives_match_program(name, dim):
    problem = benchmark_problem(name, dim=dim)
    points = RNG.uniform(problem.lower, problem.upper, (200, dim))
    points[0] = 0.0
    batch = reference.OBJECTIVES[name](points)
    for x, value in zip(points, batch):
        assert reference.close(float(reference.OBJECTIVES[name](x)), problem.evaluate(x))
        assert reference.close(float(value), problem.evaluate(x))


# cscf.engineering departs from the literature in four terms of these two
# problems (README, "Known faults"); the workloads count their records as
# failed.  When the program is mended these tests pass and must lose the mark.
_FORMULA_FAULT = pytest.mark.xfail(strict=True, reason="cscf.engineering transcription")


@pytest.mark.parametrize("name", [
    "welded_beam",
    pytest.param("pressure_vessel", marks=_FORMULA_FAULT),
    pytest.param("spring", marks=_FORMULA_FAULT),
])
def test_engineering_formulas_match_program(name):
    problem = engineering_problem(name)
    for x in RNG.uniform(problem.lower, problem.upper, (500, problem.dim)):
        cost, g = problem.evaluate(x)
        mine_cost, mine_g = reference.ENGINEERING[name](x)
        assert reference.close(mine_cost, cost)
        assert all(reference.close(a, b, reference.CONSTRAINT_TOL) for a, b in zip(mine_g, g))
        assert len(mine_g) == problem.n_constraints


@pytest.mark.parametrize("name,design,cost,constraints,limits", [
    # Best-known designs with their published cost and constraint values;
    # each constraint is compared as a share of the limit it subtracts.
    ("welded_beam", [0.205730, 3.470489, 9.036624, 0.205730], 1.724852,
     [0.0, 0.0, 0.0, None, -0.080730, -0.235540, 0.0], [13600, 30000, 1, 5, 1, 0.25, 6000]),
    ("pressure_vessel", [0.8125, 0.4375, 42.0984456, 176.6365958], 6059.7143,
     [0.0, -0.035880, 0.0, -63.3634], [1, 1, 1296000, 240]),
    ("spring", [0.356750, 11.287126, 0.051690], 0.0126652,
     [0.0, 0.0, -4.053785, -0.727706], [1, 1, 1, 1]),
])
def test_engineering_formulas_match_published_designs(name, design, cost, constraints, limits):
    mine_cost, mine_g = reference.ENGINEERING[name](np.array(design))
    assert mine_cost == pytest.approx(cost, rel=2e-5)
    for got, want, limit in zip(mine_g, constraints, limits):
        if want is not None:
            assert got / limit == pytest.approx(want / limit, abs=1e-4)


def test_snap_is_the_plate_grid():
    for value in RNG.uniform(0.0625, 6.1875, 200):
        snapped = reference.snap(value)
        assert abs(snapped - value) <= 0.03125 + 1e-12
        assert (snapped / 0.0625) == round(snapped / 0.0625)


def test_rank_sum_enumeration_matches_program():
    for na, nb in itertools.product(range(1, 7), range(1, 6)):
        a = list(RNG.integers(0, 6, na).astype(float))   # ties on purpose
        b = list(RNG.integers(0, 6, nb).astype(float))
        got = analysis.wilcoxon_rank_sum(a, b)
        assert got.exact
        assert abs(got.p_value - reference.rank_sum_p(a, b)) <= 1e-12


def test_signed_rank_enumeration_matches_program():
    for n in range(1, 10):
        a = list(RNG.integers(0, 5, n).astype(float))
        b = list(RNG.integers(0, 5, n).astype(float))
        mine = reference.signed_rank(a, b)
        if mine is None:
            continue
        got = analysis.wilcoxon_signed_rank(a, b)
        assert (got.r_plus, got.r_minus) == pytest.approx(mine[:2])
        assert abs(got.p_value - mine[2]) <= 1e-12


# -- planted wrong outputs are rejected -------------------------------------


def _record(name, **config):
    problem = benchmark_problem(name, dim=5) if name in reference.OBJECTIVES \
        else engineering_problem(name)
    cfg = OptimizerConfig(population=8, max_iter=30, seed=3, **config)
    return problem, cfg, optimize(problem, cfg).to_dict()


def _errors(problem, cfg, rec):
    errors, mismatches = reference.check_record(rec, problem.name, problem.lower,
                                                problem.upper, cfg.population,
                                                cfg.max_iter, cfg.seed)
    return errors + mismatches


@pytest.mark.parametrize("name", ["sphere", "ackley", "welded_beam"])
def test_real_records_pass(name):
    assert _errors(*_record(name)) == []


@pytest.mark.parametrize("name", sorted(workloads.FORMULA_FAULT))
def test_formula_fault_records_are_failed_operations(name):
    problem, cfg, rec = _record(name)
    errors, failed = workloads.check_op(workloads.Op(problem, cfg), rec)
    assert errors == [] and failed


def test_formula_mismatch_elsewhere_is_an_error():
    problem, cfg, rec = _record("welded_beam")
    rec["best_constraints"][3] += 1.0
    errors, failed = workloads.check_op(workloads.Op(problem, cfg), rec)
    assert errors and not failed


def _perturb_cost(rec):
    rec["best_cost"] *= 1.0 + 1e-6
    rec["best_fitness"] = rec["best_cost"]
    rec["best_curve"][-1] = rec["best_cost"]


def _raise_curve(rec):
    rec["best_curve"][5] = rec["best_curve"][4] + 1.0


def _wrong_evals(rec):
    rec["evals"] += 1


def _move_position(rec):
    rec["best_position"][0] = (rec["best_position"][0] + rec["best_position"][1]) / 2


@pytest.mark.parametrize("plant", [_perturb_cost, _raise_curve, _wrong_evals, _move_position])
@pytest.mark.parametrize("name", ["rastrigin", "welded_beam"])
def test_planted_wrong_record_is_rejected(name, plant):
    problem, cfg, rec = _record(name)
    bad = copy.deepcopy(rec)
    plant(bad)
    assert _errors(problem, cfg, bad)


def test_infeasible_design_claimed_feasible_is_rejected():
    # The program calls this spring feasible at cost 0.0061, below the
    # literature optimum 0.012665; its literature shear constraint is +0.73.
    problem = engineering_problem("spring")
    cfg = OptimizerConfig(population=10, max_iter=200, seed=1000)
    rec = optimize(problem, cfg).to_dict()
    assert rec["feasible"] and rec["best_cost"] < 0.0126
    errors, mismatches = reference.check_record(rec, "spring", problem.lower, problem.upper,
                                                cfg.population, cfg.max_iter, cfg.seed)
    assert errors == [] and any("feasible but" in m for m in mismatches)


def test_record_inconsistent_with_its_constraints_is_rejected():
    problem, cfg, rec = _record("welded_beam")
    rec["best_constraints"][0] = 1.0          # now violated, yet recorded feasible
    assert any("disagree with best_constraints" in e for e in _errors(problem, cfg, rec))


def _harness_dir(tmp_path):
    argv = ["run", "--problems", "sphere,spring", "--algo", "cscf,ff,sca", "--map",
            "logistic,sine", "--dim", "4", "--pop", "6", "--iters", "8",
            "--replicates", "2", "--seed", "5", "--jobs", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert cli.main(["report", "--in", str(tmp_path)]) == 0
    records = list(reference.load_records(tmp_path).values())
    refs = {"sphere": 0.0, "spring": engineering_problem("spring").reference_best}
    return records, refs


def test_tables_recompute(tmp_path):
    records, refs = _harness_dir(tmp_path)
    assert reference.check_tables(tmp_path, records, refs) == []


@pytest.mark.parametrize("table,column", [("summary.csv", "mean"), ("summary.csv", "std"),
                                          ("mae_grid.csv", "variant_all"),
                                          ("wilcoxon.csv", "p_rank_sum"),
                                          ("wilcoxon.csv", "r_plus")])
def test_planted_wrong_table_is_rejected(tmp_path, table, column):
    records, refs = _harness_dir(tmp_path)
    path = tmp_path / table
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(column)] = str(float(row[header.index(column)]) + 0.125)
    path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    assert reference.check_tables(tmp_path, records, refs)


def test_rerun_difference_is_rejected(tmp_path):
    argv = ["run", "--problems", "sphere", "--algo", "ff", "--dim", "3", "--pop", "5",
            "--iters", "4", "--jobs", "1"]
    for out, seed in (("a", "1"), ("b", "1"), ("c", "2")):
        assert cli.main(argv + ["--seed", seed, "--out", str(tmp_path / out)]) == 0
    assert reference.check_rerun(tmp_path / "a", tmp_path / "b") == []
    assert reference.check_rerun(tmp_path / "a", tmp_path / "c")


# -- tracing ------------------------------------------------------------------


class _Meter:
    def timed(self, fn, *args):
        return fn(*args)


class _SmallSweep(workloads.VariantSweep):
    problems = ("spring",)


def _traced_round(wl):
    tracer = Tracer()
    with tracer:
        result = wl.run_round(0, _Meter())
    return tracer, result


def test_two_traced_runs_give_identical_counts(tmp_path):
    first, r1 = _traced_round(_SmallSweep(4, tmp_path))
    second, r2 = _traced_round(_SmallSweep(4, tmp_path))
    assert first.counts() == second.counts()
    assert r1.errors == [] and r2.errors == []
    counts = first.counts()
    assert counts["engineering.evaluate.calls"] == counts["engineering.penalized_fitness.calls"]
    assert counts["engineering.evaluate.calls"] >= r1.evals
    assert counts["chaos.diverged_states"] == 4   # henon and singer at 6 and 8
    assert r1.failed == r1.attempted             # every spring record is a FORMULA_FAULT


def test_layer_self_times_add_up_to_optimize(tmp_path):
    tracer, _ = _traced_round(_SmallSweep(1, tmp_path))
    times = tracer.times()
    parts = sum(v for k, v in times.items()
                if k.endswith(".self_s")) + times["hybrid.loop_overhead_s"]
    assert parts == pytest.approx(times["hybrid.optimize_s"], rel=1e-9)
    assert tracer.accounting_error() < 1e-9


def test_collapsed_states_are_counted():
    from cscf.chaos import seeded_map
    states = [seeded_map("sinusoidal", np.random.default_rng(s)) for s in range(40)]
    tracer = Tracer()
    with tracer:
        draws = [[state.next_unit() for _ in range(150)] for state in states]
    collapsed = sum(np.var(d[-100:]) < 1e-12 for d in draws)
    assert 0 < collapsed < len(states)
    assert tracer.counts()["chaos.collapsed_states"] == collapsed
    assert tracer.counts()["chaos.draws"] == 40 * 150


def test_tracer_restores_the_program():
    from cscf import chaos, hybrid
    before = (hybrid.optimize, hybrid.move_improved, chaos.ChaoticMap.next_unit,
              cli.cmd_run, analysis.compare_report)
    with Tracer():
        assert hybrid.optimize is not before[0]
    assert (hybrid.optimize, hybrid.move_improved, chaos.ChaoticMap.next_unit,
            cli.cmd_run, analysis.compare_report) == before


def test_known_divergence_is_reproducible():
    op = [o for o in _SmallSweep(0, None).ops(0) if o.key == ("spring", "all", "henon", 6)]
    assert len(op) == 1
    with pytest.raises(DivergedOrbitError):
        optimize(op[0].problem, op[0].config)


# -- the command ----------------------------------------------------------------


def test_command_prints_the_result_line():
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "harness",
                          "--seed", "3", "--seconds", "0.5", "--trace", "0"],
                         capture_output=True, text=True, cwd=BENCH.parent, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Every spring job of the grid (5 algorithm/map pairs x 3 replicates) is a
    # FORMULA_FAULT; the round also counts its cscf report.
    assert result["correct"]
    assert result["failed"] * 61 == result["attempted"] * 15
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
