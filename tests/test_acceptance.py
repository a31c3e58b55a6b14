"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and bound is pinned here; nothing is deferred to
later calibration.
"""

import csv
import itertools
import json
import math
import time

import numpy as np

from cscf import analysis, chaos, cli
from cscf.benchmarks import benchmark_problem
from cscf.engineering import engineering_suite
from cscf.firefly import FireflyParams, move_improved, move_standard
from cscf.hybrid import OptimizerConfig, VariantSpec, optimize
from cscf.sca import sca_step


def report(line):
    print(f"\n{line}")


# -- criterion 1 -------------------------------------------------------------

# Maps whose step is a literal transcription of the source table (the other
# five carry the transcription notes of cscf.chaos).
LITERAL_MAP_NAMES = ("logistic", "sine", "gauss", "circle", "sinusoidal", "singer", "iterative")


def test_1_chaos_conformance():
    """Literal maps match straight-line re-evaluation; all maps stay in
    range and non-degenerate; under one second."""
    started = time.perf_counter()

    def oracle(name, z):
        if name == "logistic":
            return 4 * z * (1 - z)
        if name == "sine":
            return (4 / 4) * math.sin(math.pi * z)
        if name == "gauss":
            return 0.0 if z == 0 else (1.0 / z) % 1.0
        if name == "circle":
            return (z + 0.2 - (0.5 / (2 * math.pi)) * math.sin(2 * math.pi * z)) % 1.0
        if name == "sinusoidal":
            return 2.3 * z * z * math.sin(math.pi * z)
        if name == "singer":
            return 1.07 * (7.8 * z - 23.3 * z**2 + 28.7 * z**3 - 13.3 * z**4)
        if name == "iterative":
            return math.sin(0.7 * math.pi / z)
        raise KeyError(name)

    for name in LITERAL_MAP_NAMES:
        state = chaos.new_map(name)
        got = np.array([state.next_raw() for _ in range(10_000)])
        z = chaos.DEFAULT_SEED
        expected = np.empty(10_000)
        for i in range(10_000):
            z = oracle(name, z)
            expected[i] = z
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0, err_msg=name)

    for name in chaos.MAP_NAMES:
        values = np.array(chaos.new_map(name).unit(10_000))
        assert values.min() >= 0.0 and values.max() <= 1.0, name
        assert np.var(values[:1_000]) > 1e-4, name

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"chaos checks took {elapsed:.2f}s"
    report(f"ACCEPTANCE 1 PASS: 7 literal maps conform at rel 1e-12 over 1e4 steps; "
           f"12 maps in [0,1] with variance > 1e-4 ({elapsed:.2f}s)")


# -- criterion 2 -------------------------------------------------------------


def test_2_benchmark_minima():
    started = time.perf_counter()
    for pid in ("fn1", "fn2", "fn6", "fn7", "fn10"):
        problem = benchmark_problem(pid)
        assert abs(problem.evaluate(np.zeros(problem.dim))) <= 1e-10, pid
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(f"ACCEPTANCE 2 PASS: fn1/fn2/fn6/fn7/fn10 are 0 at the origin "
           f"within 1e-10 ({elapsed:.2f}s)")


# -- criterion 3 -------------------------------------------------------------


def test_3_kernel_oracle_equivalence():
    rng = np.random.default_rng(2024)
    lower, upper = np.full(6, -1e9), np.full(6, 1e9)

    def replay(u):
        return lambda n: u.copy()

    for _ in range(1000):
        params = FireflyParams(
            alpha0=rng.uniform(0.1, 3.0), beta=rng.uniform(0.0, 2.0),
            j_step=rng.uniform(0.0, 2.0), k_step=rng.uniform(0.0, 1.0),
        )
        x, y, a = (rng.uniform(-50, 50, 6) for _ in range(3))
        u = rng.random(6)
        d = math.sqrt(sum((p - q) ** 2 for p, q in zip(x, y)))
        pull = params.alpha0 * math.exp(-params.beta * d * d)
        eta = (u - 0.5) * (upper - lower) / 10.0
        np.testing.assert_allclose(
            move_standard(x, y, params, lower, upper, replay(u)),
            np.clip(x + pull * (y - x) + params.j_step * eta, lower, upper),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            move_improved(x, y, a, params, lower, upper, replay(u)),
            np.clip(x + pull * (y - x) + params.j_step * eta
                    + params.k_step * (a - x), lower, upper),
            rtol=1e-12,
        )

        dest = rng.uniform(-50, 50, 6)
        r1 = rng.uniform(0, 2)
        r2 = rng.uniform(0, 2 * math.pi, 6)
        r3 = rng.uniform(0, 2, 6)
        r4 = rng.random(6)
        expected = np.array([
            min(upper[c], max(lower[c], x[c]
                + r1 * (math.sin(r2[c]) if r4[c] < 0.5 else math.cos(r2[c]))
                * abs(r3[c] * dest[c] - x[c])))
            for c in range(6)
        ])
        np.testing.assert_allclose(
            sca_step(x, dest, r1, r2, r3, r4, lower, upper), expected, rtol=1e-12
        )
    report("ACCEPTANCE 3 PASS: move_standard/move_improved/sca_step match "
           "brute-force formula evaluation at rel 1e-12 on 1e3 random inputs")


# -- criterion 4 -------------------------------------------------------------


def _random_search_best(name, dim, budget, seed):
    problem = benchmark_problem(name, dim=dim)
    rng = np.random.default_rng(seed)
    X = rng.uniform(problem.lower, problem.upper, (budget, dim))
    if name == "sphere":
        vals = np.sum(X * X, axis=1)
    elif name == "rastrigin":
        vals = np.sum(X * X - 10.0 * np.cos(2 * np.pi * X) + 10.0, axis=1)
    elif name == "ackley":
        vals = (-20.0 * np.exp(-0.2 * np.sqrt(np.sum(X * X, axis=1) / dim))
                - np.exp(np.sum(np.cos(2 * np.pi * X), axis=1) / dim) + 20.0 + np.e)
    else:
        raise KeyError(name)
    return float(np.min(vals))


def test_4_optimizer_sanity_at_paper_scale():
    """Population 20, 500 iterations, composite variant with the logistic
    map, seeds 0..9."""
    started = time.perf_counter()
    seeds = range(10)
    budget = 20 * 501

    medians = {}
    for name in ("sphere", "ackley", "rastrigin"):
        problem = benchmark_problem(name, dim=20)
        bests = [optimize(problem, OptimizerConfig(seed=s)).best_fitness for s in seeds]
        medians[name] = float(np.median(bests))

    assert medians["sphere"] < 1e-2, medians

    for name in ("ackley", "sphere", "rastrigin"):
        random_median = float(np.median(
            [_random_search_best(name, 20, budget, s) for s in seeds]
        ))
        assert medians[name] < random_median, (name, medians[name], random_median)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s"
    report(f"ACCEPTANCE 4 PASS: sphere D=20 median {medians['sphere']:.2e} < 1e-2; "
           f"beats equal-budget random search on fn1/fn6/fn10 ({elapsed:.1f}s)")


# -- criterion 5 -------------------------------------------------------------


def test_5_monotone_curves_and_exact_budgets():
    started = time.perf_counter()
    pop, iters = 20, 120
    problems = [benchmark_problem(n, dim=10) for n in ("sphere", "ackley", "rastrigin")]
    checked = 0
    for problem in problems:
        for variant in ("i", "ii", "iii", "iv", "v"):
            for map_name in ("logistic", "tent"):
                config = OptimizerConfig(population=pop, max_iter=iters, seed=11,
                                         variant=VariantSpec(variant, map_name))
                record = optimize(problem, config)
                assert record.evals == pop * (1 + iters)
                curve = np.array(record.best_curve)
                assert np.all(np.diff(curve) <= 0.0)
                checked += 1
    assert checked == 3 * 5 * 2
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    report(f"ACCEPTANCE 5 PASS: nonincreasing curves and evals == pop*(1+iters) "
           f"across a 3x5x2 smoke grid of {checked} runs ({elapsed:.1f}s)")


# -- criterion 6 -------------------------------------------------------------


def test_6_engineering_feasibility():
    """Feasibility-rules CSCF finds feasible designs inside the published
    cost envelopes (bounds are envelopes, not equality claims)."""
    started = time.perf_counter()
    bounds = {"welded_beam": 2.0, "pressure_vessel": 7000.0, "spring": 0.025}
    achieved = {}
    for problem in engineering_suite():
        feasible_costs = []
        for seed in range(10):
            record = optimize(problem, OptimizerConfig(seed=seed, max_iter=1000))
            if record.feasible:
                feasible_costs.append(record.best_cost)
        assert feasible_costs, f"no feasible {problem.name} design in 10 seeds"
        achieved[problem.name] = min(feasible_costs)
        assert achieved[problem.name] <= bounds[problem.name], (
            problem.name, achieved[problem.name])
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    report("ACCEPTANCE 6 PASS: feasible designs at "
           + ", ".join(f"{k}={v:.6g} (<= {bounds[k]})" for k, v in achieved.items())
           + f" ({elapsed:.1f}s)")


# -- criterion 7 -------------------------------------------------------------


def test_7_wilcoxon_exactness():
    rng = np.random.default_rng(77)

    def exhaustive_p(a, b):
        pooled = list(a) + list(b)
        ranks = analysis._rank_blocks(pooled)[0]
        m = len(a)
        observed = sum(ranks[:m])
        sums = [sum(ranks[list(idx)])
                for idx in itertools.combinations(range(len(pooled)), m)]
        low = sum(1 for s in sums if s <= observed + 1e-12)
        high = sum(1 for s in sums if s >= observed - 1e-12)
        return min(1.0, 2.0 * min(low, high) / len(sums))

    shapes = 0
    for na in range(1, 8):
        for nb in range(1, 9 - na):
            for _ in range(3):
                pool = rng.permutation(np.arange(1.0, 25.0))[: na + nb]
                a, b = list(pool[:na]), list(pool[na:])
                got = analysis.wilcoxon_rank_sum(a, b)
                assert got.exact
                assert abs(got.p_value - exhaustive_p(a, b)) <= 1e-12, (a, b)
                shapes += 1

    identities = 0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        a = rng.normal(0, 1, n)
        b = a + rng.normal(0, 1, n)
        diff = a - b
        m = int(np.sum(diff != 0.0))
        if m == 0:
            continue
        result = analysis.wilcoxon_signed_rank(list(a), list(b))
        assert abs(result.r_plus + result.r_minus - m * (m + 1) / 2) <= 1e-9
        identities += 1

    report(f"ACCEPTANCE 7 PASS: rank-sum p matches exhaustive enumeration on "
           f"{shapes} small shapes (1e-12); signed-rank r+/r- identity on "
           f"{identities} random paired samples")


# -- criterion 8 -------------------------------------------------------------


def test_8_cmd_run_determinism(tmp_path):
    argv_tail = ["--problems", "sphere,rastrigin", "--algo", "cscf,ff",
                 "--dim", "5", "--iters", "20", "--replicates", "2",
                 "--seed", "7"]
    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        assert cli.main(["run", *argv_tail, "--out", str(out)]) == 0

    first = sorted(dirs[0].glob("*.json"))
    second = sorted(dirs[1].glob("*.json"))
    assert [p.name for p in first] == [p.name for p in second]
    assert len(first) == 8
    for pa, pb in zip(first, second):
        ra, rb = json.loads(pa.read_text()), json.loads(pb.read_text())
        ra.pop("wall_time"), rb.pop("wall_time")
        assert json.dumps(ra, sort_keys=True).encode() == \
            json.dumps(rb, sort_keys=True).encode(), pa.name
    for ca, cb in zip(sorted(dirs[0].glob("*.curve.csv")),
                      sorted(dirs[1].glob("*.curve.csv"))):
        assert ca.read_bytes() == cb.read_bytes()
    report("ACCEPTANCE 8 PASS: two cmd_run executions byte-identical modulo "
           "wall_time across an 8-run smoke grid")


# -- criterion 9 -------------------------------------------------------------


def test_9_variant_sweep_shape(tmp_path):
    """Every variant x all 12 maps over the design problems, through
    ``cscf run`` then ``cscf report``."""
    variants = ("i", "ii", "iii", "iv", "v")
    out = tmp_path / "sweep"
    assert cli.main(["run", "--problems", ",".join(p.name for p in engineering_suite()),
                     "--algo", "cscf", "--variant", ",".join(variants),
                     "--map", ",".join(chaos.MAP_NAMES), "--pop", "10", "--iters", "40",
                     "--replicates", "1", "--seed", "0", "--out", str(out)]) == 0
    assert cli.main(["report", "--in", str(out)]) == 0
    with (out / "mae_grid.csv").open(newline="") as fh:
        grid = list(csv.DictReader(fh))
    with (out / "variant_rank.csv").open(newline="") as fh:
        ranks = {row["variant"]: row for row in csv.DictReader(fh)}
    assert len(grid) == 3 * 12
    cells = [float(row[f"variant_{v}"]) for row in grid for v in variants]
    assert len(cells) == 3 * 5 * 12 == 180
    assert all(math.isfinite(c) and c >= 0.0 for c in cells)
    assert set(ranks) == set(variants)
    assert sorted(int(row["rank"]) for row in ranks.values()) == [1, 2, 3, 4, 5]
    for v in variants:
        column = [float(row[f"variant_{v}"]) for row in grid]
        assert float(ranks[v]["mean_mae"]) == float(np.mean(column))
    report("ACCEPTANCE 9 PASS: cscf run + cscf report emit exactly 180 MAE cells "
           "(3 problems x 5 variants x 12 maps) with a per-variant ranking")
