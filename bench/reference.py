"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``cscf``: every objective, constraint, statistic and
p-value is recomputed from its formula, so a change that alters what the
program computes shows up as a failed check rather than as a new
reference.  Each ``check_*`` function returns a list of error strings; an
empty list means the output passed.

The engineering formulas are the literature versions of the three design
problems (README.md gives the sources).  Four terms of ``cscf.engineering``
differ from them, so every pressure-vessel and spring record disagrees
with these formulas; the workloads count such records as failed
operations (see ``workloads.FORMULA_FAULT``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import statistics
from pathlib import Path

import numpy as np

# Recorded stand-in fitness of an infeasible incumbent under feasibility
# rules (see the ``cscf.hybrid`` module docstring).
INFEASIBLE_OFFSET = 1e9

REL_TOL = 1e-9
ABS_TOL = 1e-12
# Constraints subtract limits of up to ~1e6 (for example ``sigma - 30000``),
# so two correct evaluations may differ by rounding of that size.
CONSTRAINT_TOL = 1e-6


def close(a: float, b: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# objectives, vectorised over the last axis


def sphere(x):
    x = np.asarray(x, dtype=float)
    return np.sum(x**2, axis=-1)


def rastrigin(x):
    x = np.asarray(x, dtype=float)
    return np.sum(x**2 - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def ackley(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    root_mean_square = np.sqrt(np.sum(x**2, axis=-1) / n)
    mean_cos = np.sum(np.cos(2.0 * np.pi * x), axis=-1) / n
    return 20.0 + np.e - 20.0 * np.exp(-0.2 * root_mean_square) - np.exp(mean_cos)


OBJECTIVES = {"sphere": sphere, "rastrigin": rastrigin, "ackley": ackley}


# ---------------------------------------------------------------------------
# engineering design problems: position -> (cost, constraint vector)


def welded_beam(z):
    h, l, t, b = (float(v) for v in z)
    load, length, young, shear = 6000.0, 14.0, 30e6, 12e6
    cost = 1.10471 * h**2 * l + 0.04811 * t * b * (length + l)
    tau_1 = load / (math.sqrt(2.0) * h * l)
    radius = math.sqrt(l**2 / 4.0 + ((h + t) / 2.0) ** 2)
    polar = 2.0 * math.sqrt(2.0) * h * l * (l**2 / 12.0 + ((h + t) / 2.0) ** 2)
    tau_2 = load * (length + l / 2.0) * radius / polar
    tau = math.sqrt(tau_1**2 + tau_1 * tau_2 * l / radius + tau_2**2)
    sigma = 6.0 * load * length / (b * t**2)
    delta = 4.0 * load * length**3 / (young * b * t**3)
    buckling = (4.013 * young * math.sqrt(t**2 * b**6 / 36.0) / length**2) * (
        1.0 - t / (2.0 * length) * math.sqrt(young / (4.0 * shear)))
    g = [tau - 13600.0, sigma - 30000.0, h - b,
         1.10471 * h**2 + 0.04811 * t * b * (length + l) - 5.0,
         0.125 - h, delta - 0.25, load - buckling]
    return cost, np.array(g)


def snap(value: float) -> float:
    """Nearest multiple of 0.0625 in, the plate stock of the pressure vessel."""
    return round(value / 0.0625) * 0.0625


def pressure_vessel(z):
    shell, head = snap(float(z[0])), snap(float(z[1]))
    radius, length = float(z[2]), float(z[3])
    cost = (0.6224 * shell * radius * length + 1.7781 * head * radius**2
            + 3.1661 * shell**2 * length + 19.84 * shell**2 * radius)
    g = [0.0193 * radius - shell, 0.00954 * radius - head,
         1296000.0 - math.pi * radius**2 * length - 4.0 / 3.0 * math.pi * radius**3,
         length - 240.0]
    return cost, np.array(g)


def spring(z):
    """``z = (coil diameter D, active coils N, wire diameter d)``, the program's order."""
    coil, coils, wire = (float(v) for v in z)
    cost = (coils + 2.0) * coil * wire**2
    g = [1.0 - coil**3 * coils / (71785.0 * wire**4),
         (4.0 * coil**2 - wire * coil) / (12566.0 * (coil * wire**3 - wire**4))
         + 1.0 / (5108.0 * wire**2) - 1.0,
         1.0 - 140.45 * wire / (coil**2 * coils),
         (coil + wire) / 1.5 - 1.0]
    return cost, np.array(g)


ENGINEERING = {"welded_beam": welded_beam, "pressure_vessel": pressure_vessel,
               "spring": spring}


# ---------------------------------------------------------------------------
# run records


def check_record(rec: dict, problem: str, lower, upper, population: int,
                 max_iter: int, seed: int) -> tuple[list[str], list[str]]:
    """Check one run record (``RunRecord.to_dict()`` or a persisted line).

    Returns ``(errors, mismatches)``.  Errors are records inconsistent with
    their run or with themselves (seed, evals, curve, box, the recorded
    violation and fitness against the recorded constraints).  Mismatches
    are recorded values that differ from the formulas above at the
    record's ``best_position``: cost or fitness, constraint values, and a
    ``feasible`` design whose constraints are not all <= 0.
    """
    where = f"{problem} seed {seed}"
    errors, mismatches = [], []
    if rec["seed"] != seed:
        errors.append(f"{where}: record seed {rec['seed']}")
    if rec["evals"] != population * (1 + max_iter):
        errors.append(f"{where}: evals {rec['evals']} != {population} * (1 + {max_iter})")
    curve = np.asarray(rec["best_curve"], dtype=float)
    if curve.size != max_iter + 1 or not np.all(np.isfinite(curve)):
        errors.append(f"{where}: curve has {curve.size} finite-checked points")
    elif np.any(np.diff(curve) > 0.0):
        errors.append(f"{where}: best_curve increases")
    elif curve[-1] != rec["best_fitness"]:
        errors.append(f"{where}: curve ends at {curve[-1]!r}, not best_fitness")
    x = np.asarray(rec["best_position"], dtype=float)
    if x.shape != np.shape(lower) or np.any(x < lower) or np.any(x > upper):
        errors.append(f"{where}: best_position outside the box")
        return errors, mismatches

    if problem in OBJECTIVES:
        value = float(OBJECTIVES[problem](x))
        if not close(rec["best_fitness"], value):
            mismatches.append(f"{where}: best_fitness {rec['best_fitness']!r} != {value!r}")
        if rec["best_cost"] != rec["best_fitness"] or not rec["feasible"]:
            errors.append(f"{where}: objective record not a plain feasible cost")
        return errors, mismatches

    recorded = rec["best_constraints"]
    if recorded is None or len(recorded) != len(ENGINEERING[problem](x)[1]):
        errors.append(f"{where}: best_constraints {recorded!r}")
        return errors, mismatches
    violation = float(np.sum(np.maximum(0.0, recorded)))
    if rec["feasible"] != (violation == 0.0) or \
            not close(rec["best_violation"], violation, CONSTRAINT_TOL):
        errors.append(f"{where}: feasible {rec['feasible']} and best_violation "
                      f"{rec['best_violation']!r} disagree with best_constraints")
    want = rec["best_cost"] if rec["feasible"] else INFEASIBLE_OFFSET + rec["best_violation"]
    if not close(rec["best_fitness"], want):
        errors.append(f"{where}: best_fitness {rec['best_fitness']!r} != {want!r}")

    cost, g = ENGINEERING[problem](x)
    if not close(rec["best_cost"], cost):
        mismatches.append(f"{where}: best_cost {rec['best_cost']!r} != {cost!r}")
    if not all(close(a, b, CONSTRAINT_TOL) for a, b in zip(recorded, g)):
        mismatches.append(f"{where}: best_constraints {list(recorded)} != {g.tolist()}")
    if rec["feasible"] and np.any(g > CONSTRAINT_TOL):
        mismatches.append(f"{where}: feasible but a constraint is > 0: {g.tolist()}")
    return errors, mismatches


def random_search_best(problem: str, lower, upper, budget: int, seed: int) -> float:
    """Best of ``budget`` uniform samples of the box, the equal-budget baseline."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(lower, upper, (budget, len(lower)))
    return float(np.min(OBJECTIVES[problem](points)))


# ---------------------------------------------------------------------------
# rank statistics, by exhaustive enumeration


def midranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for i in order[start:end + 1]:
            ranks[i] = (start + end) / 2.0 + 1.0
        start = end + 1
    return ranks


def _two_sided(sums, observed: float) -> float:
    low = sum(1 for s in sums if s <= observed + 1e-9)
    high = sum(1 for s in sums if s >= observed - 1e-9)
    return min(1.0, 2.0 * min(low, high) / len(sums))


def rank_sum_p(a, b) -> float:
    """Exact two-sided rank-sum p-value over every split of the pooled ranks."""
    ranks = midranks(list(a) + list(b))
    sums = [sum(ranks[i] for i in idx)
            for idx in itertools.combinations(range(len(ranks)), len(a))]
    return _two_sided(sums, sum(ranks[:len(a)]))


def signed_rank(a, b) -> tuple[float, float, float] | None:
    """(r_plus, r_minus, exact two-sided p) over every sign pattern.

    None when every paired difference is zero.
    """
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        return None
    ranks = midranks([abs(d) for d in diffs])
    r_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    r_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    sums = [sum(r for r, s in zip(ranks, signs) if s)
            for signs in itertools.product((False, True), repeat=len(ranks))]
    return r_plus, r_minus, _two_sided(sums, r_plus)


# ---------------------------------------------------------------------------
# harness tables


def _read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _summary_of(records: list[dict]) -> dict:
    """{(algo, "problem_dD"): [best_cost, ...]} in record order."""
    groups: dict = {}
    for rec in records:
        key = (rec["algo"], f"{rec['problem']}_d{rec['dim']}")
        groups.setdefault(key, []).append(float(rec["best_cost"]))
    return groups


def check_tables(directory: Path, records: list[dict], references: dict) -> list[str]:
    """Recompute summary.csv, mae_grid.csv and wilcoxon.csv from ``records``."""
    errors = []
    groups = _summary_of(records)
    rows = {(r["algorithm"], r["problem"]): r for r in _read_csv(directory / "summary.csv")}
    if set(rows) != set(groups):
        errors.append(f"summary.csv rows {sorted(rows)} != {sorted(groups)}")
    for key, costs in groups.items():
        row = rows.get(key)
        if row is None:
            continue
        want = {"n": len(costs), "mean": statistics.fmean(costs),
                "std": statistics.stdev(costs) if len(costs) > 1 else 0.0,
                "best": min(costs), "worst": max(costs)}
        for field, value in want.items():
            if not close(float(row[field]), value):
                errors.append(f"summary.csv {key} {field} {row[field]} != {value!r}")

    cells: dict = {}
    for rec in records:
        if rec["algo"] == "cscf":
            key = (rec["problem"], rec["map"], rec["variant"])
            cells.setdefault(key, []).append(abs(float(rec["best_cost"]) - references[rec["problem"]]))
    grid = {(r["problem"], r["map"]): r for r in _read_csv(directory / "mae_grid.csv")}
    if set(grid) != {(p, m) for p, m, _ in cells}:
        errors.append(f"mae_grid.csv rows {sorted(grid)} differ from the records")
    for (problem, map_name, variant), errs in cells.items():
        got = grid.get((problem, map_name), {}).get(f"variant_{variant}")
        if got is None or not close(float(got), statistics.fmean(errs)):
            errors.append(f"mae_grid.csv {problem}/{map_name}/{variant} {got} "
                          f"!= {statistics.fmean(errs)!r}")

    means: dict = {}
    for (algo, problem), costs in groups.items():
        means.setdefault(algo, {})[problem] = statistics.fmean(costs)
    pairs = {r["pair"]: r for r in _read_csv(directory / "wilcoxon.csv")}
    algos = sorted(means)
    expected_pairs = {f"{a}_vs_{b}" for a, b in itertools.combinations(algos, 2)}
    if set(pairs) != expected_pairs:
        errors.append(f"wilcoxon.csv pairs {sorted(pairs)} != {sorted(expected_pairs)}")
    for a, b in itertools.combinations(algos, 2):
        row = pairs.get(f"{a}_vs_{b}")
        if row is None:
            continue
        shared = sorted(set(means[a]) & set(means[b]))
        xa = [means[a][p] for p in shared]
        xb = [means[b][p] for p in shared]
        if int(row["best_wins"]) != sum(x < y for x, y in zip(xa, xb)) or \
                int(row["worst_wins"]) != sum(x > y for x, y in zip(xa, xb)):
            errors.append(f"wilcoxon.csv {a}_vs_{b}: win counts")
        if abs(float(row["p_rank_sum"]) - rank_sum_p(xa, xb)) > 1e-12:
            errors.append(f"wilcoxon.csv {a}_vs_{b}: p_rank_sum {row['p_rank_sum']} "
                          f"!= {rank_sum_p(xa, xb)!r}")
        signed = signed_rank(xa, xb) or (0.0, 0.0, 1.0)
        got = (float(row["r_plus"]), float(row["r_minus"]), float(row["p_signed_rank"]))
        if any(abs(g - w) > 1e-9 for g, w in zip(got, signed)):
            errors.append(f"wilcoxon.csv {a}_vs_{b}: signed rank {got} != {signed}")
    return errors


def load_records(directory: Path) -> dict[str, dict]:
    """{stem: record} for every persisted record in ``directory``."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        out[path.name[:-len(".json")]] = json.loads(path.read_text(encoding="utf-8"))
    return out


def check_rerun(first: Path, second: Path) -> list[str]:
    """Two runs of the same grid: identical records apart from wall_time."""
    errors = []
    a, b = load_records(first), load_records(second)
    if sorted(a) != sorted(b):
        return [f"rerun wrote other files: {sorted(set(a) ^ set(b))[:4]}"]
    for stem in a:
        ra = {k: v for k, v in a[stem].items() if k != "wall_time"}
        rb = {k: v for k, v in b[stem].items() if k != "wall_time"}
        if json.dumps(ra, sort_keys=True) != json.dumps(rb, sort_keys=True):
            errors.append(f"rerun record {stem} differs")
        curve = f"{stem}.curve.csv"
        if (first / curve).read_bytes() != (second / curve).read_bytes():
            errors.append(f"rerun curve {curve} differs")
    return errors
