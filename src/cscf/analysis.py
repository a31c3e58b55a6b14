"""Statistics over run records: summaries, Wilcoxon tests, MAE, reports.

The two Wilcoxon tests follow the standard midrank treatment of ties and
report two-sided p-values (doubled one-tail probability, clipped to 1).
Small samples get exact p-values: the rank-sum distribution is enumerated
by a subset-sum count over the pooled midranks when the pooled size is at
most :data:`EXACT_LIMIT`, and the signed-rank distribution over all sign
patterns when at most :data:`EXACT_LIMIT` nonzero differences remain.
Larger samples use the normal approximation with tie correction.

Comparison tables are emitted both as CSV (one row per problem or pair)
and as JSON lines for machine consumption; convergence curves as
per-iteration CSV.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import AllZeroDifferencesError, EmptySampleError

__all__ = [
    "EXACT_LIMIT",
    "SummaryStats",
    "WilcoxonResult",
    "summarize",
    "midranks",
    "wilcoxon_rank_sum",
    "wilcoxon_signed_rank",
    "mae",
    "variant_ranks",
    "PairwiseComparison",
    "ComparisonReport",
    "compare_report",
    "write_summary_csv",
    "write_summary_jsonl",
    "write_wilcoxon_csv",
    "write_mae_grid_csv",
    "write_variant_rank_csv",
    "write_walltime_csv",
    "write_convergence_csv",
]

# Largest pooled sample size (rank-sum) / nonzero-pair count (signed-rank)
# still resolved by exact enumeration.
EXACT_LIMIT = 12


@dataclass(frozen=True)
class SummaryStats:
    """Mean / sample std (n-1) / best / worst of a replicate sample."""

    mean: float
    std: float
    best: float
    worst: float
    n: int


def summarize(samples: Sequence[float]) -> SummaryStats:
    values = np.asarray(list(samples), dtype=float)
    if values.size == 0:
        raise EmptySampleError("cannot summarize an empty sample")
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return SummaryStats(
        mean=float(np.mean(values)),
        std=std,
        best=float(np.min(values)),
        worst=float(np.max(values)),
        n=int(values.size),
    )


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    r_plus: float
    r_minus: float
    p_value: float
    exact: bool
    significant_10: bool
    significant_05: bool


def _result(statistic, r_plus, r_minus, p, exact) -> WilcoxonResult:
    p = min(1.0, max(0.0, float(p)))
    return WilcoxonResult(
        statistic=float(statistic),
        r_plus=float(r_plus),
        r_minus=float(r_minus),
        p_value=p,
        exact=exact,
        significant_10=p < 0.1,
        significant_05=p < 0.05,
    )


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values receiving the mean of their rank block."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _tie_sizes(values: np.ndarray) -> np.ndarray:
    _, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return counts


def _two_sided_from_distribution(weights: Mapping[int, float], observed: int) -> float:
    """Doubled one-tail probability of `observed` under an integer-keyed pmf."""
    total = sum(weights.values())
    low = sum(w for s, w in weights.items() if s <= observed)
    high = sum(w for s, w in weights.items() if s >= observed)
    return min(1.0, 2.0 * min(low, high) / total)


def _normal_two_sided(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided rank-sum (Mann-Whitney-Wilcoxon) test.

    ``statistic`` (= ``r_plus``) is the midrank sum of sample ``a``;
    ``r_minus`` that of ``b``.  Exact by enumeration when
    ``len(a) + len(b) <= EXACT_LIMIT``, else normal with tie correction.
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySampleError("rank-sum needs one or more values in each sample")
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    w_a = float(np.sum(ranks[: a.size]))
    w_b = float(np.sum(ranks[a.size :]))
    n, m = pooled.size, a.size

    if n <= EXACT_LIMIT:
        # Subset-sum count over doubled midranks (integers); weights count
        # the subsets of size m attaining each rank-sum.
        doubled = [int(round(2.0 * r)) for r in ranks]
        layers = [dict() for _ in range(m + 1)]
        layers[0][0] = 1
        for r2 in doubled:
            for k in range(m, 0, -1):
                target = layers[k]
                for s, cnt in layers[k - 1].items():
                    target[s + r2] = target.get(s + r2, 0) + cnt
        dist = layers[m]
        p = _two_sided_from_distribution(dist, int(round(2.0 * w_a)))
        return _result(w_a, w_a, w_b, p, exact=True)

    mu = m * (n + 1) / 2.0
    ties = _tie_sizes(pooled)
    correction = np.sum(ties**3 - ties) / (n * (n - 1.0))
    var = m * (n - m) / 12.0 * ((n + 1.0) - correction)
    if var <= 0.0:
        return _result(w_a, w_a, w_b, 1.0, exact=False)
    z = (w_a - mu) / math.sqrt(var)
    return _result(w_a, w_a, w_b, _normal_two_sided(z), exact=False)


def wilcoxon_signed_rank(
    paired_a: Sequence[float], paired_b: Sequence[float]
) -> WilcoxonResult:
    """Two-sided signed-rank test on paired samples (zero differences dropped).

    ``r_plus``/``r_minus`` are the midrank sums of positive/negative
    differences ``a - b``; ``statistic`` is ``min(r_plus, r_minus)``.
    """
    a = np.asarray(list(paired_a), dtype=float)
    b = np.asarray(list(paired_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySampleError("signed-rank needs nonempty paired samples")
    if a.size != b.size:
        raise EmptySampleError(f"paired samples differ in length: {a.size} vs {b.size}")
    diff = a - b
    diff = diff[diff != 0.0]
    if diff.size == 0:
        raise AllZeroDifferencesError("every paired difference is zero")
    ranks = midranks(np.abs(diff))
    r_plus = float(np.sum(ranks[diff > 0]))
    r_minus = float(np.sum(ranks[diff < 0]))
    m = diff.size
    statistic = min(r_plus, r_minus)

    if m <= EXACT_LIMIT:
        doubled = [int(round(2.0 * r)) for r in ranks]
        dist = {0: 1}
        for r2 in doubled:
            new = {}
            for s, cnt in dist.items():
                new[s] = new.get(s, 0) + cnt
                new[s + r2] = new.get(s + r2, 0) + cnt
            dist = new
        p = _two_sided_from_distribution(dist, int(round(2.0 * r_plus)))
        return _result(statistic, r_plus, r_minus, p, exact=True)

    mu = m * (m + 1) / 4.0
    ties = _tie_sizes(np.abs(diff))
    var = m * (m + 1) * (2 * m + 1) / 24.0 - float(np.sum(ties**3 - ties)) / 48.0
    if var <= 0.0:
        return _result(statistic, r_plus, r_minus, 1.0, exact=False)
    z = (r_plus - mu) / math.sqrt(var)
    return _result(statistic, r_plus, r_minus, _normal_two_sided(z), exact=False)


def mae(achieved: Sequence[float], reference: float) -> float:
    """Mean absolute error of achieved values against a reference optimum."""
    values = np.asarray(list(achieved), dtype=float)
    if values.size == 0:
        raise EmptySampleError("MAE over an empty sample")
    return float(np.mean(np.abs(values - reference)))


def variant_ranks(mae: Mapping[tuple, float]) -> dict[str, tuple[float, int]]:
    """{variant: (mean MAE, rank)}, best first, from ``mae`` keyed by
    ``(problem, dim, variant, map)``.

    A variant's mean is over all of its cells, taken in (problem, dim, map)
    order; rank 1 is the lowest mean, ties broken by variant name.
    """
    cells: dict = {}
    for problem, dim, variant, map_name in sorted(mae):
        cells.setdefault(variant, []).append(mae[problem, dim, variant, map_name])
    means = {variant: float(np.mean(values)) for variant, values in cells.items()}
    order = sorted(means, key=lambda v: (means[v], v))
    return {v: (means[v], rank) for rank, v in enumerate(order, start=1)}


# ---------------------------------------------------------------------------
# cross-algorithm comparison


@dataclass(frozen=True)
class PairwiseComparison:
    algo_a: str
    algo_b: str
    best_wins: int      # problems where a's mean beats b's
    worst_wins: int     # problems where a's mean loses to b's
    rank_sum: WilcoxonResult
    signed_rank: WilcoxonResult


@dataclass
class ComparisonReport:
    summaries: dict          # {algo: {problem: SummaryStats}}
    pairwise: list           # [PairwiseComparison], empty for one algorithm
    unpaired: list           # [(algo_a, algo_b)] that share no problem, so go untested


def _ident_result(n_pairs: int) -> WilcoxonResult:
    # Identical per-problem samples: no evidence of difference.
    return _result(0.0, 0.0, 0.0, 1.0, exact=n_pairs <= EXACT_LIMIT)


def compare_report(
    records_by_algorithm: Mapping[str, Mapping[str, Sequence]],
) -> ComparisonReport:
    """Summaries plus pairwise Wilcoxon comparisons across problems.

    ``records_by_algorithm`` maps algorithm name to {problem name: list of
    run records} (anything with a ``best_cost`` attribute).  Pairwise tests
    operate on per-problem mean best costs: the rank-sum test treats the two
    mean vectors as independent samples, the signed-rank test pairs them by
    problem.  Win counts tally the problems where one algorithm's mean is
    strictly better (lower).  A single algorithm gets its summaries and no
    pairs; two algorithms that share no problem are listed in ``unpaired``.
    """
    algos = sorted(records_by_algorithm)
    summaries = {
        algo: {problem: summarize([float(r.best_cost) for r in records])
               for problem, records in sorted(records_by_algorithm[algo].items())}
        for algo in algos
    }

    pairwise, unpaired = [], []
    for algo_a, algo_b in combinations(algos, 2):
        shared = sorted(set(summaries[algo_a]) & set(summaries[algo_b]))
        if not shared:
            unpaired.append((algo_a, algo_b))
            continue
        mean_a = [summaries[algo_a][p].mean for p in shared]
        mean_b = [summaries[algo_b][p].mean for p in shared]
        best_wins = sum(1 for x, y in zip(mean_a, mean_b) if x < y)
        worst_wins = sum(1 for x, y in zip(mean_a, mean_b) if x > y)
        rank_sum = wilcoxon_rank_sum(mean_a, mean_b)
        try:
            signed = wilcoxon_signed_rank(mean_a, mean_b)
        except AllZeroDifferencesError:
            signed = _ident_result(len(shared))
        pairwise.append(
            PairwiseComparison(algo_a, algo_b, best_wins, worst_wins, rank_sum, signed)
        )

    return ComparisonReport(summaries=summaries, pairwise=pairwise, unpaired=unpaired)


# ---------------------------------------------------------------------------
# table emission


def _summary_rows(report: ComparisonReport):
    for algo in sorted(report.summaries):
        for problem in sorted(report.summaries[algo]):
            s = report.summaries[algo][problem]
            yield {
                "problem": problem,
                "algorithm": algo,
                "n": s.n,
                "mean": s.mean,
                "std": s.std,
                "best": s.best,
                "worst": s.worst,
            }


def write_summary_csv(report: ComparisonReport, path) -> None:
    rows = list(_summary_rows(report))
    _write_csv(path, ["problem", "algorithm", "n", "mean", "std", "best", "worst"], rows)


def write_summary_jsonl(report: ComparisonReport, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in _summary_rows(report):
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_wilcoxon_csv(report: ComparisonReport, path) -> None:
    rows = []
    for pair in report.pairwise:
        rows.append(
            {
                "pair": f"{pair.algo_a}_vs_{pair.algo_b}",
                "best_wins": pair.best_wins,
                "worst_wins": pair.worst_wins,
                "r_plus": pair.signed_rank.r_plus,
                "r_minus": pair.signed_rank.r_minus,
                "p_rank_sum": pair.rank_sum.p_value,
                "p_signed_rank": pair.signed_rank.p_value,
                "significant_0.10": pair.signed_rank.significant_10,
                "significant_0.05": pair.signed_rank.significant_05,
            }
        )
    _write_csv(
        path,
        ["pair", "best_wins", "worst_wins", "r_plus", "r_minus",
         "p_rank_sum", "p_signed_rank", "significant_0.10", "significant_0.05"],
        rows,
    )


def write_mae_grid_csv(mae: Mapping[tuple, float], path) -> None:
    """One row per (problem, dim, map), one column per variant.

    ``mae`` maps ``(problem, dim, variant, map)`` to the cell's MAE.
    """
    variant_names = sorted({variant for _, _, variant, _ in mae})
    rows: dict = {}
    for (problem, dim, variant, map_name), value in mae.items():
        row = rows.setdefault((problem, dim, map_name),
                              {"problem": problem, "dim": dim, "map": map_name})
        row[f"variant_{variant}"] = value
    _write_csv(path, ["problem", "dim", "map"] + [f"variant_{v}" for v in variant_names],
               [rows[key] for key in sorted(rows)])


def write_variant_rank_csv(ranks: Mapping[str, tuple[float, int]], path) -> None:
    """One row per variant of :func:`variant_ranks`: its mean MAE and rank."""
    _write_csv(path, ["variant", "mean_mae", "rank"],
               [{"variant": v, "mean_mae": m, "rank": r} for v, (m, r) in ranks.items()])


def write_walltime_csv(mean_seconds_by_key: Mapping[str, float], path) -> None:
    rows = [{"variant": k, "mean_wall_time_s": v}
            for k, v in sorted(mean_seconds_by_key.items())]
    _write_csv(path, ["variant", "mean_wall_time_s"], rows)


def write_convergence_csv(record, path) -> None:
    """Per-iteration best-so-far curve: rows of (iteration, best_fitness)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_fitness"])
        for i, value in enumerate(record.best_curve):
            writer.writerow([i, repr(float(value))])


def _write_csv(path, fields, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
