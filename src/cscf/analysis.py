"""Statistics over run records: summaries, Wilcoxon tests, MAE, reports.

The two Wilcoxon tests follow the standard midrank treatment of ties and
report two-sided p-values (doubled one-tail probability, clipped to 1).
Small samples get exact p-values from one subset-sum counter over the
doubled midranks (integers, so the counts are exact), kept by subset
size: the rank-sum test reads the subsets of the first sample's size when
the pooled size is at most :data:`EXACT_LIMIT`, the signed-rank test reads
all subsets (one per sign pattern) when at most :data:`EXACT_LIMIT`
nonzero differences remain (with none, the empty set's one subset gives
p = 1).  Larger samples use the normal approximation, corrected for the tie
blocks of the same ranking.

Every table is a CSV written by one writer (one header, then one row per
problem, pair, cell or variant); the summary is also written as JSON
lines, and each run's convergence curve as a per-iteration CSV.
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

from .errors import EmptySampleError

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


def _rank_blocks(values) -> tuple[np.ndarray, np.ndarray]:
    """Midranks 1..n and the size of each tie block, in sorted order.

    A block is a run of equal values in a stable sort; a block starting at
    0-based position ``start`` with ``count`` values ranks ``start + (count
    + 1) / 2``.  NaN equals nothing, so each NaN is a block of its own,
    ranked last in input order."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks, counts


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values receiving the mean of their rank block."""
    return _rank_blocks(values)[0]


def _exact_p(ranks: np.ndarray, observed: float, size: int | None = None) -> float:
    """Doubled one-tail probability of the rank sum ``observed`` among the
    sums of the subsets of ``ranks`` with ``size`` members (all subsets if
    None), clipped to 1.  Doubled midranks are integers, so every count is
    exact."""
    doubled = [int(round(2.0 * r)) for r in ranks]
    counts = np.zeros((len(doubled) + 1, sum(doubled) + 1), dtype=np.int64)
    counts[0, 0] = 1  # counts[k, s]: the subsets of k ranks with doubled sum s
    for r2 in doubled:  # numpy reads the overlapping right side before writing
        counts[1:, r2:] += counts[:-1, :-r2]
    null = counts[size] if size is not None else counts.sum(axis=0)
    target = int(round(2.0 * observed))
    low, high = null[: target + 1].sum(), null[target:].sum()
    return min(1.0, float(2 * min(low, high) / null.sum()))


def _normal_p(observed: float, mu: float, var: float) -> float:
    """Two-sided normal p of ``observed`` (mean ``mu``, variance ``var``); 1 at no variance."""
    if var <= 0.0:
        return 1.0
    z = (observed - mu) / math.sqrt(var)
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
    ranks, ties = _rank_blocks(np.concatenate([a, b]))
    w_a = float(np.sum(ranks[: a.size]))
    w_b = float(np.sum(ranks[a.size :]))
    n, m = ranks.size, a.size

    if n <= EXACT_LIMIT:
        return _result(w_a, w_a, w_b, _exact_p(ranks, w_a, size=m), exact=True)

    mu = m * (n + 1) / 2.0
    correction = np.sum(ties**3 - ties) / (n * (n - 1.0))
    var = m * (n - m) / 12.0 * ((n + 1.0) - correction)
    return _result(w_a, w_a, w_b, _normal_p(w_a, mu, var), exact=False)


def wilcoxon_signed_rank(
    paired_a: Sequence[float], paired_b: Sequence[float]
) -> WilcoxonResult:
    """Two-sided signed-rank test on paired samples (zero differences dropped).

    ``r_plus``/``r_minus`` are the midrank sums of positive/negative
    differences ``a - b``; ``statistic`` is ``min(r_plus, r_minus)``.  All
    differences zero give 0 for all three and the exact p = 1.
    """
    a = np.asarray(list(paired_a), dtype=float)
    b = np.asarray(list(paired_b), dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptySampleError("signed-rank needs nonempty paired samples")
    if a.size != b.size:
        raise EmptySampleError(f"paired samples differ in length: {a.size} vs {b.size}")
    diff = a - b
    diff = diff[diff != 0.0]
    ranks, ties = _rank_blocks(np.abs(diff))
    r_plus = float(np.sum(ranks[diff > 0]))
    r_minus = float(np.sum(ranks[diff < 0]))
    m = diff.size
    statistic = min(r_plus, r_minus)

    if m <= EXACT_LIMIT:
        return _result(statistic, r_plus, r_minus, _exact_p(ranks, r_plus), exact=True)

    mu = m * (m + 1) / 4.0
    var = m * (m + 1) * (2 * m + 1) / 24.0 - float(np.sum(ties**3 - ties)) / 48.0
    return _result(statistic, r_plus, r_minus, _normal_p(r_plus, mu, var), exact=False)


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
        pairwise.append(PairwiseComparison(
            algo_a, algo_b, best_wins, worst_wins,
            wilcoxon_rank_sum(mean_a, mean_b), wilcoxon_signed_rank(mean_a, mean_b)))

    return ComparisonReport(summaries=summaries, pairwise=pairwise, unpaired=unpaired)


# ---------------------------------------------------------------------------
# table emission


_SUMMARY_HEADER = ("problem", "algorithm", "n", "mean", "std", "best", "worst")


def _summary_rows(report: ComparisonReport):
    for algo in sorted(report.summaries):
        for problem, s in sorted(report.summaries[algo].items()):
            yield problem, algo, s.n, s.mean, s.std, s.best, s.worst


def write_summary_csv(report: ComparisonReport, path) -> None:
    _write_csv(path, _SUMMARY_HEADER, _summary_rows(report))


def write_summary_jsonl(report: ComparisonReport, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in _summary_rows(report):
            fh.write(json.dumps(dict(zip(_SUMMARY_HEADER, row)), sort_keys=True) + "\n")


def write_wilcoxon_csv(report: ComparisonReport, path) -> None:
    _write_csv(path, ("pair", "best_wins", "worst_wins", "r_plus", "r_minus", "p_rank_sum",
                      "p_signed_rank", "significant_0.10", "significant_0.05"),
               ((f"{p.algo_a}_vs_{p.algo_b}", p.best_wins, p.worst_wins,
                 p.signed_rank.r_plus, p.signed_rank.r_minus, p.rank_sum.p_value,
                 p.signed_rank.p_value, p.signed_rank.significant_10,
                 p.signed_rank.significant_05) for p in report.pairwise))


def write_mae_grid_csv(mae: Mapping[tuple, float], path) -> None:
    """One row per (problem, dim, map), one column per variant; a variant
    without that cell leaves it empty.

    ``mae`` maps ``(problem, dim, variant, map)`` to the cell's MAE.
    """
    variants = sorted({variant for _, _, variant, _ in mae})
    cells = sorted({(problem, dim, map_name) for problem, dim, _, map_name in mae})
    _write_csv(path, ("problem", "dim", "map", *(f"variant_{v}" for v in variants)),
               ((problem, dim, map_name, *(mae.get((problem, dim, v, map_name), "")
                                           for v in variants))
                for problem, dim, map_name in cells))


def write_variant_rank_csv(ranks: Mapping[str, tuple[float, int]], path) -> None:
    """One row per variant of :func:`variant_ranks`: its mean MAE and rank."""
    _write_csv(path, ("variant", "mean_mae", "rank"),
               ((v, m, r) for v, (m, r) in ranks.items()))


def write_walltime_csv(mean_seconds_by_key: Mapping[str, float], path) -> None:
    _write_csv(path, ("variant", "mean_wall_time_s"), sorted(mean_seconds_by_key.items()))


def write_convergence_csv(record, path) -> None:
    """Per-iteration best-so-far curve: rows of (iteration, best_fitness)."""
    _write_csv(path, ("iteration", "best_fitness"),
               enumerate(float(value) for value in record.best_curve))


def _write_csv(path, header, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
