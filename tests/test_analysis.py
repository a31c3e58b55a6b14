"""Statistics tests: exact Wilcoxon enumeration oracles, summaries, reports."""

import csv
import itertools
import json
import math

import numpy as np
import pytest

from cscf import analysis
from cscf.errors import EmptySampleError


def exhaustive_rank_sum_p(a, b):
    """Two-sided exact rank-sum p by enumerating every group assignment."""
    pooled = list(a) + list(b)
    ranks = brute_midranks(pooled)
    m = len(a)
    observed = sum(ranks[:m])
    sums = [sum(ranks[list(idx)]) for idx in itertools.combinations(range(len(pooled)), m)]
    low = sum(1 for s in sums if s <= observed + 1e-12)
    high = sum(1 for s in sums if s >= observed - 1e-12)
    return min(1.0, 2.0 * min(low, high) / len(sums))


def exhaustive_signed_rank_p(a, b):
    """Two-sided exact signed-rank p by enumerating every sign pattern."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diff = diff[diff != 0.0]
    ranks = brute_midranks(np.abs(diff))
    observed = float(np.sum(ranks[diff > 0]))
    m = diff.size
    sums = [sum(r for r, bit in zip(ranks, bits) if bit)
            for bits in itertools.product([0, 1], repeat=m)]
    low = sum(1 for s in sums if s <= observed + 1e-12)
    high = sum(1 for s in sums if s >= observed - 1e-12)
    return min(1.0, 2.0 * min(low, high) / len(sums))


class FakeRecord:
    def __init__(self, best_cost):
        self.best_cost = best_cost


class TestSummarize:
    def test_singleton(self):
        s = analysis.summarize([5.0])
        assert (s.mean, s.std, s.best, s.worst, s.n) == (5.0, 0.0, 5.0, 5.0, 1)

    def test_three_values(self):
        s = analysis.summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0 and s.std == 1.0 and s.best == 1.0 and s.worst == 3.0

    def test_constant_sample(self):
        assert analysis.summarize([4.2, 4.2, 4.2]).std == 0.0

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            analysis.summarize([])


def brute_midranks(values):
    """1 + #smaller + (#equal - 1)/2 for each number; each NaN ranks after
    every number, the NaNs in input order."""
    numbers = [v for v in values if not math.isnan(v)]
    ranks, nans = [], 0
    for v in values:
        if math.isnan(v):
            nans += 1
            ranks.append(float(len(numbers) + nans))
        else:
            smaller = sum(1 for u in numbers if u < v)
            equal = sum(1 for u in numbers if u == v)
            ranks.append(1 + smaller + (equal - 1) / 2)
    return np.array(ranks)


def brute_block_sizes(values):
    """Sizes of the tie blocks in ascending order; one block per NaN."""
    numbers = [v for v in values if not math.isnan(v)]
    distinct = sorted(set(numbers))  # -0.0 and 0.0 are one value
    return [sum(1 for u in numbers if u == v) for v in distinct] + \
        [1] * (len(values) - len(numbers))


def tied_sample(rng, n):
    values = rng.choice([-1.5, -0.0, 0.0, 1.0, 2.0, np.inf], n)
    values[rng.choice(n, rng.integers(0, min(n, 4) + 1), replace=False)] = np.nan
    return values


class TestMidranks:
    def test_equals_brute_force_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in list(range(0, 25)) * 8:
            values = tied_sample(rng, n) if n else np.array([])
            got = analysis._rank_blocks(values)[0]
            assert got.dtype == np.float64
            assert got.tobytes() == brute_midranks(values).tobytes(), values

    def test_block_sizes_equal_brute_force(self):
        rng = np.random.default_rng(12)
        for n in list(range(1, 25)) * 8:
            values = tied_sample(rng, n)
            assert analysis._rank_blocks(values)[1].tolist() == brute_block_sizes(values), values

    def test_signed_zeros_tie_and_nans_stay_apart(self):
        values = [np.nan, 0.0, -0.0, np.nan, 1.0]
        ranks, ties = analysis._rank_blocks(values)
        assert ranks.tolist() == [4.0, 1.5, 1.5, 5.0, 3.0]
        assert ties.tolist() == [2, 1, 1, 1]

    def test_normal_path_corrects_for_the_blocks(self):
        a = [1.0, 1.0, 2.0, np.nan, 3.0, 0.0, -0.0]
        b = [2.0, 2.0, 5.0, np.nan, 1.0, 4.0, 4.0, 0.0]
        result = analysis.wilcoxon_rank_sum(a, b)
        assert not result.exact
        n, m = len(a) + len(b), len(a)
        ties = np.array(brute_block_sizes(a + b))
        var = m * (n - m) / 12.0 * ((n + 1.0) - np.sum(ties**3 - ties) / (n * (n - 1.0)))
        z = (sum(brute_midranks(a + b)[:m]) - m * (n + 1) / 2.0) / math.sqrt(var)
        assert result.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), rel=1e-12)


class TestRankSum:
    def test_separated_samples_exact_p(self):
        result = analysis.wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert result.exact
        assert result.p_value == pytest.approx(0.1, abs=1e-12)
        assert result.statistic == 6.0  # ranks 1+2+3

    def test_single_pair(self):
        result = analysis.wilcoxon_rank_sum([1.0], [2.0])
        assert result.p_value == 1.0

    def test_identical_multisets(self):
        result = analysis.wilcoxon_rank_sum([1, 2, 3], [1, 2, 3])
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_rank_sums_partition_total(self):
        a, b = [3.0, 1.0, 4.0], [1.0, 5.0, 9.0, 2.0]
        result = analysis.wilcoxon_rank_sum(a, b)
        n = len(a) + len(b)
        assert result.r_plus + result.r_minus == n * (n + 1) / 2

    def test_exact_matches_exhaustive_oracle_all_small_shapes(self):
        rng = np.random.default_rng(0)
        for na in range(1, 8):
            for nb in range(1, 9 - na):
                for _ in range(5):
                    pool = rng.permutation(np.arange(1.0, 20.0))[: na + nb]
                    a, b = list(pool[:na]), list(pool[na:])
                    got = analysis.wilcoxon_rank_sum(a, b)
                    assert got.exact
                    assert got.p_value == pytest.approx(
                        exhaustive_rank_sum_p(a, b), abs=1e-12
                    ), (a, b)

    def test_exact_with_ties_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            pool = rng.integers(0, 4, size=8).astype(float)
            a, b = list(pool[:4]), list(pool[4:])
            if np.all(pool == pool[0]):
                continue
            got = analysis.wilcoxon_rank_sum(a, b)
            assert got.p_value == pytest.approx(exhaustive_rank_sum_p(a, b), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a = list(rng.uniform(0, 1, 5))
        b = list(rng.uniform(0, 1, 6))
        base = analysis.wilcoxon_rank_sum(a, b)
        for _ in range(5):
            shuffled = analysis.wilcoxon_rank_sum(list(rng.permutation(a)),
                                                  list(rng.permutation(b)))
            assert shuffled.p_value == base.p_value
            assert shuffled.statistic == base.statistic

    def test_large_sample_normal_path(self):
        rng = np.random.default_rng(3)
        a = list(rng.normal(0.0, 1.0, 30))
        b = list(rng.normal(2.0, 1.0, 30))
        result = analysis.wilcoxon_rank_sum(a, b)
        assert not result.exact
        assert 0.0 <= result.p_value < 0.01
        assert result.significant_05 and result.significant_10
        # inline normal oracle with tie correction (no ties here)
        n, m = 60, 30
        mu = m * (n + 1) / 2.0
        var = m * (n - m) / 12.0 * (n + 1.0)
        z = (result.statistic - mu) / math.sqrt(var)
        assert result.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            analysis.wilcoxon_rank_sum([], [1.0])


class TestSignedRank:
    def test_all_positive_three(self):
        result = analysis.wilcoxon_signed_rank([2, 3, 4], [1, 1, 1])
        assert result.r_plus == 6.0 and result.r_minus == 0.0

    def test_one_pair(self):
        result = analysis.wilcoxon_signed_rank([2.0], [1.0])
        assert result.r_plus == 1.0 and result.r_minus == 0.0
        assert result.p_value == 1.0

    def test_all_zero_differences(self):
        # no rank remains: the exact null has one subset, the empty one of sum 0
        for n in (1, 5, 13, 30):
            values = [float(v) for v in range(n)]
            result = analysis.wilcoxon_signed_rank(values, list(values))
            assert (result.statistic, result.r_plus, result.r_minus) == (0.0, 0.0, 0.0)
            assert result.p_value == 1.0 and result.exact
            assert not result.significant_10

    def test_zero_differences_dropped(self):
        result = analysis.wilcoxon_signed_rank([1.0, 5.0, 2.0], [1.0, 4.0, 2.0])
        assert result.r_plus == 1.0 and result.r_minus == 0.0

    def test_rank_identity_random_samples(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            a = rng.normal(0, 1, n)
            b = a + rng.normal(0, 1, n)
            diff = a - b
            m = int(np.sum(diff != 0.0))
            if m == 0:
                continue
            result = analysis.wilcoxon_signed_rank(list(a), list(b))
            assert result.r_plus + result.r_minus == pytest.approx(m * (m + 1) / 2, abs=1e-9)

    def test_exact_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for m in range(1, 9):
            for _ in range(5):
                a = rng.uniform(0, 10, m)
                b = rng.uniform(0, 10, m)
                if np.any(a == b):
                    continue
                got = analysis.wilcoxon_signed_rank(list(a), list(b))
                assert got.exact
                assert got.p_value == pytest.approx(
                    exhaustive_signed_rank_p(a, b), abs=1e-12
                )

    def test_length_mismatch(self):
        with pytest.raises(EmptySampleError):
            analysis.wilcoxon_signed_rank([1.0, 2.0], [1.0])

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            analysis.wilcoxon_signed_rank([], [])

    def test_large_sample_normal_path(self):
        rng = np.random.default_rng(6)
        a = rng.normal(1.0, 1.0, 40)
        b = rng.normal(0.0, 1.0, 40)
        result = analysis.wilcoxon_signed_rank(list(a), list(b))
        assert not result.exact
        assert 0.0 <= result.p_value <= 1.0


class TestNormalPathPinned:
    """p-values past EXACT_LIMIT with tie blocks, pinned bit for bit to the
    values of the earlier per-test normal branches."""

    def test_rank_sum_with_ties(self):
        a = [5.0, 2.0, 1.0, 4.0, 5.0, 1.0, 2.0, 0.0, 5.0, 5.0, 4.0, 3.0, 3.0, 3.0, 4.0, 3.0]
        b = [4.0, 2.0, 2.0, 0.0, 4.0, 1.0, 3.0, 4.0, 4.0, 5.0, 4.0, 5.0, 4.0, 5.0]
        result = analysis.wilcoxon_rank_sum(a, b)
        assert not result.exact and result.statistic == 237.5
        assert result.p_value == 0.6547950447719395

    def test_rank_sum_all_tied_has_no_variance(self):
        result = analysis.wilcoxon_rank_sum([2.5] * 7, [2.5] * 6)
        assert not result.exact and result.statistic == 49.0
        assert result.p_value == 1.0

    @pytest.mark.parametrize("a, b, r_plus, r_minus, p", [
        ([2.0, 0.0, 3.0, 3.0, 0.0, 3.0, 3.0, 3.0, 1.0, 3.0,
          2.0, 0.0, 3.0, 3.0, 4.0, 3.0, 4.0, 0.0, 0.0, 4.0],
         [4.0, 0.0, 1.0, 1.0, 4.0, 2.0, 4.0, 3.0, 2.0, 2.0,
          0.0, 1.0, 4.0, 4.0, 2.0, 1.0, 3.0, 4.0, 4.0, 1.0],
         86.0, 85.0, 0.982368358136273),
        ([3.0, 2.0, 2.0, 3.0, 2.0, 3.0, 3.0, 0.0, 0.0, 1.0, 1.0, 3.0, 3.0,
          0.0, 1.0, 3.0, 0.0, 3.0, 0.0, 1.0, 3.0, 1.0, 1.0, 1.0, 2.0],
         [3.0, 0.0, 2.0, 3.0, 1.0, 2.0, 2.0, -1.0, -2.0, -1.0, -1.0, 2.0, 2.0,
          0.0, -1.0, 3.0, 1.0, 1.0, 1.0, -1.0, 2.0, 2.0, 2.0, 1.0, 3.0],
         157.5, 32.5, 0.009134016701606296),
    ])
    def test_signed_rank_with_ties_and_zeros(self, a, b, r_plus, r_minus, p):
        result = analysis.wilcoxon_signed_rank(a, b)
        assert not result.exact
        assert (result.r_plus, result.r_minus, result.p_value) == (r_plus, r_minus, p)


class TestMae:
    def test_exact_hit(self):
        assert analysis.mae([2.0], 2.0) == 0.0

    def test_average_absolute(self):
        assert analysis.mae([1.0, 2.0, 3.0], 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_symmetric_pair(self):
        for c in (0.1, 1.0, 7.5):
            assert analysis.mae([10.0 + c, 10.0 - c], 10.0) == pytest.approx(c, rel=1e-15)

    def test_nonnegative_and_zero_iff(self):
        assert analysis.mae([3.0, 3.0], 3.0) == 0.0
        assert analysis.mae([3.0, 3.1], 3.0) > 0.0

    def test_empty(self):
        with pytest.raises(EmptySampleError):
            analysis.mae([], 0.0)


class TestCompareReport:
    def _records(self, offsets):
        return {
            problem: [FakeRecord(base + off) for base in (1.0, 2.0, 3.0)]
            for problem, off in offsets.items()
        }

    def test_identical_sets_p_one(self):
        records = {
            "algo_a": self._records({"p1": 0.0, "p2": 0.0}),
            "algo_b": self._records({"p1": 0.0, "p2": 0.0}),
        }
        report = analysis.compare_report(records)
        pair = report.pairwise[0]
        assert pair.rank_sum.p_value == pytest.approx(1.0)
        assert pair.signed_rank.p_value == 1.0
        assert pair.best_wins == 0 and pair.worst_wins == 0

    def test_identical_means_on_thirteen_problems_write_the_same_row(self, tmp_path):
        # 13 shared problems: the rank-sum test takes its normal path, and the
        # all-zero signed-rank test its exact one
        offsets = {f"p{i:02d}": float(i) for i in range(13)}
        report = analysis.compare_report({"cscf": self._records(offsets),
                                          "ff": self._records(offsets)})
        signed = report.pairwise[0].signed_rank
        assert signed.exact and signed.p_value == 1.0
        path = tmp_path / "wilcoxon.csv"
        analysis.write_wilcoxon_csv(report, path)
        assert path.read_bytes() == (
            b"pair,best_wins,worst_wins,r_plus,r_minus,p_rank_sum,p_signed_rank,"
            b"significant_0.10,significant_0.05\r\n"
            b"cscf_vs_ff,0,0,0.0,0.0,1.0,1.0,False,False\r\n")

    def test_win_counts(self):
        records = {
            "a": self._records({"p1": 0.0, "p2": 0.0, "p3": 1.0}),
            "b": self._records({"p1": 0.5, "p2": 0.5, "p3": 0.0}),
        }
        report = analysis.compare_report(records)
        pair = report.pairwise[0]
        assert (pair.algo_a, pair.algo_b) == ("a", "b")
        assert pair.best_wins == 2 and pair.worst_wins == 1

    def test_single_algorithm_gives_summaries_and_no_pairs(self):
        report = analysis.compare_report({"only": self._records({"p1": 0.0, "p2": 1.0})})
        assert report.pairwise == []
        assert sorted(report.summaries["only"]) == ["p1", "p2"]
        assert report.summaries["only"]["p2"].mean == 3.0

    def test_summaries_and_walltime(self):
        records = {
            "a": {"p1": [FakeRecord(1.0), FakeRecord(3.0)]},
            "b": {"p1": [FakeRecord(2.0)]},
        }
        report = analysis.compare_report(records)
        assert report.summaries["a"]["p1"].mean == 2.0


class TestWriters:
    def test_summary_csv_and_jsonl(self, tmp_path):
        records = {
            "a": {"p1": [FakeRecord(1.0)]},
            "b": {"p1": [FakeRecord(2.0)]},
        }
        report = analysis.compare_report(records)
        csv_path = tmp_path / "summary.csv"
        analysis.write_summary_csv(report, csv_path)
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["problem"] == "p1"
        jsonl_path = tmp_path / "summary.jsonl"
        analysis.write_summary_jsonl(report, jsonl_path)
        parsed = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
        assert parsed[0]["mean"] == 1.0

    def test_wilcoxon_csv(self, tmp_path):
        records = {
            "a": {"p1": [FakeRecord(1.0)], "p2": [FakeRecord(2.0)]},
            "b": {"p1": [FakeRecord(3.0)], "p2": [FakeRecord(4.0)]},
        }
        report = analysis.compare_report(records)
        path = tmp_path / "wilcoxon.csv"
        analysis.write_wilcoxon_csv(report, path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["pair"] == "a_vs_b"
        assert rows[0]["best_wins"] == "2"

    def test_convergence_csv(self, tmp_path):
        class Rec:
            best_curve = [3.0, 2.0, 1.5]

        path = tmp_path / "curve.csv"
        analysis.write_convergence_csv(Rec(), path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "best_fitness"]
        assert rows[1] == ["0", "3.0"] and rows[3] == ["2", "1.5"]

    def test_walltime_csv(self, tmp_path):
        path = tmp_path / "walltime.csv"
        analysis.write_walltime_csv({"i": 1.5, "ii": 2.5}, path)
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["i", "ii"]
