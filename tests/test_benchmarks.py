"""Benchmark suite tests: known minima, shapes, repairs, reproducible noise."""

import math

import numpy as np
import pytest

from cscf import benchmarks
from cscf.errors import DimensionMismatchError, NonFiniteResultError


class TestKnownMinima:
    @pytest.mark.parametrize("name", ["ackley", "griewank", "sphere",
                                      "schwefel_double_sum", "rastrigin"])
    def test_zero_at_origin(self, name):
        problem = benchmarks.benchmark_problem(name)
        assert abs(problem.evaluate(np.zeros(problem.dim))) <= 1e-10

    def test_sphere_three_four(self):
        problem = benchmarks.benchmark_problem("sphere")
        x = np.zeros(20)
        x[:2] = (3.0, 4.0)
        assert problem.evaluate(x) == 25.0

    def test_rosenbrock_at_ones(self):
        problem = benchmarks.benchmark_problem("rosenbrock")
        assert problem.evaluate(np.ones(problem.dim)) == 0.0

    def test_goldstein_price_optimum(self):
        problem = benchmarks.benchmark_problem("goldstein_price")
        assert problem.evaluate(np.array([0.0, -1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_penalized_optima(self):
        p19 = benchmarks.benchmark_problem("penalized1")
        assert p19.evaluate(np.full(p19.dim, -1.0)) == pytest.approx(0.0, abs=1e-12)
        p20 = benchmarks.benchmark_problem("penalized2")
        assert p20.evaluate(np.ones(p20.dim)) == pytest.approx(0.0, abs=1e-12)

    def test_step_zero_near_origin(self):
        problem = benchmarks.benchmark_problem("step")
        assert problem.evaluate(np.full(20, 0.4)) == 0.0

    def test_floor_step_reference(self):
        problem = benchmarks.benchmark_problem("floor_step")
        assert problem.evaluate(np.full(20, -5.12)) == problem.f_reference == -90.0

    def test_shekel_well_depth(self):
        problem = benchmarks.benchmark_problem("shekel")
        assert problem.evaluate(np.full(4, 4.0)) == pytest.approx(-10.5364, abs=1e-3)

    def test_unit_griewank_zero_at_origin(self):
        problem = benchmarks.benchmark_problem("unit_griewank")
        assert problem.evaluate(np.zeros(6)) == 0.0


class TestSuiteShape:
    def test_twenty_problems_in_order(self):
        s = benchmarks.suite()
        assert len(s) == 20
        assert s[0].name == "ackley"
        assert s[0].lower[0] == -30.0 and s[0].upper[0] == 30.0
        assert s[1].name == "griewank"
        assert s[1].lower[0] == -600.0 and s[1].upper[0] == 600.0
        assert [p.index for p in s] == list(range(1, 21))

    def test_fixed_dimensions(self):
        dims = {p.name: p.dim for p in benchmarks.suite()}
        assert dims["camel"] == 2
        assert dims["goldstein_price"] == 2
        assert dims["shekel"] == 4
        assert dims["unit_griewank"] == 6

    def test_scalable_dim_override(self):
        assert benchmarks.benchmark_problem("sphere", dim=50).dim == 50
        assert benchmarks.benchmark_problem("camel", dim=50).dim == 2

    def test_aliases_and_ids(self):
        assert benchmarks.resolve_problem_name("fn6") == 6
        assert benchmarks.resolve_problem_name("sphere") == 6
        assert benchmarks.resolve_problem_name("Rastrigin") == 10
        with pytest.raises(KeyError):
            benchmarks.resolve_problem_name("fn21")
        with pytest.raises(KeyError):
            benchmarks.resolve_problem_name("nope")

    def test_paper_reported_metadata_kept_but_not_asserted(self):
        """The circulated optima (step -3.214, rosenbrock -209, ...) live in the
        README's transcription notes; the program holds only ``f_reference``."""
        s = {p.name: p for p in benchmarks.suite()}
        assert s["step"].f_reference == 0.0
        assert s["rosenbrock"].f_reference == 0.0
        assert s["camel"].f_reference is None


class TestEvaluation:
    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(0)
        for problem in benchmarks.suite():
            if problem.reseed_noise is not None:
                continue
            x = rng.uniform(problem.lower, problem.upper)
            assert problem.evaluate(x) == problem.evaluate(x), problem.name

    def test_sphere_symmetry(self):
        problem = benchmarks.benchmark_problem("sphere")
        rng = np.random.default_rng(1)
        for i in range(50):
            x = rng.uniform(problem.lower, problem.upper)
            permuted = np.random.default_rng(i).permutation(x)
            # permutation reorders the float sum; sign flip does not
            assert problem.evaluate(x) == pytest.approx(problem.evaluate(permuted), rel=1e-12)
            assert problem.evaluate(x) == problem.evaluate(-x)

    def test_out_of_bounds_flagged_but_evaluated(self):
        problem = benchmarks.benchmark_problem("sphere")
        x = np.full(20, 150.0)
        assert (x > problem.upper).all()
        assert problem.evaluate(x) == pytest.approx(20 * 150.0**2)

    def test_non_finite_raises(self):
        problem = benchmarks.benchmark_problem("log_sines")
        with pytest.raises(NonFiniteResultError):
            problem.evaluate(np.zeros(20))  # log(0) -> nan, out of bounds but total

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            benchmarks.benchmark_problem("sphere").evaluate(np.zeros(3))

    def test_quartic_noise_reproducible(self):
        problem = benchmarks.benchmark_problem("quartic_noise")
        problem.reseed_noise(42)
        x = np.full(problem.dim, 0.5)
        first = [problem.evaluate(x) for _ in range(5)]
        problem.reseed_noise(42)
        second = [problem.evaluate(x) for _ in range(5)]
        assert first == second
        problem.reseed_noise(43)
        assert [problem.evaluate(x) for _ in range(5)] != first

    def test_quartic_noise_bounded_above_core(self):
        problem = benchmarks.benchmark_problem("quartic_noise")
        x = np.full(problem.dim, 0.5)
        k = np.arange(1, problem.dim + 1)
        core = float(np.sum(k * 0.5**4))
        value = problem.evaluate(x)
        assert core <= value < core + 1.0


class TestOracleSpotChecks:
    """Independent straight-line evaluations frozen against the suite."""

    def test_ackley_inline(self):
        problem = benchmarks.benchmark_problem("ackley")
        x = np.linspace(-2.0, 2.0, problem.dim)
        expected = (
            -20.0 * math.exp(-0.2 * math.sqrt(sum(v * v for v in x) / 20))
            - math.exp(sum(math.cos(2 * math.pi * v) for v in x) / 20)
            + 20.0
            + math.e
        )
        assert problem.evaluate(x) == pytest.approx(expected, rel=1e-12)

    def test_griewank_inline(self):
        problem = benchmarks.benchmark_problem("griewank")
        x = np.linspace(-100.0, 100.0, problem.dim)
        prod = 1.0
        for k, v in enumerate(x, start=1):
            prod *= math.cos(v / math.sqrt(k))
        expected = sum(v * v for v in x) / 4000.0 - prod + 1.0
        assert problem.evaluate(x) == pytest.approx(expected, rel=1e-12)

    def test_quintic_inline(self):
        problem = benchmarks.benchmark_problem("quintic")
        assert problem.evaluate(np.ones(20)) == pytest.approx(-200.0, rel=1e-12)

    def test_camel_literal_negative_quartic_tail(self):
        problem = benchmarks.benchmark_problem("camel")
        # 4 - 2.1 + 1/3 + 1 - 4 - 4
        assert problem.evaluate(np.array([1.0, 1.0])) == pytest.approx(
            4.0 - 2.1 + 1.0 / 3.0 + 1.0 - 4.0 - 4.0, rel=1e-12
        )

    def test_schwefel_small_inline(self):
        problem = benchmarks.benchmark_problem("schwefel_small")
        x = np.array([-2.0, 3.0] + [0.0] * 18)
        expected = -(-2.0) * math.sin(math.sqrt(2.0)) + -(3.0) * math.sin(math.sqrt(3.0))
        assert problem.evaluate(x) == pytest.approx(expected, rel=1e-12)

    def test_u_penalty_branches(self):
        problem = benchmarks.benchmark_problem("penalized1")
        x = np.full(problem.dim, -1.0)
        x[0] = 20.0  # beyond the |x| <= 10 plateau
        base = problem.evaluate(np.full(problem.dim, -1.0))
        with_penalty = problem.evaluate(x)
        assert with_penalty - base > 100.0 * (20.0 - 10.0) ** 4 * 0.99

    def test_coordinate_max_inline(self):
        problem = benchmarks.benchmark_problem("coordinate_max")
        x = np.linspace(-500.0, 400.0, problem.dim)
        assert problem.evaluate(x) == 400.0
        assert problem.f_reference == -600.0
