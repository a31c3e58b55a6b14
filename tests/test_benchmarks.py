"""Benchmark suite tests: known minima, shapes, repairs, reproducible noise."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cscf import benchmarks
from cscf.errors import ConfigError, DimensionMismatchError, NonFiniteResultError
from spec_objectives import OBJECTIVES

NAMES = [p.name for p in benchmarks.suite()]
# the rows whose value is a sum of one term per coordinate, whatever their order
SYMMETRIC_SUMS = ("sphere", "rastrigin", "ackley", "floor_step", "log_sines", "quintic", "step",
                  "schwefel")


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
        assert [benchmarks.resolve_problem_name(p.name) for p in s] == list(range(1, 21))

    def test_fixed_dimensions(self):
        dims = {p.name: p.dim for p in benchmarks.suite()}
        assert dims["camel"] == 2
        assert dims["goldstein_price"] == 2
        assert dims["shekel"] == 4
        assert dims["unit_griewank"] == 6

    def test_scalable_dim_override(self):
        assert benchmarks.benchmark_problem("sphere", dim=50).dim == 50
        assert benchmarks.benchmark_problem("camel", dim=50).dim == 2
        assert type(benchmarks.benchmark_problem("sphere", dim=np.int64(3)).dim) is int
        for name in ("sphere", "camel"):
            for dim in (0, True, 2.5):
                with pytest.raises(ConfigError):
                    benchmarks.benchmark_problem(name, dim=dim)

    def test_aliases_and_ids(self):
        assert benchmarks.resolve_problem_name("fn6") == 6
        assert benchmarks.resolve_problem_name("sphere") == 6
        assert benchmarks.resolve_problem_name("Rastrigin") == 10
        assert benchmarks.resolve_problem_name(" FN6 ") == 6
        for name in ("fn0", "fn21", "fn06", "fn 6", "fn+6", "fn\uff16", "nope"):
            with pytest.raises(KeyError):
                benchmarks.resolve_problem_name(name)
        for name in ("fn0", "fn21"):
            with pytest.raises(KeyError):
                benchmarks.benchmark_problem(name)

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
            # the sum is correctly rounded, so neither reordering nor a sign flip moves it
            assert problem.evaluate(x) == problem.evaluate(permuted)
            assert problem.evaluate(x) == problem.evaluate(-x)

    def test_out_of_bounds_flagged_but_evaluated(self):
        problem = benchmarks.benchmark_problem("sphere")
        x = np.full(20, 150.0)
        assert (x > problem.upper).all()
        assert problem.evaluate(x) == pytest.approx(20 * 150.0**2)

    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize("edge", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", NAMES)
    def test_non_finite_raises(self, name, edge, at):
        """A NaN coordinate raises NonFiniteResultError, and so does an infinite
        one unless the value stays finite: never another exception."""
        problem = benchmarks.benchmark_problem(name, dim=5)
        x = ((problem.lower + problem.upper) / 2.0).tolist()
        x[at] = edge
        for given in (x, np.array(x)):
            try:
                value = problem.evaluate(given)
            except NonFiniteResultError:
                continue
            assert not math.isnan(edge) and math.isfinite(value), (name, value)

    def test_log_sines_undefined_out_of_bounds(self):
        problem = benchmarks.benchmark_problem("log_sines")
        for edge in (0.0, -1.0):  # log of a nonpositive coordinate
            x = [2.0] * 20
            x[3] = edge
            with pytest.raises(NonFiniteResultError):
                problem.evaluate(x)

    def test_overflow_is_a_non_finite_value(self):
        """Finite squares whose sum leaves the float range (an ``OverflowError``
        inside ``math.fsum``) are worded as a non-finite value, not as undefined."""
        problem = benchmarks.benchmark_problem("sphere", dim=2)
        with pytest.raises(NonFiniteResultError, match="sphere has no finite value"):
            problem.evaluate([1.3e154, 1.3e154])
        with pytest.raises(NonFiniteResultError, match="sphere evaluated to inf"):
            problem.evaluate([1e200, 1.0])  # an infinite square, caught after the sum

    def test_dimension_mismatch(self):
        for x in (np.zeros(3), [0.0] * 3, np.zeros((20, 1))):
            with pytest.raises(DimensionMismatchError):
                benchmarks.benchmark_problem("sphere").evaluate(x)

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

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_quartic_noise_reseed_is_fresh_stream(self, seed):
        problem = benchmarks.benchmark_problem("quartic_noise")
        x = np.zeros(problem.dim)  # the core is 0, so each value is the noise draw
        [problem.evaluate(x) for _ in range(3)]  # the stream runs ahead before the reseed
        problem.reseed_noise(seed)
        drawn = [problem.evaluate(x) for _ in range(5)]
        assert drawn == np.random.default_rng(seed).random(5).tolist()

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
        # u(x, a, 100, 4) = 100 * max(|x| - a, 0)**4 per coordinate
        for name, a in (("penalized1", 10.0), ("penalized2", 5.0)):
            problem = benchmarks.benchmark_problem(name)
            base = np.full(problem.dim, -1.0)
            for edge in (20.0, -20.0):  # beyond the |x| <= a plateau, on either side
                x = base.copy()
                x[0] = edge
                penalty = benchmarks._u_penalty(x, a, 100.0)
                assert penalty == 100.0 * (20.0 - a) ** 4
                assert problem.evaluate(x) - problem.evaluate(base) > penalty * 0.99
            for edge in (a, -a):  # the plateau's edge adds nothing
                assert benchmarks._u_penalty(np.full(problem.dim, edge), a, 100.0) == 0.0

    def test_coordinate_max_inline(self):
        problem = benchmarks.benchmark_problem("coordinate_max")
        x = np.linspace(-500.0, 400.0, problem.dim)
        assert problem.evaluate(x) == 400.0
        assert problem.f_reference == -600.0


class TestSpecObjectives:
    """Each formula on floats gives its numpy array form's bits, at dimensions
    beyond the golden ones, and every sum is correctly rounded."""

    @pytest.mark.parametrize("name, dim", [
        (name, dim) for name in NAMES
        for dim in sorted({benchmarks.benchmark_problem(name, dim=d).dim
                           for d in (1, 3, 8, 9, 30, 129)})])
    def test_equals_array_form(self, name, dim):
        problem = benchmarks.benchmark_problem(name, dim=dim)
        noise = np.random.default_rng(dim)
        if problem.reseed_noise is not None:
            problem.reseed_noise(dim)
        points = np.random.default_rng(dim).uniform(problem.lower, problem.upper, (50, problem.dim))
        for x in points:
            want = OBJECTIVES[name](x)
            if problem.reseed_noise is not None:
                want = want + float(noise.random())
            assert _bits(problem.evaluate(x.tolist())) == _bits(want), (name, x.tolist())

    @pytest.mark.parametrize("dim", [1, 3, 8, 9, 20, 129])
    def test_sums_are_correctly_rounded(self, dim):
        """Every sum is one rounding of the exact sum of its terms: a symmetric
        objective gives the same bits for any order of the coordinates, and
        sphere gives its exact rational sum rounded once."""
        rng = np.random.default_rng(dim)
        for name in SYMMETRIC_SUMS:
            problem = benchmarks.benchmark_problem(name, dim=dim)
            for x in rng.uniform(problem.lower, problem.upper, (20, dim)).tolist():
                want = _bits(problem.evaluate(x))
                for _ in range(5):
                    permuted = rng.permutation(x).tolist()
                    assert _bits(problem.evaluate(permuted)) == want, (name, x, permuted)
                if name == "sphere":
                    assert _bits(float(sum(map(Fraction, [v * v for v in x])))) == want, x


def _bits(value):
    return np.float64(value).tobytes()
