"""Engineering problem tests: frozen probes, penalty handling, cost oracles."""

import functools
import math
import operator

import numpy as np
import pytest

from cscf import engineering as eng
from cscf.errors import DimensionMismatchError, NonFiniteResultError

# Probe points frozen from direct evaluation (see the evaluator docstrings
# for the formula provenance).
FEASIBLE = {
    "welded_beam": [0.3, 3.0, 9.0, 0.4],
    "pressure_vessel": [0.875, 0.4375, 45.0, 145.0],
    "spring": [0.35, 11.0, 0.05],
}
INFEASIBLE = {
    "welded_beam": [0.1, 0.1, 0.1, 0.1],
    "pressure_vessel": [0.0625, 0.0625, 200.0, 200.0],
    "spring": [1.3, 2.0, 2.0],
}


# Independent straight-line cost re-implementations (scalar math only).
def wb_cost(z):
    h, l, t, b = z
    return 1.10471 * h * h * l + 0.04811 * t * b * (14.0 + l)


def pv_cost(z):
    z1 = round(z[0] / 0.0625) * 0.0625
    z2 = round(z[1] / 0.0625) * 0.0625
    z3, z4 = z[2], z[3]
    return (0.6224 * z1 * z3 * z4 + 1.7781 * z2 * z3 * z3
            + 3.1611 * z1 * z1 * z4 + 19.84 * z1 * z1 * z3)


def spring_cost(z):
    dc, nc, d = z
    return (nc + 2.0) * dc * d * d


class TestCostExamples:
    def test_welded_beam_unit_point(self):
        cost, g = eng.welded_beam([1.0, 1.0, 1.0, 1.0])
        assert cost == pytest.approx(1.82636, rel=1e-12)
        assert len(g) == 7

    def test_welded_beam_reported_best_is_metadata_only(self):
        # The published best design: evaluate and report, never assert equal.
        cost, g = eng.welded_beam([0.197, 8.035, 3.209, 2.210])
        assert math.isfinite(cost)
        assert np.all(np.isfinite(g))
        assert eng.engineering_problem("welded_beam").reference_best == 1.704

    def test_pressure_vessel_unit_point(self):
        cost, g = eng.pressure_vessel([1.0, 1.0, 1.0, 1.0])
        assert cost == pytest.approx(25.4016, rel=1e-12)
        assert len(g) == 4

    def test_pressure_vessel_g1_example(self):
        _, g = eng.pressure_vessel([1.0, 1.0, 10.0, 10.0])
        assert g[0] == pytest.approx(-1.0 + 0.0193 * 10.0, rel=1e-12)

    def test_spring_examples(self):
        cost, g = eng.spring([1.0, 1.0, 1.0])
        assert cost == 3.0
        _, g = eng.spring([1.0, 5.0, 0.5])
        assert g[3] == pytest.approx((0.5 + 1.0) / 1.5 - 1.0, abs=1e-15)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            eng.welded_beam([1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            eng.spring([1.0, 1.0, 1.0, 1.0])


class TestProbes:
    @pytest.mark.parametrize("name", eng.ENGINEERING_NAMES)
    def test_known_feasible_probe(self, name):
        problem = eng.engineering_problem(name)
        _, g = problem.evaluate(np.array(FEASIBLE[name]))
        assert all(v <= 0.0 for v in g), g

    @pytest.mark.parametrize("name", eng.ENGINEERING_NAMES)
    def test_known_infeasible_probe(self, name):
        problem = eng.engineering_problem(name)
        _, g = problem.evaluate(np.array(INFEASIBLE[name]))
        assert any(v > 0.0 for v in g), g

    @pytest.mark.parametrize("name,n", [("welded_beam", 7), ("pressure_vessel", 4),
                                        ("spring", 4)])
    def test_constraint_counts(self, name, n):
        problem = eng.engineering_problem(name)
        assert problem.n_constraints == n
        points = np.random.default_rng(3).uniform(problem.lower, problem.upper,
                                                   (200, problem.dim))
        for z in [np.array(FEASIBLE[name]), *points]:
            _, g = problem.evaluate(z)
            assert type(g) is list and len(g) == n
            assert all(type(v) is float for v in g)

    def test_bounds(self):
        wb = eng.engineering_problem("welded_beam")
        np.testing.assert_array_equal(wb.lower, [0.1, 0.1, 0.1, 0.1])
        np.testing.assert_array_equal(wb.upper, [2.0, 10.0, 10.0, 2.0])
        pv = eng.engineering_problem("pressure_vessel")
        np.testing.assert_array_equal(pv.lower, [0.0625, 0.0625, 10.0, 10.0])
        np.testing.assert_array_equal(pv.upper, [6.1875, 6.1875, 200.0, 200.0])
        sp = eng.engineering_problem("spring")
        np.testing.assert_array_equal(sp.lower, [0.25, 2.0, 0.05])
        np.testing.assert_array_equal(sp.upper, [1.3, 15.0, 2.0])

    def test_unknown_problem(self):
        with pytest.raises(KeyError):
            eng.engineering_problem("gearbox")


class TestSnapping:
    # the pressure vessel's repair, the design it evaluates, snaps both thicknesses
    def test_snap_idempotent(self):
        pv = eng.engineering_problem("pressure_vessel")
        rng = np.random.default_rng(0)
        for z in rng.uniform(pv.lower, pv.upper, (1000, 4)):
            once = pv.repair(z)
            np.testing.assert_array_equal(once[2:], z[2:])
            steps = once[:2] / 0.0625
            assert np.all(steps == np.round(steps)) and np.all(abs(once[:2] - z[:2]) <= 0.03125)
            np.testing.assert_array_equal(pv.repair(once), once)

    def test_multiples_are_fixed_points(self):
        repair = eng.engineering_problem("pressure_vessel").repair
        multiples = np.arange(1, 100) * 0.0625
        for shell, head in zip(multiples, multiples[::-1]):
            z = np.array([shell, head, 45.0, 145.0])
            np.testing.assert_array_equal(repair(z), z)

    def test_snap_applied_before_evaluation(self):
        near = [0.874, 0.436, 45.0, 145.0]   # snaps to 0.875 / 0.4375
        exact = [0.875, 0.4375, 45.0, 145.0]
        assert eng.pressure_vessel(near)[0] == eng.pressure_vessel(exact)[0]
        repaired = eng.engineering_problem("pressure_vessel").repair(np.array(near))
        np.testing.assert_array_equal(repaired, exact)

    def test_repair_passes_inf_and_nan_on(self):
        repair = eng.engineering_problem("pressure_vessel").repair
        out = repair(np.array([math.inf, math.nan, 45.0, 145.0]))
        assert out[0] == math.inf and math.isnan(out[1])
        assert repair(np.array([math.nan, -math.inf, 45.0, 145.0]))[1] == -math.inf

    def test_repair_is_the_formulas_snap(self):
        pv = eng.engineering_problem("pressure_vessel")
        rng = np.random.default_rng(18)
        values = np.concatenate([
            rng.uniform(-10.0, 10.0, 200),
            (rng.integers(-40, 40, 50) + 0.5) * 0.0625,  # half-steps go to the even multiple
            rng.choice([-1.0, 1.0], 20) * 2.0 ** rng.uniform(48.0, 60.0, 20),
            [2.0**48, -(2.0**48)],
        ])
        snapped = np.where(abs(values) < 2.0**48, np.round(values / 0.0625) * 0.0625, values)
        for v, want in zip(values.tolist(), snapped.tolist()):
            z = np.array([v, 0.4375, 45.0, 145.0])
            repaired = pv.repair(z)
            assert repaired[0] == want and repaired.tolist()[1:] == z.tolist()[1:]
            assert pv.evaluate(z) == pv.evaluate(repaired)  # the formula snaps the same
            assert pv.evaluate(z[[1, 0, 2, 3]]) == pv.evaluate(repaired[[1, 0, 2, 3]])


class TestPenalty:
    def test_static_no_violation_returns_cost(self):
        p = eng.PenaltyParams(mode="static-penalty", weight=10.0)
        assert eng.penalized_fitness(3.5, np.array([-1.0, 0.0]), p) == 3.5

    def test_static_example(self):
        p = eng.PenaltyParams(mode="static-penalty", weight=10.0)
        assert eng.penalized_fitness(1.0, np.array([1.0, 0.0]), p) == 11.0

    def test_static_monotone_in_violation(self):
        p = eng.PenaltyParams(mode="static-penalty", weight=10.0)
        values = [eng.penalized_fitness(1.0, np.array([v]), p) for v in (0.1, 0.2, 0.5, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_feasibility_rules_ordering(self):
        p = eng.PenaltyParams(mode="feasibility-rules")
        feasible_costly = eng.penalized_fitness(5.0, np.array([-1.0]), p)
        infeasible_cheap = eng.penalized_fitness(1.0, np.array([0.5]), p)
        assert feasible_costly < infeasible_cheap
        worse_violation = eng.penalized_fitness(1.0, np.array([0.9]), p)
        assert infeasible_cheap < worse_violation
        cheaper_feasible = eng.penalized_fitness(4.0, np.array([-2.0]), p)
        assert cheaper_feasible < feasible_costly

    def test_feasibility_no_violation_keeps_cost(self):
        p = eng.PenaltyParams()
        key = eng.penalized_fitness(2.5, np.array([-0.1, -0.2]), p)
        assert key == (0.0, 0.0, 2.5)

    @pytest.mark.parametrize("mode", eng.PENALTY_MODES)
    @pytest.mark.parametrize("g", [[1.0, math.nan, 2.0], [-1.0, math.nan], [math.nan] * 9])
    def test_nan_constraint_raises(self, mode, g):
        # a NaN violation is neither feasible nor comparable, in either mode
        with pytest.raises(NonFiniteResultError):
            eng.penalized_fitness(1.0, np.array(g), eng.PenaltyParams(mode=mode))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            eng.PenaltyParams(mode="adaptive")
        with pytest.raises(ValueError):
            eng.PenaltyParams(mode="static-penalty", weight=0.0)
        with pytest.raises(ValueError):
            eng.PenaltyParams(mode="static-penalty", weight=math.nan)

    def test_total_violation(self):
        assert eng.total_violation(np.array([-1.0, 0.5, 2.0])) == 2.5
        assert eng.total_violation(np.array([-1.0, -0.5])) == 0.0

    @pytest.mark.parametrize("length", range(1, 13))
    def test_total_violation_equals_numpy_sum(self, length):
        # Up to 7 values numpy sums in order, so both loops give its bits; every
        # design has at most 7 constraints.  Longer vectors are summed left to
        # right, where numpy's pairwise sum would reorder.
        rng = np.random.default_rng(length)
        static = eng.PenaltyParams(mode="static-penalty", weight=1e6)
        for _ in range(2000):
            g = rng.normal(0.0, 1.0, length) * 10.0 ** rng.integers(-8, 9, length)
            cost = float(rng.normal())
            positive = np.maximum(0, g)
            if length <= 7:
                violation = float(positive.sum())
                penalized = cost + static.weight * float((positive**2).sum())
            else:
                violation = functools.reduce(operator.add, positive.tolist(), 0.0)
                penalized = cost + static.weight * functools.reduce(
                    operator.add, (positive**2).tolist(), 0.0)
            for values in (g, g.tolist()):
                got = eng.total_violation(values)
                assert type(got) is float and got == violation
                got = eng.penalized_fitness(cost, values, static)
                assert type(got) is float and got == penalized

    def test_numpy_scalar_fallback_sums_to_floats(self):
        # a zero weld height divides by zero, so the formula runs on numpy scalars
        cost, g = eng.welded_beam([0.0, 1.0, 1.0, 1.0])
        assert any(type(v) is not float for v in g)
        static = eng.PenaltyParams(mode="static-penalty")
        assert type(eng.total_violation(g)) is float
        assert type(eng.penalized_fitness(cost, g, static)) is float
        assert type(eng.penalized_fitness(cost, g, eng.PenaltyParams())[1]) is float

    @pytest.mark.parametrize("length", [3, 7, 8, 12])
    def test_total_violation_keeps_nan(self, length):
        for at in range(length):
            g = np.arange(1.0, length + 1.0)
            g[at] = math.nan
            assert math.isnan(eng.total_violation(g))
            g[:] = -1.0
            g[at] = math.nan
            assert math.isnan(eng.total_violation(g))


class TestCostConformance:
    """Each objective matches a separately coded straight-line arithmetic."""

    @pytest.mark.parametrize(
        "name,oracle",
        [("welded_beam", wb_cost), ("pressure_vessel", pv_cost), ("spring", spring_cost)],
    )
    def test_cost_matches_oracle(self, name, oracle):
        problem = eng.engineering_problem(name)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            z = rng.uniform(problem.lower, problem.upper)
            cost, _ = problem.evaluate(z)
            assert cost == pytest.approx(oracle(z), rel=1e-12)

    def test_singular_spring_surface_yields_infinite_violation(self):
        # dc == d*d puts the deflection denominator at zero; the design is
        # simply infinitely infeasible, not an error.
        cost, g = eng.spring([1.0, 5.0, 1.0])
        assert math.isfinite(cost)
        assert np.isinf(g[1])
        key = eng.penalized_fitness(cost, g, eng.PenaltyParams())
        assert key[0] == 1.0 and key[1] == np.inf


class TestDegenerateInput:
    """Outside the box the evaluators keep numpy's handling of zero divisors,
    overflow and non-finite input."""

    def test_zero_divisor_is_an_infinite_violation(self):
        with np.errstate(all="ignore"):
            cost, g = eng.welded_beam([0.0, 1.0, 1.0, 1.0])
            assert cost == pytest.approx(0.72165) and g[0] == np.inf
            cost, g = eng.welded_beam([1.0, 1.0, 0.0, 1.0])
            assert g[1] == g[5] == np.inf

    def test_spring_zero_divisor_is_an_infinite_violation(self):
        # dc == d*d at a point on the box's lower coil-diameter face
        cost, g = eng.spring([0.25, 5.0, 0.5])
        assert math.isfinite(cost) and g[1] == np.inf

    def test_overflowing_volume_term_is_satisfied(self):
        with np.errstate(all="ignore"):
            cost, g = eng.pressure_vessel([1.0, 1.0, 1e150, 50.0])
        assert math.isfinite(cost) and g[2] == -np.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_raises(self, bad):
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteResultError):
                eng.welded_beam([bad, 1.0, 1.0, 1.0])
            with pytest.raises(NonFiniteResultError):
                eng.pressure_vessel([bad, 1.0, 50.0, 50.0])
            with pytest.raises(NonFiniteResultError):
                eng.pressure_vessel([1.0, bad, 50.0, 50.0])
            with pytest.raises(NonFiniteResultError):
                eng.spring([bad, 5.0, 0.5])
