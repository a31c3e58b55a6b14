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


def wb_reference(z):
    """The welded-beam formula with every term written in line and no constant
    or shared term computed ahead: ``welded_beam`` must give its bits."""
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    h, l, t, b = z
    cost = 1.10471 * h * h * l + 0.04811 * t * b * (14.0 + l)
    tau_p = P / (math.sqrt(2.0) * h * l)
    moment = P * (L + l / 2.0)
    radius = math.sqrt(l * l / 4.0 + ((h + t) / 2.0) ** 2)
    polar = 2.0 * (math.sqrt(2.0) * h * l * (l * l / 12.0 + ((h + t) / 2.0) ** 2))
    tau_pp = moment * radius / polar
    tau = math.sqrt(tau_p**2 + 2.0 * tau_p * tau_pp * l / (2.0 * radius) + tau_pp**2)
    sigma = 6.0 * P * L / (b * t * t)
    delta = 4.0 * P * L**3 / (E * t**3 * b)
    p_buckle = (4.013 * E * math.sqrt(t * t * b**6 / 36.0) / L**2) * (
        1.0 - t / (2.0 * L) * math.sqrt(E / (4.0 * G))
    )
    g = [tau - 13600.0, sigma - 30000.0, h - b,
         1.10471 * h * h + 0.04811 * t * b * (14.0 + l) - 5.0, 0.125 - h,
         delta - 0.25, P - p_buckle]
    return cost, g


def static_reference(cost, g, weight):
    """The static penalty as a plain loop of squares."""
    term = 0.0
    for v in g:
        if not v <= 0.0:
            term += v * v
    return float(cost) + weight * float(term)


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

    @pytest.mark.parametrize("shape", ["short", "long", "column"])
    @pytest.mark.parametrize("name", eng.ENGINEERING_NAMES)
    def test_dimension_checks_every_design(self, name, shape):
        """Every design refuses a list of the wrong length and an ``(n, 1)`` array."""
        problem = eng.engineering_problem(name)
        n = problem.dim
        x = {"short": [1.0] * (n - 1), "long": [1.0] * (n + 1),
             "column": np.ones((n, 1))}[shape]
        with pytest.raises(DimensionMismatchError, match=f"{name} takes {n} variables"):
            problem.evaluate(x)


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
            once = np.array(pv.repair(z))
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

    def test_repair_gives_python_floats(self):
        repair = eng.engineering_problem("pressure_vessel").repair
        z = [0.874, 0.436, 45.0, 145.0]
        for given in (z, np.array(z), tuple(np.array(z))):  # floats, an array, numpy scalars
            out = repair(given)
            assert type(out) is list and all(type(v) is float for v in out)
            assert out == [0.875, 0.4375, 45.0, 145.0] and out is not given

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
            repaired = np.array(pv.repair(z))
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
        # and hands on their values as Python floats
        cost, g = eng.welded_beam([0.0, 1.0, 1.0, 1.0])
        assert type(cost) is float and all(type(v) is float for v in g)
        assert g[0] == math.inf
        static = eng.PenaltyParams(mode="static-penalty")
        assert type(eng.total_violation(g)) is float
        assert type(eng.penalized_fitness(cost, g, static)) is float
        assert type(eng.penalized_fitness(cost, g, eng.PenaltyParams())[1]) is float

    def test_numpy_fallback_ignores_overflow(self):
        # b**6 overflows a Python float pow; on numpy scalars each product gives
        # its finite value or inf without a warning, and the penalty inf
        cost, g = eng.welded_beam([1e100] * 4)
        assert type(cost) is float and math.isfinite(cost)
        assert len(g) == 7 and all(type(v) is float for v in g)
        assert eng.penalized_fitness(cost, g, eng.PenaltyParams(mode="static-penalty")) \
            == math.inf

    def test_numpy_fallback_at_a_zero_divisor(self):
        # dc * d * d == d**4 when dc == d * d: the deflection term divides by zero
        cost, g = eng.spring([0.25, 2.0, 0.5])
        assert type(cost) is float and all(type(v) is float for v in g)
        assert g[1] == math.inf

    @pytest.mark.parametrize("length", [3, 7, 8, 12])
    def test_total_violation_keeps_nan(self, length):
        for at in range(length):
            g = np.arange(1.0, length + 1.0)
            g[at] = math.nan
            assert math.isnan(eng.total_violation(g))
            g[:] = -1.0
            g[at] = math.nan
            assert math.isnan(eng.total_violation(g))


class TestBitForBit:
    """The evaluators and the penalty give their reference forms' bits."""

    def test_welded_beam_equals_its_reference(self):
        problem = eng.engineering_problem("welded_beam")
        rng = np.random.default_rng(31)
        points = rng.uniform(problem.lower, problem.upper, (2000, 4)).tolist()
        for z in points + [problem.lower.tolist(), problem.upper.tolist()]:
            cost, g = eng.welded_beam(z)
            want_cost, want_g = wb_reference(z)
            assert len(g) == 7
            assert [x.hex() for x in [cost, *g]] == [x.hex() for x in [want_cost, *want_g]]

    def test_penalty_equals_its_reference_loops(self):
        rng = np.random.default_rng(32)
        special = np.array([-0.0, 0.0, math.inf, -math.inf])
        rules, static = eng.PenaltyParams(), eng.PenaltyParams(mode="static-penalty")
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            g = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
            g = np.where(rng.random(n) < 0.3, rng.choice(special, n), g)
            cost = float(rng.normal())
            for values in (g.tolist(), g):
                key = eng.penalized_fitness(cost, values, rules)
                violation = eng.total_violation(values)
                assert type(key[1]) is float and key[1].hex() == violation.hex()
                assert key == ((0.0, 0.0, cost) if violation == 0.0 else (1.0, violation, cost))
                got = eng.penalized_fitness(cost, values, static)
                assert type(got) is float
                assert got.hex() == static_reference(cost, values, static.weight).hex()
            for mode in (rules, static):
                with pytest.raises(NonFiniteResultError):
                    eng.penalized_fitness(cost, np.append(g, math.nan), mode)


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

    @pytest.mark.parametrize("g", [[math.inf, -math.inf], [-math.inf, math.inf, 1.0]])
    def test_opposite_infinities_pass(self, g):
        """``sum(g)`` is NaN here though no value is: the evaluator scans ``g``
        and returns the formula's own list."""
        evaluate = eng._design("stub", 2, lambda z: (1.0, g))
        cost, out = evaluate([1.0, 2.0])
        assert cost == 1.0 and out is g

    @pytest.mark.parametrize("cost, g", [
        (1.0, [1.0, math.nan]),
        (1.0, [math.nan, -math.inf]),
        (1.0, [math.inf, math.nan]),
        (math.inf, [0.0, 0.0]),
        (math.nan, [0.0, 0.0]),
    ])
    def test_nan_constraint_or_non_finite_cost_raises(self, cost, g):
        evaluate = eng._design("stub", 2, lambda z: (cost, g))
        with pytest.raises(NonFiniteResultError, match="stub"):
            evaluate([1.0, 2.0])
