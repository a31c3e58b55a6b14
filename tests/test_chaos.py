"""Chaotic generator tests: conformance, determinism, range, non-degeneracy."""

import math

import numpy as np
import pytest

from cscf import chaos
from cscf.errors import DivergedOrbitError, FixedPointSeedError, SeedOutOfRangeError


# Maps whose step is a literal transcription of the source table (the other
# five carry the transcription notes of cscf.chaos).
LITERAL_MAP_NAMES = ("logistic", "sine", "gauss", "circle", "sinusoidal", "singer", "iterative")


# Straight-line re-evaluation of the literal table formulas at the table's
# parameters, independent of the implementation in cscf.chaos.
def oracle_step(name, z):
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


# The attractor interval each map's raw iterates are rescaled from, and the
# interval its seeds are drawn from.
RAW_INTERVAL = {name: (-1.0, 1.0) for name in ("iterative", "chebyshev")}
RAW_INTERVAL["henon"] = (-1.5, 1.5)
SEED_INTERVAL = {name: (-1.0, 1.0) for name in ("iterative", "chebyshev", "henon")}


class TestConstruction:
    def test_constructor_echoes_seed(self):
        state = chaos.new_map("logistic", 0.7)
        assert state.z == 0.7
        assert state.step_count == 0

    @pytest.mark.parametrize(
        "name,z0",
        [("logistic", 0.0), ("logistic", 1.0), ("gauss", 0.0), ("sine", 0.0),
         ("sinusoidal", 0.0), ("singer", 0.0), ("chebyshev", 1.0),
         ("chebyshev", -0.5), ("intermittency", 1.0), ("tent", 0.0)],
    )
    def test_fixed_point_seeds_rejected(self, name, z0):
        with pytest.raises(FixedPointSeedError, match=name):
            chaos.new_map(name, z0)

    @pytest.mark.parametrize(
        "name,z0",
        [("logistic", 1.5), ("logistic", -0.1), ("chebyshev", 2.0),
         ("iterative", -2.0), ("henon", 3.0), ("logistic", math.nan),
         ("tent", math.inf), ("henon", -math.inf)],
    )
    def test_out_of_interval_seeds_rejected(self, name, z0):
        with pytest.raises(SeedOutOfRangeError, match=name):
            chaos.new_map(name, z0)

    def test_logistic_nontrivial_fixed_point_rejected(self):
        # z = 1 - 1/4 is the nontrivial fixed point of 4 z (1 - z).
        with pytest.raises(FixedPointSeedError):
            chaos.new_map("logistic", 0.75)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown chaotic map"):
            chaos.new_map("lorenz")
        with pytest.raises(ValueError, match="unknown chaotic map"):
            chaos.seeded_map("lorenz", np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown chaotic map"):
            chaos.ChaoticMap("lorenz", 0.5, 0.5)

    def test_default_seed_admissible_everywhere(self):
        for name in chaos.MAP_NAMES:
            state = chaos.new_map(name)
            assert state.z == chaos.DEFAULT_SEED


class TestExamples:
    def test_logistic_quarter(self):
        assert chaos.new_map("logistic", 0.25).next_raw() == pytest.approx(0.75, rel=1e-15)

    def test_sine_half(self):
        assert chaos.new_map("sine", 0.5).next_raw() == pytest.approx(1.0, rel=1e-15)

    def test_gauss_inverse_fraction(self):
        assert chaos.new_map("gauss", 0.4).next_raw() == pytest.approx(0.5, rel=1e-12)

    def test_gauss_zero_is_a_fixed_point(self):
        state = chaos.new_map("gauss", 0.5)  # 1/0.5 has no fraction, then 0 maps to 0
        assert [state.next_raw() for _ in range(3)] == [0.0, 0.0, 0.0]

    def test_logistic_unit_identity_rescale(self):
        assert chaos.new_map("logistic", 0.25).next_unit() == pytest.approx(0.75, rel=1e-15)

    def test_circle_unit_in_range(self):
        value = chaos.new_map("circle", 0.3).next_unit()
        assert 0.0 <= value <= 1.0

    def test_chebyshev_negative_endpoint_maps_to_zero(self):
        # cos(4*acos(cos(pi/4))) = cos(pi) = -1, the lower endpoint.
        state = chaos.new_map("chebyshev", math.cos(math.pi / 4))
        assert state.next_unit() == pytest.approx(0.0, abs=1e-12)

    def test_unit_matches_affine_of_raw(self):
        for name in chaos.MAP_NAMES:
            raw_state = chaos.new_map(name)
            unit_state = chaos.new_map(name)
            lo, hi = RAW_INTERVAL.get(name, (0.0, 1.0))
            for _ in range(200):
                expected = (raw_state.next_raw() - lo) / (hi - lo)
                assert unit_state.next_unit() == min(1.0, max(0.0, expected))


class TestSequences:
    def test_determinism_10k_steps(self):
        for name in chaos.MAP_NAMES:
            a, b = chaos.new_map(name), chaos.new_map(name)
            for _ in range(10_000):
                assert a.next_raw() == b.next_raw(), name

    def test_unit_range_10k_steps(self):
        for name in chaos.MAP_NAMES:
            state = chaos.new_map(name)
            values = np.array(state.unit(10_000))
            assert values.min() >= 0.0 and values.max() <= 1.0, name

    def test_non_degenerate_variance(self):
        for name in chaos.MAP_NAMES:
            values = chaos.new_map(name).unit(1_000)
            assert np.var(values) > 1e-4, name

    def test_literal_formula_conformance(self):
        for name in LITERAL_MAP_NAMES:
            state = chaos.new_map(name)
            z = chaos.DEFAULT_SEED
            for step in range(10_000):
                expected = oracle_step(name, z)
                got = state.next_raw()
                assert got == pytest.approx(expected, rel=1e-12), (name, step)
                z = got

    def test_henon_two_term_recurrence(self):
        state = chaos.new_map("henon", 0.7)
        z, z_prev = 0.7, 0.7
        for _ in range(1_000):
            expected = 1.0 - 1.4 * z * z + 0.3 * z_prev
            assert state.next_raw() == pytest.approx(expected, rel=1e-12)
            z_prev, z = z, expected

    def test_tent_orbit_does_not_collapse(self):
        # Slope exactly 2 would hit the absorbing point 0 within ~55 steps
        # on binary floats; the default slope must not.
        state = chaos.new_map("tent")
        values = [state.next_raw() for _ in range(10_000)]
        assert 0.0 not in values[-100:]

    def test_unit_gives_python_floats(self):
        # the draw stream's type: the engine uses a chaos draw as it is
        for name in chaos.MAP_NAMES:
            values, state = chaos.new_map(name).unit(5), chaos.new_map(name)
            assert type(values) is list and all(type(v) is float for v in values), name
            assert values == [state.next_unit() for _ in range(5)], name

    def test_step_count_advances(self):
        state = chaos.new_map("logistic")
        state.unit(17)
        assert state.step_count == 17

    def test_diverged_orbit_raises(self):
        state = chaos.ChaoticMap("singer", 5.0, 5.0)
        state.next_raw()
        with pytest.raises(DivergedOrbitError, match="singer orbit diverged at step 2"):
            state.next_raw()

    @pytest.mark.parametrize("make", [
        lambda: chaos.new_map("henon", 0.97),       # past the guard at step 13
        lambda: chaos.new_map("singer", 0.985),     # at step 6
        lambda: chaos.ChaoticMap("henon", 1e200, 0.0),     # -inf at step 1
        lambda: chaos.ChaoticMap("henon", math.nan, 0.0),  # NaN at step 1
    ], ids=["henon", "singer", "henon-inf", "henon-nan"])
    def test_raw_and_unit_diverge_alike(self, make):
        """Twin states raise at the same step with the same message, and the
        raise leaves ``z``, ``z_prev`` and ``step_count`` as they were."""
        raised = []
        for method in ("next_raw", "next_unit"):
            state = make()
            draw = getattr(state, method)
            for _ in range(100):
                before = repr((state.z, state.z_prev, state.step_count))  # NaN-safe, bit-exact
                try:
                    draw()
                except DivergedOrbitError as error:
                    raised.append((str(error), before))
                    assert repr((state.z, state.z_prev, state.step_count)) == before
                    break
        assert len(raised) == 2 and raised[0] == raised[1]


class TestSeededConstruction:
    def test_seeded_map_deterministic(self):
        a = chaos.seeded_map("logistic", np.random.default_rng(5))
        b = chaos.seeded_map("logistic", np.random.default_rng(5))
        assert a.z == b.z

    def test_seeded_map_admissible(self):
        rng = np.random.default_rng(0)
        for name in chaos.MAP_NAMES:
            state = chaos.seeded_map(name, rng)
            lo, hi = SEED_INTERVAL.get(name, (0.0, 1.0))
            assert lo <= state.z <= hi
            state.unit(100)  # iterates fine

    def test_seeded_map_draws_again_on_a_fixed_point(self):
        class Fixed:
            """A generator whose uniform draws are given in advance."""

            def __init__(self, *values):
                self.values, self.calls = list(values), []

            def uniform(self, lo, hi):
                self.calls.append((lo, hi))
                return self.values.pop(0)

        rng = Fixed(0.0, 0.75, np.float64(0.3))  # logistic fixes 0 and absorbs 0.75 in one step
        state = chaos.seeded_map("logistic", rng)
        assert (state.z, state.z_prev, state.step_count) == (0.3, 0.3, 0)
        assert rng.calls == [(0.0, 1.0)] * 3 and not rng.values
        assert type(state.z) is float
