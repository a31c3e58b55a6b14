"""Firefly kernel tests against brute-force re-evaluations of the moves."""

import math

import numpy as np
import pytest

from cscf.errors import DimensionMismatchError, SameAgentError
from cscf.firefly import (
    FireflyParams,
    attractiveness,
    distance,
    move_improved,
    move_standard,
)


def replay(values):
    """A unit source that replays a fixed array (for oracle alignment)."""
    arr = np.asarray(values, dtype=float)

    def unit(n):
        assert n == arr.size
        return arr.copy()

    return unit


def oracle_standard(x, y, p, lower, upper, u, j=None):
    d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    pull = p.alpha0 * math.exp(-p.beta * d * d)
    j = p.j_step if j is None else j
    eta = (u - 0.5) * p.eta_scale * (upper - lower) / 10.0
    return np.clip(x + pull * (y - x) + j * eta, lower, upper)


def oracle_improved(x, y, a, p, lower, upper, u, j=None, k=None):
    d = math.sqrt(sum((q - b) ** 2 for q, b in zip(x, y)))
    pull = p.alpha0 * math.exp(-p.beta * d * d)
    j = p.j_step if j is None else j
    k = p.k_step if k is None else k
    eta = (u - 0.5) * p.eta_scale * (upper - lower) / 10.0
    return np.clip(x + pull * (y - x) + j * eta + k * (a - x), lower, upper)


class TestScalars:
    def test_attractiveness_examples(self):
        assert attractiveness(2.0, 5.0, 0.0) == 2.0
        assert attractiveness(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert attractiveness(1.0, 0.0, 10.0) == 1.0

    def test_attractiveness_monotone_decay(self):
        ds = np.sort(np.random.default_rng(0).uniform(0.0, 5.0, 100))
        values = [attractiveness(1.3, 0.7, d) for d in ds]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_distance_examples(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0
        x = np.array([1.0, 2.0, 3.0])
        assert distance(x, x) == 0.0
        assert distance(np.ones(3), np.full(3, 2.0)) == pytest.approx(math.sqrt(3), rel=1e-15)
        with pytest.raises(DimensionMismatchError):
            distance(np.zeros(2), np.zeros(3))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FireflyParams(alpha0=0.0)
        with pytest.raises(ValueError):
            FireflyParams(beta=-1.0)
        with pytest.raises(ValueError):
            FireflyParams(j_step=-0.1)


class TestMoveStandard:
    def test_full_attraction_reaches_target(self):
        p = FireflyParams(alpha0=1.0, beta=0.0, j_step=0.0)
        lower, upper = np.full(2, -10.0), np.full(2, 10.0)
        out = move_standard(np.zeros(2), np.full(2, 2.0), p, lower, upper, replay([0.5, 0.5]))
        assert np.array_equal(out, np.full(2, 2.0))

    def test_vanishing_attraction_keeps_position(self):
        p = FireflyParams(alpha0=1.0, beta=1e9, j_step=0.0)
        lower, upper = np.full(2, -10.0), np.full(2, 10.0)
        x = np.array([1.0, -2.0])
        out = move_standard(x, np.full(2, 5.0), p, lower, upper, replay([0.1, 0.9]))
        assert np.array_equal(out, x)

    def test_oracle_equivalence_random_inputs(self):
        rng = np.random.default_rng(7)
        lower, upper = np.full(5, -1e9), np.full(5, 1e9)
        for _ in range(1000):
            p = FireflyParams(
                alpha0=rng.uniform(0.1, 3.0),
                beta=rng.uniform(0.0, 2.0),
                j_step=rng.uniform(0.0, 1.0),
                eta_scale=rng.uniform(0.1, 2.0),
            )
            x = rng.uniform(-50, 50, 5)
            y = rng.uniform(-50, 50, 5)
            u = rng.random(5)
            got = move_standard(x, y, p, lower, upper, replay(u))
            expected = oracle_standard(x, y, p, lower, upper, u)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_clamping(self):
        rng = np.random.default_rng(8)
        lower, upper = np.full(3, -1.0), np.full(3, 1.0)
        p = FireflyParams(j_step=5.0, eta_scale=10.0)
        for _ in range(1000):
            x = rng.uniform(-1, 1, 3)
            y = rng.uniform(-1, 1, 3)
            out = move_standard(x, y, p, lower, upper, rng.random)
            assert np.all(out >= lower) and np.all(out <= upper)

    def test_zero_noise_contraction_on_segment(self):
        rng = np.random.default_rng(9)
        lower, upper = np.full(4, -100.0), np.full(4, 100.0)
        for _ in range(200):
            p = FireflyParams(alpha0=rng.uniform(0.05, 1.0), beta=rng.uniform(0, 2),
                              j_step=0.0)
            x = rng.uniform(-50, 50, 4)
            y = rng.uniform(-50, 50, 4)
            out = move_standard(x, y, p, lower, upper, replay(rng.random(4)))
            assert np.all(out >= np.minimum(x, y) - 1e-12)
            assert np.all(out <= np.maximum(x, y) + 1e-12)


class TestMoveImproved:
    def test_k_zero_matches_standard_bitwise(self):
        rng = np.random.default_rng(10)
        lower, upper = np.full(6, -30.0), np.full(6, 30.0)
        p = FireflyParams(k_step=0.0)
        for _ in range(100):
            x = rng.uniform(-20, 20, 6)
            y = rng.uniform(-20, 20, 6)
            a = rng.uniform(-20, 20, 6)
            u = rng.random(6)
            assert np.array_equal(
                move_improved(x, y, a, p, lower, upper, replay(u)),
                move_standard(x, y, p, lower, upper, replay(u)),
            )

    def test_partner_pull_examples(self):
        lower, upper = np.full(2, -100.0), np.full(2, 100.0)
        # attraction suppressed by enormous beta; J = 0
        p = FireflyParams(alpha0=1.0, beta=1e9, j_step=0.0, k_step=1.0)
        out = move_improved(np.ones(2), np.full(2, 2.0), np.array([4.0, 5.0]),
                            p, lower, upper, replay([0.5, 0.5]))
        assert np.array_equal(out, np.array([4.0, 5.0]))
        p = FireflyParams(alpha0=1.0, beta=1e9, j_step=0.0, k_step=0.5)
        out = move_improved(np.zeros(2), np.full(2, 9.0), np.full(2, 2.0),
                            p, lower, upper, replay([0.5, 0.5]))
        assert np.array_equal(out, np.ones(2))

    def test_same_agent_rejected(self):
        population = np.zeros((3, 2))
        p = FireflyParams()
        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        with pytest.raises(SameAgentError):
            move_improved(population[0], population[1], population[0],
                          p, lower, upper, replay([0.5, 0.5]))
        with pytest.raises(SameAgentError):
            move_improved(population[0], population[1], population[1],
                          p, lower, upper, replay([0.5, 0.5]))

    def test_oracle_equivalence_random_inputs(self):
        rng = np.random.default_rng(11)
        lower, upper = np.full(4, -1e9), np.full(4, 1e9)
        for _ in range(1000):
            p = FireflyParams(
                alpha0=rng.uniform(0.1, 3.0),
                beta=rng.uniform(0.0, 2.0),
                j_step=rng.uniform(0.0, 1.0),
                k_step=rng.uniform(0.0, 1.0),
            )
            x = rng.uniform(-50, 50, 4)
            y = rng.uniform(-50, 50, 4)
            a = rng.uniform(-50, 50, 4)
            u = rng.random(4)
            got = move_improved(x, y, a, p, lower, upper, replay(u))
            np.testing.assert_allclose(
                got, oracle_improved(x, y, a, p, lower, upper, u), rtol=1e-12
            )

    def test_chaos_source_accepted(self):
        from cscf.chaos import new_map

        state = new_map("logistic", 0.37)
        p = FireflyParams()
        lower, upper = np.full(3, -5.0), np.full(3, 5.0)
        out = move_improved(np.zeros(3), np.ones(3), np.full(3, -1.0),
                            p, lower, upper, state.unit)
        assert out.shape == (3,)
        assert state.step_count == 3
