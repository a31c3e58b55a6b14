"""Sine-cosine kernel tests against a brute-force oracle."""

import math

import numpy as np
import pytest

from cscf.errors import DimensionMismatchError
from cscf.sca import r1_schedule, sca_step


def oracle_step(x, dest, r1, r2, r3, r4, lower, upper):
    out = []
    for c in range(len(x)):
        amp = abs(r3[c] * dest[c] - x[c])
        trig = math.sin(r2[c]) if r4[c] < 0.5 else math.cos(r2[c])
        out.append(min(upper[c], max(lower[c], x[c] + r1 * trig * amp)))
    return np.array(out)


class TestSchedule:
    def test_endpoints_exact(self):
        assert r1_schedule(0, 500, 2.0) == 2.0
        assert r1_schedule(500, 500, 2.0) == 0.0

    def test_midpoint(self):
        assert r1_schedule(250, 500, 2.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            r1_schedule(0, 0, 2.0)
        with pytest.raises(ValueError):
            r1_schedule(-1, 10, 2.0)
        with pytest.raises(ValueError):
            r1_schedule(11, 10, 2.0)


class TestStep:
    def setup_method(self):
        self.lower = np.full(3, -100.0)
        self.upper = np.full(3, 100.0)

    def test_zero_amplitude_keeps_position(self):
        x = np.array([1.0, -2.0, 3.0])
        out = sca_step(x, np.ones(3), 0.0, np.ones(3), np.ones(3), np.zeros(3),
                       self.lower, self.upper)
        assert np.array_equal(out, x)

    def test_zero_phase_sine_branch_keeps_position(self):
        x = np.array([1.0, -2.0, 3.0])
        out = sca_step(x, np.ones(3), 1.5, np.zeros(3), np.ones(3), np.full(3, 0.3),
                       self.lower, self.upper)
        assert np.array_equal(out, x)

    def test_unit_step_toward_destination(self):
        lower, upper = np.full(2, -10.0), np.full(2, 10.0)
        out = sca_step(np.zeros(2), np.ones(2), 1.0, np.full(2, math.pi / 2),
                       np.ones(2), np.zeros(2), lower, upper)
        np.testing.assert_allclose(out, np.ones(2), rtol=1e-15)

    def test_branch_selection_is_sin_cos_swap(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, 3)
        dest = rng.uniform(-5, 5, 3)
        r2 = rng.uniform(0, 2 * math.pi, 3)
        r3 = rng.uniform(0, 2, 3)
        sine = sca_step(x, dest, 0.8, r2, r3, np.full(3, 0.49), self.lower, self.upper)
        cosine = sca_step(x, dest, 0.8, r2, r3, np.full(3, 0.51), self.lower, self.upper)
        amp = np.abs(r3 * dest - x)
        np.testing.assert_array_equal(sine, x + 0.8 * np.sin(r2) * amp)
        np.testing.assert_array_equal(cosine, x + 0.8 * np.cos(r2) * amp)

    def test_boundedness_componentwise(self):
        rng = np.random.default_rng(4)
        wide_lo, wide_hi = np.full(5, -1e12), np.full(5, 1e12)
        for _ in range(1000):
            x = rng.uniform(-100, 100, 5)
            dest = rng.uniform(-100, 100, 5)
            r1 = rng.uniform(0, 2)
            r2 = rng.uniform(0, 2 * math.pi, 5)
            r3 = rng.uniform(0, 2, 5)
            r4 = rng.random(5)
            out = sca_step(x, dest, r1, r2, r3, r4, wide_lo, wide_hi)
            assert np.all(np.abs(out - x) <= r1 * np.abs(r3 * dest - x) + 1e-12)

    def test_oracle_equivalence_random_inputs(self):
        rng = np.random.default_rng(5)
        wide_lo, wide_hi = np.full(4, -1e9), np.full(4, 1e9)
        for _ in range(1000):
            x = rng.uniform(-50, 50, 4)
            dest = rng.uniform(-50, 50, 4)
            r1 = rng.uniform(0, 2)
            r2 = rng.uniform(0, 2 * math.pi, 4)
            r3 = rng.uniform(0, 2, 4)
            r4 = rng.random(4)
            got = sca_step(x, dest, r1, r2, r3, r4, wide_lo, wide_hi)
            np.testing.assert_allclose(
                got, oracle_step(x, dest, r1, r2, r3, r4, wide_lo, wide_hi), rtol=1e-12
            )

    def test_clamps_to_bounds(self):
        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        out = sca_step(np.array([0.9, -0.9]), np.array([1.0, -1.0]), 2.0,
                       np.full(2, math.pi / 2), np.full(2, 2.0), np.zeros(2),
                       lower, upper)
        assert np.all(out >= lower) and np.all(out <= upper)

    def test_dimension_mismatch(self):
        r = np.full(2, 0.5)
        with pytest.raises(DimensionMismatchError):
            sca_step(np.zeros(2), np.zeros(3), 1.0, r, r, r, np.full(2, -1.0), np.full(2, 1.0))
        # a box that would broadcast against the position is refused too
        r = np.ones(1)
        with pytest.raises(DimensionMismatchError):
            sca_step(np.zeros(1), np.ones(1), 1.0, r, r, r, np.full(3, -1.0), np.full(3, 1.0))
        r = np.full(3, 0.5)
        with pytest.raises(DimensionMismatchError):
            sca_step(np.zeros(3), np.ones(3), 1.0, r, r, r, np.full(3, -1.0), np.ones(2))
        # a draw of another length is refused, not broadcast
        for k in range(3):
            draws = [r, r, r]
            draws[k] = np.full(1, 0.5)
            with pytest.raises(DimensionMismatchError):
                sca_step(np.zeros(3), np.ones(3), 1.0, *draws, np.full(3, -1.0), np.ones(3))


def literal_step(x, dest, r1, r2, r3, r4, lower, upper):
    """``sca_step`` as one numpy expression, the formula's order of operations."""
    trig = np.where(r4 < 0.5, np.sin(r2), np.cos(r2))
    return np.minimum(np.maximum(x + r1 * trig * np.abs(r3 * dest - x), lower), upper)


def bits(values):
    return np.array(values, dtype=float).view(np.int64)


def listed(args):
    """The arguments with each array as a list, as the engine passes them."""
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in args]


class TestBitwise:
    """The step runs on Python floats at every dimension; on lists, as the
    engine passes them, and on float64 arrays it must give the literal
    expression's bits, clamped or not, at r1 = 0, through a NaN and at a
    signed-zero tie with a bound."""

    # every dim up to the paper's D = 20 and the bench's d = 30
    DIMS = list(range(1, 31))
    EDGE_DIMS = [4, 14, 16, 20, 30]

    @pytest.mark.parametrize("dim", DIMS)
    def test_random_inputs(self, dim):
        rng = np.random.default_rng(30 + dim)
        clamped = components = 0
        for c in range(2000):
            centre, half = rng.uniform(-50, 50, dim), rng.uniform(0.01, 20, dim)
            lower, upper = centre - half, centre + half
            # positions and destinations reach past the box, so that clamping fires
            x, dest = (rng.uniform(lower - half, upper + half) for _ in range(2))
            r1 = 0.0 if c % 3 == 0 else rng.uniform(0.0, 2.0)
            r2, r3, r4 = rng.uniform(0, 2 * math.pi, dim), rng.uniform(0, 2, dim), rng.random(dim)
            arrays = x, dest, r1, r2, r3, r4, lower, upper
            want = literal_step(*arrays)
            got = sca_step(*listed(arrays))
            assert type(got) is list and all(type(v) is float for v in got)
            assert np.array_equal(bits(got), want.view(np.int64)), (dim, c)
            if c % 10 == 0:  # arrays are accepted, with the same values
                assert np.array_equal(bits(sca_step(*arrays)), want.view(np.int64)), (dim, c)
            got = np.array(got)
            clamped += int(np.sum((got == lower) | (got == upper)))
            components += dim
        assert clamped > 0.2 * components

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_nan_passes_through_the_clamp(self, dim):
        lower, upper = np.full(dim, -1.0), np.full(dim, 1.0)
        x, dest = np.zeros(dim), np.full(dim, 0.5)
        x[0] = math.nan
        args = (x, dest, 1.5, np.full(dim, 1.0), np.ones(dim), np.full(dim, 0.3), lower, upper)
        for got in (sca_step(*args), sca_step(*listed(args))):
            assert math.isnan(got[0])
            assert np.array_equal(bits(got), literal_step(*args).view(np.int64))

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_signed_zero_ties_match_numpy(self, dim):
        # sin(-pi/2) = -1 and a zero amplitude give a step of -0.0: x = -0.0
        # stays -0.0 against a lower bound of 0.0, and x = 0.0 stays 0.0
        # against an upper bound of -0.0
        r2, r3, r4 = np.full(dim, -math.pi / 2), np.ones(dim), np.zeros(dim)
        for x, lower, upper in [(-0.0, 0.0, 1.0), (0.0, -1.0, -0.0)]:
            x, lower, upper = (np.full(dim, v) for v in (x, lower, upper))
            for r1 in (0.0, 1.0):
                args = (x, np.zeros(dim), r1, r2, r3, r4, lower, upper)
                want = literal_step(*args)
                for got in (sca_step(*args), sca_step(*listed(args))):
                    assert np.array_equal(bits(got), want.view(np.int64))


class TestKernelLengths:
    """The step is compiled per length: at lengths from none to well past the
    paper's D = 20 it gives the numpy expression's bits, on lists and on
    float64 arrays, clamped or not and at r1 = 0."""

    @pytest.mark.parametrize("dim", [0, 1, 3, 4, 20, 129, 1000])
    def test_every_length_equals_numpy(self, dim):
        rng = np.random.default_rng(70 + dim)
        lower, upper = np.full(dim, -1.5), np.full(dim, 1.5)
        for r1 in (0.0, 1.3, 1.9):
            x, dest = rng.uniform(-2.0, 2.0, dim), rng.uniform(-2.0, 2.0, dim)  # past the box
            r2, r3, r4 = rng.uniform(0, 2 * math.pi, dim), rng.uniform(0, 2, dim), rng.random(dim)
            arrays = x, dest, r1, r2, r3, r4, lower, upper
            want = literal_step(*arrays).view(np.int64)
            got = sca_step(*listed(arrays))
            assert type(got) is list and len(got) == dim and all(type(v) is float for v in got)
            assert np.array_equal(bits(got), want), r1
            assert np.array_equal(bits(sca_step(*arrays)), want), r1
