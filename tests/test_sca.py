"""Sine-cosine kernel tests against a brute-force oracle."""

import math

import numpy as np
import pytest

from cscf.errors import DimensionMismatchError
from cscf.sca import FLOAT_DIM, ScaParams, r1_schedule, sca_step


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
        with pytest.raises(ValueError):
            ScaParams(a_const=0.0)
        with pytest.raises(ValueError):
            ScaParams(a_const=math.inf)


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
        with pytest.raises(DimensionMismatchError):
            sca_step(np.zeros(2), np.zeros(3), 1.0, 0.0, 1.0, 0.0,
                     np.full(2, -1.0), np.full(2, 1.0))
        # a box that would broadcast against the position is refused too
        r = np.ones(1)
        with pytest.raises(DimensionMismatchError):
            sca_step(np.zeros(1), np.ones(1), 1.0, r, r, r, np.full(3, -1.0), np.full(3, 1.0))
        with pytest.raises(DimensionMismatchError):
            sca_step(np.zeros(3), np.ones(3), 1.0, 0.5, 1.0, 0.2, np.full(3, -1.0), np.ones(2))


def literal_step(x, dest, r1, r2, r3, r4, lower, upper):
    """``sca_step`` as one numpy expression, the formula's order of operations."""
    trig = np.where(np.asarray(r4) < 0.5, np.sin(r2), np.cos(r2))
    return np.minimum(np.maximum(x + r1 * trig * np.abs(r3 * dest - x), lower), upper)


class TestBitwise:
    """At ``dim <= FLOAT_DIM`` the step runs on Python floats, above it in place
    on numpy; both must give the literal expression's bits, clamped or not, at
    r1 = 0, through a NaN and at a signed-zero tie with a bound."""

    # every float-path dim, the first two numpy ones, and the paper's D = 20
    DIMS = list(range(1, FLOAT_DIM + 3)) + [20]
    EDGE_DIMS = [4, FLOAT_DIM, FLOAT_DIM + 2, 20]

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
            got = sca_step(x, dest, r1, r2, r3, r4, lower, upper)
            want = literal_step(x, dest, r1, r2, r3, r4, lower, upper)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (dim, c)
            clamped += int(np.sum((got == lower) | (got == upper)))
            components += dim
        assert clamped > 0.2 * components

    @pytest.mark.parametrize("dim", DIMS)
    def test_scalar_and_broadcast_draws(self, dim):
        """r2, r3 and r4 each as a Python float, a numpy scalar, a 0-d array,
        a length-1 array or a full vector; a float32 phase keeps numpy's
        float32 trig."""
        rng = np.random.default_rng(60 + dim)
        lower, upper = np.full(dim, -3.0), np.full(dim, 3.0)
        shapes = [float, np.float64, np.asarray, lambda v: np.full(1, v), None]
        for c in range(300):
            x, dest = rng.uniform(-4, 4, dim), rng.uniform(-4, 4, dim)
            draws = []
            for scale in (2 * math.pi, 2.0, 1.0):
                shape = shapes[rng.integers(len(shapes))]
                draws.append(scale * rng.random(dim) if shape is None
                             else shape(scale * rng.random()))
            if c % 10 == 0:
                draws[0] = np.asarray(draws[0], dtype=np.float32)
            args = (x, dest, rng.uniform(0.0, 2.0), *draws, lower, upper)
            got, want = sca_step(*args), literal_step(*args)
            assert got.shape == want.shape == (dim,)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (dim, c)

    def test_float_path_runs_up_to_the_limit(self, monkeypatch):
        """Only the numpy path picks the branch with ``np.where``."""
        def where(*args):
            raise AssertionError("numpy path")

        monkeypatch.setattr(np, "where", where)
        for dim in range(1, FLOAT_DIM + 2):
            r = np.full(dim, 0.25)
            args = (np.zeros(dim), np.ones(dim), 1.0, r, r, r, np.full(dim, -1.0), np.ones(dim))
            if dim <= FLOAT_DIM:
                sca_step(*args)
            else:
                with pytest.raises(AssertionError, match="numpy path"):
                    sca_step(*args)

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_nan_passes_through_the_clamp(self, dim):
        lower, upper = np.full(dim, -1.0), np.full(dim, 1.0)
        x, dest = np.zeros(dim), np.full(dim, 0.5)
        x[0] = math.nan
        args = (x, dest, 1.5, np.full(dim, 1.0), np.ones(dim), np.full(dim, 0.3), lower, upper)
        got = sca_step(*args)
        assert np.isnan(got[0])
        assert np.array_equal(got.view(np.int64), literal_step(*args).view(np.int64))

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
                assert np.array_equal(sca_step(*args).view(np.int64), want.view(np.int64))
