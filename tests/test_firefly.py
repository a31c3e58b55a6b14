"""Firefly kernel tests against brute-force re-evaluations of the moves."""

import math

import numpy as np
import pytest

from cscf.errors import DimensionMismatchError, SameAgentError
from cscf.firefly import (
    FLOAT_DIM,
    FireflyParams,
    attractiveness,
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
    eta = (u - 0.5) * (upper - lower) / 10.0
    return np.clip(x + pull * (y - x) + j * eta, lower, upper)


def oracle_improved(x, y, a, p, lower, upper, u, j=None, k=None):
    d = math.sqrt(sum((q - b) ** 2 for q, b in zip(x, y)))
    pull = p.alpha0 * math.exp(-p.beta * d * d)
    j = p.j_step if j is None else j
    k = p.k_step if k is None else k
    eta = (u - 0.5) * (upper - lower) / 10.0
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

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FireflyParams(alpha0=0.0)
        with pytest.raises(ValueError):
            FireflyParams(beta=-1.0)
        with pytest.raises(ValueError):
            FireflyParams(j_step=-0.1)
        with pytest.raises(ValueError):
            FireflyParams(beta=math.nan)


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
                j_step=rng.uniform(0.0, 2.0),
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
        p = FireflyParams(j_step=50.0)
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

    # Owning arrays take the guard's fast path; a shared object or a view of
    # one's data must still be caught.
    @pytest.mark.parametrize("partner", [
        lambda x, y: x, lambda x, y: y, lambda x, y: x[:], lambda x, y: np.frombuffer(x),
    ], ids=["x", "y", "x[:]", "frombuffer(x)"])
    def test_same_storage_rejected_for_owning_arrays(self, partner):
        x, y = np.zeros(2), np.ones(2)
        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        with pytest.raises(SameAgentError):
            move_improved(x, y, partner(x, y), FireflyParams(), lower, upper,
                          replay([0.5, 0.5]))

    def test_same_int_array_rejected(self):
        """The check sees the caller's own array, whatever its dtype."""
        x, y = np.zeros(2, dtype=np.int64), np.ones(2)
        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        with pytest.raises(SameAgentError):
            move_improved(x, y, x, FireflyParams(), lower, upper, replay([0.5, 0.5]))

    def test_distinct_owning_arrays_move(self):
        x, y, a = np.zeros(2), np.ones(2), np.full(2, -0.5)
        lower, upper = np.full(2, -1.0), np.full(2, 1.0)
        moved = move_improved(x, y, a, FireflyParams(), lower, upper, replay([0.5, 0.5]))
        population = np.array([x, y, a])  # rows are views: the exact test runs
        assert moved.tolist() == move_improved(*population, FireflyParams(), lower, upper,
                                               replay([0.5, 0.5])).tolist()
        assert moved.tolist() != x.tolist()

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


def numpy_move(x, y, p, lower, upper, u, j, k=None, a=None):
    """Both moves as numpy expressions; the improved one when ``a`` is given."""
    toward = y - x
    d = math.sqrt(toward.dot(toward))
    pull = p.alpha0 * math.exp(-p.beta * d * d)
    new = x + pull * toward + j * ((u - 0.5) * (upper - lower) / 10.0)
    if a is not None:
        new = new + k * (a - x)
    return np.minimum(np.maximum(new, lower), upper)


class TestFloatPath:
    """At ``dim <= FLOAT_DIM`` the moves run on Python floats, above it on
    in-place numpy; both must give the numpy expression's bits, clamped or
    not, with J or K at zero."""

    # (dim, cases, beta scale): every float-path dim and the first two numpy
    # ones in full, then the paper's D = 20 and the bench's d = 30, where a
    # smaller beta keeps the pull from underflowing to 0 at their distances.
    # At d = 2..10 beta = 1 leaves the pull mostly at 0 or below 1e-3, so the
    # last rows scale beta by 1/d to put most pulls in [1e-3, 1].
    DIMS = [(dim, 5000, 1.0) for dim in range(1, FLOAT_DIM + 3)] + [
        (20, 500, 1e-4), (30, 500, 1e-4)] + [(dim, 2000, 5e-3 / dim) for dim in range(2, 11)]

    @pytest.mark.parametrize("improved", [False, True], ids=["standard", "improved"])
    def test_bitwise_equal_to_numpy(self, improved):
        rng = np.random.default_rng(20 + improved)
        clamped = components = 0
        for dim, n, beta_scale in self.DIMS:
            alpha0, beta = rng.uniform(0.1, 3.0, n), rng.uniform(0.0, 2.0, n) * beta_scale
            # J and K are zero in a third of the cases each
            js = np.where(rng.random(n) < 1 / 3, 0.0, rng.uniform(0.0, 12.0, n))
            ks = np.where(rng.random(n) < 1 / 3, 0.0, rng.uniform(0.0, 3.0, n))
            centre, half = rng.uniform(-50, 50, (n, dim)), rng.uniform(0.01, 20, (n, dim))
            lowers, uppers = centre - half, centre + half
            # positions reach past the box, so that clamping fires often
            xs, ys, partners = (rng.uniform(lowers - half, uppers + half) for _ in range(3))
            us = rng.random((n, dim))
            for c in range(n):
                p = FireflyParams(alpha0=float(alpha0[c]), beta=float(beta[c]))
                x, y, a, u = xs[c], ys[c], partners[c], us[c]
                lower, upper, j, k = lowers[c], uppers[c], float(js[c]), float(ks[c])
                if improved:
                    got = move_improved(x, y, a, p, lower, upper, replay(u), j_step=j, k_step=k)
                    want = numpy_move(x, y, p, lower, upper, u, j, k, a)
                else:
                    got = move_standard(x, y, p, lower, upper, replay(u), j_step=j)
                    want = numpy_move(x, y, p, lower, upper, u, j)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (dim, c)
                clamped += int(np.sum((got == lower) | (got == upper)))
                components += dim
        assert clamped > 0.2 * components

    # two float-path dims, the limit, the second numpy dim past it and D = 20
    EDGE_DIMS = [4, 10, FLOAT_DIM, FLOAT_DIM + 2, 20]

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_nan_passes_through_the_clamp(self, dim):
        lower, upper = np.full(dim, -1.0), np.full(dim, 1.0)
        x, y, a = np.zeros(dim), np.full(dim, 0.5), np.full(dim, -0.5)
        x[0] = math.nan
        u = np.full(dim, 0.25)
        p = FireflyParams()
        got = move_improved(x, y, a, p, lower, upper, replay(u))
        want = numpy_move(x, y, p, lower, upper, u, p.j_step, p.k_step, a)
        assert np.isnan(got[0])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_signed_zero_ties_match_numpy(self, dim):
        # v = -0.0 against a lower bound of 0.0 (the pull underflows to 0 far
        # from y), and v = 0.0 against an upper bound of -0.0
        p, u = FireflyParams(), np.full(dim, 0.25)
        for x, y, lower, upper in [(-0.0, -1e10, 0.0, 1.0), (0.0, 0.0, -1.0, -0.0)]:
            x, y, lower, upper = (np.full(dim, v) for v in (x, y, lower, upper))
            got = move_standard(x, y, p, lower, upper, replay(u), j_step=0.0)
            want = numpy_move(x, y, p, lower, upper, u, 0.0)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("dim", [4, 10, FLOAT_DIM + 2])
    def test_mismatched_shapes_rejected(self, dim):
        p = FireflyParams()
        lower, upper = np.full(dim, -1.0), np.full(dim, 1.0)
        with pytest.raises(DimensionMismatchError):
            move_standard(np.zeros(dim), np.zeros(dim + 1), p, lower, upper, np.random.random)
        with pytest.raises(DimensionMismatchError):
            move_improved(np.zeros(dim), np.ones(dim), np.zeros(dim + 1), p, lower, upper,
                          np.random.random)
        with pytest.raises(ValueError):
            move_standard(np.zeros(dim), np.ones(dim), p, lower[1:], upper[1:],
                          np.random.random)
        # a box that would broadcast against the position is refused too
        for box in [(lower[:1], upper[:1]), (lower, upper[:1]), (lower[:1], upper)]:
            with pytest.raises(DimensionMismatchError):
                move_standard(np.zeros(dim), np.ones(dim), p, *box, np.random.random)
        with pytest.raises(DimensionMismatchError):
            move_improved(np.zeros(1), np.ones(1), np.full(1, 0.5), p, lower, upper,
                          np.random.random)
