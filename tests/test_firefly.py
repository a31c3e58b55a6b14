"""Firefly kernel tests against brute-force re-evaluations of the moves."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cscf.errors import DimensionMismatchError, SameAgentError
from cscf.firefly import FireflyParams, attractiveness, move_improved, move_standard


def replay(values):
    """A unit source that replays fixed values as a list (for oracle alignment)."""
    arr = np.asarray(values, dtype=float)

    def unit(n):
        assert n == arr.size
        return arr.tolist()

    return unit


def oracle_standard(x, y, p, lower, upper, u):
    d = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    pull = p.alpha0 * math.exp(-p.beta * d * d)
    eta = (u - 0.5) * (upper - lower) / 10.0
    return np.clip(x + pull * (y - x) + p.j_step * eta, lower, upper)


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
        assert moved == move_improved(*population, FireflyParams(), lower, upper,
                                      replay([0.5, 0.5]))
        assert moved != x.tolist()
        # list partners are told apart by identity
        x, y, a = x.tolist(), y.tolist(), a.tolist()
        assert move_improved(x, y, a, FireflyParams(), lower, upper, replay([0.5, 0.5])) == moved
        for partner in (x, y):
            with pytest.raises(SameAgentError):
                move_improved(x, y, partner, FireflyParams(), lower, upper, replay([0.5, 0.5]))

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
        assert len(out) == 3
        assert state.step_count == 3


def numpy_move(x, y, p, lower, upper, u, j, k=None, a=None):
    """Both moves as numpy expressions; the improved one when ``a`` is given."""
    toward = y - x
    squares = 0.0
    for c in toward:  # the squares summed left to right
        squares += c * c
    d = math.sqrt(squares)
    pull = p.alpha0 * math.exp(-p.beta * d * d)
    new = x + pull * toward + j * ((u - 0.5) * (upper - lower) / 10.0)
    if a is not None:
        new = new + k * (a - x)
    return np.minimum(np.maximum(new, lower), upper)


def either_move(improved, x, y, a, p, lower, upper, u, j, k):
    """The improved move with J and K, or the standard one with J."""
    if improved:
        return move_improved(x, y, a, p, lower, upper, replay(u), j_step=j, k_step=k)
    return move_standard(x, y, replace(p, j_step=j), lower, upper, replay(u))


def bits(values):
    return np.array(values, dtype=float).view(np.int64)


def float_list(values):
    return type(values) is list and all(type(v) is float for v in values)


class TestFloatPath:
    """The moves run on Python floats at every dimension; on lists, as the
    engine passes them, and on float64 arrays they must give the numpy
    expression's bits, clamped or not, with J or K at zero."""

    # (dim, cases, beta scale): every dim up to the paper's D = 20 and the
    # bench's d = 30.  From d = 17 on, a smaller beta keeps the pull from
    # underflowing to 0 at their distances.  At d = 2..10 beta = 1 leaves the
    # pull mostly at 0 or below 1e-3, so the last rows scale beta by 1/d to
    # put most pulls in [1e-3, 1].
    DIMS = [(dim, 5000, 1.0) for dim in range(1, 17)] + [
        (dim, 500, 1e-4) for dim in range(17, 31)] + [
        (dim, 2000, 5e-3 / dim) for dim in range(2, 11)]

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
                want = numpy_move(x, y, p, lower, upper, u, j, k, a) if improved \
                    else numpy_move(x, y, p, lower, upper, u, j)
                got = either_move(improved, x.tolist(), y.tolist(), a.tolist(), p,
                                  lower.tolist(), upper.tolist(), u, j, k)
                assert float_list(got) and len(got) == dim
                assert np.array_equal(bits(got), want.view(np.int64)), (dim, c)
                if c % 10 == 0:  # arrays are accepted, with the same values
                    on_arrays = either_move(improved, x, y, a, p, lower, upper, u, j, k)
                    assert np.array_equal(bits(on_arrays), want.view(np.int64)), (dim, c)
                got = np.array(got)
                clamped += int(np.sum((got == lower) | (got == upper)))
                components += dim
        assert clamped > 0.2 * components

    # short and long positions, the paper's D = 20 and the bench's d = 30
    EDGE_DIMS = [4, 10, 14, 16, 20, 30]

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_nan_passes_through_the_clamp(self, dim):
        lower, upper = np.full(dim, -1.0), np.full(dim, 1.0)
        x, y, a = np.zeros(dim), np.full(dim, 0.5), np.full(dim, -0.5)
        x[0] = math.nan
        u = np.full(dim, 0.25)
        p = FireflyParams()
        want = numpy_move(x, y, p, lower, upper, u, p.j_step, p.k_step, a)
        for args in [(x, y, a, p, lower, upper), (x.tolist(), y.tolist(), a.tolist(), p,
                                                   lower.tolist(), upper.tolist())]:
            got = move_improved(*args, replay(u))
            assert math.isnan(got[0])
            assert np.array_equal(bits(got), want.view(np.int64))

    @pytest.mark.parametrize("dim", EDGE_DIMS)
    def test_signed_zero_ties_match_numpy(self, dim):
        # v = -0.0 against a lower bound of 0.0 (the pull underflows to 0 far
        # from y), and v = 0.0 against an upper bound of -0.0
        p, u = FireflyParams(j_step=0.0), np.full(dim, 0.25)
        for x, y, lower, upper in [(-0.0, -1e10, 0.0, 1.0), (0.0, 0.0, -1.0, -0.0)]:
            x, y, lower, upper = (np.full(dim, v) for v in (x, y, lower, upper))
            want = numpy_move(x, y, p, lower, upper, u, 0.0)
            arrays = x, y, lower, upper
            for args in (arrays, [v.tolist() for v in arrays]):
                got = move_standard(*args[:2], p, *args[2:], replay(u))
                assert np.array_equal(bits(got), want.view(np.int64))

    @pytest.mark.parametrize("dim", [4, 10, 16])
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
        # list partners, as the engine passes them: the one length check runs
        # before the cache is read, so a cache hit checks the partner too
        lower, upper, x, y = [-1.0] * dim, [1.0] * dim, [0.25] * dim, [0.5] * dim

        def unit(n):
            return [0.5] * n

        for short_or_long in (x[1:], x + [0.0]):
            with pytest.raises(DimensionMismatchError, match=f"partner {len(short_or_long)}"):
                move_improved(x, y, short_or_long, p, lower, upper, unit, cache=[])  # a miss
            cache = []
            move_improved(x, y, [0.75] * dim, p, lower, upper, unit, cache=cache)
            assert cache[0] is x and cache[1] is y
            with pytest.raises(DimensionMismatchError, match=f"partner {len(short_or_long)}"):
                move_improved(x, y, short_or_long, p, lower, upper, unit, cache=cache)  # a hit
        for same in (x, y):
            with pytest.raises(SameAgentError):
                move_improved(x, y, same, p, lower, upper, unit)
        for copy in (list(x), list(y)):  # equal values, another agent: it moves
            moved = move_improved(x, y, copy, p, lower, upper, unit, cache=[])
            assert type(moved) is list and len(moved) == dim

    @pytest.mark.parametrize("improved", [False, True], ids=["standard", "improved"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_unit_source_of_the_wrong_count_rejected(self, improved, extra, as_array):
        # a short source would drop a coordinate, a long one its extra draws
        x, y, a, lower, upper = [0.25] * 3, [0.5] * 3, [0.75] * 3, [-1.0] * 3, [1.0] * 3

        def unit(n):
            draws = [0.5] * (n + extra)
            return np.array(draws) if as_array else draws

        with pytest.raises(DimensionMismatchError, match=f"gave {3 + extra} draws for 3"):
            if improved:
                move_improved(x, y, a, FireflyParams(), lower, upper, unit)
            else:
                move_standard(x, y, FireflyParams(), lower, upper, unit)


class TestKernelLengths:
    """The kernels are compiled per length: at lengths from none to well past
    the paper's D = 20, a move gives the numpy expression's bits on a cache
    miss and on the hit after it."""

    @pytest.mark.parametrize("improved", [False, True], ids=["standard", "improved"])
    @pytest.mark.parametrize("dim", [0, 1, 3, 4, 20, 129, 1000])
    def test_every_length_equals_numpy(self, improved, dim):
        rng = np.random.default_rng(60 + dim)
        # beta scaled by 1/dim keeps the pull between about 0.25 and 1 at every length
        p = FireflyParams(beta=0.3 / max(dim, 1), j_step=0.7, k_step=0.4)
        lower, upper = np.full(dim, -1.5), np.full(dim, 1.5)
        x, y, a = (rng.uniform(-2.0, 2.0, dim) for _ in range(3))  # past the box
        lists = [v.tolist() for v in (x, y, a, lower, upper)]
        cache = []
        for hit in (False, True):
            u, before = rng.random(dim), cache[3] if cache else None
            if improved:
                want = numpy_move(x, y, p, lower, upper, u, p.j_step, p.k_step, a)
                got = move_improved(*lists[:3], p, *lists[3:], replay(u), cache=cache)
            else:
                want = numpy_move(x, y, p, lower, upper, u, p.j_step)
                got = move_standard(*lists[:2], p, *lists[3:], replay(u), cache=cache)
            assert float_list(got) and len(got) == dim
            assert np.array_equal(bits(got), want.view(np.int64)), hit
            assert (cache[3] is before) == hit

    def test_no_coordinates_take_no_draws(self):
        asked = []

        def unit(n):
            asked.append(n)
            return [0.5] * n

        assert move_standard([], [], FireflyParams(), [], [], unit) == []
        assert move_improved([], [], [], FireflyParams(), [], [], unit) == []
        assert asked == [0, 0]


class TestAttractionCache:
    """A move given an agent's cache returns the uncached move's bits, whether
    it reuses the cached ``toward`` and ``pull`` or computes and refills them."""

    @pytest.mark.parametrize("improved", [False, True], ids=["standard", "improved"])
    @pytest.mark.parametrize("dim", [1, 4, 20])
    def test_hits_and_misses_equal_uncached_moves(self, improved, dim):
        rng = np.random.default_rng(40 + dim)
        lower, upper = [-2.5] * dim, [2.5] * dim

        def point():
            return rng.uniform(-2.0, 2.0, dim).tolist()

        # beta = 0.05 and 0.1 keep the pull well above 0 at d = 20, and apart
        p, other = FireflyParams(beta=0.05), FireflyParams(beta=0.1)
        x, y, a, new_x, new_y, nan_x = (point() for _ in range(6))
        nan_x[0] = math.nan
        copy_x = list(new_x)
        calls = [  # (x, y, params, whether the cached attraction is reused)
            (x, y, p, False), (x, y, p, True), (new_x, y, p, False), (new_x, new_y, p, False),
            (new_x, new_y, other, False), (copy_x, new_y, other, False),
            (copy_x, new_y, other, True), (nan_x, new_y, other, False),
            (nan_x, new_y, other, True)]
        cache = []
        for step, (x, y, params, hit) in enumerate(calls):
            u = rng.random(dim)
            before = cache[3] if cache else None
            if improved:
                j, k = 0.3 * step, 0.1 * step  # the chaos-tuned steps vary per move
                got = move_improved(x, y, a, params, lower, upper, replay(u), j_step=j,
                                    k_step=k, cache=cache)
                want = move_improved(x, y, a, params, lower, upper, replay(u), j_step=j,
                                     k_step=k)
            else:
                got = move_standard(x, y, params, lower, upper, replay(u), cache=cache)
                want = move_standard(x, y, params, lower, upper, replay(u))
            assert [v.hex() for v in got] == [v.hex() for v in want], step
            assert (cache[3] is before) == hit, step
            assert cache[0] is x and cache[1] is y and cache[2] is params
        assert math.isnan(got[0])

    def test_checks_run_on_a_hit(self):
        x, y, a = [0.0, 0.0], [1.0, 1.0], [-0.5, -0.5]
        lower, upper, p, cache = [-1.0, -1.0], [1.0, 1.0], FireflyParams(), []
        move_improved(x, y, a, p, lower, upper, replay([0.5, 0.5]), cache=cache)
        for partner in (x, y):
            with pytest.raises(SameAgentError):
                move_improved(x, y, partner, p, lower, upper, replay([0.5, 0.5]), cache=cache)
        with pytest.raises(DimensionMismatchError):
            move_improved(x, y, [0.0], p, lower, upper, replay([0.5, 0.5]), cache=cache)
        with pytest.raises(DimensionMismatchError):
            move_standard(x, y, p, lower[:1], upper[:1], replay([0.5]), cache=cache)
        assert cache[0] is x and cache[1] is y
