"""Hybrid optimizer tests: determinism, budgets, trial semantics, variants."""

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest

import cscf.hybrid as hybrid
from cscf.benchmarks import ObjectiveProblem, benchmark_problem
from cscf.chaos import ChaoticMap
from cscf.engineering import PenaltyParams, engineering_problem
from cscf.errors import ConfigError, CscfError
from cscf.firefly import FireflyParams
from cscf.hybrid import OptimizerConfig, VariantSpec, optimize
from cscf.sca import r1_schedule


class ConstantUnit:
    """Chaotic-map stand-in whose unit draws are a fixed constant."""

    def __init__(self, value):
        self.value = value

    def next_unit(self):
        return self.value

    def unit(self, n=None):
        if n is None:
            return self.value
        return [self.value] * n


def constant_problem(dim=3, value=1.0):
    return ObjectiveProblem(
        name="constant",
        dim=dim,
        lower=np.full(dim, -1.0),
        upper=np.full(dim, 1.0),
        evaluator=lambda x: value,
    )


def assert_rejected(**field):
    """A bad field raises ``ConfigError`` naming it, when made and through ``replace``."""
    (name, _), = field.items()
    with pytest.raises(ConfigError, match=name):
        OptimizerConfig(**field)
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(OptimizerConfig(), **field)


class TestConfig:
    def test_frozen(self):
        config = OptimizerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.population = 2
        assert config.population == 20

    @pytest.mark.parametrize("make", [lambda: FireflyParams(alpha0=0),
                                      lambda: PenaltyParams(mode="x")])
    def test_parameter_errors_are_config_errors(self, make):
        with pytest.raises(ConfigError) as info:
            make()
        assert isinstance(info.value, CscfError) and isinstance(info.value, ValueError)

    def test_population_floor(self):
        for population in (2, 3.5, "20"):
            assert_rejected(population=population)

    def test_max_iter_floor(self):
        for max_iter in (-1, 2.5):
            assert_rejected(max_iter=max_iter)

    def test_trial_limit_floor(self):
        for trial_limit in (0, 2.5):
            assert_rejected(trial_limit=trial_limit)

    @pytest.mark.parametrize("name", ["population", "max_iter", "trial_limit", "seed"])
    def test_bool_rejected(self, name):
        # operator.index(True) is 1, but a record would hold "seed": true
        assert_rejected(**{name: True})
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got False"):
            OptimizerConfig(**{name: False})

    def test_numpy_integers_accepted(self):
        config = OptimizerConfig(population=np.int64(5), max_iter=np.int32(2),
                                 trial_limit=np.uint8(1), seed=np.int64(7))
        # stored as int, so the run counts on ints and its record is JSON-safe
        for name in ("population", "max_iter", "trial_limit", "seed"):
            assert type(getattr(config, name)) is int, name
        record = optimize(benchmark_problem("sphere", dim=3), OptimizerConfig(
            population=np.int64(5), max_iter=np.int64(4), seed=np.int64(2)))
        assert type(record.seed) is int and type(record.evals) is int
        json.dumps(record.to_dict())

    def test_bad_algorithm(self):
        assert_rejected(algorithm="pso")

    @pytest.mark.parametrize("field", [{"variant": "i"}, {"firefly": None},
                                       {"penalty": "static-penalty"}])
    def test_nested_config_of_wrong_type_rejected(self, field):
        assert_rejected(**field)

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            VariantSpec("vi")
        with pytest.raises(ConfigError):
            VariantSpec("i", "lorenz")

    def test_negative_seed(self):
        for seed in (-1, 1.5):
            assert_rejected(seed=seed)
        with pytest.raises(ConfigError):
            optimize(benchmark_problem("sphere", dim=2), OptimizerConfig(seed=-1, max_iter=1))

    @pytest.mark.parametrize("a_const", [0.0, -1.0, math.inf, math.nan])
    def test_sca_amplitude_must_be_positive_and_finite(self, a_const):
        assert_rejected(a_const=a_const)

    @pytest.mark.parametrize("make,name", [
        (lambda v: FireflyParams(alpha0=v), "alpha0"),
        (lambda v: FireflyParams(beta=v), "beta"),
        (lambda v: FireflyParams(j_step=v), "j_step"),
        (lambda v: FireflyParams(k_step=v), "k_step"),
        (lambda v: PenaltyParams(weight=v), "weight"),
        (lambda v: OptimizerConfig(a_const=v), "a_const"),
        (lambda v: dataclasses.replace(OptimizerConfig(), a_const=v), "a_const"),
    ])
    @pytest.mark.parametrize("value", ["1", None, True, [1.0], 1j, math.nan, -math.inf])
    def test_field_that_is_not_a_finite_real_is_a_config_error(self, make, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be a finite real number, got "):
            make(value)


def twin_generators(seed):
    return (np.random.Generator(np.random.PCG64(seed)),
            np.random.Generator(np.random.PCG64(seed)))


class TestRandomDraws:
    """The run's cheap draws give numpy's values bit for bit."""

    @pytest.mark.parametrize("pop", list(range(3, 65)) + [2**31 + 1])
    def test_partner_draw_equals_integers(self, pop):
        """Interleaved stream draws equal numpy's ``random(m)`` and
        ``integers(0, pop)`` calls.  The stream reads ahead, so the bit
        generator is not compared.  The prologue draws a partner from a
        block's last raw output and then refills, so the next partner is the
        high half carried across the refill (for pop up to 64 the low half is
        rejected with odds under 2e-8); a draw of more than two blocks follows,
        and the loop's 8910 floats span over thirty more blocks."""
        ours, numpys = twin_generators(pop)
        unit, below = hybrid._draw_stream(ours.bit_generator, pop)
        block = hybrid._BLOCK
        calls = [(block - 1, 1), (1, 1), (2 * block + 5, 0)]
        calls += [(step % 29 + 1, step % 3 != 1) for step in range(600)]
        for m, partners in calls:
            draws = unit(m)
            assert draws == numpys.random(m).tolist()
            assert all(type(v) is float for v in draws)
            for _ in range(partners):
                assert below() == int(numpys.integers(0, pop))

    @pytest.mark.parametrize("pop", [3, 7, 10, 20, 64])
    def test_draws_that_end_on_a_block_edge(self, pop):
        """A block is read to its end before the next is drawn, with no unread
        rest carried over.  A ``unit`` draw ending on a block's last output is
        followed by a partner (a refill with nothing left) and, after a draw
        to the next block's last output, by another ``unit`` draw (an empty
        rest).  Each draw equals numpy's; the twin's raw count confirms that
        both edges were hit (the partner's low half is accepted, odds under
        2e-8 against for pop up to 64)."""
        ours, numpys = twin_generators(pop)
        unit, below = hybrid._draw_stream(ours.bit_generator, pop)
        block = hybrid._BLOCK

        def twin_at(outputs):  # the twin has read exactly this many raw outputs
            fresh = np.random.PCG64(pop).advance(outputs)
            return fresh.state["state"] == numpys.bit_generator.state["state"]

        assert unit(block) == numpys.random(block).tolist()
        assert twin_at(block)
        assert below() == int(numpys.integers(0, pop))
        assert unit(block - 1) == numpys.random(block - 1).tolist()
        assert twin_at(2 * block)
        for m, partners in [(5, 2), (block - 5, 1), (1, 0), (block + 3, 1)]:
            draws = unit(m)
            assert draws == numpys.random(m).tolist()
            assert all(type(v) is float for v in draws)
            for _ in range(partners):
                assert below() == int(numpys.integers(0, pop))

    def test_stream_is_freed_without_gc(self):
        """The stream's closures form no reference cycle, so a run's block and
        floats go when the run ends, not at the cyclic collector's next pass."""
        unit, below = hybrid._draw_stream(np.random.PCG64(0), 5)
        unit(hybrid._BLOCK + 3)
        below()
        gone = weakref.ref(unit), weakref.ref(below)
        gc.disable()
        try:
            del unit, below
            assert [ref() for ref in gone] == [None, None]
        finally:
            gc.enable()

    def test_wide_population_exercises_rejection(self):
        """At pop = 2**31 + 1 about half of the 32-bit values are rejected,
        so the case above covers the rejection loop."""
        pop = 2**31 + 1
        threshold = (2**32 - pop) % pop
        raw = np.random.Generator(np.random.PCG64(pop)).bit_generator.random_raw(200)
        halves = [int(r) >> shift & 0xFFFFFFFF for r in raw for shift in (0, 32)]
        rejected = sum((u * pop) & 0xFFFFFFFF < threshold for u in halves)
        assert 120 < rejected < 280

    @pytest.mark.parametrize("dim", [1, 4, 30])
    def test_scaled_unit_draws_equal_uniform(self, dim):
        ours, numpys = twin_generators(dim)
        for _ in range(200):
            r2, r3 = 2.0 * np.pi * ours.random(dim), 2.0 * ours.random(dim)
            want2, want3 = numpys.uniform(0.0, 2.0 * np.pi, dim), numpys.uniform(0.0, 2.0, dim)
            assert np.array_equal(r2.view(np.int64), want2.view(np.int64))
            assert np.array_equal(r3.view(np.int64), want3.view(np.int64))

    @pytest.mark.parametrize("dim", [1, 4, 14, 30])
    def test_one_draw_sliced_equals_three_draws(self, dim):
        """Slices of one long draw are the draws: what the stream's ``unit``
        relies on."""
        ours, numpys = twin_generators(dim)
        for _ in range(200):
            u = ours.random(3 * dim)
            for part in (u[:dim], u[dim:2 * dim], u[2 * dim:]):
                assert part.tobytes() == numpys.random(dim).tobytes()
            assert ours.bit_generator.state == numpys.bit_generator.state


class TestRunContract:
    def test_seed_determinism(self):
        problem = benchmark_problem("sphere", dim=10)
        a = optimize(problem, OptimizerConfig(seed=5, max_iter=100))
        b = optimize(problem, OptimizerConfig(seed=5, max_iter=100))
        assert a.best_position == b.best_position
        assert a.best_fitness == b.best_fitness
        assert a.best_curve == b.best_curve
        assert a.evals == b.evals
        c = optimize(problem, OptimizerConfig(seed=6, max_iter=100))
        assert c.best_curve != a.best_curve

    @pytest.mark.parametrize("algo", hybrid.ALGORITHMS)
    def test_budget_and_monotone_curve(self, algo):
        problem = benchmark_problem("rastrigin", dim=5)
        config = OptimizerConfig(algorithm=algo, population=7, max_iter=40, seed=1)
        record = optimize(problem, config)
        assert record.evals == 7 * 41
        curve = np.array(record.best_curve)
        assert len(curve) == 41
        assert np.all(np.diff(curve) <= 0.0)
        assert record.best_fitness == curve[-1]

    def test_zero_iterations(self):
        problem = benchmark_problem("sphere", dim=4)
        record = optimize(problem, OptimizerConfig(max_iter=0, seed=2))
        assert record.evals == 20
        assert len(record.best_curve) == 1
        assert record.best_fitness == record.best_curve[0]

    def test_positions_within_bounds(self):
        problem = benchmark_problem("sphere", dim=6)
        record = optimize(problem, OptimizerConfig(max_iter=30, seed=3))
        x = np.array(record.best_position)
        assert np.all(x >= problem.lower) and np.all(x <= problem.upper)

    def test_stochastic_problem_reproducible(self):
        problem = benchmark_problem("quartic_noise")
        a = optimize(problem, OptimizerConfig(seed=9, max_iter=20))
        b = optimize(problem, OptimizerConfig(seed=9, max_iter=20))
        assert a.best_curve == b.best_curve

    def test_record_roundtrip(self):
        problem = benchmark_problem("sphere", dim=4)
        record = optimize(problem, OptimizerConfig(max_iter=10, seed=4))
        assert hybrid.RunRecord.from_dict(record.to_dict()) == record

    @pytest.mark.parametrize("problem", [benchmark_problem("sphere", dim=4),
                                         engineering_problem("spring")], ids=["sphere", "spring"])
    def test_to_dict_is_asdict_with_list_copies(self, problem):
        record = optimize(problem, OptimizerConfig(max_iter=10, seed=4))
        d = record.to_dict()
        assert d == dataclasses.asdict(record)
        before = dataclasses.asdict(record)
        for key in ("best_position", "best_curve", "best_constraints"):
            if d[key] is not None:
                d[key].append(0.0)
        assert dataclasses.asdict(record) == before


def spy(monkeypatch, owner, name, log, tag=None):
    """Wrap ``owner.name`` so each call appends ``(tag or name, args, kwargs)`` to ``log``."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        log.append((tag or name, args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def spy_moves(monkeypatch):
    log = []
    for name in ("move_improved", "move_standard", "sca_step"):
        spy(monkeypatch, hybrid, name, log)
    return log


class TestTrialSemantics:
    def test_branch_pattern_under_stagnation(self, monkeypatch):
        """With constant fitness nothing improves: agents take trial_limit
        firefly moves, then one sine-cosine move, repeatedly."""
        moves = spy_moves(monkeypatch)
        config = OptimizerConfig(population=3, max_iter=10, trial_limit=3, seed=0)
        record = optimize(constant_problem(), config)

        # Agents move in index order, one move each per iteration.
        assert len(moves) == 3 * 10
        for agent in range(3):
            branches = ["ff" if name == "move_improved" else "sca"
                        for name, _, _ in moves[agent::3]]
            # trials 0,1,2 -> ff; at 3 -> sca, counter restarts from 1 after
            # the rejected sca move -> period 3 afterwards
            assert branches[:4] == ["ff", "ff", "ff", "sca"]
            assert branches[4:7] == ["ff", "ff", "sca"]
            assert branches[7:10] == ["ff", "ff", "sca"]
        # constant fitness: curve is flat at the constant
        assert record.best_curve == [1.0] * 11

    def test_both_branches_engage_on_real_problem(self, monkeypatch):
        moves = spy_moves(monkeypatch)
        optimize(benchmark_problem("sphere", dim=8),
                 OptimizerConfig(max_iter=60, trial_limit=2, seed=1))
        assert {name for name, _, _ in moves} == {"move_improved", "sca_step"}


class TestRouting:
    """Every move and every fitness evaluation goes through the public
    kernel names, once each."""

    @pytest.mark.parametrize("algo", hybrid.ALGORITHMS)
    @pytest.mark.parametrize("mode", ("feasibility-rules", "static-penalty"))
    def test_one_move_per_agent_step_and_one_fitness_per_eval(self, monkeypatch, algo, mode):
        moves, penalties, draws = spy_moves(monkeypatch), [], []
        spy(monkeypatch, hybrid, "penalized_fitness", penalties)
        spy(monkeypatch, ChaoticMap, "next_unit", draws)
        config = OptimizerConfig(algorithm=algo, population=5, max_iter=12, trial_limit=2,
                                 seed=3, penalty=PenaltyParams(mode=mode))
        record = optimize(engineering_problem("welded_beam"), config)

        assert len(moves) == 5 * 12
        assert len(penalties) == record.evals == 5 * 13
        kinds = {name for name, _, _ in moves}
        assert kinds == {"ff": {"move_standard"}, "iff": {"move_improved"},
                         "sca": {"sca_step"}, "cscf": {"move_improved", "sca_step"}}[algo]
        n_sca = sum(name == "sca_step" for name, _, _ in moves)
        if algo == "cscf":  # composite: J and K per firefly move, r1 + r2, r3 per dim per SCA step
            assert len(draws) == 2 * (len(moves) - n_sca) + (1 + 2 * 4) * n_sca
        else:
            assert draws == []

    @pytest.mark.parametrize("algo", hybrid.ALGORITHMS)
    def test_unconstrained_evaluates_once_per_eval_and_never_penalizes(self, monkeypatch, algo):
        evals, penalties = [], []
        spy(monkeypatch, ObjectiveProblem, "evaluate", evals)
        spy(monkeypatch, hybrid, "penalized_fitness", penalties)
        config = OptimizerConfig(algorithm=algo, population=5, max_iter=12, trial_limit=2, seed=3)
        record = optimize(benchmark_problem("sphere", dim=3), config)

        assert len(evals) == record.evals == 5 * 13
        assert penalties == []


# The list arguments of each kernel, by position: positions, partner, best,
# r2, r3, r4 and the box.
_LIST_ARGS = {"move_standard": (0, 1, 3, 4), "move_improved": (0, 1, 2, 4, 5),
              "sca_step": (0, 1, 3, 4, 5, 6, 7)}


@pytest.mark.parametrize("algo, kind", [("ff", "all"), ("iff", "all"), ("sca", "all"),
                                        ("cscf", "i"), ("cscf", "ii"), ("cscf", "iii"),
                                        ("cscf", "iv"), ("cscf", "v"), ("cscf", "all")])
@pytest.mark.parametrize("problem", [lambda: benchmark_problem("sphere", dim=3),
                                     lambda: engineering_problem("pressure_vessel")],
                         ids=["sphere", "pressure_vessel"])
def test_kernels_receive_python_floats(monkeypatch, algo, kind, problem):
    """Every list a kernel receives holds Python floats: a numpy scalar in a
    position (from a draw not turned into a list, say) makes every later
    step on it several times slower without changing a bit.  ``sca_step``
    gets its r2, r3 and r4 as drawn, in [0, 1]: it scales them itself."""
    moves = spy_moves(monkeypatch)
    config = OptimizerConfig(algorithm=algo, variant=VariantSpec(kind), population=5,
                             max_iter=15, trial_limit=2, seed=4)
    optimize(problem(), config)
    assert algo in ("ff", "iff") or "sca_step" in {name for name, _, _ in moves}
    for name, args, _ in moves:
        for index in _LIST_ARGS[name]:
            assert type(args[index]) is list, (name, index)
            assert all(type(v) is float for v in args[index]), (name, index)
        if name == "sca_step":
            assert all(0.0 <= v <= 1.0 for v in args[3] + args[4] + args[5])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("algo, kind", [("ff", "all"), ("iff", "all"), ("cscf", "i"),
                                        ("cscf", "all")])
@pytest.mark.parametrize("problem", [lambda: benchmark_problem("sphere", dim=5),
                                     lambda: engineering_problem("welded_beam")],
                         ids=["sphere", "welded_beam"])
def test_attraction_cache_is_never_stale(monkeypatch, algo, kind, problem, seed):
    """A run whose firefly moves get no cache gives the same record, so no
    move reuses an attraction computed for other lists."""
    config = OptimizerConfig(algorithm=algo, variant=VariantSpec(kind), population=6,
                             max_iter=30, trial_limit=3, seed=seed)
    moves = spy_moves(monkeypatch)
    cached = optimize(problem(), config)
    last, repeats = {}, 0  # each cache's last (x, y); moves that got both again
    for name, args, kw in moves:
        if name != "sca_step":
            seen = last.get(id(kw["cache"]))
            repeats += seen is not None and seen[0] is args[0] and seen[1] is args[1]
            last[id(kw["cache"])] = args[:2]
    assert repeats > 0  # the cached path ran

    monkeypatch.undo()
    for name in ("move_improved", "move_standard"):
        monkeypatch.setattr(hybrid, name, lambda *args, real=getattr(hybrid, name), cache=None,
                            **kw: real(*args, **kw))
    uncached = optimize(problem(), config)
    assert repr({**uncached.to_dict(), "wall_time": 0}) == repr(
        {**cached.to_dict(), "wall_time": 0})


def constant_chaos(monkeypatch, value):
    """Stand every chaos state of a run in by ``ConstantUnit(value)``.

    The real states are still seeded first, so the run's random stream is
    that of an unpatched run.
    """
    real = hybrid._chaos_states
    monkeypatch.setattr(hybrid, "_chaos_states", lambda variant, rng: {
        name: ConstantUnit(value) for name in real(variant, rng)})


class AnyList:
    """Equal to any list: the agent's attraction cache in a kwargs pin."""

    def __eq__(self, other):
        return type(other) is list


AGENT_CACHE = AnyList()


class TestStepVariant:
    """Each variant drives exactly its own parameter from its map."""

    def _run(self, monkeypatch, kind, value, **overrides):
        constant_chaos(monkeypatch, value)
        moves = spy_moves(monkeypatch)
        config = OptimizerConfig(population=4, max_iter=20, trial_limit=2, seed=0,
                                 variant=VariantSpec(kind), **overrides)
        optimize(benchmark_problem("sphere", dim=3), config)
        firefly = [kw for name, _, kw in moves if name == "move_improved"]
        sca = [args for name, args, _ in moves if name == "sca_step"]
        assert firefly and sca
        return firefly, sca

    def test_variant_i_zero_chaos_equals_zero_j(self, monkeypatch):
        firefly, sca = self._run(monkeypatch, "i", 0.0)
        assert all(kw == {"j_step": 0.0, "k_step": None, "cache": AGENT_CACHE} for kw in firefly)
        schedule = {r1_schedule(t, 20, 2.0) for t in range(20)}
        assert all(args[2] in schedule for args in sca)

    def test_variant_ii_scales_k(self, monkeypatch):
        firefly, _ = self._run(monkeypatch, "ii", 0.5,
                               firefly=FireflyParams(k_step=0.3))
        assert all(kw == {"j_step": None, "k_step": 0.3 * 0.5, "cache": AGENT_CACHE}
                   for kw in firefly)

    def test_variant_iii_unit_chaos_is_r1_one(self, monkeypatch):
        firefly, sca = self._run(monkeypatch, "iii", 1.0)
        assert all(kw == {"j_step": None, "k_step": None, "cache": AGENT_CACHE} for kw in firefly)
        for _, _, r1, r2, r3, r4, _, _ in sca:
            assert r1 == 1.0
            assert all(0.0 <= v < 2.0 * np.pi for v in r2) and all(0.0 <= v < 2.0 for v in r3)
            assert len(r2) == len(r3) == len(r4) == 3
            assert all(type(v) is float for v in r3 + r4)  # the draws reach the step as lists

    def test_variant_iv_passes_r2_as_drawn(self, monkeypatch):
        _, sca = self._run(monkeypatch, "iv", 0.25)
        assert all(args[3] == [0.25] * 3 for args in sca)  # sca_step scales it onto the phase

    def test_variant_v_midpoint_chaos_is_r3_one(self, monkeypatch):
        _, sca = self._run(monkeypatch, "v", 0.5)
        schedule = {r1_schedule(t, 20, 2.0) for t in range(20)}
        for _, _, r1, r2, r3, _, _, _ in sca:
            assert r1 in schedule
            assert r3 == [0.5] * 3  # a weight of 1 once sca_step scales it
            assert not np.array_equal(r2, np.full(3, r2[0]))  # r2 stays random

    def test_composite_tunes_every_parameter(self, monkeypatch):
        firefly, sca = self._run(monkeypatch, "all", 0.5)
        assert all(kw == {"j_step": 0.2 * 0.5, "k_step": 0.2 * 0.5, "cache": AGENT_CACHE}
                   for kw in firefly)
        for _, _, r1, r2, r3, _, _, _ in sca:
            assert r1 == 0.5
            assert r2 == r3 == [0.5] * 3


class TestOptimizationQuality:
    def test_sphere_2d_beats_threshold_and_random_search(self):
        problem = benchmark_problem("sphere", dim=2)
        record = optimize(problem, OptimizerConfig(seed=0))
        assert record.best_fitness < 1e-2
        rng = np.random.default_rng(0)
        samples = rng.uniform(problem.lower, problem.upper, (10_000, 2))
        random_best = float(np.min(np.sum(samples * samples, axis=1)))
        assert record.best_fitness < random_best


class TestConstrainedRuns:
    def test_feasibility_mode_fields(self):
        problem = engineering_problem("spring")
        record = optimize(problem, OptimizerConfig(seed=0, max_iter=200))
        assert record.feasible
        assert record.best_violation == 0.0
        assert record.best_cost == record.best_fitness
        assert len(record.best_constraints) == problem.n_constraints
        assert all(g <= 0.0 for g in record.best_constraints)
        curve = np.array(record.best_curve)
        assert np.all(np.diff(curve) <= 0.0)

    def test_unconstrained_record_has_no_constraints(self):
        record = optimize(benchmark_problem("sphere", dim=3),
                          OptimizerConfig(seed=0, max_iter=5))
        assert record.best_constraints is None

    def test_static_penalty_mode(self):
        problem = engineering_problem("spring")
        config = OptimizerConfig(seed=0, max_iter=200,
                                 penalty=PenaltyParams(mode="static-penalty", weight=1e6))
        record = optimize(problem, config)
        curve = np.array(record.best_curve)
        assert np.all(np.diff(curve) <= 0.0)
        assert record.best_fitness >= record.best_cost  # penalty only adds

    def test_infeasible_incumbent_recorded_above_offset(self):
        # An impossible constraint keeps every design infeasible.
        problem = engineering_problem("spring")
        original = problem.evaluate

        def impossible(z):
            cost, g = original(z)
            return cost, np.append(g, 1.0)

        problem.evaluate = impossible
        record = optimize(problem, OptimizerConfig(seed=0, max_iter=5))
        assert not record.feasible
        assert record.best_fitness >= 1e9
        assert np.all(np.diff(record.best_curve) <= 0.0)


# (dotted OptimizerConfig path, a value other than the one the test's config holds)
OTHER_VALUES = [("variant.map_name", "tent"), ("trial_limit", 3), ("firefly.alpha0", 0.5),
                ("firefly.beta", 0.5), ("firefly.j_step", 0.1), ("firefly.k_step", 0.3),
                ("a_const", 1.5), ("penalty.weight", 10.0)]


@pytest.mark.parametrize("mode", ["feasibility-rules", "static-penalty"])
@pytest.mark.parametrize("problem", ["sphere", "spring"])
@pytest.mark.parametrize("kind", hybrid.VARIANT_KINDS + ("all",))
@pytest.mark.parametrize("algo", hybrid.ALGORITHMS)
def test_as_read_resets_exactly_the_fields_a_run_does_not_read(algo, kind, problem, mode):
    """A field that ``as_read`` resets, and ``unread`` names, leaves the record bit for
    bit as it was, and on the spring each field that it keeps changes it (on sphere a
    read alpha0 may not: the pull underflows on its wide box)."""
    def outcome(config):
        record = optimize(built, config)
        return record.best_curve, record.best_position, record.best_cost

    constrained = problem == "spring"
    built = engineering_problem("spring") if constrained else benchmark_problem("sphere", dim=3)
    config = OptimizerConfig(population=6, max_iter=40, algorithm=algo, trial_limit=1,
                             seed=3, variant=VariantSpec(kind),
                             penalty=PenaltyParams(mode))
    other_kind = "ii" if kind == "i" else "i"
    other_mode = "static-penalty" if mode == "feasibility-rules" else "feasibility-rules"
    expected, skip = outcome(config), hybrid.unread(config, built)
    for path, value in OTHER_VALUES + [("variant.kind", other_kind),
                                       ("penalty.mode", other_mode)]:
        changed = hybrid.with_field(config, path, value)
        reset = hybrid.as_read(changed, built) == hybrid.as_read(config, built)
        assert reset == any(path == u or path.startswith(u + ".") for u in skip), path
        if reset or constrained:
            assert (outcome(changed) == expected) == reset, path


@pytest.mark.parametrize("problem", ["sphere", "spring"])
@pytest.mark.parametrize("algo", hybrid.ALGORITHMS)
def test_as_read_keeps_a_default_config(algo, problem):
    # so a default config's job keeps its stem
    built = engineering_problem(problem) if problem == "spring" else benchmark_problem(problem)
    config = OptimizerConfig(algorithm=algo)
    assert hybrid.as_read(config, built) == config
    # an unconstrained run reads no penalty, so it sits under the default one
    static = dataclasses.replace(config, penalty=PenaltyParams("static-penalty", 5.0))
    assert hybrid.as_read(static, built) == (static if problem == "spring" else config)
