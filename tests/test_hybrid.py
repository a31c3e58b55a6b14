"""Hybrid optimizer tests: determinism, budgets, trial semantics, variants."""

import dataclasses
import math

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
        return np.full(n, self.value)


def constant_problem(dim=3, value=1.0):
    return ObjectiveProblem(
        name="constant",
        index=0,
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
        assert_rejected(population=2)

    def test_max_iter_floor(self):
        assert_rejected(max_iter=-1)

    def test_trial_limit_floor(self):
        assert_rejected(trial_limit=0)

    def test_bad_algorithm(self):
        assert_rejected(algorithm="pso")

    def test_bad_variant(self):
        with pytest.raises(ConfigError):
            VariantSpec("vi")
        with pytest.raises(ConfigError):
            VariantSpec("i", "lorenz")

    def test_negative_seed(self):
        assert_rejected(seed=-1)
        with pytest.raises(ConfigError):
            optimize(benchmark_problem("sphere", dim=2), OptimizerConfig(seed=-1, max_iter=1))

    @pytest.mark.parametrize("a_const", [0.0, -1.0, math.inf, math.nan])
    def test_sca_amplitude_must_be_positive_and_finite(self, a_const):
        assert_rejected(a_const=a_const)


def twin_generators(seed):
    return (np.random.Generator(np.random.PCG64(seed)),
            np.random.Generator(np.random.PCG64(seed)))


class TestRandomDraws:
    """The run's cheap draws give numpy's values bit for bit and leave the
    generator where numpy's own calls would."""

    @pytest.mark.parametrize("pop", list(range(3, 65)) + [2**31 + 1])
    def test_partner_draw_equals_integers(self, pop):
        ours, numpys = twin_generators(pop)
        draw = hybrid._integers_below(ours.bit_generator, pop)
        for step in range(400):
            assert draw() == int(numpys.integers(0, pop))
            if step % 3 == 0:  # odd and even counts of raw outputs between draws
                n = step % 4 + 1
                assert ours.random(n).tobytes() == numpys.random(n).tobytes()
            if step % 5 == 0:
                assert ours.uniform(-1.0, 3.0) == numpys.uniform(-1.0, 3.0)
        assert ours.bit_generator.state["state"] == numpys.bit_generator.state["state"]
        assert ours.random(8).tobytes() == numpys.random(8).tobytes()

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
        """A plain SCA step draws r2, r3 and r4 as one ``random(3*dim)``."""
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


def constant_chaos(monkeypatch, value):
    """Stand every chaos state of a run in by ``ConstantUnit(value)``.

    The real states are still seeded first, so the run's random stream is
    that of an unpatched run.
    """
    real = hybrid._chaos_states
    monkeypatch.setattr(hybrid, "_chaos_states", lambda variant, rng: {
        name: ConstantUnit(value) for name in real(variant, rng)})


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
        assert all(kw == {"j_step": 0.0, "k_step": None} for kw in firefly)
        schedule = {r1_schedule(t, 20) for t in range(20)}
        assert all(args[2] in schedule for args in sca)

    def test_variant_ii_scales_k(self, monkeypatch):
        firefly, _ = self._run(monkeypatch, "ii", 0.5,
                               firefly=FireflyParams(k_step=0.3))
        assert all(kw == {"j_step": None, "k_step": 0.3 * 0.5} for kw in firefly)

    def test_variant_iii_unit_chaos_is_r1_one(self, monkeypatch):
        firefly, sca = self._run(monkeypatch, "iii", 1.0)
        assert all(kw == {"j_step": None, "k_step": None} for kw in firefly)
        for _, _, r1, r2, r3, r4, _, _ in sca:
            assert r1 == 1.0
            assert np.all((r2 >= 0.0) & (r2 < 2.0 * np.pi)) and np.all((r3 >= 0.0) & (r3 < 2.0))
            assert r2.shape == r3.shape == r4.shape == (3,)

    def test_variant_iv_scales_r2_onto_phase(self, monkeypatch):
        _, sca = self._run(monkeypatch, "iv", 0.25)
        assert all(np.array_equal(args[3], np.full(3, 2.0 * np.pi * 0.25)) for args in sca)

    def test_variant_v_midpoint_chaos_is_r3_one(self, monkeypatch):
        _, sca = self._run(monkeypatch, "v", 0.5)
        schedule = {r1_schedule(t, 20) for t in range(20)}
        for _, _, r1, r2, r3, _, _, _ in sca:
            assert r1 in schedule
            assert np.array_equal(r3, np.ones(3))
            assert not np.array_equal(r2, np.full(3, r2[0]))  # r2 stays random

    def test_composite_tunes_every_parameter(self, monkeypatch):
        firefly, sca = self._run(monkeypatch, "all", 0.5)
        assert all(kw == {"j_step": 0.2 * 0.5, "k_step": 0.2 * 0.5} for kw in firefly)
        for _, _, r1, r2, r3, _, _, _ in sca:
            assert r1 == 0.5
            assert np.array_equal(r2, np.full(3, 2.0 * np.pi * 0.5))
            assert np.array_equal(r3, np.ones(3))


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

