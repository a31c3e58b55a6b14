"""The chaotic sine-cosine firefly hybrid and its baseline algorithms.

One engine drives four algorithms: plain firefly (``ff``), improved
firefly (``iff``), sine-cosine (``sca``), and the hybrid (``cscf``).  The
hybrid gives each agent a stagnation counter: while ``trial`` is below the
limit the agent takes improved-firefly moves; once it stagnates past the
limit it takes a sine-cosine step instead (and the counter resets), so the
population drifts from firefly exploration toward oscillatory exploitation
exactly where progress has stalled.

Variants select which movement parameter is chaos-driven instead of
random/scheduled:

=========  =============================================
variant    chaotically tuned parameter
=========  =============================================
``i``      firefly randomization step J
``ii``     improved-firefly pull step K
``iii``    sine-cosine amplitude r1 (unit interval)
``iv``     sine-cosine phase r2 (scaled onto [0, 2*pi])
``v``      sine-cosine weight r3 (scaled onto [0, 2])
``all``    every one of the above at once (composite)
=========  =============================================

Each tuned parameter owns an independent chaotic state seeded from the
run's random stream; states are never shared across parameters, which
keeps the chaos draws decorrelated.

This module runs one optimization at a time.  The variant-by-map study
(which variant and map give the lowest error) is a batch: ``cscf run``
over the variants and maps, then ``cscf report`` for ``mae_grid.csv`` and
``variant_rank.csv`` (see :mod:`cscf.cli`).

The engine keeps one position array per agent, which owns its data and is
never written to (an accepted candidate is stored without a copy), plus one
comparison key and one trial counter per agent.  Each agent step dispatches
inline to one kernel (``move_improved``, ``move_standard`` or ``sca_step``)
and evaluates the candidate once through a local fitness helper; only the
incumbent keeps its raw cost and constraint values.  Kernels, penalty
handling, objectives and chaos draws are reached through their module-level
names and attributes at call time, so a wrapper installed on
``cscf.hybrid.move_improved`` (or ``ChaoticMap.next_unit``,
``problem.evaluate``, ...) sees every call.  For that reason chaos draws are
never batched: ``ChaoticMap.unit(n)`` makes ``n`` calls to ``next_unit``, so
a tracer wrapped around it counts each draw and sees each diverged orbit.

Reproducibility contract: a run is strictly sequential, agents update in
index order, and every random draw comes from one seeded generator, so
identical (seed, config, problem) reproduce the record bit for bit (wall
time aside); ``tests/test_golden.py`` pins 507 such records.  Partner draws
come from ``_integers_below``, which repeats numpy's ``integers(0, pop)``
arithmetic on the bit generator's raw outputs without its per-call cost; the
SCA phase and weight are ``2*pi*random`` and ``2*random``, which is what
``uniform(0, 2*pi)`` and ``uniform(0, 2)`` compute.  When neither is
chaos-driven, one ``random(3*dim)`` call supplies the phase, the weight and
the branch draw r4, sliced in that order: three ``random(dim)`` calls give
the same stream.  All of these keep numpy's bits.
Greedy replacement means an agent only ever improves, the current population
best is the best-so-far, and the recorded convergence curve is
nonincreasing.  Total objective evaluations are exactly
``population * (1 + max_iter)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .chaos import ChaoticMap, MAP_NAMES, seeded_map
from .engineering import PenaltyParams, penalized_fitness, total_violation
from .errors import ConfigError
from .firefly import FireflyParams, move_improved, move_standard
from .sca import r1_schedule, sca_step

__all__ = [
    "ALGORITHMS",
    "VARIANT_KINDS",
    "VariantSpec",
    "OptimizerConfig",
    "RunRecord",
    "optimize",
]

ALGORITHMS = ("ff", "iff", "sca", "cscf")
VARIANT_KINDS = ("i", "ii", "iii", "iv", "v")
# The chaos-driven parameters, in the order their states are seeded.
_TUNABLES = ("j", "k", "r1", "r2", "r3")

# Recorded stand-in fitness for infeasible incumbents under feasibility
# rules: far above any design cost, ordered by violation.
_INFEASIBLE_OFFSET = 1e9


@dataclass(frozen=True)
class VariantSpec:
    """Which parameter is chaos-driven, and by which map kind."""

    kind: str = "all"
    map_name: str = "logistic"

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS + ("all",):
            raise ConfigError(f"unknown variant {self.kind!r}")
        if self.map_name not in MAP_NAMES:
            raise ConfigError(f"unknown chaotic map {self.map_name!r}")

    @property
    def tuned(self) -> frozenset:
        if self.kind == "all":
            return frozenset(_TUNABLES)
        return frozenset({"i": ("j",), "ii": ("k",), "iii": ("r1",),
                          "iv": ("r2",), "v": ("r3",)}[self.kind])


@dataclass(frozen=True)
class OptimizerConfig:
    """One run's settings, checked when made: a bad field raises ``ConfigError``, in
    a copy made by ``dataclasses.replace`` (the way to vary a config) too."""

    population: int = 20
    max_iter: int = 500
    algorithm: str = "cscf"
    variant: VariantSpec = field(default_factory=VariantSpec)
    trial_limit: int = 10
    seed: int = 0
    firefly: FireflyParams = field(default_factory=FireflyParams)
    a_const: float = 2.0  # the sine-cosine amplitude at step 0 (see r1_schedule)
    penalty: PenaltyParams = field(default_factory=PenaltyParams)

    def __post_init__(self):
        if self.population < 3:
            raise ConfigError("population must be >= 3 (moves need three distinct agents)")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.trial_limit < 1:
            raise ConfigError("trial_limit must be >= 1")
        if not 0 < self.a_const < math.inf:
            raise ConfigError(f"a_const must be positive and finite, got {self.a_const}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}")


@dataclass
class RunRecord:
    """The unit of statistical analysis: one seeded optimizer run."""

    seed: int
    best_position: list
    best_fitness: float
    best_curve: list
    wall_time: float
    evals: int
    best_cost: float
    best_violation: float
    feasible: bool
    best_constraints: list | None = None

    def to_dict(self) -> dict:
        """The fields as a dict; the list fields are new lists."""
        return {**vars(self), "best_position": list(self.best_position),
                "best_curve": list(self.best_curve),
                "best_constraints": None if self.best_constraints is None
                else list(self.best_constraints)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunRecord":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


# ---------------------------------------------------------------------------
# the optimizer


def _chaos_states(variant: VariantSpec, rng: np.random.Generator) -> dict[str, ChaoticMap]:
    # Fixed construction order pins the rng consumption pattern.
    return {name: seeded_map(variant.map_name, rng) for name in _TUNABLES if name in variant.tuned}


def _integers_below(bit_generator: np.random.PCG64, n: int):
    """Draws equal, call for call, to ``int(rng.integers(0, n))`` on a generator
    over ``bit_generator``: Lemire's multiply-shift on PCG64's ``next_uint32``,
    the low half of a raw output and then its high half.  That 32-bit path
    covers every ``n`` below 2**32.  The spare half is kept here, not in the
    bit generator, so nothing else may draw 32-bit values from it meanwhile."""
    raw = bit_generator.random_raw
    threshold = (2**32 - n) % n
    spare = -1  # the unused high half of the last raw output, or -1

    def draw() -> int:
        nonlocal spare
        while True:
            if spare < 0:
                r = raw()
                m, spare = (r & 0xFFFFFFFF) * n, r >> 32
            else:
                m, spare = spare * n, -1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    return draw


def optimize(problem, config: OptimizerConfig) -> RunRecord:
    """Run one seeded optimization of ``problem`` under ``config``.

    ``problem`` is an :class:`~cscf.benchmarks.ObjectiveProblem` or an
    :class:`~cscf.engineering.ConstrainedProblem`; constrained problems are
    compared through the configured penalty handling.
    """
    dim, pop, max_iter = problem.dim, config.population, config.max_iter
    lower, upper = problem.lower, problem.upper
    algorithm, trial_limit = config.algorithm, config.trial_limit
    firefly, penalty, a_const = config.firefly, config.penalty, config.a_const

    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(config.seed))  # what default_rng builds
    if getattr(problem, "reseed_noise", None) is not None:
        problem.reseed_noise(config.seed)
    maps = _chaos_states(config.variant, rng) if algorithm == "cscf" else {}
    map_j, map_k, map_r1, map_r2, map_r3 = (maps.get(name) for name in _TUNABLES)

    constrained = hasattr(problem, "n_constraints")
    rules = constrained and penalty.mode == "feasibility-rules"

    # The layers are reached through module and attribute lookups at call
    # time, so that wrappers installed on those names see every call.
    def fitness(x):
        """(comparison key, raw cost, constraint values or None) at ``x``.  The
        key is the objective value, the static-penalty cost or the
        feasibility-rules tuple ``(infeasible, violation, cost)``."""
        if not constrained:
            value = problem.evaluate(x)
            return value, value, None
        cost, g = problem.evaluate(x)
        return penalized_fitness(cost, g, penalty), cost, g

    def recorded(key, cost):
        """The curve's value for an incumbent: its key, or under feasibility
        rules its cost, infeasible ones far above any cost by violation."""
        return (cost if key[1] == 0.0 else _INFEASIBLE_OFFSET + key[1]) if rules else key

    positions = [row.copy() for row in rng.uniform(lower, upper, (pop, dim))]
    keys = []
    for i in range(pop):
        key, cost, g = fitness(positions[i])
        keys.append(key)
        if i == 0 or key < best[0]:
            best, best_i = (key, cost, g), i
    best_position = positions[best_i]
    best_scalar = recorded(best[0], best[1])
    curve = [best_scalar]

    trials = [0] * pop
    unit, partner = rng.random, _integers_below(rng.bit_generator, pop)
    sca_always, switch = algorithm == "sca", algorithm == "cscf"
    plain_sca = map_r2 is None and map_r3 is None
    for t in range(max_iter):
        for i in range(pop):
            x = positions[i]
            if sca_always or (switch and trials[i] >= trial_limit):
                trials[i] = 0
                r1 = r1_schedule(t, max_iter, a_const) if map_r1 is None else map_r1.next_unit()
                if plain_sca:  # r2, r3 and r4 in one call, numpy's stream in that order
                    u = unit(3 * dim)
                    r2, r3, r4 = 2.0 * np.pi * u[:dim], 2.0 * u[dim:2 * dim], u[2 * dim:]
                else:
                    r2 = 2.0 * np.pi * (unit if map_r2 is None else map_r2.unit)(dim)
                    r3 = 2.0 * (unit if map_r3 is None else map_r3.unit)(dim)
                    r4 = unit(dim)
                candidate = sca_step(x, best_position, r1, r2, r3, r4, lower, upper)
            elif algorithm == "ff":
                candidate = move_standard(x, best_position, firefly, lower, upper, unit)
            else:  # improved firefly, with a random partner other than i and the best
                while True:
                    a = partner()
                    if a != i and a != best_i:
                        break
                j = None if map_j is None else firefly.j_step * map_j.next_unit()
                k = None if map_k is None else firefly.k_step * map_k.next_unit()
                candidate = move_improved(x, best_position, positions[a], firefly,
                                          lower, upper, unit, j_step=j, k_step=k)

            key, cost, g = fitness(candidate)
            if key < keys[i]:
                positions[i] = candidate
                keys[i] = key
                trials[i] = 0
                if key < best[0]:
                    best, best_i = (key, cost, g), i
                    best_scalar = recorded(key, cost)
                    best_position = candidate
            else:
                trials[i] += 1
        curve.append(best_scalar)

    _, cost, g = best
    violation = total_violation(g) if constrained else 0.0
    if getattr(problem, "repair", None) is not None:
        best_position = problem.repair(best_position)  # the design that was evaluated
    return RunRecord(
        seed=config.seed,
        best_position=[float(v) for v in best_position],
        best_fitness=float(best_scalar),
        best_curve=[float(v) for v in curve],
        wall_time=time.perf_counter() - started,
        evals=pop * (1 + max_iter),
        best_cost=float(cost),
        best_violation=float(violation),
        feasible=violation == 0.0,
        best_constraints=None if g is None else [float(v) for v in g],
    )

