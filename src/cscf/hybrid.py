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
``iv``     sine-cosine phase r2 (a unit draw; see :mod:`cscf.sca`)
``v``      sine-cosine weight r3 (a unit draw; see :mod:`cscf.sca`)
``all``    every one of the above at once (composite)
=========  =============================================

Each tuned parameter owns an independent chaotic state seeded from the
run's random stream; states are never shared across parameters, which
keeps the chaos draws decorrelated.

This module runs one optimization at a time.  The variant-by-map study
(which variant and map give the lowest error) is a batch: ``cscf run``
over the variants and maps, then ``cscf report`` for ``mae_grid.csv`` and
``variant_rank.csv`` (see :mod:`cscf.cli`).

The engine holds each agent's position, the box and the best position as
lists of Python floats, the kernels' own input and output: a list is never
written to, so an accepted candidate is stored without a copy, and each agent's
firefly attraction cache, kept for the run, is keyed by those lists' identity
(see :mod:`cscf.firefly`).  Each agent also has one comparison key and one
trial counter.  One switch rule serves all four algorithms: an agent takes a
sine-cosine step once its count reaches the run's ``switch_at`` (0 for ``sca``,
``trial_limit`` for ``cscf``, unreachable for ``ff`` and ``iff``) and its firefly
move otherwise, and evaluates the candidate once, inline: an objective's value
is its key, and a design's cost and constraint values give the key through
``penalized_fitness``; only the incumbent keeps its raw cost and constraints.
Kernels, penalty handling, objectives and chaos draws are reached through
their module-level names and attributes at call time, so a wrapper
installed on ``cscf.hybrid.move_improved`` (or ``ChaoticMap.next_unit``,
``problem.evaluate``, ...) sees every call.  For that reason chaos draws are
never batched: ``ChaoticMap.unit(n)`` makes ``n`` calls to ``next_unit``, so
a tracer wrapped around it counts each draw and sees each diverged orbit.

Reproducibility contract: a run is strictly sequential, agents update in
index order, and every random draw comes from one seeded generator, so
identical (seed, config, problem) reproduce the record bit for bit (wall
time aside); ``tests/test_golden.py`` pins 539 such records.  After the
chaos seeds and the initial positions, every draw comes from
``_draw_stream``, which reads raw outputs ahead in blocks (so the generator's
state runs ahead of the run) and gives numpy's ``random(n)`` values as list
slices and its ``integers(0, pop)`` values as partner draws.  Every draw
reaches its kernel as drawn (``sca_step`` scales its phase and weight itself).
An SCA step's r2, r3 and r4 are drawn in that order, so a plain step's three
slices are one ``random(3*dim)``, and a chaos-driven phase or weight skips its
draw.  Greedy replacement means an agent only ever improves, the current
population best is the best-so-far, and the recorded convergence curve is
nonincreasing.  Total objective evaluations are exactly
``population * (1 + max_iter)``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .chaos import ChaoticMap, MAP_NAMES, seeded_map
from .engineering import PenaltyParams, penalized_fitness, total_violation
from .errors import ConfigError, as_count, as_real
from .firefly import FireflyParams, move_improved, move_standard
from .sca import r1_schedule, sca_step

__all__ = [
    "ALGORITHMS",
    "VARIANT_KINDS",
    "VariantSpec",
    "OptimizerConfig",
    "RunRecord",
    "as_read",
    "optimize",
    "unread",
    "with_field",
]

ALGORITHMS = ("ff", "iff", "sca", "cscf")
# Each single variant and the parameter it chaos-drives, in state-seeding order.
_TUNED = {"i": "j", "ii": "k", "iii": "r1", "iv": "r2", "v": "r3"}
VARIANT_KINDS = tuple(_TUNED)
_TUNABLES = tuple(_TUNED.values())

_BLOCK = 256  # raw outputs read ahead at a time; a longer block saves little and holds more memory

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
        return frozenset(_TUNABLES if self.kind == "all" else (_TUNED[self.kind],))


@dataclass(frozen=True)
class OptimizerConfig:
    """One run's settings, checked when made: a bad field raises ``ConfigError``, in
    a copy made by ``dataclasses.replace`` (the way to vary a config) too.  The
    counts pass ``errors.as_count``, the one count rule, and are stored as ``int``.
    The nested ``variant``, ``firefly`` and ``penalty`` configs are type-checked, and
    each checks its own fields when made."""

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
        # a move needs three distinct agents, so the population's least is 3
        for name, least in (("population", 3), ("max_iter", 0), ("trial_limit", 1), ("seed", 0)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), least))
        for name, kind in (("variant", VariantSpec), ("firefly", FireflyParams),
                           ("penalty", PenaltyParams)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not 0 < as_real("a_const", self.a_const):
            raise ConfigError(f"a_const must be positive, got {self.a_const}")
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


def _draw_stream(bit_generator: np.random.PCG64, pop: int):
    """The run's in-loop draws as ``(unit, below)``, equal call for call, in any
    interleaving, to ``rng.random(n).tolist()`` and ``int(rng.integers(0, pop))``
    on a generator over ``bit_generator``.  Raw outputs are read ahead in blocks,
    each read to its end before the next and turned into floats once as numpy's
    ``random`` does, ``(r >> 11) * 2**-53``; ``below`` is Lemire's multiply-shift
    on PCG64's ``next_uint32`` (a raw output's low half, then its high half),
    numpy's path for ``pop`` < 2**32.  Nothing else may use the generator meanwhile."""
    raw = bit_generator.random_raw
    threshold = (2**32 - pop) % pop
    block, floats, pos, spare = np.empty(0, np.uint64), [], 0, -1  # spare: a high half or -1

    def refill(n):  # once a block is read to its end: a fresh one, its first n outputs taken
        nonlocal block, floats, pos
        block = raw(max(_BLOCK, n))
        floats, pos = ((block >> 11) * 2.0**-53).tolist(), n

    def unit(n):  # no self-call: a closure calling itself is a cycle, which only gc frees
        nonlocal pos
        if pos + n > len(floats):  # the block's rest, then the head of a fresh block
            rest = floats[pos:]
            refill(n - len(rest))
            return rest + floats[:pos]
        pos += n
        return floats[pos - n:pos]

    def below():
        nonlocal pos, spare
        while True:
            if spare < 0:
                if pos == len(floats):
                    refill(0)
                r = block.item(pos)
                pos += 1
                m, spare = (r & 0xFFFFFFFF) * pop, r >> 32
            else:
                m, spare = spare * pop, -1
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    return unit, below


def with_field(obj, path: str, value):
    """``obj``, a dataclass, with the (dotted) field ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: with_field(getattr(obj, head), rest, value) if rest else value})


def unread(config: OptimizerConfig, problem) -> tuple:
    """The dotted fields of ``config`` that ``optimize`` does not read on ``problem``."""
    algo, constrained = config.algorithm, hasattr(problem, "n_constraints")
    reads = {"variant": algo == "cscf", "trial_limit": algo == "cscf",
             **dict.fromkeys(("firefly.alpha0", "firefly.beta", "firefly.j_step"), algo != "sca"),
             "firefly.k_step": algo in ("iff", "cscf"),
             "a_const": algo == "sca" or algo == "cscf" and "r1" not in config.variant.tuned,
             "penalty.mode": constrained,
             "penalty.weight": constrained and config.penalty.mode == "static-penalty"}
    return tuple(path for path, read in reads.items() if not read)


def as_read(config: OptimizerConfig, problem) -> OptimizerConfig:
    """``config`` with its ``unread`` fields at their defaults: one run, one config."""
    base = OptimizerConfig()
    for path in unread(config, problem):
        default = functools.reduce(getattr, path.split("."), base)
        if functools.reduce(getattr, path.split("."), config) != default:  # a copy is checked
            config = with_field(config, path, default)
    return config


def optimize(problem, config: OptimizerConfig) -> RunRecord:
    """Run one seeded optimization of ``problem`` under ``config``.

    ``problem`` is an :class:`~cscf.benchmarks.ObjectiveProblem` or an
    :class:`~cscf.engineering.ConstrainedProblem`; constrained problems are
    compared through the configured penalty handling.
    """
    dim, pop, max_iter = problem.dim, config.population, config.max_iter
    lower, upper = problem.lower.tolist(), problem.upper.tolist()
    algorithm, trial_limit = config.algorithm, config.trial_limit
    firefly, penalty, a_const = config.firefly, config.penalty, config.a_const

    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(config.seed))  # what default_rng builds
    if getattr(problem, "reseed_noise", None) is not None:
        problem.reseed_noise(config.seed)
    maps = _chaos_states(config.variant, rng) if algorithm == "cscf" else {}
    map_j, map_k, map_r1 = (maps.get(name) for name in ("j", "k", "r1"))

    constrained = hasattr(problem, "n_constraints")
    rules = constrained and penalty.mode == "feasibility-rules"

    def recorded(key, cost):
        """The curve's value for an incumbent: its key, or under feasibility
        rules its cost, infeasible ones far above any cost by violation."""
        return (cost if key[1] == 0.0 else _INFEASIBLE_OFFSET + key[1]) if rules else key

    # Layers are looked up at call time, so wrappers on their names see every
    # call.  A key is the objective value, the static-penalty cost or the
    # feasibility-rules tuple ``(infeasible, violation, cost)``.
    positions = rng.uniform(problem.lower, problem.upper, (pop, dim)).tolist()
    keys, g = [], None
    for i in range(pop):
        if constrained:
            cost, g = problem.evaluate(positions[i])
            key = penalized_fitness(cost, g, penalty)
        else:
            key = cost = problem.evaluate(positions[i])
        keys.append(key)
        if i == 0 or key < best[0]:
            best, best_i = (key, cost, g), i
    best_position = positions[best_i]
    best_scalar = recorded(best[0], best[1])
    curve = [best_scalar]

    trials = [0] * pop
    caches = [[] for _ in range(pop)]  # each agent's attraction cache
    unit, partner = _draw_stream(rng.bit_generator, pop)
    r2_unit, r3_unit = (maps[name].unit if name in maps else unit for name in ("r2", "r3"))
    switch_at = {"sca": 0, "cscf": trial_limit}.get(algorithm, max_iter)  # ff, iff: never reached
    standard = algorithm == "ff"
    j_step, k_step = firefly.j_step, firefly.k_step
    for t in range(max_iter):
        for i in range(pop):
            x = positions[i]
            if trials[i] >= switch_at:
                trials[i] = 0
                r1 = r1_schedule(t, max_iter, a_const) if map_r1 is None else map_r1.next_unit()
                # r2, r3 and r4 are drawn in that order
                candidate = sca_step(x, best_position, r1, r2_unit(dim), r3_unit(dim), unit(dim),
                                     lower, upper)
            elif standard:
                candidate = move_standard(x, best_position, firefly, lower, upper, unit,
                                          cache=caches[i])
            else:  # improved firefly, with a random partner other than i and the best
                a = partner()
                while a == i or a == best_i:
                    a = partner()
                j = None if map_j is None else j_step * map_j.next_unit()
                k = None if map_k is None else k_step * map_k.next_unit()
                candidate = move_improved(x, best_position, positions[a], firefly,
                                          lower, upper, unit, j_step=j, k_step=k,
                                          cache=caches[i])

            if constrained:
                cost, g = problem.evaluate(candidate)
                key = penalized_fitness(cost, g, penalty)
            else:
                key = cost = problem.evaluate(candidate)
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

