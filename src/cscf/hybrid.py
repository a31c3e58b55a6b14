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

The engine keeps the population as arrays: one ``(population, dim)``
positions array, plus one comparison key and one trial counter per agent.
Each agent step dispatches inline to one kernel (``move_improved``,
``move_standard`` or ``sca_step``) and evaluates the candidate once through
a local fitness helper; only the incumbent keeps its raw cost and
constraint values.  Kernels, penalty handling, objectives and chaos draws
are reached through their module-level names and attributes at call time,
so a wrapper installed on ``cscf.hybrid.move_improved`` (or
``ChaoticMap.next_unit``, ``problem.evaluate``, ...) sees every call.

Reproducibility contract: a run is strictly sequential, agents update in
index order, and every random draw comes from one seeded generator, so
identical (seed, config, problem) reproduce the record bit for bit (wall
time aside); ``tests/test_golden.py`` pins 507 such records.  Greedy
replacement means an agent only ever improves, the current population
best is the best-so-far, and the recorded convergence curve is
nonincreasing.  Total objective evaluations are exactly
``population * (1 + max_iter)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from typing import Mapping, Sequence

import numpy as np

from . import analysis
from .chaos import ChaoticMap, MAP_NAMES, map_kind, seeded_map
from .engineering import PenaltyParams, penalized_fitness, total_violation
from .errors import ConfigError
from .firefly import FireflyParams, move_improved, move_standard
from .sca import ScaParams, r1_schedule, sca_step

__all__ = [
    "ALGORITHMS",
    "VARIANT_KINDS",
    "VariantSpec",
    "OptimizerConfig",
    "RunRecord",
    "optimize",
    "variant_sweep",
    "SweepCell",
    "SweepResult",
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


@dataclass
class OptimizerConfig:
    population: int = 20
    max_iter: int = 500
    dim: int | None = None
    algorithm: str = "cscf"
    variant: VariantSpec = field(default_factory=VariantSpec)
    trial_limit: int = 10
    seed: int = 0
    firefly: FireflyParams = field(default_factory=FireflyParams)
    sca: ScaParams = field(default_factory=ScaParams)
    penalty: PenaltyParams = field(default_factory=PenaltyParams)

    def validate(self) -> None:
        if self.population < 3:
            raise ConfigError("population must be >= 3 (moves need three distinct agents)")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if self.trial_limit < 1:
            raise ConfigError("trial_limit must be >= 1")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunRecord":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


# ---------------------------------------------------------------------------
# the optimizer


def _chaos_states(variant: VariantSpec, rng: np.random.Generator) -> dict[str, ChaoticMap]:
    kind = map_kind(variant.map_name)
    # Fixed construction order pins the rng consumption pattern.
    return {name: seeded_map(kind, rng) for name in _TUNABLES if name in variant.tuned}


def optimize(problem, config: OptimizerConfig) -> RunRecord:
    """Run one seeded optimization of ``problem`` under ``config``.

    ``problem`` is an :class:`~cscf.benchmarks.ObjectiveProblem` or an
    :class:`~cscf.engineering.ConstrainedProblem`; constrained problems are
    compared through the configured penalty handling.
    """
    config.validate()
    if config.dim is not None and config.dim != problem.dim:
        raise ConfigError(f"config dim {config.dim} != problem dim {problem.dim}")
    dim, pop, max_iter = problem.dim, config.population, config.max_iter
    lower, upper = problem.lower, problem.upper
    algorithm, trial_limit = config.algorithm, config.trial_limit
    firefly, penalty, a_const = config.firefly, config.penalty, config.sca.a_const

    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if getattr(problem, "reseed_noise", None) is not None:
        problem.reseed_noise(config.seed)
    maps = _chaos_states(config.variant, rng) if algorithm == "cscf" else {}
    map_j, map_k, map_r1, map_r2, map_r3 = (maps.get(name) for name in _TUNABLES)

    constrained = hasattr(problem, "n_constraints")
    rules = constrained and penalty.mode == "feasibility-rules"

    # The layers are reached through module and attribute lookups at call
    # time, so that wrappers installed on those names see every call.
    def fitness(x):
        """(comparison key, raw cost, constraint values or None) at ``x``.

        Keys order lexicographically: ``(value,)``, ``(penalized cost,)`` or
        the feasibility-rule key ``(infeasible, violation, cost)``.
        """
        if not constrained:
            value = problem.evaluate(x)
            return (value,), value, None
        cost, g = problem.evaluate(x)
        key = penalized_fitness(cost, g, penalty)
        return (key if rules else (key,)), cost, g

    def recorded(key, cost):
        """The curve's value for an incumbent: its key's scalar, except that
        an infeasible incumbent under feasibility rules records far above any
        design cost, ordered by violation."""
        if rules:
            return cost if key[1] == 0.0 else _INFEASIBLE_OFFSET + key[1]
        return key[0]

    positions = rng.uniform(lower, upper, (pop, dim))
    keys = []
    for i in range(pop):
        key, cost, g = fitness(positions[i])
        keys.append(key)
        if i == 0 or key < best[0]:
            best, best_i = (key, cost, g), i
    best_position = positions[best_i].copy()
    best_scalar = recorded(best[0], best[1])
    curve = [best_scalar]

    trials = [0] * pop
    unit, integers = rng.random, rng.integers
    sca_always, switch = algorithm == "sca", algorithm == "cscf"
    for t in range(max_iter):
        for i in range(pop):
            x = positions[i]
            if sca_always or (switch and trials[i] >= trial_limit):
                trials[i] = 0
                r1 = r1_schedule(t, max_iter, a_const) if map_r1 is None else map_r1.next_unit()
                if map_r2 is not None:
                    r2 = 2.0 * np.pi * map_r2.unit(dim)
                else:
                    r2 = rng.uniform(0.0, 2.0 * np.pi, dim)
                if map_r3 is not None:
                    r3 = 2.0 * map_r3.unit(dim)
                else:
                    r3 = rng.uniform(0.0, 2.0, dim)
                candidate = sca_step(x, best_position, r1, r2, r3, unit(dim), lower, upper)
            elif algorithm == "ff":
                candidate = move_standard(x, best_position, firefly, lower, upper, unit)
            else:  # improved firefly, with a random partner other than i and the best
                while True:
                    a = int(integers(0, pop))
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

    key, cost, g = best
    if rules:
        violation = key[1]
    else:
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


# ---------------------------------------------------------------------------
# variant-by-map sweep


@dataclass(frozen=True)
class SweepCell:
    problem: str
    variant: str
    map_name: str
    mae: float
    n: int


@dataclass
class SweepResult:
    cells: list
    variant_mean_mae: dict
    variant_rank: dict

    def grid(self) -> dict:
        """{(problem, map): {variant: mae}} in table-row form."""
        out: dict = {}
        for cell in self.cells:
            out.setdefault((cell.problem, cell.map_name), {})[cell.variant] = cell.mae
        return out


def _reference_of(problem) -> float:
    ref = getattr(problem, "reference_best", None)
    if ref is None:
        ref = getattr(problem, "f_reference", None)
    if ref is None:
        raise ConfigError(f"problem {problem.name!r} has no reference optimum for MAE")
    return float(ref)


def variant_sweep(
    problems: Sequence,
    variants: Sequence[str] = VARIANT_KINDS,
    map_names: Sequence[str] = MAP_NAMES,
    replicates: int = 3,
    config: OptimizerConfig | None = None,
    base_seed: int = 0,
) -> SweepResult:
    """Run every (problem, variant, map) cell and rank variants by mean MAE.

    Each cell runs ``replicates`` seeds (``base_seed + r``) and records the
    mean absolute error of the achieved best cost against the problem's
    reference optimum.  The returned grid has exactly
    ``len(problems) * len(variants) * len(map_names)`` cells.
    """
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    template = config or OptimizerConfig()
    cells = []
    for problem in problems:
        reference = _reference_of(problem)
        for variant in variants:
            for map_name in map_names:
                bests = []
                for r in range(replicates):
                    cfg = OptimizerConfig(
                        population=template.population,
                        max_iter=template.max_iter,
                        algorithm="cscf",
                        variant=VariantSpec(variant, map_name),
                        trial_limit=template.trial_limit,
                        seed=base_seed + r,
                        firefly=template.firefly,
                        sca=template.sca,
                        penalty=template.penalty,
                    )
                    bests.append(optimize(problem, cfg).best_cost)
                cells.append(SweepCell(problem.name, variant, map_name,
                                       analysis.mae(bests, reference), replicates))

    means = {
        v: float(np.mean([c.mae for c in cells if c.variant == v])) for v in variants
    }
    order = sorted(means, key=means.get)
    ranks = {v: order.index(v) + 1 for v in variants}
    return SweepResult(cells=cells, variant_mean_mae=means, variant_rank=ranks)
