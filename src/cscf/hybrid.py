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

Reproducibility contract: a run is strictly sequential, agents update in
index order, and every random draw comes from one seeded generator, so
identical (seed, config, problem) reproduce the record bit for bit (wall
time aside).  Greedy replacement means an agent only ever improves, the
current population best is the best-so-far, and the recorded convergence
curve is nonincreasing.  Total objective evaluations are exactly
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
    "Agent",
    "VariantSpec",
    "OptimizerConfig",
    "RunRecord",
    "StepContext",
    "step_variant",
    "optimize",
    "variant_sweep",
    "SweepCell",
    "SweepResult",
]

ALGORITHMS = ("ff", "iff", "sca", "cscf")
VARIANT_KINDS = ("i", "ii", "iii", "iv", "v")

# Recorded stand-in fitness for infeasible incumbents under feasibility
# rules: far above any design cost, ordered by violation.
_INFEASIBLE_OFFSET = 1e9


@dataclass
class Agent:
    """One population member."""

    position: np.ndarray
    fitness: float            # raw objective / cost
    penalized: tuple          # comparison key (see _fitness)
    violation: float = 0.0
    trial: int = 0
    constraints: np.ndarray | None = None


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
            return frozenset(("j", "k", "r1", "r2", "r3"))
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


@dataclass
class StepContext:
    """Population state a single move needs to see."""

    positions: Sequence[np.ndarray]
    agent_index: int
    best_index: int
    best_position: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    iteration: int
    max_iter: int


# ---------------------------------------------------------------------------
# fitness plumbing


def _is_constrained(problem) -> bool:
    return hasattr(problem, "n_constraints")


def _fitness(problem, penalty: PenaltyParams, x: np.ndarray):
    """Return (comparison key, recorded scalar, raw cost, violation, constraints)."""
    if _is_constrained(problem):
        cost, g = problem.evaluate(x)
        pen = penalized_fitness(cost, g, penalty)
        if isinstance(pen, tuple):
            viol = pen[1]
            scalar = cost if viol == 0.0 else _INFEASIBLE_OFFSET + viol
            return pen, scalar, float(cost), viol, g
        return (pen,), pen, float(cost), total_violation(g), g
    value = problem.evaluate(x)
    return (value,), value, value, 0.0, None


def _recorded_scalar(agent: "Agent", problem, penalty: PenaltyParams) -> float:
    if not _is_constrained(problem):
        return agent.fitness
    if penalty.mode == "static-penalty":
        return agent.penalized[0]
    return agent.fitness if agent.violation == 0.0 else _INFEASIBLE_OFFSET + agent.violation


# ---------------------------------------------------------------------------
# moves


def _chaos_states(variant: VariantSpec, rng: np.random.Generator) -> dict[str, ChaoticMap]:
    kind = map_kind(variant.map_name)
    # Fixed construction order pins the rng consumption pattern.
    return {name: seeded_map(kind, rng) for name in ("j", "k", "r1", "r2", "r3")
            if name in variant.tuned}


def _partner_index(rng: np.random.Generator, pop: int, i: int, best: int) -> int:
    while True:
        a = int(rng.integers(0, pop))
        if a != i and a != best:
            return a


def _move_firefly(ctx: StepContext, params: FireflyParams, tuned, maps, rng):
    x = ctx.positions[ctx.agent_index]
    y = ctx.best_position
    a = ctx.positions[_partner_index(rng, len(ctx.positions), ctx.agent_index, ctx.best_index)]
    j = params.j_step * maps["j"].next_unit() if "j" in tuned else None
    k = params.k_step * maps["k"].next_unit() if "k" in tuned else None
    return move_improved(x, y, a, params, ctx.lower, ctx.upper, rng.random,
                         j_step=j, k_step=k)


def _move_sca(ctx: StepContext, params: ScaParams, tuned, maps, rng):
    x = ctx.positions[ctx.agent_index]
    dim = x.size
    if "r1" in tuned:
        r1 = maps["r1"].next_unit()
    else:
        r1 = r1_schedule(ctx.iteration, ctx.max_iter, params.a_const)
    if "r2" in tuned:
        r2 = 2.0 * np.pi * maps["r2"].unit(dim)
    else:
        r2 = rng.uniform(0.0, 2.0 * np.pi, dim)
    if "r3" in tuned:
        r3 = 2.0 * maps["r3"].unit(dim)
    else:
        r3 = rng.uniform(0.0, 2.0, dim)
    r4 = rng.random(dim)
    return sca_step(x, ctx.best_position, r1, r2, r3, r4, ctx.lower, ctx.upper)


def step_variant(
    agent: Agent,
    ctx: StepContext,
    variant: VariantSpec,
    maps: Mapping[str, ChaoticMap],
    config: OptimizerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One chaotically tuned move for ``agent`` under a single variant.

    Variants ``i``/``ii`` route through the improved-firefly move with J
    (resp. K) modulated by the variant's map; ``iii``/``iv``/``v`` route
    through the sine-cosine step with r1 (resp. r2, r3) chaos-driven.
    """
    if variant.kind in ("i", "ii"):
        return _move_firefly(ctx, config.firefly, variant.tuned, maps, rng)
    if variant.kind in ("iii", "iv", "v"):
        return _move_sca(ctx, config.sca, variant.tuned, maps, rng)
    raise ConfigError(f"step_variant takes a single variant, got {variant.kind!r}")


# ---------------------------------------------------------------------------
# the optimizer


def optimize(problem, config: OptimizerConfig) -> RunRecord:
    """Run one seeded optimization of ``problem`` under ``config``.

    ``problem`` is an :class:`~cscf.benchmarks.ObjectiveProblem` or an
    :class:`~cscf.engineering.ConstrainedProblem`; constrained problems are
    compared through the configured penalty handling.
    """
    config.validate()
    if config.dim is not None and config.dim != problem.dim:
        raise ConfigError(f"config dim {config.dim} != problem dim {problem.dim}")
    dim = problem.dim
    lower, upper = problem.lower, problem.upper

    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if getattr(problem, "reseed_noise", None) is not None:
        problem.reseed_noise(config.seed)

    tuned = config.variant.tuned if config.algorithm == "cscf" else frozenset()
    maps = _chaos_states(config.variant, rng) if config.algorithm == "cscf" else {}

    positions = rng.uniform(lower, upper, (config.population, dim))
    agents = []
    for i in range(config.population):
        key, scalar, cost, viol, g = _fitness(problem, config.penalty, positions[i])
        agents.append(Agent(position=positions[i].copy(), fitness=cost,
                            penalized=key, violation=viol, constraints=g))
    evals = config.population

    best_i = min(range(config.population), key=lambda i: agents[i].penalized)
    best = agents[best_i]
    best_position = best.position.copy()
    best_key = best.penalized
    best_scalar = _recorded_scalar(best, problem, config.penalty)
    best_cost, best_viol = best.fitness, best.violation
    best_g = best.constraints
    curve = [best_scalar]

    for t in range(config.max_iter):
        for i in range(config.population):
            agent = agents[i]
            ctx = StepContext(
                positions=[a.position for a in agents],
                agent_index=i,
                best_index=best_i,
                best_position=best_position,
                lower=lower,
                upper=upper,
                iteration=t,
                max_iter=config.max_iter,
            )
            if config.algorithm == "cscf":
                if agent.trial < config.trial_limit:
                    candidate = _move_firefly(ctx, config.firefly, tuned, maps, rng)
                else:
                    agent.trial = 0
                    candidate = _move_sca(ctx, config.sca, tuned, maps, rng)
            elif config.algorithm == "ff":
                candidate = move_standard(agent.position, best_position, config.firefly,
                                          lower, upper, rng.random)
            elif config.algorithm == "iff":
                candidate = _move_firefly(ctx, config.firefly, frozenset(), maps, rng)
            else:  # sca
                candidate = _move_sca(ctx, config.sca, frozenset(), maps, rng)

            key, scalar, cost, viol, g = _fitness(problem, config.penalty, candidate)
            evals += 1
            if key < agent.penalized:
                agent.position = candidate
                agent.penalized = key
                agent.fitness = cost
                agent.violation = viol
                agent.constraints = g
                agent.trial = 0
                if key < best_key:
                    best_key = key
                    best_scalar = scalar
                    best_cost, best_viol = cost, viol
                    best_g = g
                    best_position = candidate.copy()
                    best_i = i
            else:
                agent.trial += 1
        curve.append(best_scalar)

    if getattr(problem, "repair", None) is not None:
        best_position = problem.repair(best_position)  # the design that was evaluated
    return RunRecord(
        seed=config.seed,
        best_position=[float(v) for v in best_position],
        best_fitness=float(best_scalar),
        best_curve=[float(v) for v in curve],
        wall_time=time.perf_counter() - started,
        evals=evals,
        best_cost=float(best_cost),
        best_violation=float(best_viol),
        feasible=best_viol == 0.0,
        best_constraints=None if best_g is None else [float(v) for v in best_g],
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
