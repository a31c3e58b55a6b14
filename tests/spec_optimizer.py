"""The optimizer as a plain reading of the algorithm: the executable spec.

Each agent keeps a position, a fitness and a trial counter.  Every
iteration visits the agents in index order.  Under ``sca``, and under
``cscf`` once an agent's counter has reached the trial limit (the
stagnation switch, which resets the counter), the agent takes a sine-cosine
step around the best position; otherwise ``ff`` takes the standard firefly
move toward the best, and ``iff``/``cscf`` the improved move, whose random
partner is any agent other than the mover and the best.  A candidate
replaces the agent only when its fitness is strictly lower (greedy
acceptance), which resets the counter and may make it the new best; a
rejected candidate adds one to the counter.  The curve records the best
after every iteration: its fitness, or under feasibility rules its cost,
an infeasible best standing at ``1e9`` plus its violation.

Under ``cscf`` each parameter the variant tunes takes its own chaotic state,
seeded from the run's generator in the order j, k, r1, r2, r3: J and K as
``j_step``/``k_step`` times a unit draw, r1 as a unit draw, r2 and r3 as
``2*pi`` and ``2`` times unit draws.  Everything else is drawn from
``numpy.random.default_rng(seed)`` through its public methods only.
"""

import math

import numpy as np

from cscf.chaos import seeded_map
from cscf.engineering import penalized_fitness
from cscf.sca import r1_schedule


def spec_optimize(problem, config):
    """``(best_curve, best_position)`` of ``config`` on ``problem``, as lists of floats."""
    rng = np.random.default_rng(config.seed)
    if getattr(problem, "reseed_noise", None) is not None:
        problem.reseed_noise(config.seed)
    tuned = config.variant.tuned if config.algorithm == "cscf" else ()
    maps = {name: seeded_map(config.variant.map_name, rng)
            for name in ("j", "k", "r1", "r2", "r3") if name in tuned}
    constrained = hasattr(problem, "n_constraints")
    rules = constrained and config.penalty.mode == "feasibility-rules"
    lower, upper, dim, pop = problem.lower, problem.upper, problem.dim, config.population
    p = config.firefly

    def fitness(x):
        if not constrained:
            value = problem.evaluate(x)
            return value, value
        cost, g = problem.evaluate(x)
        key = penalized_fitness(cost, g, config.penalty)
        return key, (cost if key[1] == 0.0 else 1e9 + key[1]) if rules else key

    positions = rng.uniform(lower, upper, (pop, dim))
    fits = [fitness(x) for x in positions]
    best = min(range(pop), key=lambda i: fits[i][0])  # the first of equal ones
    curve, trials = [fits[best][1]], [0] * pop
    for t in range(config.max_iter):
        for i in range(pop):
            x, dest = positions[i], positions[best]
            if config.algorithm == "sca" or (config.algorithm == "cscf"
                                             and trials[i] >= config.trial_limit):
                trials[i] = 0
                r1 = maps["r1"].next_unit() if "r1" in maps \
                    else r1_schedule(t, config.max_iter, config.a_const)
                r2 = 2 * np.pi * np.array(maps["r2"].unit(dim)) if "r2" in maps \
                    else rng.uniform(0, 2 * np.pi, dim)
                r3 = 2 * np.array(maps["r3"].unit(dim)) if "r3" in maps else rng.uniform(0, 2, dim)
                trig = np.where(rng.random(dim) < 0.5, np.sin(r2), np.cos(r2))
                new = x + r1 * trig * np.abs(r3 * dest - x)
            else:
                squares = 0.0
                for c in dest - x:  # the squares summed left to right
                    squares += c * c
                d = math.sqrt(squares)
                pull = p.alpha0 * math.exp(-p.beta * d * d)
                j, k, partner = p.j_step, 0.0, None
                if config.algorithm != "ff":
                    partner = rng.integers(0, pop)
                    while partner in (i, best):
                        partner = rng.integers(0, pop)
                    j *= maps["j"].next_unit() if "j" in maps else 1.0
                    k = p.k_step * (maps["k"].next_unit() if "k" in maps else 1.0)
                new = x + pull * (dest - x) + j * ((rng.random(dim) - 0.5) * (upper - lower) / 10)
                if partner is not None:
                    new = new + k * (positions[partner] - x)
            new = np.clip(new, lower, upper)
            fit = fitness(new)
            if fit[0] < fits[i][0]:
                positions[i], fits[i], trials[i] = new, fit, 0
                if fit[0] < fits[best][0]:
                    best = i
            else:
                trials[i] += 1
        curve.append(fits[best][1])
    position = positions[best]
    if getattr(problem, "repair", None) is not None:
        position = problem.repair(position)
    return [float(v) for v in curve], [float(v) for v in position]
