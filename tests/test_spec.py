"""The optimizer computes what its plain reading says, bit for bit.

``spec_optimizer.spec_optimize`` states the algorithm in numpy with public
draws only; ``optimize`` must give its ``best_curve`` and ``best_position``
exactly, over the golden grid's short runs and a few long ones.  A change
meant to keep the records leaves the spec as it is; a change to the
algorithm changes the spec and ``optimize`` together.
"""

import pytest

from cscf.engineering import PenaltyParams
from cscf.hybrid import OptimizerConfig, VariantSpec, optimize
from spec_optimizer import spec_optimize
from test_golden import PROBLEMS, _problem, grid_cases

# (problem, dim or None, config): the golden long runs, whose ackley D = 20
# is the widest position the engine runs, and one long run per other
# algorithm and penalty mode
LONG_RUNS = [
    ("welded_beam", None, OptimizerConfig(max_iter=300, seed=0)),
    ("spring", None, OptimizerConfig(max_iter=300, seed=0)),
    ("ackley", 20, OptimizerConfig(max_iter=300, seed=0)),
    ("ackley", 20, OptimizerConfig(max_iter=100, seed=1, algorithm="sca")),
    ("pressure_vessel", None, OptimizerConfig(
        max_iter=300, seed=2, algorithm="iff", penalty=PenaltyParams(mode="static-penalty"))),
    ("quartic_noise", 4, OptimizerConfig(max_iter=300, seed=1, algorithm="ff")),
    ("spring", None, OptimizerConfig(
        max_iter=300, seed=1, variant=VariantSpec("iii", "circle"), trial_limit=3)),
    ("pressure_vessel", None, OptimizerConfig(max_iter=300, seed=1)),
    ("welded_beam", None, OptimizerConfig(
        max_iter=300, seed=2, algorithm="sca", penalty=PenaltyParams(mode="static-penalty"))),
    ("ackley", 20, OptimizerConfig(max_iter=300, seed=2, algorithm="iff")),
    ("rastrigin", 20, OptimizerConfig(max_iter=300, seed=3, variant=VariantSpec("v", "tent"))),
]


def assert_follows_spec(problem_args, config):
    record = optimize(_problem(*problem_args), config)
    curve, position = spec_optimize(_problem(*problem_args), config)
    assert record.best_curve == curve
    assert record.best_position == position


@pytest.mark.parametrize("group", tuple(PROBLEMS))
def test_short_runs_follow_the_spec(group):
    for _, problem_args, config in grid_cases(group):
        assert_follows_spec(problem_args, config)


@pytest.mark.parametrize("name, dim, config", LONG_RUNS,
                         ids=[f"{n}-{c.algorithm}-s{c.seed}" for n, _, c in LONG_RUNS])
def test_long_runs_follow_the_spec(name, dim, config):
    assert_follows_spec((name, dim), config)

