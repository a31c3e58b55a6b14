"""Golden records: the optimizer's output pinned bit for bit.

Every case runs ``optimize`` on a fresh problem and hashes the record as
sorted-key JSON without ``wall_time``; ``golden_records.json`` beside this
file holds the expected sha256 of each case.  A change meant to keep the
optimizer's behaviour leaves every hash as it is.  A change to the records
made on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in its description.  The file's combined hash names the
records' behaviour: its first 12 hex digits must equal
``cscf.cli.RECORD_VERSION``, so a rerun of ``cscf run`` recomputes every job
instead of serving a record of the old behaviour.

The grid covers every algorithm, every single variant and the composite
under three maps, both penalty modes, the reseeded noise of
``quartic_noise`` and the thickness repair of ``pressure_vessel``, in short
runs whose trial limit of 3 makes the SCA switch fire often, plus three
long runs.  The ``maps`` group pins every chaotic map on its own: the
default-seed orbit and the unit draws of fifty seeded states.  The
``objectives`` group pins each of the twenty benchmark objectives at 200
seeded in-box points, at D = 2, 10 and 20 for the scalable rows and at
their own dimension for the fixed ones.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cscf.benchmarks import benchmark_problem
from cscf.cli import RECORD_VERSION
from cscf.chaos import MAP_NAMES, new_map, seeded_map
from cscf.engineering import PENALTY_MODES, PenaltyParams, engineering_problem
from cscf.errors import DivergedOrbitError
from cscf.hybrid import VARIANT_KINDS, OptimizerConfig, VariantSpec, optimize

GOLDEN = Path(__file__).with_name("golden_records.json")

# name -> (problem name, dim or None for the fixed-size design problems)
PROBLEMS = {
    "sphere-d5": ("sphere", 5),
    "rastrigin-d10": ("rastrigin", 10),
    "quartic_noise-d4": ("quartic_noise", 4),
    "welded_beam": ("welded_beam", None),
    "pressure_vessel": ("pressure_vessel", None),
    "spring": ("spring", None),
}
MAPS = ("logistic", "circle", "tent")
SEEDS = (0, 1)
LONG_RUNS = {
    "welded_beam": ("welded_beam", None),
    "spring": ("spring", None),
    "ackley-d20": ("ackley", 20),
}


def _problem(name, dim):
    if dim is None:
        return engineering_problem(name)
    return benchmark_problem(name, dim=dim)


def _algorithms():
    yield "ff", VariantSpec()
    yield "iff", VariantSpec()
    yield "sca", VariantSpec()
    for kind in VARIANT_KINDS + ("all",):
        for map_name in MAPS:
            yield f"cscf-{kind}-{map_name}", VariantSpec(kind, map_name)


def grid_cases(group):
    """(case id, problem factory arguments, config) for one group of the grid."""
    if group == "long":
        for tag, args in LONG_RUNS.items():
            yield f"long/{tag}", args, OptimizerConfig(max_iter=300, seed=0)
        return
    name, dim = PROBLEMS[group]
    for algo, variant in _algorithms():
        for mode in PENALTY_MODES:
            for seed in SEEDS:
                config = OptimizerConfig(
                    population=6, max_iter=30, trial_limit=3, seed=seed,
                    algorithm=algo.split("-")[0], variant=variant,
                    penalty=PenaltyParams(mode=mode))
                yield f"{group}/{algo}/{mode}/s{seed}", (name, dim), config


GROUPS = tuple(PROBLEMS) + ("long", "maps", "objectives")
OBJECTIVE_DIMS = (2, 10, 20)
OBJECTIVE_POINTS = 200


def record_hash(problem_args, config) -> str:
    record = optimize(_problem(*problem_args), config).to_dict()
    del record["wall_time"]
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def map_hash(name) -> str:
    """sha256 of the default-seed orbit and of 300 unit draws from each of 50
    seeded states; a state that diverges adds its error and step count."""
    digest = hashlib.sha256(new_map(name).take_raw(10_000).tobytes())
    for seed in range(50):
        state = seeded_map(name, np.random.default_rng(seed))
        try:
            digest.update(state.unit(300).tobytes())
        except DivergedOrbitError:
            digest.update(f"DivergedOrbitError@{state.step_count}".encode())
    return digest.hexdigest()


def objective_hash(index) -> str:
    """sha256 of one objective's values at 200 seeded in-box points per
    dimension; the noise of ``quartic_noise`` is reseeded with 0 first."""
    digest = hashlib.sha256()
    for dim in sorted({benchmark_problem(index, dim=d).dim for d in OBJECTIVE_DIMS}):
        problem = benchmark_problem(index, dim=dim)
        if problem.reseed_noise is not None:
            problem.reseed_noise(0)
        points = np.random.default_rng(dim).uniform(
            problem.lower, problem.upper, (OBJECTIVE_POINTS, dim))
        digest.update(np.array([problem.evaluate(x) for x in points]).tobytes())
    return digest.hexdigest()


def objective_cases():
    return {f"objectives/{benchmark_problem(i).name}": i for i in range(1, 21)}


def compute(group) -> dict:
    if group == "maps":
        return {f"maps/{name}": map_hash(name) for name in MAP_NAMES}
    if group == "objectives":
        return {case: objective_hash(i) for case, i in objective_cases().items()}
    return {case: record_hash(args, config) for case, args, config in grid_cases(group)}


def combined_hash(table) -> str:
    """sha256 over the case hashes in sorted case order."""
    return hashlib.sha256("".join(table[k] for k in sorted(table)).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_grid_size(golden):
    assert len(golden) == 6 * 21 * 2 * 2 + 3 + 12 + 20 == 539
    records = {case for g in GROUPS[:-2] for case, _, _ in grid_cases(g)}
    maps = {f"maps/{name}" for name in MAP_NAMES}
    assert set(golden) == records | maps | set(objective_cases())


def test_record_version_names_the_golden_file(golden):
    assert RECORD_VERSION == combined_hash(golden)[:12]


@pytest.mark.parametrize("group", GROUPS)
def test_records_unchanged(group, golden):
    got = compute(group)
    changed = sorted(case for case, digest in got.items() if golden.get(case) != digest)
    assert not changed, f"{len(changed)} of {len(got)} records changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    table = {}
    for group in GROUPS:
        table.update(compute(group))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} record hashes to {GOLDEN.name}; set cscf.cli.RECORD_VERSION "
          f"to {combined_hash(table)[:12]!r}")
