"""Golden records: the optimizer's output pinned bit for bit.

Every case runs ``optimize`` on a fresh problem and hashes the record as
sorted-key JSON without ``wall_time``; ``golden_records.json`` beside this
file holds the expected sha256 of each case.  A change meant to keep the
optimizer's behaviour leaves every hash as it is.  A change to the records
made on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in its description.

The grid covers every algorithm, every single variant and the composite
under three maps, both penalty modes, the reseeded noise of
``quartic_noise`` and the thickness repair of ``pressure_vessel``, in short
runs whose trial limit of 3 makes the SCA switch fire often, plus three
long runs.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cscf.benchmarks import benchmark_problem
from cscf.engineering import PENALTY_MODES, PenaltyParams, engineering_problem
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


GROUPS = tuple(PROBLEMS) + ("long",)


def record_hash(problem_args, config) -> str:
    record = optimize(_problem(*problem_args), config).to_dict()
    del record["wall_time"]
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def compute(group) -> dict:
    return {case: record_hash(args, config) for case, args, config in grid_cases(group)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_grid_size(golden):
    assert len(golden) == 6 * 21 * 2 * 2 + 3 == 507
    assert set(golden) == {case for g in GROUPS for case, _, _ in grid_cases(g)}


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
    combined = hashlib.sha256("".join(table[k] for k in sorted(table)).encode()).hexdigest()
    print(f"wrote {len(table)} record hashes to {GOLDEN.name}; combined {combined[:16]}")
