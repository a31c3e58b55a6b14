"""The four workloads: what one round runs, and how its outputs are checked.

A round is a fixed list of operations built from the run's ``--seed`` and
the round index, so every round of a workload attempts the same kind and
number of operations.  Operations go through ``Meter.timed``, so only
the program's work is timed.  The program is always reached through module attributes
(``hybrid.optimize``, ``cli.main``) so that :class:`tracing.Tracer` can wrap
the layers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cscf import analysis, hybrid
from cscf.benchmarks import benchmark_problem
from cscf.chaos import MAP_NAMES
from cscf.engineering import ENGINEERING_NAMES, engineering_problem
from cscf.errors import DivergedOrbitError
from cscf.hybrid import VARIANT_KINDS, OptimizerConfig, VariantSpec

import reference

VARIANTS = VARIANT_KINDS + ("all",)
# Maps whose seeded orbits can escape (``seeded_map`` accepts such seeds);
# they run only at fixed seeds, see VariantSweep.
ESCAPING_MAPS = ("henon", "singer")
# Composite runs that raise DivergedOrbitError on every attempt.
KNOWN_DIVERGED = frozenset(
    [("welded_beam", "all", m, 8) for m in ESCAPING_MAPS]
    + [(p, "all", m, s) for p in ("pressure_vessel", "spring")
       for m in ESCAPING_MAPS for s in (6, 8)])
# Problems whose ``cscf.engineering`` cost or constraints differ from the
# literature formulas at every point of the box (README, "Known faults").
# Their records always disagree with ``reference`` and count as failed.
FORMULA_FAULT = frozenset(["pressure_vessel", "spring"])


@dataclass
class Op:
    problem: object
    config: OptimizerConfig

    @property
    def key(self) -> tuple:
        v = self.config.variant
        return (self.problem.name, v.kind, v.map_name, self.config.seed)


@dataclass
class RoundResult:
    attempted: int
    failed: int
    evals: int
    records: int
    errors: list = field(default_factory=list)
    files_written: int = 0   # record files and bytes written by cscf run
    bytes_written: int = 0


def _problem(name: str, dim: int):
    if name in ENGINEERING_NAMES:
        return engineering_problem(name)
    return benchmark_problem(name, dim=dim)


def _run_op(op: Op):
    try:
        return hybrid.optimize(op.problem, op.config).to_dict()
    except DivergedOrbitError as exc:
        return exc


class Workload:
    """Runs ``optimize`` on a list of operations per round."""

    name = ""
    problems: tuple = ()
    dim = 0
    population = 20
    max_iter = 0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.references = {name: _reference(name) for name in self.problems}
        self.done: list[tuple[Op, dict]] = []   # every completed op, for check_run
        self.passed: list[tuple[Op, dict]] = []   # the completed ops that did not fail

    def base_seed(self, k: int) -> int:
        """Optimizer seed of round ``k``; harness replicates use base..base+9."""
        return 1_000_003 * self.seed + 10 * k

    def config(self, seed: int, variant: str = "all", map_name: str = "logistic",
               algorithm: str = "cscf"):
        return OptimizerConfig(population=self.population, max_iter=self.max_iter,
                               seed=seed, variant=VariantSpec(variant, map_name),
                               algorithm=algorithm)

    def ops(self, k: int) -> list[Op]:
        seed = self.base_seed(k)
        return [Op(_problem(name, self.dim), self.config(seed)) for name in self.problems]

    def setup_spec(self) -> dict:
        """What setup_probe.py builds: the first round's problems and configs."""
        return {"cli": isinstance(self, Harness), "runs": [
            [op.problem.name, op.problem.dim, op.config.population, op.config.max_iter,
             op.config.seed, op.config.variant.kind, op.config.variant.map_name,
             op.config.algorithm] for op in self.ops(0)]}

    def expected_failure(self, op: Op) -> bool:
        return False

    def run_round(self, k: int, meter) -> RoundResult:
        ops = self.ops(k)
        outputs = [meter.timed(_run_op, op) for op in ops]
        errors, failed = [], 0
        for op, out in zip(ops, outputs):
            if not isinstance(out, dict):
                failed += 1
                if not self.expected_failure(op):
                    errors.append(f"{op.key}: unexpected {type(out).__name__}: {out}")
                continue
            if self.expected_failure(op):
                errors.append(f"{op.key}: expected DivergedOrbitError, got a record")
            self.done.append((op, out))
            record_errors, formula_fault = check_op(op, out)
            errors += record_errors
            if formula_fault:
                failed += 1
            else:
                self.passed.append((op, out))
        records = sum(isinstance(out, dict) for out in outputs)
        return RoundResult(attempted=len(ops), failed=failed,
                           evals=sum(out["evals"] for out in outputs if isinstance(out, dict)),
                           records=records, errors=errors)

    def check_run(self) -> list[str]:
        return []


def check_op(op: Op, rec: dict) -> tuple[list[str], bool]:
    """(errors, failed) of one record: a record of a FORMULA_FAULT problem
    that disagrees only with the formulas is a failed operation, any other
    disagreement an error."""
    errors, mismatches = reference.check_record(
        rec, op.problem.name, op.problem.lower, op.problem.upper,
        op.config.population, op.config.max_iter, op.config.seed)
    if mismatches and op.problem.name not in FORMULA_FAULT:
        errors += mismatches
    return errors, bool(mismatches) and op.problem.name in FORMULA_FAULT


def _reference(name: str) -> float:
    """The program's reference optimum for MAE (input data, not an output)."""
    if name in ENGINEERING_NAMES:
        return engineering_problem(name).reference_best
    return benchmark_problem(name).f_reference


class PaperScale(Workload):
    """Criterion 4: composite cscf, logistic map, D=20, population 20, 500 iterations."""

    name = "paper_scale"
    problems = ("sphere", "ackley", "rastrigin")
    dim = 20
    max_iter = 500

    def check_run(self) -> list[str]:
        # Each problem's median must beat the median of equal-budget random
        # search at the same seeds.
        errors = []
        budget = self.population * (1 + self.max_iter)
        for name in self.problems:
            runs = [(op, rec) for op, rec in self.passed if op.problem.name == name]
            mine = statistics.median(rec["best_fitness"] for _, rec in runs)
            random_search = statistics.median(
                reference.random_search_best(name, op.problem.lower, op.problem.upper,
                                             budget, op.config.seed) for op, _ in runs)
            if not mine < random_search:
                errors.append(f"{name}: median {mine} does not beat random search "
                              f"{random_search}")
        return errors


class Engineering(Workload):
    """Criterion 6: composite cscf on the three design problems, 1000 iterations."""

    name = "engineering"
    problems = ENGINEERING_NAMES
    max_iter = 1000
    # Criterion-6 cost envelopes, checked on the best design of at least
    # ENVELOPE_SEEDS seeds; check_run runs the seeds that the timed rounds
    # did not reach.  The pressure vessel's 7000 is left out: 16 of 40
    # seeds end above it (README).  A FORMULA_FAULT problem's records are
    # failed operations, so its envelope is not checked.
    envelopes = {"welded_beam": 2.0, "spring": 0.025}
    ENVELOPE_SEEDS = 3

    def check_run(self) -> list[str]:
        errors = []
        rounds = len({rec["seed"] for _, rec in self.done})
        for k in range(rounds, self.ENVELOPE_SEEDS):
            for op in self.ops(k):
                if op.problem.name in self.envelopes and op.problem.name not in FORMULA_FAULT:
                    rec = _run_op(op)
                    if not isinstance(rec, dict):
                        errors.append(f"{op.key}: unexpected {type(rec).__name__}: {rec}")
                        continue
                    self.passed.append((op, rec))
                    errors += check_op(op, rec)[0]
        for name in self.problems:
            recs = [rec for op, rec in self.passed if op.problem.name == name]
            if not all(rec["feasible"] for rec in recs):
                errors.append(f"{name}: an infeasible best design")
            bound = self.envelopes.get(name)
            if bound is not None and name not in FORMULA_FAULT and \
                    not min(r["best_cost"] for r in recs) <= bound:
                errors.append(f"{name}: no design of {len(recs)} seeds within {bound}")
        return errors


class VariantSweep(Workload):
    """Criterion 9's shape: every variant x every map on the engineering suite.

    Each round runs the 10 non-escaping maps x 6 variants x 3 problems at
    the round's seed, and the two escaping maps x 6 variants x 3 problems
    at the fixed seeds 6 and 8, where the composite runs named in
    KNOWN_DIVERGED fail on every attempt.  At seeds drawn from ``--seed``
    the escaping maps fail only on some seeds, so they do not run there.
    """

    name = "variant_sweep"
    problems = ENGINEERING_NAMES
    population = 10
    max_iter = 40

    def ops(self, k: int) -> list[Op]:
        seed = self.base_seed(k)
        ops = []
        for name in self.problems:
            problem = engineering_problem(name)
            for variant in VARIANTS:
                for map_name in MAP_NAMES:
                    seeds = (6, 8) if map_name in ESCAPING_MAPS else (seed,)
                    ops += [Op(problem, self.config(s, variant, map_name)) for s in seeds]
        return ops

    def expected_failure(self, op: Op) -> bool:
        return op.key in KNOWN_DIVERGED

    def check_run(self) -> list[str]:
        cells: dict = {}
        for op, rec in self.done:
            name, variant, map_name, _ = op.key
            cells.setdefault((name, variant, map_name), []).append(rec["best_cost"])
        errors = []
        for (name, variant, map_name), costs in cells.items():
            ref = self.references[name]
            got = analysis.mae(costs, ref)
            want = statistics.fmean(abs(c - ref) for c in costs)
            if not (np.isfinite(got) and got >= 0.0 and reference.close(got, want)):
                errors.append(f"{name}/{variant}/{map_name}: MAE {got} != {want}")
        # Every cell but the composite escaping-map cells whose seeds all diverge.
        expected = {key[:3] for key in itertools.product(
            self.problems, VARIANTS, MAP_NAMES, (6, 8)) if key not in KNOWN_DIVERGED}
        if set(cells) != expected:
            errors.append(f"MAE cells {sorted(set(cells) ^ expected)[:4]} missing or extra")
        return errors


class Harness(Workload):
    """``cscf run`` then ``cscf report`` through ``cli.main``, one fresh directory a round."""

    name = "harness"
    problems = ("sphere", "rastrigin", "welded_beam", "spring")
    algos = ("cscf", "ff", "iff", "sca")
    maps = ("logistic", "sine")
    dim = 10
    max_iter = 50
    replicates = 3

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.rerun_of: tuple | None = None
        self.directories = itertools.count()

    def argv(self, k: int, out: Path) -> list[str]:
        return ["run", "--problems", ",".join(self.problems), "--algo", ",".join(self.algos),
                "--map", ",".join(self.maps), "--dim", str(self.dim),
                "--pop", str(self.population), "--iters", str(self.max_iter),
                "--replicates", str(self.replicates), "--seed", str(self.base_seed(k)),
                "--jobs", "1", "--out", str(out)]

    def ops(self, k: int) -> list[Op]:
        """The runs the grid expands to, as problems and configs."""
        ops = []
        for name in self.problems:
            problem = _problem(name, self.dim)
            for algo in self.algos:
                for map_name in (self.maps if algo == "cscf" else ("logistic",)):
                    ops += [Op(problem, self.config(self.base_seed(k) + r, "all", map_name, algo))
                            for r in range(self.replicates)]
        return ops

    def run_round(self, k: int, meter) -> RoundResult:
        out = self.out_dir / f"round{k}-{next(self.directories)}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = meter.timed(_cli, self.argv(k, out))
            report_status = meter.timed(_cli, ["report", "--in", str(out)])
        errors = [f"cscf {cmd} exited {code}" for cmd, code in
                  (("run", status), ("report", report_status)) if code != 0]
        written = reference.load_records(out)
        ops = self.ops(k)
        record_errors, formula_faults = self._check_records(ops, written)
        errors += record_errors
        errors += reference.check_tables(out, list(written.values()), self.references)
        size = sum(p.stat().st_size for p in out.iterdir())
        if self.rerun_of is None:
            self.rerun_of = (k, out)
        else:
            shutil.rmtree(out)
        return RoundResult(attempted=len(ops) + 1,
                           failed=len(ops) - len(written) + formula_faults,
                           evals=sum(rec["evals"] for rec in written.values()),
                           records=len(written), errors=errors,
                           files_written=len(written), bytes_written=size)

    def _check_records(self, ops: list[Op], written: dict) -> tuple[list[str], int]:
        """(errors, failed records), matching records to runs by what they
        say they are, not by file name."""
        def key(problem, algo, map_name, seed):
            return problem, algo, map_name if algo == "cscf" else "-", seed

        expected = {key(op.problem.name, op.config.algorithm, op.config.variant.map_name,
                        op.config.seed): op for op in ops}
        found = {key(rec["problem"], rec["algo"], rec["map"], rec["seed"]): rec
                 for rec in written.values()}
        errors, failed = [], 0
        if sorted(found) != sorted(expected) or len(found) != len(written):
            errors.append(f"cscf run wrote {len(written)} records, expected {len(expected)}")
        for run_key, rec in found.items():
            op = expected.get(run_key)
            if op is None:
                continue
            record_errors, formula_fault = check_op(op, rec)
            errors += record_errors
            failed += formula_fault
        return errors, failed

    def check_run(self) -> list[str]:
        """Run the first round's grid again; records must match byte for byte."""
        k, first = self.rerun_of
        again = self.out_dir / f"rerun{k}"
        with contextlib.redirect_stdout(io.StringIO()):
            _cli(self.argv(k, again))
        errors = reference.check_rerun(first, again)
        shutil.rmtree(first)
        shutil.rmtree(again)
        return errors


def _cli(argv: list[str]) -> int:
    from cscf import cli
    return cli.main(argv)


WORKLOADS = {w.name: w for w in (PaperScale, Engineering, VariantSweep, Harness)}
