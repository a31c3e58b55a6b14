"""Command-line experiment harness: seeded batch runs and report generation.

Subcommands:

* ``cscf run`` executes the cross-product of problem / algorithm /
  variant / map / dimension / replicate selectors.  Every run writes one
  JSON record (a single JSON line, keys sorted) plus a per-run
  convergence CSV, under a stem that ends in a short sha256 of the run's
  parameters.  Existing outputs are skipped unless ``--force`` is given;
  writes are atomic (temp file + rename).  Replicate seeds are
  ``base_seed + replicate_index``.  A run that raises is reported on
  stderr, the others are still written, and the command exits 1.
* ``cscf report`` aggregates a directory of records into summary,
  Wilcoxon, MAE-grid, and wall-time tables.
* ``cscf list-problems`` / ``cscf list-maps`` enumerate the stable names.

A config file (INI sections [problem], [algorithm], [variant], [chaos],
[penalty], [experiment]) can predefine everything; flags override it.
The ``CSCF_OUT`` environment variable supplies the default output root.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from . import analysis
from .benchmarks import BENCHMARK_IDS, benchmark_problem, resolve_problem_name
from .chaos import MAP_NAMES
from .engineering import ENGINEERING_NAMES, PENALTY_MODES, engineering_problem
from .errors import ConfigError, EmptyInputError
from .hybrid import (
    ALGORITHMS,
    VARIANT_KINDS,
    OptimizerConfig,
    RunRecord,
    VariantSpec,
    _reference_of,
    optimize,
)

__all__ = ["ExperimentSpec", "cmd_run", "cmd_report", "main"]

_ENV_OUT = "CSCF_OUT"


class _Param(NamedTuple):
    """One tunable: record key, INI [section] option, flag, type, path into OptimizerConfig."""

    key: str
    section: str
    option: str
    flag: str
    cast: type
    path: str
    choices: tuple | None = None


# The single source of the tunables: the parser, the INI reader and the
# flat record fields are all derived from these rows.
_PARAMS = (
    _Param("population", "algorithm", "population", "--pop", int, "population"),
    _Param("max_iter", "algorithm", "max_iter", "--iters", int, "max_iter"),
    _Param("trial_limit", "algorithm", "trial_limit", "--trial-limit", int, "trial_limit"),
    _Param("penalty_mode", "penalty", "mode", "--penalty-mode", str, "penalty.mode", PENALTY_MODES),
    _Param("penalty_weight", "penalty", "weight", "--penalty-weight", float, "penalty.weight"),
    _Param("alpha0", "algorithm", "alpha0", "--alpha0", float, "firefly.alpha0"),
    _Param("beta", "algorithm", "beta", "--beta", float, "firefly.beta"),
    _Param("j_step", "algorithm", "j_step", "--j-step", float, "firefly.j_step"),
    _Param("k_step", "algorithm", "k_step", "--k-step", float, "firefly.k_step"),
    _Param("a_const", "algorithm", "a_const", "--a-const", float, "sca.a_const"),
)


def _config_value(config: OptimizerConfig, path: str):
    return functools.reduce(getattr, path.split("."), config)


def _config_with(obj, path: str, value):
    """``obj`` with the (dotted) field ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _config_with(getattr(obj, head), rest, value) if rest else value})


@dataclass
class ExperimentSpec:
    """A resolved batch of runs: selector axes over one template config."""

    problems: list = field(default_factory=lambda: ["sphere"])
    algos: list = field(default_factory=lambda: ["cscf"])
    variants: list = field(default_factory=lambda: ["all"])
    maps: list = field(default_factory=lambda: ["logistic"])
    dims: list = field(default_factory=lambda: [20])
    replicates: int = 1
    base_seed: int = 0
    out: Path = field(default_factory=lambda: Path(os.environ.get(_ENV_OUT, "results")))
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    jobs: int = 1
    force: bool = False

    def validate(self) -> None:
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}")
        for v in self.variants:
            if v not in VARIANT_KINDS + ("all",):
                raise ConfigError(f"unknown variant {v!r}")
        for m in self.maps:
            if m not in MAP_NAMES:
                raise ConfigError(f"unknown map {m!r}")
        for name in self.problems:
            _check_problem_name(name)
        self.config.validate()


def _check_problem_name(name: str) -> None:
    if name in ENGINEERING_NAMES:
        return
    try:
        resolve_problem_name(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from None


def _build_problem(name: str, dim: int, noise_seed: int = 0):
    if name in ENGINEERING_NAMES:
        return engineering_problem(name)
    return benchmark_problem(name, dim=dim, noise_seed=noise_seed)


def _expand_problem_token(token: str) -> list[str]:
    """One selector token -> problem names ("fn1..fn5" ranges supported)."""
    token = token.strip()
    if ".." in token:
        lo, hi = token.split("..", 1)
        i = resolve_problem_name(lo)
        j = resolve_problem_name(hi)
        return [f"fn{k}" for k in range(i, j + 1)]
    return [token]


def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.replace(";", ",").split(",") if t.strip()]


def _problem_list(text: str) -> list[str]:
    return [name for token in _split_list(text) for name in _expand_problem_token(token)]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in _split_list(text)]


# ---------------------------------------------------------------------------
# run


class _Job(NamedTuple):
    """One run: the problem, its dimension, the replicate and the full config."""

    problem: str
    dim: int
    replicate: int
    config: OptimizerConfig

    def payload(self) -> dict:
        """The flat record fields that name this run."""
        cfg = self.config
        chaotic = cfg.algorithm == "cscf"
        fields = {"problem": self.problem, "algo": cfg.algorithm, "dim": self.dim,
                  "variant": cfg.variant.kind if chaotic else "-",
                  "map": cfg.variant.map_name if chaotic else "-",
                  "replicate": self.replicate, "seed": cfg.seed}
        fields.update((p.key, p.cast(_config_value(cfg, p.path))) for p in _PARAMS)
        return fields

    @property
    def stem(self) -> str:
        f = self.payload()
        digest = hashlib.sha256(json.dumps(f, sort_keys=True).encode()).hexdigest()[:10]
        return (f"{f['problem']}__{f['algo']}__{f['variant']}__{f['map']}"
                f"__d{f['dim']}__r{f['replicate']}__{digest}")


def _job_list(spec: ExperimentSpec) -> list[_Job]:
    jobs: dict = {}
    for name in spec.problems:
        for dim in spec.dims:
            actual_dim = _build_problem(name, dim).dim
            for algo in spec.algos:
                variants = [VariantSpec(v, m) for v in spec.variants for m in spec.maps] \
                    if algo == "cscf" else [VariantSpec()]
                for variant in variants:
                    for rep in range(spec.replicates):
                        config = replace(spec.config, algorithm=algo, variant=variant,
                                         seed=spec.base_seed + rep)
                        job = _Job(name, actual_dim, rep, config)
                        jobs.setdefault(job.stem, job)
    return list(jobs.values())


def _attempt(job: _Job) -> tuple[RunRecord | None, str | None]:
    """Run one job; a raising run comes back as its error text."""
    try:
        problem = _build_problem(job.problem, job.dim, noise_seed=job.config.seed)
        return optimize(problem, job.config), None
    except Exception as exc:  # one failing run must not abort the batch
        return None, f"{type(exc).__name__}: {exc}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_outputs(out: Path, job: _Job, record: RunRecord) -> None:
    stem, payload = job.stem, job.payload()
    payload.update(record.to_dict())
    _atomic_write(out / f"{stem}.json", json.dumps(payload, sort_keys=True) + "\n")
    curve_path = out / f"{stem}.curve.csv"
    tmp = curve_path.with_name(curve_path.name + ".tmp")
    analysis.write_convergence_csv(record, tmp)
    os.replace(tmp, curve_path)


def cmd_run(spec: ExperimentSpec) -> int:
    """Execute the cross-product of selectors; persist one record per run."""
    spec.validate()
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = _job_list(spec)
    pending = [job for job in jobs if spec.force or not (out / f"{job.stem}.json").exists()]

    failed = 0
    parallel = spec.jobs > 1 and len(pending) > 1
    with ProcessPoolExecutor(max_workers=spec.jobs) if parallel \
            else contextlib.nullcontext() as pool:
        results = pool.map(_attempt, pending) if parallel else map(_attempt, pending)
        for job, (record, error) in zip(pending, results):
            if error is None:
                _write_outputs(out, job, record)
            else:
                failed += 1
                print(f"error: job {job.stem} failed: {error}", file=sys.stderr)

    print(f"ran {len(pending)} job(s), {failed} failed, skipped {len(jobs) - len(pending)} "
          f"existing, output in {out}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# report


def _load_records(directory: Path) -> tuple[list[dict], int]:
    rows = []
    corrupt = 0
    for path in sorted(directory.glob("*.json")):
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                RunRecord.from_dict(row)  # schema check
                rows.append(row)
            except (json.JSONDecodeError, KeyError, TypeError):
                corrupt += 1
                print(f"warning: skipping corrupt record line in {path.name}",
                      file=sys.stderr)
    return rows, corrupt


class _RecordView:
    """Attribute view over a parsed record row (for analysis duck-typing)."""

    def __init__(self, row: dict):
        self.best_cost = float(row["best_cost"])
        self.wall_time = float(row["wall_time"])


# Record fields that, with the tunables, name one run (see _Job.payload).
_RUN_FIELDS = ("problem", "algo", "dim", "variant", "map", "replicate", "seed")


def _check_poolable(rows: list[dict]) -> None:
    """Refuse records that the tables would pool although they are not
    comparable: the runs of one (problem, dim, algo) cell must agree on
    every tunable, and no run may appear twice."""
    tunables: dict = {}
    runs = set()
    for row in rows:
        cell = (row["problem"], row["dim"], row["algo"])
        values = tuple(row.get(p.key) for p in _PARAMS)
        first = tunables.setdefault(cell, values)
        for p, want, got in zip(_PARAMS, first, values):
            if got != want:
                raise ConfigError(f"records of {cell[0]} d{cell[1]} {cell[2]} differ in "
                                  f"{p.key} ({want!r} and {got!r}); report each set "
                                  f"from its own directory")
        run = tuple(row.get(key) for key in _RUN_FIELDS)
        if run in runs:
            raise ConfigError(f"duplicate run: two records of {cell[0]} d{cell[1]} {cell[2]} "
                              f"replicate {row.get('replicate')} seed {row.get('seed')} "
                              f"name the same run")
        runs.add(run)


def cmd_report(in_dir: Path, out_dir: Path | None = None) -> int:
    """Aggregate persisted records into the comparison tables."""
    in_dir = Path(in_dir)
    if not in_dir.is_dir():
        raise EmptyInputError(f"{in_dir} is not a directory")
    rows, corrupt = _load_records(in_dir)
    if not rows:
        raise EmptyInputError(f"no readable records under {in_dir}")
    _check_poolable(rows)
    out = Path(out_dir) if out_dir else in_dir
    out.mkdir(parents=True, exist_ok=True)

    # summary + pairwise tests
    by_algo: dict = {}
    for row in rows:
        problem_key = f"{row['problem']}_d{row['dim']}"
        by_algo.setdefault(row["algo"], {}).setdefault(problem_key, []).append(
            _RecordView(row)
        )
    if len(by_algo) >= 2:
        report = analysis.compare_report(by_algo)
        analysis.write_wilcoxon_csv(report, out / "wilcoxon.csv")
    else:
        algo = next(iter(by_algo))
        times = [r.wall_time for rs in by_algo[algo].values() for r in rs]
        report = analysis.ComparisonReport(
            summaries={algo: {p: analysis.summarize([r.best_cost for r in rs])
                              for p, rs in by_algo[algo].items()}},
            pairwise=[],
            mean_wall_time={algo: float(sum(times) / len(times))},
            mae_by_algo={},
        )
        print("warning: single algorithm in records, skipping Wilcoxon table",
              file=sys.stderr)
    analysis.write_summary_csv(report, out / "summary.csv")
    analysis.write_summary_jsonl(report, out / "summary.jsonl")

    # MAE grid over cscf records that carry a variant/map, each scored
    # against the reference of its own problem and dimension
    grouped: dict = {}
    for row in rows:
        if row["algo"] == "cscf" and row["variant"] != "-":
            key = (row["problem"], row["dim"], row["variant"], row["map"])
            grouped.setdefault(key, []).append(float(row["best_cost"]))
    mae = {}
    for (problem, dim, variant, map_name), bests in grouped.items():
        try:
            reference = _reference_of(_build_problem(problem, dim))
        except ConfigError:  # no reference optimum, no MAE cell
            continue
        mae[(problem, dim, variant, map_name)] = analysis.mae(bests, reference)
    if mae:
        analysis.write_mae_grid_csv(mae, out / "mae_grid.csv")

    # mean wall time per variant (per algorithm for the non-hybrid baselines)
    times: dict = {}
    for row in rows:
        key = row["variant"] if row["algo"] == "cscf" else row["algo"]
        times.setdefault(key, []).append(float(row["wall_time"]))
    analysis.write_walltime_csv(
        {k: sum(v) / len(v) for k, v in times.items()}, out / "walltime.csv"
    )

    print(f"report written to {out} ({len(rows)} records, {corrupt} corrupt line(s))")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# INI [section] option -> ExperimentSpec field, for everything but the tunables.
_SELECTORS = (
    ("problem", "names", "problems", _problem_list),
    ("problem", "dims", "dims", _int_list),
    ("algorithm", "algos", "algos", _split_list),
    ("variant", "variants", "variants", _split_list),
    ("chaos", "maps", "maps", _split_list),
    ("experiment", "replicates", "replicates", int),
    ("experiment", "seed", "base_seed", int),
    ("experiment", "out", "out", Path),
    ("experiment", "jobs", "jobs", int),
)


def _values_from_config(path: Path) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file {path} not found or unreadable")
    entries = _SELECTORS + tuple((p.section, p.option, p.key, p.cast) for p in _PARAMS)
    try:
        return {key: cast(parser.get(section, option))
                for section, option, key, cast in entries if parser.has_option(section, option)}
    except (KeyError, ValueError) as exc:  # a bad value or problem range
        raise ConfigError(f"{path}: {exc}") from None


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    values = _values_from_config(Path(args.config)) if args.config else {}
    problems = ",".join(t for t in (args.problem, args.problems) if t)
    lists = {"problems": (problems, _problem_list), "algos": (args.algo, _split_list),
             "variants": (args.variant, _split_list), "maps": (args.map, _split_list),
             "dims": (args.dims or args.dim, _int_list)}
    config = OptimizerConfig()
    try:
        values.update((key, parse(text)) for key, (text, parse) in lists.items() if text)
        values.update((p.key, getattr(args, p.key)) for p in _PARAMS
                      if getattr(args, p.key) is not None)
        for p in _PARAMS:
            if p.key in values:
                config = _config_with(config, p.path, values.pop(p.key))
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    for key in ("replicates", "base_seed", "jobs", "out"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return ExperimentSpec(**values, config=config, force=bool(args.force))


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cscf",
        description="chaotic sine-cosine firefly experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a batch of seeded runs")
    run.add_argument("--config", help="INI config file; flags override it")
    run.add_argument("--problem", help="single problem name (fnN, alias, or engineering)")
    run.add_argument("--problems", help="comma list, fnA..fnB ranges allowed")
    run.add_argument("--algo", help=f"comma list from {', '.join(ALGORITHMS)}")
    run.add_argument("--variant", help="comma list from i,ii,iii,iv,v,all")
    run.add_argument("--map", help=f"comma list from {', '.join(MAP_NAMES)}")
    run.add_argument("--dim", help="single dimension for scalable problems")
    run.add_argument("--dims", help="comma list of dimensions")
    run.add_argument("--seed", dest="base_seed", type=int, metavar="SEED",
                     help="base seed (replicate r uses seed+r)")
    run.add_argument("--replicates", type=int)
    run.add_argument("--jobs", type=int, help="parallel worker processes")
    run.add_argument("--out", type=Path,
                     help=f"output directory (default ${_ENV_OUT} or ./results)")
    run.add_argument("--force", action="store_true", help="overwrite existing outputs")
    for p in _PARAMS:
        run.add_argument(p.flag, dest=p.key, type=p.cast, choices=p.choices,
                         help=f"OptimizerConfig.{p.path} (INI [{p.section}] {p.option})")

    report = sub.add_parser("report", help="aggregate records into tables")
    report.add_argument("--in", dest="in_dir", required=True, help="record directory")
    report.add_argument("--out", dest="out_dir", help="table directory (default: --in)")

    sub.add_parser("list-problems", help="print the stable problem names")
    sub.add_parser("list-maps", help="print the stable chaotic map names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_build_spec(args))
        if args.command == "report":
            return cmd_report(Path(args.in_dir),
                              Path(args.out_dir) if args.out_dir else None)
        if args.command == "list-problems":
            for i, pid in enumerate(BENCHMARK_IDS, start=1):
                print(f"{pid}\t{benchmark_problem(i).name}")
            for name in ENGINEERING_NAMES:
                print(f"-\t{name}")
            return 0
        if args.command == "list-maps":
            for name in MAP_NAMES:
                print(name)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
