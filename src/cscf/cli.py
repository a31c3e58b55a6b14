"""Command-line experiment harness: seeded batch runs and report generation.

Subcommands:

* ``cscf run`` executes the cross-product of problems, dimensions, configs
  and replicates.  Every run writes one JSON record (a single JSON line,
  keys sorted, with the tunables that the run reads) plus a per-run
  convergence CSV, under a stem that ends in a short sha256 of the run's
  parameters.  Existing outputs are skipped unless ``--force`` is given;
  writes are atomic (temp file + rename).  Replicate seeds are
  ``base_seed + replicate_index``.  A run that raises, or whose outputs fail
  to write, is reported on stderr, the others are still written, and the
  command exits 1.
* ``cscf report`` aggregates a directory of records into summary,
  Wilcoxon, MAE-grid, variant-rank and wall-time tables; each label is
  tagged with the tunables that vary in its algorithm's records (``cscf[trial_limit=1]``).
* ``cscf list-problems`` / ``cscf list-maps`` enumerate the stable names.

Every input of ``cscf run`` is one row of ``_SELECTORS`` or ``_PARAMS`` (the
tunables), giving its flags, its option in an INI config file (sections
[problem], [algorithm], [variant], [chaos], [penalty], [experiment]), its
parser and its help; a flag overrides the INI option.  A row with a ``path``
into ``OptimizerConfig`` is an axis: a comma list, each value taken by every
config.  The inputs make a frozen ``ExperimentSpec``, problems x configs, that
checks itself when made, so a bad input is refused before any job runs, and
its error names the flag or INI file it came from.
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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

from . import analysis
from .benchmarks import benchmark_problem, resolve_problem_name, suite
from .chaos import MAP_NAMES
from .engineering import ENGINEERING_NAMES, PENALTY_MODES, engineering_problem
from .errors import ConfigError, EmptyInputError, as_count
from .hybrid import (ALGORITHMS, VARIANT_KINDS, OptimizerConfig, RunRecord, as_read, optimize,
                     unread, with_field)

__all__ = ["ExperimentSpec", "cmd_run", "cmd_report", "main"]

_ENV_OUT = "CSCF_OUT"
# The behaviour version of every record: the first 12 hex digits of the
# combined hash that `python tests/test_golden.py --write` prints.  A change
# to the records moves it, so that a rerun recomputes each job.
RECORD_VERSION = "92016d93bd63"


class _Option(NamedTuple):
    """One input of ``cscf run``: its ExperimentSpec field (for an axis, the name
    of its list; for a tunable, its record key), INI [section] option, flags,
    parser and help text.  An axis also names its dotted path into
    OptimizerConfig, and its parser reads one value of its comma list."""

    key: str
    section: str
    option: str
    flags: tuple
    parse: Callable
    help: str = ""
    path: str = ""


def _split_list(text: str) -> list[str]:
    return [t.strip() for t in text.replace(";", ",").split(",") if t.strip()]


def _problem_list(text: str) -> list[str]:
    """Problem names; a ``fnA..fnB`` token expands to the ids in that range."""
    names = []
    for token in _split_list(text):
        lo, dots, hi = token.partition("..")
        if dots:
            names += [f"fn{k}" for k in range(resolve_problem_name(lo),
                                               resolve_problem_name(hi) + 1)]
        else:
            names.append(token)
    return names


def _int_list(text: str) -> list[int]:
    return [int(t) for t in _split_list(text)]


# The single source of every input: the parser, the INI reader and
# ExperimentSpec are derived from these rows.  Paired flags are two
# spellings of one row; the later one given wins.
_SELECTORS = (
    _Option("problems", "problem", "names", ("--problem", "--problems"), _problem_list,
            "comma list of problem names (fnN, alias, or engineering); fnA..fnB ranges"),
    _Option("dims", "problem", "dims", ("--dim", "--dims"), _int_list,
            "comma list of dimensions for scalable problems"),
    _Option("algos", "algorithm", "algos", ("--algo",), str,
            f"comma list from {', '.join(ALGORITHMS)}", path="algorithm"),
    _Option("variants", "variant", "variants", ("--variant",), str,
            f"comma list from {', '.join(VARIANT_KINDS + ('all',))}", path="variant.kind"),
    _Option("maps", "chaos", "maps", ("--map",), str,
            f"comma list from {', '.join(MAP_NAMES)}", path="variant.map_name"),
    _Option("replicates", "experiment", "replicates", ("--replicates",), int,
            "runs per cell"),
    _Option("base_seed", "experiment", "seed", ("--seed",), int,
            "base seed (replicate r uses seed+r)"),
    _Option("out", "experiment", "out", ("--out",), Path,
            f"output directory (default ${_ENV_OUT} or ./results)"),
    _Option("jobs", "experiment", "jobs", ("--jobs",), int, "parallel worker processes"),
)

# The tunables, each an axis and a record field of the runs that read it (see _job).
_PARAMS = (
    _Option("population", "algorithm", "population", ("--pop",), int, path="population"),
    _Option("max_iter", "algorithm", "max_iter", ("--iters",), int, path="max_iter"),
    _Option("trial_limit", "algorithm", "trial_limit", ("--trial-limit",), int,
            path="trial_limit"),
    _Option("penalty_mode", "penalty", "mode", ("--penalty-mode",), str,
            f"comma list from {', '.join(PENALTY_MODES)}", path="penalty.mode"),
    _Option("penalty_weight", "penalty", "weight", ("--penalty-weight",), float,
            path="penalty.weight"),
    _Option("alpha0", "algorithm", "alpha0", ("--alpha0",), float, path="firefly.alpha0"),
    _Option("beta", "algorithm", "beta", ("--beta",), float, path="firefly.beta"),
    _Option("j_step", "algorithm", "j_step", ("--j-step",), float, path="firefly.j_step"),
    _Option("k_step", "algorithm", "k_step", ("--k-step",), float, path="firefly.k_step"),
    _Option("a_const", "algorithm", "a_const", ("--a-const",), float, path="a_const"),
)


def _tunables(config: OptimizerConfig) -> dict:
    """Each tunable of ``config`` by its record key, as a record holds it."""
    return {p.key: p.parse(functools.reduce(getattr, p.path.split("."), config)) for p in _PARAMS}


_DEFAULTS = _tunables(OptimizerConfig())


@dataclass(frozen=True)
class ExperimentSpec:
    """A resolved batch of runs: problems x dims x configs.  It is checked when
    made, in a copy made by ``dataclasses.replace`` too: ``problems``, ``dims`` and
    ``configs`` are lists that name something, of ``OptimizerConfig`` for configs;
    ``replicates`` and ``jobs`` pass ``as_count``; and each problem is built into
    ``cells``: the distinct (problem, ``as_read`` config at ``base_seed``) pairs, whose
    replicates are jobs."""

    problems: list = field(default_factory=lambda: ["sphere"])
    dims: list = field(default_factory=lambda: [20])
    configs: list = field(default_factory=lambda: [OptimizerConfig()])
    replicates: int = 1
    base_seed: int = 0
    out: Path = field(default_factory=lambda: Path(os.environ.get(_ENV_OUT, "results")))
    jobs: int = 1
    force: bool = False
    cells: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("problems", "dims", "configs"):
            if not isinstance(getattr(self, name), list):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
            if not getattr(self, name):
                raise ConfigError(f"{name} names nothing")
        for config in self.configs:
            if not isinstance(config, OptimizerConfig):
                raise ConfigError(f"configs must hold OptimizerConfig, got {config!r}")
        for name in ("replicates", "jobs"):
            object.__setattr__(self, name, as_count(name, getattr(self, name), 1))
        problems = [_build_problem(name, dim) for name in self.problems for dim in self.dims]
        object.__setattr__(self, "cells", [(p, c) for p in problems for c in dict.fromkeys(
            as_read(replace(c, seed=self.base_seed), p) for c in self.configs)])


def _build_problem(name: str, dim: int):
    dim = as_count("dimension", dim, 1)  # design problems have a fixed one, but --dim is checked
    with contextlib.suppress(KeyError):
        return engineering_problem(name)
    try:
        return benchmark_problem(name, dim=dim)
    except KeyError as exc:  # its message, not str(exc), which quotes it
        raise ConfigError(exc.args[0]) from None


# ---------------------------------------------------------------------------
# run


class _Job(NamedTuple):
    """One run: its file stem, the flat record fields that name it, and its config."""

    stem: str
    fields: dict
    config: OptimizerConfig


def _job(problem, replicate: int, config: OptimizerConfig) -> _Job:
    """The run of ``config`` on ``problem``, named by the sha256 of its fields, every
    tunable included; its record holds only the tunables that the run reads."""
    skip, tunables = unread(config, problem), _tunables(config)
    f = {"problem": problem.name, "algo": config.algorithm, "dim": problem.dim,
         "variant": "-" if "variant" in skip else config.variant.kind,
         "map": "-" if "variant" in skip else config.variant.map_name,
         "replicate": replicate, "seed": config.seed, "record_version": RECORD_VERSION}
    named = json.dumps({**f, **tunables}, sort_keys=True).encode()
    f.update((p.key, tunables[p.key]) for p in _PARAMS if p.path not in skip)
    return _Job(f"{f['problem']}__{f['algo']}__{f['variant']}__{f['map']}"
                f"__d{f['dim']}__r{f['replicate']}__{hashlib.sha256(named).hexdigest()[:10]}",
                f, config)


def _job_list(spec: ExperimentSpec) -> list[_Job]:
    """The batch's runs, each once: every cell of the spec times its replicates."""
    jobs: dict = {}
    for problem, config in spec.cells:
        for rep in range(spec.replicates):
            job = _job(problem, rep, replace(config, seed=config.seed + rep))
            jobs.setdefault(job.stem, job)
    return list(jobs.values())


def _attempt(job: _Job) -> tuple[RunRecord | None, str | None]:
    """Run one job; a raising run comes back as its error text."""
    try:
        problem = _build_problem(job.fields["problem"], job.fields["dim"])
        return optimize(problem, job.config), None
    except Exception as exc:  # one failing run must not abort the batch
        return None, f"{type(exc).__name__}: {exc}"


def _atomic_write(path: Path, write) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:  # a raising write leaves no temp file behind
        tmp.unlink(missing_ok=True)


def _write_outputs(out: Path, job: _Job, record: RunRecord) -> None:
    """The curve, then the record: an existing record marks a finished job."""
    _atomic_write(out / f"{job.stem}.curve.csv",
                  lambda tmp: analysis.write_convergence_csv(record, tmp))
    text = json.dumps({**job.fields, **record.to_dict()}, sort_keys=True) + "\n"
    _atomic_write(out / f"{job.stem}.json", lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _make_dir(path: Path) -> Path:
    """``path``, made if absent; one that cannot be made is a config error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or a file as a parent
        raise ConfigError(f"cannot use {path} as output directory: {exc.strerror}") from None
    return path


def cmd_run(spec: ExperimentSpec) -> int:
    """Execute the cross-product of selectors; persist one record per run."""
    jobs = _job_list(spec)
    out = _make_dir(Path(spec.out))
    pending = [job for job in jobs if spec.force or not (out / f"{job.stem}.json").exists()]

    failed = 0
    parallel = spec.jobs > 1 and len(pending) > 1
    if parallel:  # imported here, as multiprocessing slows every start-up
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(spec.jobs, len(pending))) if parallel \
            else contextlib.nullcontext() as pool:
        results = pool.map(_attempt, pending) if parallel else map(_attempt, pending)
        for job, (record, error) in zip(pending, results):
            if error is None:
                try:
                    _write_outputs(out, job, record)
                except OSError as exc:  # a failed write fails this job, not the batch
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                print(f"error: job {job.stem} failed: {error}", file=sys.stderr)

    print(f"ran {len(pending)} job(s), {failed} failed, skipped {len(jobs) - len(pending)} "
          f"existing, output in {out}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# report


# The JSON types of each field the tables read.  Types match exactly, so a
# JSON true/false (a bool) is neither a dim nor a cost.  An absent
# replicate is read as None and still names a run.
_FIELD_TYPES = {"problem": (str,), "dim": (int,), "algo": (str,), "variant": (str,),
                "map": (str,), "best_cost": (int, float), "wall_time": (int, float),
                "seed": (int,), "replicate": (int, type(None))}


def _load_records(directory: Path) -> tuple[list[tuple[dict, RunRecord]], int]:
    """(row, record) pairs of the readable lines and the count of the others."""
    rows = []
    corrupt = 0
    for path in sorted(directory.glob("*.json")):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, ValueError):  # a directory, or bytes that are not UTF-8
            corrupt += 1
            print(f"warning: skipping unreadable file {path.name}", file=sys.stderr)
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                record = RunRecord.from_dict(row)
                if not all(type(row.get(k)) in types for k, types in _FIELD_TYPES.items()):
                    raise TypeError("a field is missing or of the wrong type")
                with contextlib.suppress(ConfigError):  # an fnN id reads as its alias
                    row["problem"] = _build_problem(row["problem"], 1).name
                rows.append((row, record))
            except (ValueError, KeyError, TypeError):  # JSONDecodeError is a ValueError
                corrupt += 1
                print(f"warning: skipping corrupt record line in {path.name}",
                      file=sys.stderr)
    return rows, corrupt


# Record fields that name one run (see _job).
_RUN_FIELDS = ("problem", "dim", "algo", "variant", "map", "replicate", "seed", *_DEFAULTS)


def _check_poolable(rows: list[dict]) -> None:
    """Refuse records that the tables would pool although they are not
    comparable: the runs of one (problem, dim, algo) cell must share a version
    (None if unversioned), and no run may appear twice under any of its names."""
    versions: dict = {}
    runs = set()
    for row in rows:
        cell = (row["problem"], row["dim"], row["algo"])
        got = row.get("record_version")
        if got != (want := versions.setdefault(cell, got)):
            raise ConfigError(f"records of {cell[0]} d{cell[1]} {cell[2]} differ in "
                              f"record_version ({want!r} and {got!r}); report each set "
                              f"from its own directory")
        # a tunable not carried reads as its default; a JSON value may be a list
        run = json.dumps([row.get(key, _DEFAULTS.get(key)) for key in _RUN_FIELDS])
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
    _check_poolable([row for row, _ in rows])
    out = _make_dir(Path(out_dir)) if out_dir else in_dir
    # a tunable varies for an algorithm when the records that carry it hold two values or more
    values = {}
    for row, _ in rows:
        for key in _DEFAULTS.keys() & row.keys():
            values.setdefault((row["algo"], key), set()).add(json.dumps(row[key]))
    varying = {algo_key for algo_key, held in values.items() if len(held) > 1}

    # one pass groups the records for the summary and pairwise tests, for the
    # MAE grid (cscf records that carry a variant/map) and for the mean wall
    # time per variant (per algorithm for the non-hybrid baselines), each label
    # tagged with the tunables that vary for its algorithm, a default where not carried
    by_algo, grouped, times = {}, {}, {}
    for row, record in rows:
        problem, dim, algo = row["problem"], row["dim"], row["algo"]
        tags = ",".join(f"{key}={row.get(key, default)}" for key, default in _DEFAULTS.items()
                        if (algo, key) in varying)
        tag = f"[{tags}]" if tags else ""
        by_algo.setdefault(algo + tag, {}).setdefault(f"{problem}_d{dim}", []).append(record)
        if algo == "cscf" and row["variant"] != "-":
            grouped.setdefault((problem, dim, row["variant"] + tag, row["map"]),
                               []).append(float(record.best_cost))
        times.setdefault((row["variant"] if algo == "cscf" else algo) + tag,
                         []).append(float(record.wall_time))
    report = analysis.compare_report(by_algo)
    if len(by_algo) == 1:
        print("warning: single algorithm in records, skipping Wilcoxon table",
              file=sys.stderr)
    for algo_a, algo_b in report.unpaired:
        print(f"warning: {algo_a} and {algo_b} share no problem, skipping their "
              f"Wilcoxon row", file=sys.stderr)
    if report.pairwise:
        analysis.write_wilcoxon_csv(report, out / "wilcoxon.csv")
    analysis.write_summary_csv(report, out / "summary.csv")
    analysis.write_summary_jsonl(report, out / "summary.jsonl")

    # each MAE cell against the reference of its own problem and dimension
    mae, build = {}, functools.lru_cache(maxsize=None)(_build_problem)
    for (problem, dim, variant, map_name), bests in grouped.items():
        try:
            built = build(problem, dim)
        except ConfigError:  # a name or dimension no problem has
            continue
        reference = getattr(built, "reference_best", getattr(built, "f_reference", None))
        if reference is not None:  # no reference optimum, no MAE cell
            mae[(problem, dim, variant, map_name)] = analysis.mae(bests, float(reference))
    if mae:
        analysis.write_mae_grid_csv(mae, out / "mae_grid.csv")
        analysis.write_variant_rank_csv(analysis.variant_ranks(mae), out / "variant_rank.csv")

    analysis.write_walltime_csv(
        {k: sum(v) / len(v) for k, v in times.items()}, out / "walltime.csv"
    )

    print(f"report written to {out} ({len(rows)} records, {corrupt} corrupt line(s))")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Each input from its flag, else from its INI option, parsed by its row and
    applied as one update: an axis takes every config once per value, any other
    row sets its field of the spec, which checks it; an error names its source."""
    ini = configparser.ConfigParser()
    try:
        if args.config and not ini.read(args.config):
            raise ConfigError(f"config file {args.config} not found or unreadable")
    except (configparser.Error, UnicodeDecodeError) as exc:  # a malformed file, or not UTF-8
        raise ConfigError(f"{args.config}: {exc}") from None
    spec, configs = ExperimentSpec(force=args.force), [OptimizerConfig()]
    for row in _SELECTORS + _PARAMS:
        text, source = getattr(args, row.key), row.flags[-1]
        if text is None:
            if not ini.has_option(row.section, row.option):
                continue
            source = args.config
        try:
            text = ini.get(row.section, row.option) if text is None else text
            if row.path:  # an axis: every config once per value
                values = [row.parse(t) for t in _split_list(text)]
                if not values:
                    raise ConfigError(f"{row.key} names nothing")
                configs = [with_field(c, row.path, v) for c in configs for v in values]
            else:
                spec = with_field(spec, row.key, row.parse(text))
        except (KeyError, ValueError, configparser.Error) as exc:  # a bad value or range
            message = exc.args[0] if isinstance(exc, KeyError) else exc  # str(KeyError) quotes it
            raise ConfigError(f"{source}: {message}") from None
    return replace(spec, configs=configs)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cscf",
        description="chaotic sine-cosine firefly experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a batch of seeded runs")
    run.add_argument("--config", help="INI config file; flags override it")
    for row in _SELECTORS + _PARAMS:
        text = row.help or f"comma list of OptimizerConfig.{row.path} values"
        run.add_argument(*row.flags, dest=row.key,
                         help=f"{text} (INI [{row.section}] {row.option})")
    run.add_argument("--force", action="store_true", help="overwrite existing outputs")

    report = sub.add_parser("report", help="aggregate records into tables")
    report.add_argument("--in", dest="in_dir", required=True, help="record directory")
    report.add_argument("--out", dest="out_dir", help="table directory (default: --in)")

    sub.add_parser("list-problems", help="print the stable problem names")
    sub.add_parser("list-maps", help="print the stable chaotic map names")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        code = 0
        if args.command == "run":
            code = cmd_run(_build_spec(args))
        elif args.command == "report":
            code = cmd_report(Path(args.in_dir), Path(args.out_dir) if args.out_dir else None)
        elif args.command == "list-problems":
            print(*(f"fn{i}\t{problem.name}" for i, problem in enumerate(suite(1), start=1)),
                  *(f"-\t{name}" for name in ENGINEERING_NAMES), sep="\n")
        else:  # list-maps; argparse admits no other command
            print(*MAP_NAMES, sep="\n")
        sys.stdout.flush()  # a buffered pipe's EPIPE surfaces here, not in the exit flush
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader left; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
