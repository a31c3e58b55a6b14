"""Benchmark of the cscf library: one workload per call, one JSON line out.

    python3 bench/run.py --workload paper_scale --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  README.md describes
the workloads, the ``ref`` time unit and every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REF_ROUNDS = 60
REF_EVERY_S = 0.1        # a fresh ref sample before an operation when older than this
NUMPY_NOMINAL_S = 0.15   # a fresh interpreter importing numpy on this machine; see setup_s
SETUP_PROBES = 11        # fresh interpreters per untraced run
MICRO_BUDGET_S = 3.0     # seconds of a traced run kept for the micro-benchmarks

_FLOATS = [((i * 7919) % 1009) / 1009.0 for i in range(256)]


def ref_loop() -> int:
    """The calibration loop that defines one ``ref``: pure Python, no library.

    It mixes interpreted integer and list work with string and float-list
    builtins, because machine slow-downs hit these kinds of work unequally.
    """
    acc = 0
    table = [0] * 64
    for i in range(REF_ROUNDS * 60):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 63] += 1
    for i in range(REF_ROUNDS * 6):
        text = ("abc%dxyz" % i) * 20
        acc += len(text.replace("b", "bb").split("x")) + text.count("y")
    for i in range(REF_ROUNDS // 2):
        values = sorted(_FLOATS, reverse=bool(i & 1))
        acc += int(sum(values) + max(values))
    return acc


def ref_sample() -> float:
    """Seconds of one ref now: the fastest of three loops, so that a single
    interruption does not count as a change of machine speed."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        ref_loop()
        samples.append(time.perf_counter() - start)
    return min(samples)


class Meter:
    """Times operations in ``ref`` units and starts the set-up probes.

    Each operation's seconds are divided by the mean of the ref samples
    taken just before and just after it, so a change of machine speed
    between operations cancels out.  Probes and ref samples run between
    operations, never inside a timed one.  ``op_refs`` holds the round's
    operations in ref, in the order they ran.
    """

    def __init__(self, probe=None, probe_times=()):
        self.probe = probe
        self.probe_times = list(probe_times)
        self.setups: list[tuple[float, float]] = []   # (numpy start s, set-up s)
        self.refs: list[float] = []
        self.work_s = 0.0
        self.op_refs: list[float] = []
        self._pending: list[tuple[int, float]] = []
        self._ref = ref_sample()
        self._ref_at = time.perf_counter()

    def _sample(self) -> float:
        ref = ref_sample()
        for index, seconds in self._pending:
            self.op_refs[index] = seconds / ((self._ref + ref) / 2.0)
        self._pending.clear()
        self._ref, self._ref_at = ref, time.perf_counter()
        self.refs.append(ref)
        return ref

    def _between(self) -> None:
        while self.probe_times and time.perf_counter() >= self.probe_times[0]:
            self.probe_times.pop(0)
            self._run_probe()
        if time.perf_counter() - self._ref_at >= REF_EVERY_S:
            self._sample()

    def _run_probe(self) -> None:
        self._sample()
        self.setups.append(self.probe())
        self._ref_at = 0.0

    def finish_probes(self) -> None:
        while self.probe_times:
            self.probe_times.pop(0)
            self._run_probe()

    def begin_round(self) -> None:
        self._sample()
        self.work_s = 0.0
        self.op_refs = []

    def end_round(self) -> None:
        self._sample()

    def timed(self, fn, *args):
        self._between()
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.work_s += elapsed
        self._pending.append((len(self.op_refs), elapsed))
        self.op_refs.append(math.nan)
        return out


def _self_timed(args: list[str]) -> float:
    """Seconds from starting ``python3 <args> <start>`` until the child prints.

    The child reads the same monotonic clock, so it times itself from the
    moment it was started, leaving out its exit.
    """
    out = subprocess.run([sys.executable, *args, repr(time.perf_counter())],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return float(out)


def setup_probe(spec: str) -> tuple[float, float]:
    """Seconds of a fresh interpreter that imports numpy, then of one that
    starts and sets the workload up (see README and setup_probe.py)."""
    numpy_start = _self_timed(["-c", "import sys, time, numpy; "
                                     "print(time.perf_counter() - float(sys.argv[1]))"])
    return numpy_start, _self_timed([str(BENCH / "setup_probe.py"), spec])


def measure(wl, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Untraced run: end-to-end metrics."""
    spec = json.dumps(wl.setup_spec())
    setup_probe(spec)  # warm the byte-code caches; not counted
    start = time.perf_counter()
    meter = Meter(lambda: setup_probe(spec),
                  [start + seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)])
    rounds = []
    k = 0
    while not rounds or time.perf_counter() - start < seconds:
        meter.begin_round()
        result = wl.run_round(k, meter)
        meter.end_round()
        rounds.append((result, meter.work_s, meter.op_refs))
        k += 1
    meter.finish_probes()
    errors = [e for r, _, _ in rounds for e in r.errors] + wl.check_run()

    # A typical round: each operation at its median over the rounds, so an
    # interrupted operation does not count (every round runs the same list).
    round_refs = sum(statistics.median(op) for op in zip(*(refs for _, _, refs in rounds)))
    print(f"# {wl.name}: {len(rounds)} rounds, work {sum(w for _, w, _ in rounds):.3f} s, "
          f"round {round_refs:.1f} ref; ref median {statistics.median(meter.refs) * 1e3:.4f} ms "
          f"(min {min(meter.refs) * 1e3:.4f}, max {max(meter.refs) * 1e3:.4f}); "
          f"set-up s {sorted(round(s, 4) for _, s in meter.setups)}, "
          f"numpy start s {sorted(round(n, 4) for n, _ in meter.setups)}")
    metrics = {
        # Set-up with the numpy import at its nominal cost: the load time of
        # numpy's shared libraries swings by up to 60% with the host's state.
        "setup_s": (NUMPY_NOMINAL_S + statistics.median(s - n for n, s in meter.setups), "s"),
        "evals_per_ref": (statistics.fmean(r.evals for r, _, _ in rounds) / round_refs, "1/ref"),
        "records_per_ref": (statistics.fmean(r.records for r, _, _ in rounds) / round_refs,
                            "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = sum(r.attempted for r, _, _ in rounds)
    failed = sum(r.failed for r, _, _ in rounds)
    return metrics, attempted, failed, errors


def measure_traced(wl, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Traced run: round 0 alternately untraced and traced, then micro-benchmarks."""
    from tracing import Tracer, micro_benchmarks

    start = time.perf_counter()
    meter = Meter()
    pairs, errors = [], []
    attempted = failed = 0
    counts = None
    while not pairs or time.perf_counter() - start < seconds - MICRO_BUDGET_S:
        meter.begin_round()
        plain = wl.run_round(0, meter)
        meter.end_round()
        plain_refs = sum(meter.op_refs)
        tracer = Tracer()
        meter.begin_round()
        with tracer:
            traced = wl.run_round(0, meter)
        meter.end_round()
        pairs.append((sum(meter.op_refs) / plain_refs, tracer, traced))
        errors += plain.errors + traced.errors
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed

        these = dict(tracer.counts(), **{"hybrid.evals": traced.evals,
                                         "cli.records": traced.files_written})
        if counts is None:
            counts = these
        elif these != counts:
            errors.append(f"traced counts differ between repetitions: {these} != {counts}")
        total = tracer.total_s["hybrid.optimize"]
        if tracer.accounting_error() > 1e-9 * max(1.0, total):
            errors.append(f"layer self times miss the optimize total by "
                          f"{tracer.accounting_error()} s")
    errors += wl.check_run()

    # Times and spans come from the repetition whose optimize total is the
    # median one, so that they add up within one traced round.
    pairs.sort(key=lambda p: p[1].total_s["hybrid.optimize"])
    _, tracer, traced = pairs[(len(pairs) - 1) // 2]
    tracer.write_spans(OUT / f"trace-{wl.name}-seed{wl.seed}.jsonl")

    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics["hybrid.sca_share"] = (counts["hybrid.sca_share"], "ratio")
    metrics.update({name: (value, "s") for name, value in tracer.times().items()})
    metrics["cli.bytes_written"] = (traced.bytes_written, "B")
    metrics["trace.overhead"] = (statistics.median(p[0] for p in pairs), "ratio")
    metrics.update({name: (value, "us") for name, value in micro_benchmarks().items()})
    print(f"# {wl.name}: {len(pairs)} untraced/traced pairs, "
          f"trace overhead {metrics['trace.overhead'][0]:.4f}")
    return metrics, attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cscf" / "__init__.py").is_file():
        print(f"error: no cscf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cscf
    if Path(cscf.__file__).resolve().parent != SRC / "cscf":
        print(f"error: imported cscf from {cscf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-{os.getpid()}")
    wl.out_dir.mkdir()
    measure_fn = measure_traced if args.trace else measure
    metrics, attempted, failed, errors = measure_fn(wl, args.seconds)
    if wl.out_dir.exists() and not any(wl.out_dir.iterdir()):
        wl.out_dir.rmdir()

    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    bad = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    for name in bad:
        print(f"check failed: metric {name} is not finite", file=sys.stderr)
    correct = not errors and not bad
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
