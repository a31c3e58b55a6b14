"""Per-layer tracing and micro-benchmarks.

:class:`Tracer` wraps the public names through which ``cscf.hybrid`` and
``cscf.cli`` call each layer, for the duration of a ``with`` block, and
restores them on exit.  Every wrapped call is a span; a layer's self time
is its spans' duration minus the part covered by spans nested in them, so
inside ``optimize`` the layer self times plus ``optimize``'s own self time
(``hybrid.loop_overhead_s``) add up to the ``optimize`` total.  Counts are
exact.  The first MAX_SPANS spans of the first traced ``optimize`` call
are also kept, with their parents, and written out by
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict, deque
from pathlib import Path

import numpy as np

from cscf import FireflyParams, PenaltyParams, analysis, chaos, cli, engineering, hybrid
from cscf.benchmarks import ObjectiveProblem, benchmark_problem
from cscf.errors import DivergedOrbitError

# States whose last draws (at most this many, at least COLLAPSE_MIN) have a
# variance below COLLAPSE_VAR count as collapsed onto a fixed point.
COLLAPSE_WINDOW = 100
COLLAPSE_MIN = 20
COLLAPSE_VAR = 1e-12

# Spans kept whole for the trace file: those of the first ``optimize`` call,
# up to this many (a full engineering run has about 100 000).
MAX_SPANS = 20_000

# Layers whose self time lies inside ``optimize``.
OPTIMIZE_CHILDREN = ("chaos", "firefly.move_improved", "firefly.move_standard",
                     "sca.sca_step", "benchmarks.evaluate", "engineering.evaluate",
                     "engineering.penalized_fitness")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.diverged = 0
        self.spans = []            # (id, parent, name, start, end) in the first optimize
        self._tails = {}           # id(state) -> (state, recent unit draws)
        self._stack = []           # [span id, child seconds, keep]
        self._next_id = 0
        self._kept_optimize = False
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            keep = bool(stack) and stack[-1][2]
            if name == "hybrid.optimize" and not self._kept_optimize:
                self._kept_optimize = keep = True
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0, keep]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep and len(self.spans) < MAX_SPANS:
                    parent = stack[-1][0] if stack else None
                    self.spans.append((span_id, parent, name, start, end))
        return wrapper

    def _chaos_draw(self, fn):
        tails = self._tails

        def next_unit(state):
            try:
                value = fn(state)
            except DivergedOrbitError:
                self.diverged += 1
                raise
            entry = tails.get(id(state))
            if entry is None:
                entry = tails[id(state)] = (state, deque(maxlen=COLLAPSE_WINDOW))
            entry[1].append(value)
            return value
        return self._span("chaos", next_unit)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        self._patch(chaos.ChaoticMap, "next_unit", self._chaos_draw(chaos.ChaoticMap.next_unit))
        for attr, name in (("move_improved", "firefly.move_improved"),
                           ("move_standard", "firefly.move_standard"),
                           ("sca_step", "sca.sca_step"),
                           ("penalized_fitness", "engineering.penalized_fitness")):
            self._patch(hybrid, attr, self._span(name, getattr(hybrid, attr)))
        self._patch(ObjectiveProblem, "evaluate",
                    self._span("benchmarks.evaluate", ObjectiveProblem.evaluate))
        # engineering_problem looks these up when it builds a problem, so
        # problems built inside the block evaluate through the span.
        for attr in engineering.ENGINEERING_NAMES:
            self._patch(engineering, attr,
                        self._span("engineering.evaluate", getattr(engineering, attr)))
        optimize = self._span("hybrid.optimize", hybrid.optimize)
        self._patch(hybrid, "optimize", optimize)
        self._patch(cli, "optimize", optimize)
        self._patch(cli, "cmd_run", self._span("cli.cmd_run", cli.cmd_run))
        self._patch(cli, "cmd_report", self._span("cli.cmd_report", cli.cmd_report))
        self._patch(analysis, "compare_report",
                    self._span("analysis.compare_report", analysis.compare_report))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results ----------------------------------------------------------

    def collapsed_states(self) -> int:
        return sum(1 for _, tail in self._tails.values()
                   if len(tail) >= COLLAPSE_MIN and np.var(tail) < COLLAPSE_VAR)

    def counts(self) -> dict:
        """The exact counts; equal for every traced run of the same inputs."""
        moves = sum(self.calls[n] for n in ("firefly.move_improved",
                                            "firefly.move_standard", "sca.sca_step"))
        return {
            "chaos.draws": self.calls["chaos"],
            "chaos.collapsed_states": self.collapsed_states(),
            "chaos.diverged_states": self.diverged,
            "firefly.move_improved.calls": self.calls["firefly.move_improved"],
            "firefly.move_standard.calls": self.calls["firefly.move_standard"],
            "sca.sca_step.calls": self.calls["sca.sca_step"],
            "benchmarks.evaluate.calls": self.calls["benchmarks.evaluate"],
            "engineering.evaluate.calls": self.calls["engineering.evaluate"],
            "engineering.penalized_fitness.calls": self.calls["engineering.penalized_fitness"],
            "hybrid.sca_share": self.calls["sca.sca_step"] / moves if moves else 0.0,
        }

    def times(self) -> dict:
        out = {f"{name}.self_s": self.self_s[name] for name in OPTIMIZE_CHILDREN}
        out["hybrid.optimize_s"] = self.total_s["hybrid.optimize"]
        out["hybrid.loop_overhead_s"] = self.self_s["hybrid.optimize"]
        out["cli.run_s"] = self.total_s["cli.cmd_run"]
        out["cli.overhead_s"] = self.self_s["cli.cmd_run"]
        out["cli.report_s"] = self._per_call("cli.cmd_report")
        out["analysis.compare_report_s"] = self._per_call("analysis.compare_report")
        return out

    def _per_call(self, name: str) -> float:
        return self.total_s[name] / self.calls[name] if self.calls[name] else 0.0

    def accounting_error(self) -> float:
        """|sum of layer self times inside optimize + loop overhead - optimize total|."""
        parts = sum(self.self_s[name] for name in OPTIMIZE_CHILDREN)
        return abs(parts + self.self_s["hybrid.optimize"] - self.total_s["hybrid.optimize"])

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# micro-benchmarks: raw microseconds per call, median of several batches


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def micro_benchmarks() -> dict:
    rng = np.random.default_rng(12345)
    out = {}
    for name in chaos.MAP_NAMES:
        # A fresh state per batch keeps every map on its default orbit.
        samples = []
        for _ in range(5):
            state = chaos.new_map(name)
            start = time.perf_counter()
            for _ in range(2000):
                state.next_unit()
            samples.append((time.perf_counter() - start) / 2000 * 1e6)
        out[f"chaos.next_unit_us.{name}"] = statistics.median(samples)

    params = FireflyParams()
    for dim in (4, 30):
        lower, upper = np.full(dim, -10.0), np.full(dim, 10.0)
        x, y, a, dest = (rng.uniform(-10.0, 10.0, dim) for _ in range(4))
        r2, r3, r4 = rng.uniform(0, 2 * math.pi, dim), rng.uniform(0, 2, dim), rng.random(dim)
        out[f"firefly.move_improved_us.d{dim}"] = _per_call_us(
            lambda: hybrid.move_improved(x, y, a, params, lower, upper, rng.random), 500)
        out[f"firefly.move_standard_us.d{dim}"] = _per_call_us(
            lambda: hybrid.move_standard(x, y, params, lower, upper, rng.random), 500)
        out[f"sca.sca_step_us.d{dim}"] = _per_call_us(
            lambda: hybrid.sca_step(x, dest, 1.0, r2, r3, r4, lower, upper), 500)

    for name in ("sphere", "ackley", "rastrigin"):   # the suite functions the workloads use
        problem = benchmark_problem(name, dim=20)
        point = rng.uniform(problem.lower, problem.upper)
        out[f"benchmarks.evaluate_us.{name}"] = _per_call_us(lambda: problem.evaluate(point), 500)
    penalty = PenaltyParams()
    for problem in engineering.engineering_suite():
        point = rng.uniform(problem.lower, problem.upper)
        out[f"engineering.evaluate_us.{problem.name}"] = _per_call_us(
            lambda: problem.evaluate(point), 500)
    cost, g = engineering.engineering_problem("welded_beam").evaluate(
        np.array([0.2, 3.5, 9.0, 0.21]))
    out["engineering.penalized_fitness_us"] = _per_call_us(
        lambda: hybrid.penalized_fitness(cost, g, penalty), 1000)

    a10, b10 = list(rng.normal(0, 1, 10)), list(rng.normal(0.5, 1, 10))
    out["analysis.wilcoxon_rank_sum_us.n10"] = _per_call_us(
        lambda: analysis.wilcoxon_rank_sum(a10, b10), 200)
    out["analysis.wilcoxon_signed_rank_us.n10"] = _per_call_us(
        lambda: analysis.wilcoxon_signed_rank(a10, b10), 50)
    return out
