"""Benchmark objective suite: twenty box-constrained test functions.

Each entry is a pure evaluator plus its dimension, bounds, and reference
optimum.  The table rows that are garbled in circulation are repaired to
their canonical literature forms; every repair is flagged here so results
stay interpretable:

* ``fn3`` is the plain floor-step sum ``30 + sum(floor(x))``.
* ``fn8`` is the canonical step function ``sum(floor(x + 0.5)**2)`` with
  optimum 0 (the widely printed optimum -3.214 is impossible for any
  sum-of-squares form).
* ``fn9``/``fn15`` take ``sqrt(abs(x))`` (the printed bare square root is
  undefined on half of the box).
* ``fn13`` is Shekel with the standard 10-row coefficient matrix.
* ``fn17`` is Rosenbrock on its canonical [-30, 30] box.
* ``fn19``/``fn20`` are the two generalized penalized functions with the
  standard ``u(x, a, k, m)`` boundary penalty, at m = 4 in both.
* ``fn11`` (a camel-back variant with a negative quartic tail), ``fn16``
  (coordinate maximum) and ``fn18`` (a unit-box Griewank variant) are
  evaluable as printed and kept literal; their circulated optima are not
  used (the README lists them under "Transcription notes").

``fn14`` adds uniform observation noise; its stream is owned by the
problem instance and reseedable, never wall-clock entropy.

Each evaluator is a formula on a list of Python floats (the engine's
positions, taken as they are) with the bits of its numpy array form, kept in
``tests/spec_objectives.py``: ``math`` per component, ``math.prod`` for a
product (numpy multiplies left to right), an array's ``**2`` as ``v * v`` and
a scalar's ``**`` as libm's pow, as numpy computes them.  Every sum is
``math.fsum``: one rounding of the exact sum of its terms, so it depends on
neither their order nor numpy's loop nor the Python version.  A separable
row is a template of its per-coordinate terms, which ``_codegen.straight_line``
writes out for one dim (``[x0, ..., x19] = x; return fsum((t0, ..., t19))``) at
the first evaluation, shared by every problem of that row and dim.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._codegen import straight_line
from .errors import NonFiniteResultError, as_count, as_floats

__all__ = [
    "ObjectiveProblem",
    "benchmark_problem",
    "suite",
    "resolve_problem_name",
]

_SCALABLE_DEFAULT_DIM = 20


@dataclass
class ObjectiveProblem:
    """A box-constrained objective.

    ``f_reference`` is a trustworthy optimum (analytic or best-known), or
    None when the literal formula has no clean reference.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    evaluator: Callable[[list[float]], float]
    f_reference: float | None = None
    reseed_noise: Callable[[int], None] | None = field(default=None, repr=False)

    def evaluate(self, x) -> float:
        """The objective at ``x``, a list of ``dim`` floats taken as it is or anything else
        checked by ``as_floats``; an overflow, a non-finite value or an undefined one
        (``sin(inf)``) raises ``NonFiniteResultError``."""
        if type(x) is not list or len(x) != self.dim:
            x = as_floats(x, self.dim, self.name)
        try:
            value = float(self.evaluator(x))
        except (ValueError, ArithmeticError) as exc:  # an overflow is a value out of range
            what = "has no finite value" if isinstance(exc, OverflowError) else "is undefined"
            raise NonFiniteResultError(f"{self.name} {what} at {x!r}: {exc}") from exc
        if not math.isfinite(value):
            raise NonFiniteResultError(f"{self.name} evaluated to {value!r} at {x!r}")
        return value


# ---------------------------------------------------------------------------
# evaluators

# A template is the term for x{i} (k = i + 1) of one fsum, or (the value, with {0},
# {1}, ... for such sums and {n} for the dim, then their terms).  Out of bounds,
# log(v <= 0) and sin(inf) raise ValueError.
_ACKLEY = ("-20.0 * exp(-0.2 * sqrt(fsum(({0})) / {n})) - exp(fsum(({1})) / {n}) + 20.0 + e",
           "x{i} * x{i}", "cos(tau * x{i})")
_GRIEWANK = ("fsum(({0})) / 4000.0 - prod(({1})) + 1.0", "x{i} * x{i}", "cos(x{i} / sqrt({k}))")
_UNIT_GRIEWANK = ("fsum(({0})) / 25.0 - prod(({1})) + 1.0", "x{i} * x{i}", "cos(x0 / sqrt({k}))")
_QUINTIC = "((((x{i} - 3.0) * x{i} + 4.0) * x{i} + 2.0) * x{i} - 10.0) * x{i} - 4.0"
_NEG_X_SIN_SQRT = "-x{i} * sin(sqrt(abs(x{i})))"
_QUARTIC_CORE = "{k} * ((x{i} * x{i}) * (x{i} * x{i}))"


@functools.cache
def _generated(row, template, dim):
    """Row ``row``'s evaluator at ``dim``, compiled from its ``template`` once."""
    template = template if type(template) is tuple else ("fsum(({0}))", template)
    return straight_line(row, dim, "x", "", "", *template)


def _schwefel_double_sum(x):
    return math.fsum([c * c for c in itertools.accumulate(x)])


def _camel(x):
    x1, x2 = x
    return 4.0 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4.0 * x2**2 - 4.0 * x2**4


def _goldstein_price(x):
    x1, x2 = x
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return a * b


_SHEKEL_A = ((4.0,) * 4, (1.0,) * 4, (8.0,) * 4, (6.0,) * 4, (3.0, 7.0) * 2, (2.0, 9.0) * 2,
             (5.0, 5.0, 3.0, 3.0), (8.0, 1.0) * 2, (6.0, 2.0) * 2, (7.0, 3.6) * 2)
_SHEKEL_C = (0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5)


def _shekel(x):
    x1, x2, x3, x4 = x
    terms = []
    for (a1, a2, a3, a4), c in zip(_SHEKEL_A, _SHEKEL_C):
        d1, d2, d3, d4 = x1 - a1, x2 - a2, x3 - a3, x4 - a4
        terms.append(1.0 / (d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4 + c))
    return -math.fsum(terms)


def _coordinate_max(x):
    # max() skips a NaN after the first item, where numpy's max returns it
    return math.nan if any(map(math.isnan, x)) else max(x)


def _rosenbrock(x):
    return math.fsum([100.0 * ((b - a * a) * (b - a * a)) + (a - 1.0) * (a - 1.0)
                      for a, b in zip(x, x[1:])])


def _u_penalty(x, a, k):
    # k * max(|v| - a, 0)**4, in which a NaN stays NaN
    return math.fsum([0.0 if t <= 0.0 else k * ((t * t) * (t * t))
                      for t in [abs(v) - a for v in x]])


def _sine_pairs(y, w, c):
    """The sum over neighbours ``a, b`` of ``(a - 1)**2 * (1 + c * sin(w * b)**2)``."""
    sines = [math.sin(w * b) for b in y[1:]]
    return math.fsum([(a - 1.0) * (a - 1.0) * (1.0 + c * (s * s)) for a, s in zip(y, sines)])


def _penalized1(x):
    y = [1.0 + (v + 1.0) / 4.0 for v in x]
    core = (
        10.0 * math.sin(math.pi * y[0]) ** 2
        + _sine_pairs(y, math.pi, 10.0)
        + (y[-1] - 1.0) ** 2
    )
    return math.pi / len(x) * core + _u_penalty(x, 10.0, 100.0)


def _penalized2(x):
    core = (
        math.sin(3.0 * math.pi * x[0]) ** 2
        + _sine_pairs(x, 3.0 * math.pi, 1.0)
        + (x[-1] - 1.0) ** 2 * (1.0 + math.sin(math.tau * x[-1]) ** 2)
    )
    return 0.1 * core + _u_penalty(x, 5.0, 100.0)


# ---------------------------------------------------------------------------
# registry

# (name, evaluator or its template or None when built per problem, fixed dim or
#  None when scalable, bounds, f_reference as a function of dim)
_ROWS = [
    ("ackley", _ACKLEY, None, (-30.0, 30.0), lambda d: 0.0),
    ("griewank", _GRIEWANK, None, (-600.0, 600.0), lambda d: 0.0),
    ("floor_step", ("30.0 + fsum(({0}))", "float(floor(x{i}))"), None, (-5.12, 5.12),
     lambda d: 30.0 - 6.0 * d),
    ("log_sines", "sin(10.0 * log(x{i}))", None, (0.25, 10.0), lambda d: -float(d)),
    ("quintic", _QUINTIC, None, (-10.0, 10.0), lambda d: -133704.0 * d),
    ("sphere", "x{i} * x{i}", None, (-100.0, 100.0), lambda d: 0.0),
    ("schwefel_double_sum", _schwefel_double_sum, None, (-100.0, 100.0), lambda d: 0.0),
    ("step", "(s := float(floor(x{i} + 0.5))) * s", None, (-10.0, 10.0), lambda d: 0.0),
    ("schwefel_small", _NEG_X_SIN_SQRT, None, (-5.12, 5.12), lambda d: None),
    ("rastrigin", "x{i} * x{i} - 10.0 * cos(tau * x{i}) + 10.0", None, (-200.0, 200.0),
     lambda d: 0.0),
    ("camel", _camel, 2, (-5.0, 5.0), lambda d: None),
    ("goldstein_price", _goldstein_price, 2, (-3.0, 3.0), lambda d: 3.0),
    ("shekel", _shekel, 4, (0.0, 20.0), lambda d: -10.5364),
    ("quartic_noise", None, None, (-1.28, 1.28), lambda d: 0.0),
    ("schwefel", _NEG_X_SIN_SQRT, None, (-500.0, 500.0), lambda d: -418.9828872724338 * d),
    ("coordinate_max", _coordinate_max, None, (-600.0, 600.0), lambda d: -600.0),
    ("rosenbrock", _rosenbrock, None, (-30.0, 30.0), lambda d: 0.0),
    ("unit_griewank", _UNIT_GRIEWANK, 6, (0.0, 1.0), lambda d: 0.0),
    ("penalized1", _penalized1, None, (-50.0, 50.0), lambda d: 0.0),
    ("penalized2", _penalized2, None, (-50.0, 50.0), lambda d: 0.0),
]

# Each row's 1-based index under its alias and under its id ("fn7").
_NAME_TO_INDEX = {key: i for i, row in enumerate(_ROWS, start=1) for key in (row[0], f"fn{i}")}


def resolve_problem_name(name: str) -> int:
    """Map an id ("fn7") or alias ("sphere"), in any case and with outer
    whitespace, to the 1-based table index; any other spelling raises ``KeyError``."""
    idx = _NAME_TO_INDEX.get(name.strip().lower())
    if idx is None:
        raise KeyError(f"unknown benchmark {name!r}")
    return idx


def _make_quartic_noise():
    noise = np.random.default_rng(0)

    def evaluator(x):
        return _generated("quartic_noise", _QUARTIC_CORE, len(x))(x) + float(noise.random())

    def reseed(seed: int) -> None:  # the state a fresh default_rng(seed) starts from
        noise.bit_generator.state = np.random.PCG64(seed).state

    return evaluator, reseed


def benchmark_problem(name: str, dim: int | None = None) -> ObjectiveProblem:
    """Build one suite problem, named by its alias, from a ``resolve_problem_name`` name.

    ``dim`` applies to the scalable rows only (``None`` means 20);
    fixed-dimension rows (camel, goldstein_price, shekel, unit_griewank) keep
    their intrinsic dimension.  A ``dim`` passes ``errors.as_count`` (the one
    count rule: an integer >= 1, stored as ``int``) for every row, or raises
    ``ConfigError``; an unknown name raises ``KeyError``.
    """
    d = _SCALABLE_DEFAULT_DIM if dim is None else as_count("dimension", dim, 1)
    alias, evaluator, fixed_dim, (lo, hi), ref_fn = _ROWS[resolve_problem_name(name) - 1]
    d = d if fixed_dim is None else fixed_dim
    reseed = None
    if alias == "quartic_noise":
        evaluator, reseed = _make_quartic_noise()
    elif not callable(evaluator):  # a template, compiled and swapped in by the first evaluation,
        # so that later ones call the compiled function with no lookup between
        def evaluator(x, template=evaluator):
            problem.evaluator = _generated(alias, template, d)
            return problem.evaluator(x)
    problem = ObjectiveProblem(name=alias, dim=d, lower=np.full(d, lo), upper=np.full(d, hi),
                               evaluator=evaluator, f_reference=ref_fn(d), reseed_noise=reseed)
    return problem


def suite(dim: int | None = None) -> list[ObjectiveProblem]:
    """All twenty problems in table order."""
    return [benchmark_problem(row[0], dim=dim) for row in _ROWS]
