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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, NonFiniteResultError, as_count

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
    evaluator: Callable[[np.ndarray], float]
    f_reference: float | None = None
    reseed_noise: Callable[[int], None] | None = field(default=None, repr=False)

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"{self.name} expects dimension {self.dim}, got shape {x.shape}"
            )
        value = float(self.evaluator(x))
        if not math.isfinite(value):
            raise NonFiniteResultError(f"{self.name} evaluated to {value!r} at {x!r}")
        return value


# ---------------------------------------------------------------------------
# evaluators


def _ackley(x):
    d = x.size
    return (
        -20.0 * math.exp(-0.2 * math.sqrt((x * x).sum() / d))
        - math.exp(np.cos(2.0 * math.pi * x).sum() / d)
        + 20.0
        + math.e
    )


def _griewank(x):
    k = np.arange(1, x.size + 1)
    return (x * x).sum() / 4000.0 - np.cos(x / np.sqrt(k)).prod() + 1.0


def _floor_step(x):
    return 30.0 + np.floor(x).sum()


def _log_sines(x):
    # a nonpositive or NaN coordinate (only reachable out of bounds) gives
    # nan, and so does sin(inf); the evaluate wrapper raises NonFiniteResultError.
    logs = np.array([math.log(v) if v > 0.0 else math.nan for v in x.tolist()])
    with np.errstate(invalid="ignore"):
        return np.sin(10.0 * logs).sum()


def _quintic(x):
    return (((((x - 3.0) * x + 4.0) * x + 2.0) * x - 10.0) * x - 4.0).sum()


def _sphere(x):
    return (x * x).sum()


def _schwefel_double_sum(x):
    return (x.cumsum() ** 2).sum()


def _step(x):
    return (np.floor(x + 0.5) ** 2).sum()


def _neg_x_sin_sqrt(x):
    return (-x * np.sin(np.sqrt(np.abs(x)))).sum()


def _rastrigin(x):
    return (x * x - 10.0 * np.cos(2.0 * math.pi * x) + 10.0).sum()


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


_SHEKEL_A = np.array(
    [
        [4.0, 4.0, 4.0, 4.0],
        [1.0, 1.0, 1.0, 1.0],
        [8.0, 8.0, 8.0, 8.0],
        [6.0, 6.0, 6.0, 6.0],
        [3.0, 7.0, 3.0, 7.0],
        [2.0, 9.0, 2.0, 9.0],
        [5.0, 5.0, 3.0, 3.0],
        [8.0, 1.0, 8.0, 1.0],
        [6.0, 2.0, 6.0, 2.0],
        [7.0, 3.6, 7.0, 3.6],
    ]
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def _shekel(x):
    diff = x[None, :] - _SHEKEL_A
    return -(1.0 / ((diff * diff).sum(axis=1) + _SHEKEL_C)).sum()


def _quartic_core(x):
    k = np.arange(1, x.size + 1)
    return (k * (x * x) ** 2).sum()


def _coordinate_max(x):
    return x.max()


def _rosenbrock(x):
    return (100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2).sum()


def _unit_griewank(x):
    k = np.arange(1, 7)
    return (x * x).sum() / 25.0 - np.cos(x[0] / np.sqrt(k)).prod() + 1.0


def _u_penalty(x, a, k):
    return (k * (np.maximum(np.abs(x) - a, 0.0) ** 2) ** 2).sum()


def _penalized1(x):
    d = x.size
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * math.sin(math.pi * y[0]) ** 2
        + ((y[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(math.pi * y[1:]) ** 2)).sum()
        + (y[-1] - 1.0) ** 2
    )
    return math.pi / d * core + _u_penalty(x, 10.0, 100.0)


def _penalized2(x):
    core = (
        math.sin(3.0 * math.pi * x[0]) ** 2
        + ((x[:-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * math.pi * x[1:]) ** 2)).sum()
        + (x[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * x[-1]) ** 2)
    )
    return 0.1 * core + _u_penalty(x, 5.0, 100.0)


# ---------------------------------------------------------------------------
# registry

# (name, evaluator or None when built per problem, fixed dim or None when
#  scalable, bounds, f_reference as a function of dim)
_ROWS = [
    ("ackley", _ackley, None, (-30.0, 30.0), lambda d: 0.0),
    ("griewank", _griewank, None, (-600.0, 600.0), lambda d: 0.0),
    ("floor_step", _floor_step, None, (-5.12, 5.12), lambda d: 30.0 - 6.0 * d),
    ("log_sines", _log_sines, None, (0.25, 10.0), lambda d: -float(d)),
    ("quintic", _quintic, None, (-10.0, 10.0), lambda d: -133704.0 * d),
    ("sphere", _sphere, None, (-100.0, 100.0), lambda d: 0.0),
    ("schwefel_double_sum", _schwefel_double_sum, None, (-100.0, 100.0), lambda d: 0.0),
    ("step", _step, None, (-10.0, 10.0), lambda d: 0.0),
    ("schwefel_small", _neg_x_sin_sqrt, None, (-5.12, 5.12), lambda d: None),
    ("rastrigin", _rastrigin, None, (-200.0, 200.0), lambda d: 0.0),
    ("camel", _camel, 2, (-5.0, 5.0), lambda d: None),
    ("goldstein_price", _goldstein_price, 2, (-3.0, 3.0), lambda d: 3.0),
    ("shekel", _shekel, 4, (0.0, 20.0), lambda d: -10.5364),
    ("quartic_noise", None, None, (-1.28, 1.28), lambda d: 0.0),
    ("schwefel", _neg_x_sin_sqrt, None, (-500.0, 500.0), lambda d: -418.9828872724338 * d),
    ("coordinate_max", _coordinate_max, None, (-600.0, 600.0), lambda d: -600.0),
    ("rosenbrock", _rosenbrock, None, (-30.0, 30.0), lambda d: 0.0),
    ("unit_griewank", _unit_griewank, 6, (0.0, 1.0), lambda d: 0.0),
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
        return _quartic_core(x) + float(noise.random())

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
    lower = np.full(d, lo)
    upper = np.full(d, hi)
    reseed = None
    if alias == "quartic_noise":
        evaluator, reseed = _make_quartic_noise()
    return ObjectiveProblem(
        name=alias,
        dim=d,
        lower=lower,
        upper=upper,
        evaluator=evaluator,
        f_reference=ref_fn(d),
        reseed_noise=reseed,
    )


def suite(dim: int | None = None) -> list[ObjectiveProblem]:
    """All twenty problems in table order."""
    return [benchmark_problem(row[0], dim=dim) for row in _ROWS]
