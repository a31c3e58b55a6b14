"""Constrained engineering design problems and constraint handling.

Three classic minimum-cost design tasks, each exposed as a pure evaluator
``z -> (cost, g)``, ``g`` a list of floats, feasible when every ``g[i] <= 0``:

* welded beam (4 variables: weld height, weld length, bar height, bar
  width; 7 constraints on shear stress, bending stress, geometry, cost,
  minimum weld, end deflection, and buckling load),
* pressure vessel (4 variables: shell and head thickness, inner radius,
  cylinder length; 4 constraints; the two thicknesses are manufactured in
  multiples of 0.0625 in and are snapped to the nearest multiple before
  evaluation),
* tension-compression spring (coil diameter, active-coil count, wire
  diameter; 4 constraints).

Each design is a formula on its list of scalars, returning the cost and a
list of constraint values, plus one row of ``_DESIGNS`` (box, constraint
count, reference cost, repair).  One wrapper, ``_design``, makes every public
evaluator: a shape check, the formula on Python floats (on numpy scalars,
which carry a zero divisor or an overflow on as inf, when floats raise) and
a finiteness check; ``g`` is the formula's own list.

Transcription repairs, all documented here: the welded-beam cost (and the
cost-cap constraint g4) use the canonical 1.10471/0.04811 coefficients;
the shear/bending stress limits are the canonical 13600/30000 psi (the
circulated 1360/3000 values make even the published best designs
infeasible); g3 is the weld-vs-bar thickness bound ``z1 - z4 <= 0``; the
torsion radius uses ``(z1 + z3)/2``.  The pressure-vessel volume
constraint uses the spherical-head term ``(4/3)*pi*z3**3`` and the length
cap reads ``z4 - 240 <= 0``.  The spring surge constraint divides by the
fourth power of the wire diameter.

Constraint handling is pluggable: a static quadratic penalty, or
parameter-free feasibility ordering (feasible beats infeasible; among
infeasible, smaller total violation wins; ties fall back to cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteResultError

__all__ = [
    "ConstrainedProblem",
    "PenaltyParams",
    "PENALTY_MODES",
    "welded_beam",
    "pressure_vessel",
    "spring",
    "penalized_fitness",
    "total_violation",
    "engineering_problem",
    "engineering_suite",
    "ENGINEERING_NAMES",
]

PENALTY_MODES = ("feasibility-rules", "static-penalty")


@dataclass(frozen=True)
class PenaltyParams:
    """Constraint-handling mode.

    ``feasibility-rules`` (default) needs no tuning; ``static-penalty``
    adds ``weight * sum(max(0, g)**2)`` to the cost.
    """

    mode: str = "feasibility-rules"
    weight: float = 1e6

    def __post_init__(self):
        if self.mode not in PENALTY_MODES:
            raise ConfigError(f"unknown penalty mode {self.mode!r}")
        if not math.isfinite(self.weight) or self.mode == "static-penalty" and self.weight <= 0:
            raise ConfigError(f"weight must be finite, and > 0 for static-penalty: {self.weight}")


@dataclass
class ConstrainedProblem:
    """A cost function with inequality constraints on a box."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], tuple[float, list[float]]]
    n_constraints: int
    reference_best: float | None = None
    # The manufacturable design that evaluate() scores (None: the position as it is).
    repair: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)


def _design(name: str, n: int, formula):
    """The public evaluator ``z -> (cost, g)`` of ``formula`` on ``n`` variables."""
    shape = (n,)

    def evaluate(z) -> tuple[float, list[float]]:
        z = np.asarray(z, dtype=float)
        if z.shape != shape:
            raise DimensionMismatchError(f"{name} takes {n} variables, got {z.shape}")
        try:
            cost, g = formula(z.tolist())
        except ArithmeticError:
            with np.errstate(divide="ignore", invalid="ignore"):
                cost, g = formula(z)
        if not math.isfinite(cost) or any(map(math.isnan, g)):
            raise NonFiniteResultError(f"{name} produced non-finite output: cost={cost!r}")
        return cost, g

    evaluate.__name__ = evaluate.__qualname__ = name
    evaluate.__doc__ = formula.__doc__
    return evaluate


# ---------------------------------------------------------------------------
# welded beam

_WB_P = 6000.0       # applied load, lb
_WB_L = 14.0         # beam length, in
_WB_E = 30e6         # Young's modulus, psi
_WB_G = 12e6         # shear modulus, psi
_WB_TAU_MAX = 13600.0
_WB_SIGMA_MAX = 30000.0
_WB_DELTA_MAX = 0.25


def _welded_beam(z):
    """Cost and 7-vector of constraint values for a weld design.

    ``z = (h, l, t, b)``: weld height, weld length, bar height, bar width.
    """
    h, l, t, b = z
    cost = 1.10471 * h * h * l + 0.04811 * t * b * (14.0 + l)

    tau_p = _WB_P / (math.sqrt(2.0) * h * l)
    moment = _WB_P * (_WB_L + l / 2.0)
    radius = math.sqrt(l * l / 4.0 + ((h + t) / 2.0) ** 2)
    polar = 2.0 * (math.sqrt(2.0) * h * l * (l * l / 12.0 + ((h + t) / 2.0) ** 2))
    tau_pp = moment * radius / polar
    tau = math.sqrt(tau_p**2 + 2.0 * tau_p * tau_pp * l / (2.0 * radius) + tau_pp**2)
    sigma = 6.0 * _WB_P * _WB_L / (b * t * t)
    delta = 4.0 * _WB_P * _WB_L**3 / (_WB_E * t**3 * b)
    p_buckle = (4.013 * _WB_E * math.sqrt(t * t * b**6 / 36.0) / _WB_L**2) * (
        1.0 - t / (2.0 * _WB_L) * math.sqrt(_WB_E / (4.0 * _WB_G))
    )

    g = [
        tau - _WB_TAU_MAX,
        sigma - _WB_SIGMA_MAX,
        h - b,
        1.10471 * h * h + 0.04811 * t * b * (14.0 + l) - 5.0,
        0.125 - h,
        delta - _WB_DELTA_MAX,
        _WB_P - p_buckle,
    ]
    return cost, g


# ---------------------------------------------------------------------------
# pressure vessel

_PV_STEP = 0.0625


def _snap(v):
    """``v`` to the nearest multiple of the step, ties to even as np.round does.
    From 2**48 on every float is a multiple already; inf and NaN pass as they are."""
    return round(v / _PV_STEP) * _PV_STEP if -2.0**48 < v < 2.0**48 else v


def _pressure_vessel(z):
    """Cost and 4-vector of constraint values for a vessel design.

    ``z = (shell_thickness, head_thickness, inner_radius, length)``; the two
    thicknesses are snapped to the 0.0625 grid before evaluation.
    """
    z1, z2, z3, z4 = z
    z1, z2 = _snap(z1), _snap(z2)
    cost = (
        0.6224 * z1 * z3 * z4
        + 1.7781 * z2 * z3 * z3
        + 3.1611 * z1 * z1 * z4
        + 19.84 * z1 * z1 * z3
    )
    g = [
        -z1 + 0.0193 * z3,
        -z2 + 0.0095 * z3,
        -math.pi * z3 * z3 * z4 - (4.0 / 3.0) * math.pi * z3**3 + 1296000.0,
        z4 - 240.0,
    ]
    return cost, g


def _repair_vessel(z):
    """The in-box design the vessel evaluates: both thicknesses snapped."""
    z = np.array(z, dtype=float)
    z[0], z[1] = map(_snap, z[:2].tolist())
    return z


# ---------------------------------------------------------------------------
# tension-compression spring


def _spring(z):
    """Cost and 4-vector of constraint values for a spring design.

    ``z = (coil_diameter, active_coils, wire_diameter)``.  The deflection
    denominator vanishes on the measure-zero surface ``dc == d*d``.
    """
    dc, nc, d = z
    cost = (nc + 2.0) * dc * d * d
    g = [
        1.0 - dc**3 * nc / (71785.0 * d**4),
        (4.0 * dc * dc - d * dc) / (12566.0 * (dc * d * d - d**4))
        + 1.0 / (5108.0 * d * d)
        - 1.0,
        1.0 - 140.45 * d / (nc * d * d),
        (d + dc) / 1.5 - 1.0,
    ]
    return cost, g


# Module attributes, looked up by engineering_problem: a wrapper set in their
# place (bench/tracing.py) is what new problems evaluate through.
welded_beam = _design("welded_beam", 4, _welded_beam)
pressure_vessel = _design("pressure_vessel", 4, _pressure_vessel)
spring = _design("spring", 3, _spring)

# name: (lower, upper, constraint count, reference_best, repair)
_DESIGNS = {
    "welded_beam": ((0.1, 0.1, 0.1, 0.1), (2.0, 10.0, 10.0, 2.0), 7, 1.704, None),
    "pressure_vessel": ((0.0625, 0.0625, 10.0, 10.0), (6.1875, 6.1875, 200.0, 200.0), 4,
                        6123.489, _repair_vessel),
    "spring": ((0.25, 2.0, 0.05), (1.3, 15.0, 2.0), 4, 0.020342, None),
}
ENGINEERING_NAMES = tuple(_DESIGNS)


# ---------------------------------------------------------------------------
# constraint handling


def total_violation(g) -> float:
    """Sum of the positive values of ``g``, any sequence of floats, taken left
    to right at every length (0.0 when feasible, NaN if one is NaN)."""
    total = 0.0
    for v in g:
        if not v <= 0.0:  # a NaN too
            total += v
    return float(total)  # a float also when g holds numpy scalars


def penalized_fitness(cost: float, g, penalty: PenaltyParams):
    """Collapse (cost, constraints) into a comparable fitness.

    ``static-penalty`` returns a scalar; ``feasibility-rules`` returns a
    lexicographic key ``(infeasible, violation, cost)`` so feasible
    solutions always order ahead of infeasible ones and infeasible ones
    order by total violation.  A NaN constraint raises
    :class:`NonFiniteResultError` in both modes.
    """
    if penalty.mode == "static-penalty":
        term = 0.0
        for v in g:
            if not v <= 0.0:  # a NaN too
                term += v * v  # not v**2, which raises on overflow
        if not math.isnan(term):
            return float(cost) + penalty.weight * float(term)
    else:
        viol = total_violation(g)
        if viol <= 0.0:  # total_violation is never negative
            return (0.0, 0.0, float(cost))
        if viol > 0.0:
            return (1.0, viol, float(cost))
    raise NonFiniteResultError(f"constraint vector holds a NaN: {[float(v) for v in g]!r}")


# ---------------------------------------------------------------------------
# problem registry


def engineering_problem(name: str) -> ConstrainedProblem:
    """Build one of the three design problems by its stable name."""
    key = name.strip().lower()
    if key not in _DESIGNS:
        raise KeyError(f"unknown engineering problem {name!r}; known: {ENGINEERING_NAMES}")
    lower, upper, n_constraints, reference_best, repair = _DESIGNS[key]
    return ConstrainedProblem(name=key, dim=len(lower), lower=np.array(lower),
                              upper=np.array(upper), evaluate=globals()[key],
                              n_constraints=n_constraints, reference_best=reference_best,
                              repair=repair)


def engineering_suite() -> list[ConstrainedProblem]:
    return [engineering_problem(n) for n in ENGINEERING_NAMES]
