"""Constrained engineering design problems and constraint handling.

Three classic minimum-cost design tasks, each exposed as a pure evaluator
``z -> (cost, g)`` where feasibility means every ``g[i] <= 0``:

* welded beam (4 variables: weld height, weld length, bar height, bar
  width; 7 constraints on shear stress, bending stress, geometry, cost,
  minimum weld, end deflection, and buckling load),
* pressure vessel (4 variables: shell and head thickness, inner radius,
  cylinder length; 4 constraints; the two thicknesses are manufactured in
  multiples of 0.0625 in and are snapped to the nearest multiple before
  evaluation),
* tension-compression spring (coil diameter, active-coil count, wire
  diameter; 4 constraints).

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

from .errors import DimensionMismatchError, NonFiniteResultError

__all__ = [
    "ConstrainedProblem",
    "PenaltyParams",
    "PENALTY_MODES",
    "welded_beam",
    "pressure_vessel",
    "spring",
    "snap_thickness",
    "penalized_fitness",
    "total_violation",
    "engineering_problem",
    "engineering_suite",
    "ENGINEERING_NAMES",
]

ENGINEERING_NAMES = ("welded_beam", "pressure_vessel", "spring")
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
            raise ValueError(f"unknown penalty mode {self.mode!r}")
        if self.mode == "static-penalty" and self.weight <= 0:
            raise ValueError("static-penalty weight must be positive")


@dataclass
class ConstrainedProblem:
    """A cost function with inequality constraints on a box."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    n_constraints: int
    reference_best: float | None = None
    # Maps a raw position onto the manufacturable design actually evaluated
    # (identity for all but the pressure vessel's stepped thicknesses).
    repair: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    @property
    def bounds(self):
        return self.lower, self.upper


def _check_finite(name, cost, g):
    if not math.isfinite(cost) or np.isnan(g).any():
        raise NonFiniteResultError(f"{name} produced non-finite output: cost={cost!r}")
    return cost, g


# ---------------------------------------------------------------------------
# welded beam

_WB_P = 6000.0       # applied load, lb
_WB_L = 14.0         # beam length, in
_WB_E = 30e6         # Young's modulus, psi
_WB_G = 12e6         # shear modulus, psi
_WB_TAU_MAX = 13600.0
_WB_SIGMA_MAX = 30000.0
_WB_DELTA_MAX = 0.25


def welded_beam(z) -> tuple[float, np.ndarray]:
    """Cost and 7-vector of constraint values for a weld design.

    ``z = (h, l, t, b)``: weld height, weld length, bar height, bar width.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (4,):
        raise DimensionMismatchError(f"welded beam takes 4 variables, got {z.shape}")
    try:
        cost, g = _welded_beam(*z.tolist())
    except ArithmeticError:
        # A zero divisor or an overflowing power raises on Python floats;
        # numpy scalars carry it on as inf, an unbounded violation.
        cost, g = _welded_beam(*z)
    return _check_finite("welded_beam", cost, g)


def _welded_beam(h, l, t, b):
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

    g = np.array(
        [
            tau - _WB_TAU_MAX,
            sigma - _WB_SIGMA_MAX,
            h - b,
            1.10471 * h * h + 0.04811 * t * b * (14.0 + l) - 5.0,
            0.125 - h,
            delta - _WB_DELTA_MAX,
            _WB_P - p_buckle,
        ]
    )
    return cost, g


# ---------------------------------------------------------------------------
# pressure vessel

_PV_STEP = 0.0625


def snap_thickness(value):
    """Nearest manufacturable multiple of 0.0625 in (idempotent)."""
    return np.round(np.asarray(value, dtype=float) / _PV_STEP) * _PV_STEP


def _pv_repair(z):
    z = np.asarray(z, dtype=float).copy()
    z[0] = snap_thickness(z[0])
    z[1] = snap_thickness(z[1])
    return z


def pressure_vessel(z) -> tuple[float, np.ndarray]:
    """Cost and 4-vector of constraint values for a vessel design.

    ``z = (shell_thickness, head_thickness, inner_radius, length)``; the two
    thicknesses are snapped to the 0.0625 grid before evaluation.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (4,):
        raise DimensionMismatchError(f"pressure vessel takes 4 variables, got {z.shape}")
    z1, z2, z3, z4 = z.tolist()
    try:
        # round() is half-to-even like np.round, so this is snap_thickness
        cost, g = _pressure_vessel(round(z1 / _PV_STEP) * _PV_STEP,
                                   round(z2 / _PV_STEP) * _PV_STEP, z3, z4)
    except (ArithmeticError, ValueError):
        # round() rejects inf and nan, and a power may overflow; numpy
        # scalars carry them on to the finiteness check.
        cost, g = _pressure_vessel(*_pv_repair(z))
    return _check_finite("pressure_vessel", cost, g)


def _pressure_vessel(z1, z2, z3, z4):
    cost = (
        0.6224 * z1 * z3 * z4
        + 1.7781 * z2 * z3 * z3
        + 3.1611 * z1 * z1 * z4
        + 19.84 * z1 * z1 * z3
    )
    g = np.array(
        [
            -z1 + 0.0193 * z3,
            -z2 + 0.0095 * z3,
            -math.pi * z3 * z3 * z4 - (4.0 / 3.0) * math.pi * z3**3 + 1296000.0,
            z4 - 240.0,
        ]
    )
    return cost, g


# ---------------------------------------------------------------------------
# tension-compression spring


def spring(z) -> tuple[float, np.ndarray]:
    """Cost and 4-vector of constraint values for a spring design.

    ``z = (coil_diameter, active_coils, wire_diameter)``.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (3,):
        raise DimensionMismatchError(f"spring takes 3 variables, got {z.shape}")
    dc, nc, d = z
    cost = (nc + 2.0) * dc * d * d
    # The deflection denominator vanishes on the measure-zero surface
    # dc == d*d; the resulting +/-inf reads as an unbounded violation.
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.array(
            [
                1.0 - dc**3 * nc / (71785.0 * d**4),
                (4.0 * dc * dc - d * dc) / (12566.0 * (dc * d * d - d**4))
                + 1.0 / (5108.0 * d * d)
                - 1.0,
                1.0 - 140.45 * d / (nc * d * d),
                (d + dc) / 1.5 - 1.0,
            ]
        )
    if not math.isfinite(cost) or np.isnan(g).any():
        raise NonFiniteResultError(f"spring produced non-finite output at {z!r}")
    return cost, g


# ---------------------------------------------------------------------------
# constraint handling


def total_violation(g) -> float:
    """Sum of positive constraint values (0.0 when feasible)."""
    return float(np.maximum(0.0, np.asarray(g, dtype=float)).sum())


def penalized_fitness(cost: float, g, penalty: PenaltyParams):
    """Collapse (cost, constraints) into a comparable fitness.

    ``static-penalty`` returns a scalar; ``feasibility-rules`` returns a
    lexicographic key ``(infeasible, violation, cost)`` so feasible
    solutions always order ahead of infeasible ones and infeasible ones
    order by total violation.
    """
    g = np.asarray(g, dtype=float)
    if penalty.mode == "static-penalty":
        return float(cost) + penalty.weight * float((np.maximum(0.0, g) ** 2).sum())
    viol = total_violation(g)
    if viol > 0.0:
        return (1.0, viol, float(cost))
    return (0.0, 0.0, float(cost))


# ---------------------------------------------------------------------------
# problem registry


def engineering_problem(name: str) -> ConstrainedProblem:
    """Build one of the three design problems by its stable name."""
    key = name.strip().lower()
    if key == "welded_beam":
        return ConstrainedProblem(
            name="welded_beam",
            dim=4,
            lower=np.array([0.1, 0.1, 0.1, 0.1]),
            upper=np.array([2.0, 10.0, 10.0, 2.0]),
            evaluate=welded_beam,
            n_constraints=7,
            reference_best=1.704,
        )
    if key == "pressure_vessel":
        return ConstrainedProblem(
            name="pressure_vessel",
            dim=4,
            lower=np.array([0.0625, 0.0625, 10.0, 10.0]),
            upper=np.array([6.1875, 6.1875, 200.0, 200.0]),
            evaluate=pressure_vessel,
            n_constraints=4,
            reference_best=6123.489,
            repair=_pv_repair,
        )
    if key == "spring":
        return ConstrainedProblem(
            name="spring",
            dim=3,
            lower=np.array([0.25, 2.0, 0.05]),
            upper=np.array([1.3, 15.0, 2.0]),
            evaluate=spring,
            n_constraints=4,
            reference_best=0.020342,
        )
    raise KeyError(f"unknown engineering problem {name!r}; known: {ENGINEERING_NAMES}")


def engineering_suite() -> list[ConstrainedProblem]:
    return [engineering_problem(n) for n in ENGINEERING_NAMES]
