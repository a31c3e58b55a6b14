"""Sine-cosine step kernel and its linearly decreasing amplitude schedule.

Each component of an agent oscillates around the destination (best-so-far)
point:

    x' = x + r1 * sin(r2) * |r3 * dest - x|   when r4 < 0.5
    x' = x + r1 * cos(r2) * |r3 * dest - x|   otherwise

``r1`` controls amplitude and normally follows the schedule
``a_const - t * a_const / max_iter`` (exploration early, exploitation
late); ``r2`` is a phase in [0, 2*pi]; ``r3`` in [0, 2] stochastically
emphasizes (>1) or deemphasizes (<1) the destination; ``r4`` in [0, 1]
selects the sine or cosine branch.  ``r2``/``r3``/``r4`` are drawn per
component by callers.

At ``dim <= FLOAT_DIM`` (14, shared with :mod:`cscf.firefly`, whose
docstring holds the measured table) the step runs on Python floats when
``r2``, ``r3`` and ``r4`` each have the position's shape and the phase is
float64.  numpy computes ``sin(r2)`` and ``cos(r2)``, so the trig keeps
numpy's bits; one loop then picks the branch per component, forms
``|r3*dest - x| * (r1*trig) + x`` in numpy's order and clamps as
``np.maximum`` and ``np.minimum`` do.  Any other shape (a scalar or a
length-1 draw) or phase dtype takes the numpy path, which broadcasts.  The
float path takes 0.61-0.67 of the numpy path's time at d = 3-4 (4.6-6.9
against 7.3-10.2 microseconds a call), 0.69-0.86 at d = 8-12, and breaks
even at d = 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .firefly import FLOAT_DIM

__all__ = ["ScaParams", "r1_schedule", "sca_step"]

_FLOAT64 = np.dtype(float)  # the one float64 dtype object that numpy's sin returns


@dataclass(frozen=True)
class ScaParams:
    a_const: float = 2.0

    def __post_init__(self):
        if not 0 < self.a_const < math.inf:
            raise ValueError(f"a_const must be positive and finite, got {self.a_const}")


def r1_schedule(iteration: int, max_iter: int, a_const: float = 2.0) -> float:
    """Linearly decreasing amplitude: ``a_const`` at step 0, exactly 0 at the end."""
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return a_const - iteration * (a_const / max_iter)


def sca_step(
    x: np.ndarray,
    dest: np.ndarray,
    r1,
    r2,
    r3,
    r4,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """One oscillation step toward/around ``dest``; result clamped to the box.

    ``r1`` is a scalar; ``r2``, ``r3``, ``r4`` broadcast componentwise.
    """
    x = np.asarray(x, dtype=float)
    dest = np.asarray(dest, dtype=float)
    if not x.shape == dest.shape == lower.shape == upper.shape:
        raise DimensionMismatchError(
            f"shapes differ: x {x.shape}, dest {dest.shape}, box {lower.shape} to {upper.shape}")
    sin, cos, r3, r4 = np.sin(r2), np.cos(r2), np.asarray(r3), np.asarray(r4)
    if x.size <= FLOAT_DIM and sin.dtype is _FLOAT64 \
            and sin.shape == r3.shape == r4.shape == x.shape:
        # as np.maximum and np.minimum do, the clamps pass a NaN on and return the bound at a tie
        new = []
        for xi, di, si, ci, ai, bi, lo, hi in zip(
                x.tolist(), dest.tolist(), sin.tolist(), cos.tolist(), r3.tolist(), r4.tolist(),
                lower.tolist(), upper.tolist()):
            v = abs(ai * di - xi) * (r1 * (si if bi < 0.5 else ci)) + xi
            new.append(hi if (c := lo if v <= lo else v) >= hi else c)
        return np.array(new)
    # one buffer, in place, in the formula's order: x + (r1 * trig) * |r3 * dest - x|
    new = r3 * dest - x
    np.abs(new, out=new)
    new *= r1 * np.where(r4 < 0.5, sin, cos)
    new += x
    np.maximum(new, lower, out=new)
    return np.minimum(new, upper, out=new)
