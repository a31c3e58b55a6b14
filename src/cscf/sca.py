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

Every array input is float64 and shaped like the position ``x``: ``dest``,
the draws ``r2``, ``r3`` and ``r4``, and the box; ``r1`` is a scalar.  At
``dim <= FLOAT_DIM`` (14, shared with :mod:`cscf.firefly`, whose docstring
holds the measured table) the step runs on Python floats.  numpy computes
``sin(r2)`` and ``cos(r2)``, so the trig keeps numpy's bits; one loop then
picks the branch per component, forms ``|r3*dest - x| * (r1*trig) + x`` in
numpy's order and clamps as ``np.maximum`` and ``np.minimum`` do.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .firefly import FLOAT_DIM

__all__ = ["r1_schedule", "sca_step"]


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

    ``r1`` is a scalar; ``r2``, ``r3`` and ``r4`` are shaped like ``x``.
    """
    if not x.shape == dest.shape == r2.shape == r3.shape == r4.shape == lower.shape == upper.shape:
        raise DimensionMismatchError(f"shapes differ: x {x.shape}, dest, r2, r3, r4 and box "
                                     f"{[v.shape for v in (dest, r2, r3, r4, lower, upper)]}")
    sin, cos = np.sin(r2), np.cos(r2)
    if x.size <= FLOAT_DIM:
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
