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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = ["ScaParams", "r1_schedule", "sca_step"]


@dataclass(frozen=True)
class ScaParams:
    a_const: float = 2.0

    def __post_init__(self):
        if self.a_const <= 0:
            raise ValueError(f"a_const must be positive, got {self.a_const}")


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
    if x.shape != dest.shape:
        raise DimensionMismatchError(f"position {x.shape} vs destination {dest.shape}")
    trig = np.where(np.asarray(r4) < 0.5, np.sin(r2), np.cos(r2))
    new = x + r1 * trig * np.abs(r3 * dest - x)
    return np.minimum(np.maximum(new, lower), upper)
