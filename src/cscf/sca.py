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

The position ``x``, ``dest``, the draws ``r2``, ``r3`` and ``r4`` and the
box are sequences of floats of one length (lists or float64 arrays); ``r1``
is a scalar, and the step returns a new list.  One statement per component,
written by ``_codegen.straight_line`` and compiled once per length, takes its
branch and its one trig, ``math.sin`` or ``math.cos`` (equal to numpy's
float64 ``sin`` and ``cos`` on 2e6 of 2e6 phases, also without AVX-512 or
FMA), forms ``|r3*dest - x| * (r1*trig) + x`` on Python floats in numpy's
order and clamps as ``np.maximum`` and ``np.minimum`` do, so it gives the
numpy expression's bits.
"""

from __future__ import annotations

from typing import Sequence

from ._codegen import CLAMP, straight_line
from .errors import DimensionMismatchError

__all__ = ["r1_schedule", "sca_step"]

# The step for component {i}, with x, dest, r2, r3 and r4 unpacked as x, d, p, a and b
_TEMPLATE = ("x d p a b lo hi", "r1",
             "v = abs(a{i} * d{i} - x{i}) * (r1 * (sin(p{i}) if b{i} < 0.5 else cos(p{i}))) + x{i}"
             + CLAMP, "[{0}]", "w{i}")
_KERNELS: dict = {}  # length -> its compiled step


def r1_schedule(iteration: int, max_iter: int, a_const: float) -> float:
    """Linearly decreasing amplitude: ``a_const`` at step 0, exactly 0 at the end."""
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    return a_const - iteration * (a_const / max_iter)


def sca_step(
    x: Sequence[float],
    dest: Sequence[float],
    r1: float,
    r2: Sequence[float],
    r3: Sequence[float],
    r4: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
) -> list[float]:
    """One oscillation step toward/around ``dest``; result clamped to the box.

    ``r1`` is a scalar; ``r2``, ``r3`` and ``r4`` have the length of ``x``.
    """
    n = len(x)
    if not n == len(dest) == len(r2) == len(r3) == len(r4) == len(lower) == len(upper):
        raise DimensionMismatchError(f"lengths differ: x {n}, dest, r2, r3, r4 and box "
                                     f"{[len(v) for v in (dest, r2, r3, r4, lower, upper)]}")
    step = _KERNELS.get(n) or _KERNELS.setdefault(n, straight_line("sca_step", n, *_TEMPLATE))
    return step(x, dest, r2, r3, r4, lower, upper, r1)
