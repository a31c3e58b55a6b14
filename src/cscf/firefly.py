"""Firefly movement kernels: attractiveness and the two moves.

The kernels are pure given an explicit unit-draw source.  A source is any
callable ``unit(n) -> ndarray`` of ``n`` float64 samples in [0, 1]; both
``numpy.random.Generator.random`` and :meth:`cscf.chaos.ChaoticMap.unit`
satisfy it, so randomness and chaos are interchangeable at the call site.

The standard move for a firefly at ``x`` attracted by a brighter one at
``y`` is

    x' = x + alpha0 * exp(-beta * d(x, y)**2) * (y - x) + J * eta

with ``eta`` a componentwise zero-mean perturbation.  The improved move
adds ``K * (a - x)`` for a random third firefly ``a`` (``a`` distinct from
``x`` and ``y``).  Minimization convention throughout: "brighter" means
lower penalized fitness.  Positions, partners and the box are float64
arrays of one shape, used as given: nothing is converted or broadcast.

The perturbation ``eta`` is uniform on [-1/2, 1/2] scaled by a tenth of the
per-dimension box width, so J-steps are zero-mean and proportionate to the
search domain.

At ``dim <= FLOAT_DIM`` (14) both moves finish on Python floats in numpy's
operation order, so both paths give the same bits; above it numpy adds the
terms into one buffer in place, in that same order.  The float path sums
and clamps each component in one loop (the standard move's loop has no
partner term).  :func:`cscf.sca.sca_step` shares the limit.  Measured per
call, float path / numpy path in microseconds, as the range over two runs
of the best of 15 x 10 000 calls each (Python 3.11.7, numpy 2.4.6, a
2-CPU Xeon):

    d   move_standard           move_improved           sca_step
    3   5.0-5.6 / 8.7-9.5       5.7-6.3 / 9.3-12.4      4.6-5.2 / 7.3-8.5
    4   5.6-5.8 / 8.0-9.0       6.5-8.6 / 11.2-13.3     5.4-6.9 / 8.8-10.2
    8   6.0-7.6 / 8.0-10.0      7.6-9.4 / 9.8-12.0      5.8-7.1 / 8.4-8.6
    10  7.6-8.6 / 9.8-9.9       8.9-9.5 / 12.0-14.2     7.1-7.8 / 8.3-9.2
    12  8.5-9.2 / 9.6-9.9       10.9-11.2 / 13.1-14.8   7.3-7.8 / 9.6-10.2
    14  8.8-11.2 / 11.1-12.5    12.3-12.6 / 13.6-15.3   8.6-12.6 / 8.0-12.7
    16  10.9-14.7 / 12.0-14.3   10.8-17.0 / 12.7-16.0   10.0-10.9 / 9.0-9.6
    20  10.0-11.9 / 11.0-12.2   14.1-17.4 / 13.5-15.7   10.0-11.4 / 8.5-9.1
    24  13.2-15.5 / 10.0-12.8   17.1 / 15.0-15.4        15.0-18.6 / 11.3
    30  13.8-15.1 / 9.5-9.7     16.9-18.4 / 12.1-12.7   15.4-15.9 / 8.4-9.7

Floats win every kernel at every d up to 12.  Over these runs and a third
at d = 12-16, the float/numpy ratio at d = 14 is 0.80-0.91 for the moves
and 0.92-1.08 for the step; at d = 16 it is 0.86-1.13, and from d = 24 on
numpy wins by 1.1-1.8x.  The three kernels cross within a few dims of each
other, so one limit serves them all.

The distance stays on numpy: the BLAS dot behind ``toward.dot(toward)``
reorders its sum, Python summation orders differ from it in 25-35% of
d = 4 cases, and Python 3.11 has no ``math.fma``.
The partner check is exact: distinct arrays that each own their data
cannot overlap, and any other partner takes ``np.shares_memory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, SameAgentError

__all__ = [
    "FireflyParams",
    "attractiveness",
    "move_standard",
    "move_improved",
]

UnitSource = Callable[[int], np.ndarray]

# Largest dimension at which the moves and the sine-cosine step run on Python floats.
FLOAT_DIM = 14


@dataclass(frozen=True)
class FireflyParams:
    """Movement constants; see module docstring for roles."""

    alpha0: float = 1.0
    beta: float = 1.0
    j_step: float = 0.2
    k_step: float = 0.2

    def __post_init__(self):
        if not 0 < self.alpha0 < math.inf:
            raise ConfigError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if not all(0 <= v < math.inf for v in (self.beta, self.j_step, self.k_step)):
            raise ConfigError("beta, j_step and k_step must be nonnegative and finite")


def attractiveness(alpha0: float, beta: float, d: float) -> float:
    """Pull strength at distance ``d``: ``alpha0 * exp(-beta*d**2)``.

    Equals ``alpha0`` at d = 0 and decays monotonically for beta > 0.
    """
    return alpha0 * math.exp(-beta * d * d)


def _move(x, y, params, lower, upper, unit, j, k=None, a=None):
    """``clip(x + pull*(y - x) + j*eta + k*(a - x))``, the ``k`` term only with
    a partner ``a``; on Python floats in numpy's order up to ``FLOAT_DIM``."""
    if not x.shape == y.shape == lower.shape == upper.shape:
        raise DimensionMismatchError(
            f"shapes differ: x {x.shape}, y {y.shape}, box {lower.shape} to {upper.shape}")
    toward = y - x  # sqrt(d . d) is np.linalg.norm(d) for a vector
    pull = attractiveness(params.alpha0, params.beta, math.sqrt(toward.dot(toward)))
    u = unit(lower.size)
    if x.size > FLOAT_DIM:
        new = pull * toward
        new += x
        new += j * ((u - 0.5) * (upper - lower) / 10.0)
        if a is not None:
            new += k * (a - x)
        np.maximum(new, lower, out=new)
        return np.minimum(new, upper, out=new)
    # as np.maximum and np.minimum do, the clamps pass a NaN on and return the bound at a tie
    new = []
    columns = x.tolist(), toward.tolist(), u.tolist(), lower.tolist(), upper.tolist()
    if a is None:
        for xi, ti, ui, lo, hi in zip(*columns, strict=True):
            v = xi + pull * ti + j * ((ui - 0.5) * (hi - lo) / 10.0)
            new.append(hi if (c := lo if v <= lo else v) >= hi else c)
    else:
        for xi, ti, ui, lo, hi, ai in zip(*columns, a.tolist(), strict=True):
            v = xi + pull * ti + j * ((ui - 0.5) * (hi - lo) / 10.0) + k * (ai - xi)
            new.append(hi if (c := lo if v <= lo else v) >= hi else c)
    return np.array(new)


def move_standard(
    x: np.ndarray,
    y: np.ndarray,
    params: FireflyParams,
    lower: np.ndarray,
    upper: np.ndarray,
    unit: UnitSource,
) -> np.ndarray:
    """Move ``x`` toward a brighter ``y``; result clamped to the box.

    ``x``, ``y``, ``lower`` and ``upper`` are float64 arrays of one shape.
    The step is ``params.j_step``; only :func:`move_improved` takes a
    chaos-tuned J.  Exactly ``dim`` draws are consumed.
    """
    return _move(x, y, params, lower, upper, unit, params.j_step)


def move_improved(
    x: np.ndarray,
    y: np.ndarray,
    a: np.ndarray,
    params: FireflyParams,
    lower: np.ndarray,
    upper: np.ndarray,
    unit: UnitSource,
    j_step: float | None = None,
    k_step: float | None = None,
) -> np.ndarray:
    """Standard move plus a ``K * (a - x)`` pull toward a third firefly.

    ``a`` is shaped like ``x`` and must be a different agent than ``x``
    and ``y``; passing the same storage raises :class:`SameAgentError`,
    whatever its dtype.  With ``k_step == 0`` the result equals
    :func:`move_standard`'s on the same draw stream, except that an unclamped
    -0.0 comes out +0.0 (``-0.0 + 0.0``) and an infinite ``a - x`` gives NaN
    (``0 * inf``).
    """
    if a.shape != x.shape:
        raise DimensionMismatchError(f"partner shape {a.shape} != position shape {x.shape}")
    if (a is x or a is y or not (a.flags.owndata and x.flags.owndata and y.flags.owndata)) \
            and (np.shares_memory(a, x) or np.shares_memory(a, y)):
        raise SameAgentError("random partner coincides with the mover or its target")
    j = params.j_step if j_step is None else j_step
    k = params.k_step if k_step is None else k_step
    return _move(x, y, params, lower, upper, unit, j, k, a)
