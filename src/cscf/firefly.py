"""Firefly movement kernels: attractiveness and the two moves.

The kernels are pure given an explicit unit-draw source.  A source is any
callable ``unit(n) -> ndarray`` of ``n`` samples in [0, 1]; both
``numpy.random.Generator.random`` and :meth:`cscf.chaos.ChaoticMap.unit`
satisfy it, so randomness and chaos are interchangeable at the call site.

The standard move for a firefly at ``x`` attracted by a brighter one at
``y`` is

    x' = x + alpha0 * exp(-beta * d(x, y)**2) * (y - x) + J * eta

with ``eta`` a componentwise zero-mean perturbation.  The improved move
adds ``K * (a - x)`` for a random third firefly ``a`` (``a`` distinct from
``x`` and ``y``).  Minimization convention throughout: "brighter" means
lower penalized fitness.

The perturbation ``eta`` is uniform on [-1/2, 1/2] scaled by ``eta_scale``
and by a tenth of the per-dimension box width, so J-steps are zero-mean
and proportionate to the search domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, SameAgentError

__all__ = [
    "FireflyParams",
    "attractiveness",
    "distance",
    "move_standard",
    "move_improved",
]

UnitSource = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class FireflyParams:
    """Movement constants; see module docstring for roles."""

    alpha0: float = 1.0
    beta: float = 1.0
    j_step: float = 0.2
    k_step: float = 0.2
    eta_scale: float = 1.0

    def __post_init__(self):
        if self.alpha0 <= 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if self.beta < 0 or self.j_step < 0 or self.k_step < 0:
            raise ValueError("beta, j_step and k_step must be nonnegative")


def attractiveness(alpha0: float, beta: float, d: float) -> float:
    """Pull strength at distance ``d``: ``alpha0 * exp(-beta*d**2)``.

    Equals ``alpha0`` at d = 0 and decays monotonically for beta > 0.
    """
    return alpha0 * math.exp(-beta * d * d)


def distance(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance between two positions of equal dimension."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"positions differ in shape: {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y))


def _pull(x: np.ndarray, y: np.ndarray, params: FireflyParams):
    """``(attractiveness at distance |y - x|, y - x)`` for positions of equal shape.

    ``sqrt(d . d)`` is what ``np.linalg.norm`` computes for a vector, so the
    pull equals ``attractiveness(alpha0, beta, distance(x, y))`` bit for bit.
    """
    if x.shape != y.shape:
        raise DimensionMismatchError(f"positions differ in shape: {x.shape} vs {y.shape}")
    toward = y - x
    return attractiveness(params.alpha0, params.beta, math.sqrt(toward.dot(toward))), toward


def _eta(params: FireflyParams, lower: np.ndarray, upper: np.ndarray, unit: UnitSource):
    return (np.asarray(unit(lower.size)) - 0.5) * params.eta_scale * (upper - lower) / 10.0


def move_standard(
    x: np.ndarray,
    y: np.ndarray,
    params: FireflyParams,
    lower: np.ndarray,
    upper: np.ndarray,
    unit: UnitSource,
    j_step: float | None = None,
) -> np.ndarray:
    """Move ``x`` toward a brighter ``y``; result clamped to the box.

    ``j_step`` overrides ``params.j_step`` (chaotically tuned callers pass
    the already-modulated value).  Exactly ``dim`` draws are consumed.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pull, toward = _pull(x, y, params)
    j = params.j_step if j_step is None else j_step
    new = x + pull * toward + j * _eta(params, lower, upper, unit)
    return np.minimum(np.maximum(new, lower), upper)


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

    ``a`` must be a different agent than ``x`` and ``y``; passing the same
    storage raises :class:`SameAgentError`.  With ``k_step == 0`` the result
    is bit-identical to :func:`move_standard` on the same draw stream.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.shape != x.shape:
        raise DimensionMismatchError(f"partner shape {a.shape} != position shape {x.shape}")
    if np.shares_memory(a, x) or np.shares_memory(a, y):
        raise SameAgentError("random partner coincides with the mover or its target")
    pull, toward = _pull(x, y, params)
    j = params.j_step if j_step is None else j_step
    k = params.k_step if k_step is None else k_step
    new = x + pull * toward + j * _eta(params, lower, upper, unit) + k * (a - x)
    return np.minimum(np.maximum(new, lower), upper)
