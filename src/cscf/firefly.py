"""Firefly movement kernels: attractiveness and the two moves.

The kernels are pure given an explicit unit-draw source.  A source is any
callable ``unit(n)`` giving ``n`` samples in [0, 1] (any other count raises
``DimensionMismatchError``), as a list of Python floats, used as it is, or as
a float64 array, turned into a list first.  The optimizer's draw stream and
:meth:`cscf.chaos.ChaoticMap.unit` give lists and ``numpy.random.Generator.random``
gives arrays, so randomness and chaos are interchangeable at the call site.

The standard move for a firefly at ``x`` attracted by a brighter one at
``y`` is

    x' = x + alpha0 * exp(-beta * d(x, y)**2) * (y - x) + J * eta

with ``eta`` a componentwise zero-mean perturbation.  The improved move
adds ``K * (a - x)`` for a random third firefly ``a`` (``a`` distinct from
``x`` and ``y``).  Minimization convention throughout: "brighter" means
lower penalized fitness.  Positions, partners and the box are sequences of
floats of one length, lists as the engine holds them (float64 arrays are
accepted too); a move returns a new list.

The perturbation ``eta`` is uniform on [-1/2, 1/2] scaled by a tenth of the
per-dimension box width, so J-steps are zero-mean and proportionate to the
search domain.

A move is one loop over the components, on Python floats in numpy's
operation order: it sums each component's terms left to right and clamps
it as ``np.maximum`` and ``np.minimum`` do, so it gives the bits of the
numpy expression.

A move may take an agent's ``cache``, a list (empty at first) holding its last
``x``, ``y`` and ``params`` with their ``toward = y - x`` and ``pull``: a move given
those very objects (``is``) reuses the two, any other refills it.  The bits are
the same with or without a cache while no one writes into ``x`` or ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, SameAgentError, as_real

__all__ = [
    "FireflyParams",
    "attractiveness",
    "move_standard",
    "move_improved",
]

UnitSource = Callable[[int], "list[float] | np.ndarray"]


@dataclass(frozen=True)
class FireflyParams:
    """Movement constants; see module docstring for roles."""

    alpha0: float = 1.0
    beta: float = 1.0
    j_step: float = 0.2
    k_step: float = 0.2

    def __post_init__(self):
        if not 0 < as_real("alpha0", self.alpha0):
            raise ConfigError(f"alpha0 must be positive, got {self.alpha0}")
        if not all(0 <= as_real(n, getattr(self, n)) for n in ("beta", "j_step", "k_step")):
            raise ConfigError("beta, j_step and k_step must be nonnegative")


def attractiveness(alpha0: float, beta: float, d: float) -> float:
    """Pull strength at distance ``d``: ``alpha0 * exp(-beta*d**2)``.

    Equals ``alpha0`` at d = 0 and decays monotonically for beta > 0.
    """
    return alpha0 * math.exp(-beta * d * d)


def _move(x, y, params, lower, upper, unit, j, k=None, a=None, cache=None):
    """``clip(x + pull*(y - x) + j*eta + k*(a - x))``, the ``k`` term only with
    a partner ``a``, as a new list."""
    n = len(x)
    if not n == len(y) == len(lower) == len(upper) == (n if a is None else len(a)):
        raise DimensionMismatchError(
            f"lengths differ: x {n}, y {len(y)}, box {len(lower)} to {len(upper)}"
            + ("" if a is None else f", partner {len(a)}"))
    if cache and cache[0] is x and cache[1] is y and cache[2] is params:
        toward, pull = cache[3], cache[4]
    else:
        toward, s = [], 0.0
        for xi, yi in zip(x, y):  # one pass, left to right: not sum(), compensated from 3.12 on
            toward.append(ti := yi - xi)
            s += ti * ti
        pull = attractiveness(params.alpha0, params.beta, math.sqrt(s))
        if cache is not None:
            cache[:] = x, y, params, toward, pull
    draws = unit(n)
    draws = draws if type(draws) is list else draws.tolist()  # floats, not numpy scalars
    if len(draws) != n:  # zip would drop a coordinate, or the extra draws, silently
        raise DimensionMismatchError(f"unit source gave {len(draws)} draws for {n} coordinates")
    # as np.maximum and np.minimum do, the clamps pass a NaN on and return the bound at a tie
    new = []
    if a is None:
        for xi, ti, ui, lo, hi in zip(x, toward, draws, lower, upper):
            v = xi + pull * ti + j * ((ui - 0.5) * (hi - lo) / 10.0)
            new.append(hi if (c := lo if v <= lo else v) >= hi else c)
    else:
        for xi, ti, ui, lo, hi, ai in zip(x, toward, draws, lower, upper, a):
            v = xi + pull * ti + j * ((ui - 0.5) * (hi - lo) / 10.0) + k * (ai - xi)
            new.append(hi if (c := lo if v <= lo else v) >= hi else c)
    return new


def move_standard(
    x: Sequence[float],
    y: Sequence[float],
    params: FireflyParams,
    lower: Sequence[float],
    upper: Sequence[float],
    unit: UnitSource,
    cache: list | None = None,
) -> list[float]:
    """Move ``x`` toward a brighter ``y``; result clamped to the box.

    ``x``, ``y``, ``lower`` and ``upper`` are sequences of floats of one length.
    The step is ``params.j_step``; only :func:`move_improved` takes a
    chaos-tuned J.  Exactly ``dim`` draws are consumed.  ``cache``: see the module docstring.
    """
    return _move(x, y, params, lower, upper, unit, params.j_step, cache=cache)


def move_improved(
    x: Sequence[float],
    y: Sequence[float],
    a: Sequence[float],
    params: FireflyParams,
    lower: Sequence[float],
    upper: Sequence[float],
    unit: UnitSource,
    j_step: float | None = None,
    k_step: float | None = None,
    cache: list | None = None,
) -> list[float]:
    """Standard move plus a ``K * (a - x)`` pull toward a third firefly.

    ``a`` has the length of ``x`` and must be a different agent than ``x``
    and ``y``: the same object raises :class:`SameAgentError`, and so does
    an array partner sharing memory with either, whatever its dtype.  With
    ``k_step == 0`` the result equals :func:`move_standard`'s on the same
    draw stream, except that an unclamped -0.0 comes out +0.0
    (``-0.0 + 0.0``) and an infinite ``a - x`` gives NaN (``0 * inf``).
    """
    if a is x or a is y or type(a) is not list and isinstance(a, np.ndarray) and (
            np.shares_memory(a, x) or np.shares_memory(a, y)):
        raise SameAgentError("random partner coincides with the mover or its target")
    j = params.j_step if j_step is None else j_step
    k = params.k_step if k_step is None else k_step
    return _move(x, y, params, lower, upper, unit, j, k, a, cache)
