"""Deterministic chaotic sequence generators.

Twelve one-dimensional maps, each a tiny mutable state advanced one
iterate at a time.  ``next_unit`` applies the map formula, checks that the
orbit has not diverged, and rescales the iterate from the map's documented
attractor interval onto [0, 1] (clamping at the endpoints), which is the
form every chaotically tuned optimizer parameter consumes; ``next_raw``
advances through ``next_unit`` and returns the raw iterate.

Each map is a fixed recurrence: its constants are the single parameter set
of the source table (Gandomi et al., "Firefly algorithm with chaos",
CNSNS 18(1), 2013) written into the step function.

Transcription notes (kept, deliberately, out of the map formulas):

* ``tent`` uses slope ``2 - 1e-10``.  A slope of exactly 2 is an exact
  operation on binary floats, so every double-precision orbit collapses
  onto the absorbing point 0 within ~55 steps; the slightly detuned slope
  keeps the orbit aperiodic forever.
* ``henon`` is the accepted two-term recurrence ``1 - 1.4*z**2 + 0.3*z_prev``
  with the previous iterate tracked in the state.
* ``chebyshev`` is the canonical ``cos(4*acos(z))`` with range [-1, 1].
* ``sinus`` is ``sinusoidal`` under its second table name: both are
  ``2.3*z**2*sin(pi*z)``, so their orbits are bit-identical.

Maps are addressable by the stable names in :data:`MAP_NAMES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DivergedOrbitError, FixedPointSeedError, SeedOutOfRangeError

__all__ = [
    "MAP_NAMES",
    "ChaoticMap",
    "new_map",
    "seeded_map",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0.7

# Raw iterates beyond this magnitude are treated as a diverged orbit.
_DIVERGENCE_GUARD = 1e12

_TENT_SLOPE = 2.0 - 1e-10


def _logistic(z, zp):
    return 4.0 * z * (1.0 - z)


def _tent(z, zp):
    return _TENT_SLOPE * z if z < 0.5 else _TENT_SLOPE * (1.0 - z)


def _sinusoidal(z, zp):
    return 2.3 * z * z * math.sin(math.pi * z)


def _gauss(z, zp):
    if z == 0.0:
        return 0.0
    inv = 1.0 / z
    return inv - math.floor(inv)


def _circle(z, zp):
    return (z + 0.2 - (0.5 / (2.0 * math.pi)) * math.sin(2.0 * math.pi * z)) % 1.0


def _iterative(z, zp):
    return math.sin(0.7 * math.pi / z)


def _chebyshev(z, zp):
    # acos guard: rounding may push an in-range iterate a few ulp past +/-1.
    return math.cos(4.0 * math.acos(min(1.0, max(-1.0, z))))


def _henon(z, zp):
    return 1.0 - 1.4 * z * z + 0.3 * zp


def _intermittency(z, zp):
    if z <= 0.5:
        return 0.001 + z + 1.0 * z ** 2.0
    return (z - 0.5) / 0.5


def _singer(z, zp):
    return 1.07 * (7.8 * z - 23.3 * z**2 + 28.7 * z**3 - 13.3 * z**4)


def _sine(z, zp):
    return math.sin(math.pi * z)


@dataclass(frozen=True)
class _MapSpec:
    step: Callable[[float, float], float]
    raw_interval: tuple[float, float]
    seed_interval: tuple[float, float]
    # Seeds rejected by the constructor: fixed points of the iteration (or
    # points absorbed by one in a single step).
    forbidden: tuple[float, ...]


_REGISTRY: dict[str, _MapSpec] = {
    "logistic": _MapSpec(_logistic, (0.0, 1.0), (0.0, 1.0), (0.0, 1.0, 0.75)),
    "tent": _MapSpec(_tent, (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
    "sinusoidal": _MapSpec(_sinusoidal, (0.0, 1.0), (0.0, 1.0), (0.0,)),
    "gauss": _MapSpec(_gauss, (0.0, 1.0), (0.0, 1.0), (0.0,)),
    "circle": _MapSpec(_circle, (0.0, 1.0), (0.0, 1.0), ()),
    "sinus": _MapSpec(_sinusoidal, (0.0, 1.0), (0.0, 1.0), (0.0,)),
    "iterative": _MapSpec(_iterative, (-1.0, 1.0), (-1.0, 1.0), (0.0,)),
    "chebyshev": _MapSpec(_chebyshev, (-1.0, 1.0), (-1.0, 1.0), (-1.0, -0.5, 1.0)),
    "henon": _MapSpec(_henon, (-1.5, 1.5), (-1.0, 1.0), ()),
    "intermittency": _MapSpec(_intermittency, (0.0, 1.0), (0.0, 1.0), (1.0,)),
    "singer": _MapSpec(_singer, (0.0, 1.0), (0.0, 1.0), (0.0,)),
    "sine": _MapSpec(_sine, (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
}

#: Stable map names, in canonical table order.
MAP_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def _spec(name: str) -> _MapSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown chaotic map {name!r}; known: {', '.join(MAP_NAMES)}") from None


@dataclass
class ChaoticMap:
    """One generator's mutable state.

    Sequential by construction: safe to hand to another thread, never to
    share between two.  Identical ``(name, z0)`` produce bit-identical
    sequences.
    """

    name: str
    z: float
    z_prev: float
    step_count: int = 0

    def __post_init__(self):
        spec = _spec(self.name)
        self._step = spec.step
        # next_unit's affine rescale, cached
        self._lo, hi = spec.raw_interval
        self._width = hi - self._lo

    def next_raw(self) -> float:
        """Advance one iteration and return the new raw iterate."""
        self.next_unit()
        return self.z

    def next_unit(self) -> float:
        """Advance one iteration and return the iterate rescaled onto [0, 1]."""
        new = self._step(self.z, self.z_prev)
        if not -_DIVERGENCE_GUARD <= new <= _DIVERGENCE_GUARD:  # NaN fails it too
            raise DivergedOrbitError(
                f"{self.name} orbit diverged at step {self.step_count + 1}: {new!r}"
            )
        self.z_prev, self.z = self.z, new
        self.step_count += 1
        r = (new - self._lo) / self._width
        # min(1.0, max(0.0, r)) bit for bit (-0.0 gives 0.0); r is never NaN
        return 0.0 if r <= 0.0 else 1.0 if r >= 1.0 else r

    def unit(self, n: int) -> list[float]:
        """The next ``n`` unit draws as a list of Python floats, the draw stream's
        type, so a map stands in wherever a kernel expects a unit-draw source."""
        next_unit = self.next_unit
        return [next_unit() for _ in range(n)]


def new_map(name: str, z0: float = DEFAULT_SEED) -> ChaoticMap:
    """Construct a generator seeded at ``z0``.

    Rejects unknown names, seeds outside the map's admissible interval and
    seeds on the map's documented fixed points (where iteration would never
    leave the seed).  The default 0.7 is admissible for every map.
    """
    spec = _spec(name)
    z0 = float(z0)
    lo, hi = spec.seed_interval
    if not lo <= z0 <= hi:  # NaN and +-inf fail it too: every interval is finite
        raise SeedOutOfRangeError(
            f"seed {z0!r} outside admissible interval [{lo}, {hi}] for map {name!r}"
        )
    if z0 in spec.forbidden:
        raise FixedPointSeedError(
            f"seed {z0!r} is a documented fixed point of map {name!r}"
        )
    return ChaoticMap(name, z0, z0)


def seeded_map(name: str, rng) -> ChaoticMap:
    """Construct a generator with an admissible seed drawn from ``rng.uniform``.

    Used by optimizer runs so each chaos-driven parameter gets its own
    decorrelated state, deterministically derived from the run seed.  A draw
    on one of the map's fixed points is drawn again.
    """
    spec = _spec(name)
    while (z0 := float(rng.uniform(*spec.seed_interval))) in spec.forbidden:
        pass
    return ChaoticMap(name, z0, z0)
