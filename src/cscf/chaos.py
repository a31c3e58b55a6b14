"""Deterministic chaotic sequence generators.

Twelve one-dimensional maps, each a tiny mutable state advanced one
iterate at a time.  ``next_raw`` applies the map formula; ``next_unit``
rescales the iterate from the map's documented attractor interval onto
[0, 1] (clamping at the endpoints), which is the form every chaotically
tuned optimizer parameter consumes.

Transcription notes (kept, deliberately, out of the map formulas):

* ``tent`` uses slope ``2 - 1e-10`` by default.  A slope of exactly 2 is
  an exact operation on binary floats, so every double-precision orbit
  collapses onto the absorbing point 0 within ~55 steps; the slightly
  detuned slope keeps the orbit aperiodic forever.
* ``henon`` is the accepted two-term recurrence ``1 - p*z**2 + q*z_prev``
  with the previous iterate tracked in the state.
* ``chebyshev`` is the canonical ``cos(k*acos(z))`` with range [-1, 1];
  ``sinus`` is the fixed-coefficient ``2.3*z**2*sin(pi*z)``.  They are
  distinct generators even though they coincide in some transcriptions.

Kinds are addressable by the stable names in :data:`MAP_NAMES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DivergedOrbitError, FixedPointSeedError, SeedOutOfRangeError

__all__ = [
    "MAP_NAMES",
    "LITERAL_MAP_NAMES",
    "ChaoticMapKind",
    "ChaoticMap",
    "map_kind",
    "new_map",
    "seeded_map",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0.7

# Raw iterates beyond this magnitude are treated as a diverged orbit.
_DIVERGENCE_GUARD = 1e12


def _logistic(z, zp, p):
    return p["a"] * z * (1.0 - z)


def _tent(z, zp, p):
    s = p["slope"]
    return s * z if z < 0.5 else s * (1.0 - z)


def _sinusoidal(z, zp, p):
    return p["a"] * z * z * math.sin(math.pi * z)


def _gauss(z, zp, p):
    if z == 0.0:
        return 0.0
    inv = 1.0 / z
    return inv - math.floor(inv)


def _circle(z, zp, p):
    return (z + p["b"] - (p["a"] / (2.0 * math.pi)) * math.sin(2.0 * math.pi * z)) % 1.0


def _sinus(z, zp, p):
    return 2.3 * z * z * math.sin(math.pi * z)


def _iterative(z, zp, p):
    return math.sin(p["a"] * math.pi / z)


def _chebyshev(z, zp, p):
    # acos guard: rounding may push an in-range iterate a few ulp past +/-1.
    return math.cos(p["k"] * math.acos(min(1.0, max(-1.0, z))))


def _henon(z, zp, p):
    return 1.0 - p["p"] * z * z + p["q"] * zp


def _intermittency(z, zp, p):
    if z <= p["p"]:
        return p["delta"] + z + p["b"] * z ** p["n"]
    return (z - p["p"]) / (1.0 - p["p"])


def _singer(z, zp, p):
    return p["alpha"] * (7.8 * z - 23.3 * z**2 + 28.7 * z**3 - 13.3 * z**4)


def _sine(z, zp, p):
    return (p["a"] / 4.0) * math.sin(math.pi * z)


def _logistic_fixed(p):
    return (0.0, 1.0, 1.0 - 1.0 / p["a"])


@dataclass(frozen=True)
class _MapSpec:
    step: Callable[[float, float, Mapping[str, float]], float]
    defaults: tuple[tuple[str, float], ...]
    raw_interval: tuple[float, float]
    seed_interval: tuple[float, float]
    # Seeds rejected by the constructor: fixed points of the iteration (or
    # points absorbed by one in a single step), as a function of the params.
    forbidden: Callable[[Mapping[str, float]], tuple[float, ...]]


_REGISTRY: dict[str, _MapSpec] = {
    "logistic": _MapSpec(_logistic, (("a", 4.0),), (0.0, 1.0), (0.0, 1.0), _logistic_fixed),
    "tent": _MapSpec(_tent, (("slope", 2.0 - 1e-10),), (0.0, 1.0), (0.0, 1.0), lambda p: (0.0, 1.0)),
    "sinusoidal": _MapSpec(_sinusoidal, (("a", 2.3),), (0.0, 1.0), (0.0, 1.0), lambda p: (0.0,)),
    "gauss": _MapSpec(_gauss, (), (0.0, 1.0), (0.0, 1.0), lambda p: (0.0,)),
    "circle": _MapSpec(_circle, (("a", 0.5), ("b", 0.2)), (0.0, 1.0), (0.0, 1.0), lambda p: ()),
    "sinus": _MapSpec(_sinus, (), (0.0, 1.0), (0.0, 1.0), lambda p: (0.0,)),
    "iterative": _MapSpec(_iterative, (("a", 0.7),), (-1.0, 1.0), (-1.0, 1.0), lambda p: (0.0,)),
    "chebyshev": _MapSpec(_chebyshev, (("k", 4.0),), (-1.0, 1.0), (-1.0, 1.0), lambda p: (-1.0, -0.5, 1.0)),
    "henon": _MapSpec(_henon, (("p", 1.4), ("q", 0.3)), (-1.5, 1.5), (-1.0, 1.0), lambda p: ()),
    "intermittency": _MapSpec(
        _intermittency,
        (("delta", 0.001), ("b", 1.0), ("n", 2.0), ("p", 0.5)),
        (0.0, 1.0),
        (0.0, 1.0),
        lambda p: (1.0,),
    ),
    "singer": _MapSpec(_singer, (("alpha", 1.07),), (0.0, 1.0), (0.0, 1.0), lambda p: (0.0,)),
    "sine": _MapSpec(_sine, (("a", 4.0),), (0.0, 1.0), (0.0, 1.0), lambda p: (0.0, 1.0)),
}

#: Stable kind names, in canonical table order.
MAP_NAMES: tuple[str, ...] = (
    "logistic",
    "tent",
    "sinusoidal",
    "gauss",
    "circle",
    "sinus",
    "iterative",
    "chebyshev",
    "henon",
    "intermittency",
    "singer",
    "sine",
)

#: Kinds whose iteration is a literal transcription of the source table
#: (the remaining five carry the documented repairs above).
LITERAL_MAP_NAMES: tuple[str, ...] = (
    "logistic",
    "sine",
    "gauss",
    "circle",
    "sinusoidal",
    "singer",
    "iterative",
)


@dataclass(frozen=True)
class ChaoticMapKind:
    """A map family together with its (immutable) parameter record."""

    name: str
    params: Mapping[str, float]

    @property
    def raw_interval(self) -> tuple[float, float]:
        return _REGISTRY[self.name].raw_interval

    @property
    def seed_interval(self) -> tuple[float, float]:
        return _REGISTRY[self.name].seed_interval

    def forbidden_seeds(self) -> tuple[float, ...]:
        return _REGISTRY[self.name].forbidden(self.params)


def map_kind(name: str, **overrides: float) -> ChaoticMapKind:
    """Build a :class:`ChaoticMapKind` for ``name`` with optional parameter overrides.

    Unknown names or parameter keys raise ``ValueError``.
    """
    if name not in _REGISTRY:
        raise ValueError(f"unknown chaotic map {name!r}; known: {', '.join(MAP_NAMES)}")
    spec = _REGISTRY[name]
    params = dict(spec.defaults)
    for key, value in overrides.items():
        if key not in params:
            raise ValueError(f"map {name!r} has no parameter {key!r}")
        params[key] = float(value)
    return ChaoticMapKind(name, MappingProxyType(params))


@dataclass
class ChaoticMap:
    """One generator's mutable state.

    Sequential by construction: safe to hand to another thread, never to
    share between two.  Identical ``(kind, z0)`` produce bit-identical
    sequences.
    """

    kind: ChaoticMapKind
    z: float
    z_prev: float
    step_count: int = 0
    _step: Callable = field(repr=False, default=None)

    def __post_init__(self):
        spec = _REGISTRY[self.kind.name]
        if self._step is None:
            self._step = spec.step
        # next_unit's affine rescale, cached: kind.raw_interval is a registry lookup
        self._lo, hi = spec.raw_interval
        self._width = hi - self._lo

    def next_raw(self) -> float:
        """Advance one iteration and return the new raw iterate."""
        new = self._step(self.z, self.z_prev, self.kind.params)
        if not math.isfinite(new) or abs(new) > _DIVERGENCE_GUARD:
            raise DivergedOrbitError(
                f"{self.kind.name} orbit diverged at step {self.step_count + 1}: {new!r}"
            )
        self.z_prev = self.z
        self.z = new
        self.step_count += 1
        return new

    def next_unit(self) -> float:
        """Advance one iteration and return the iterate rescaled onto [0, 1]."""
        r = (self.next_raw() - self._lo) / self._width
        return min(1.0, max(0.0, r))

    def unit(self, n: int | None = None):
        """``n`` unit-interval samples (or a single float when ``n`` is None).

        Signature-compatible with ``numpy.random.Generator.random`` so a map
        can stand in wherever a kernel expects a unit-draw source.
        """
        if n is None:
            return self.next_unit()
        return np.array([self.next_unit() for _ in range(n)])

    def take_raw(self, n: int) -> np.ndarray:
        return np.array([self.next_raw() for _ in range(n)])


def new_map(kind: ChaoticMapKind | str, z0: float = DEFAULT_SEED) -> ChaoticMap:
    """Construct a generator seeded at ``z0``.

    Rejects seeds outside the kind's admissible interval and seeds on the
    kind's documented fixed points (where iteration would never leave the
    seed).  The default 0.7 is admissible for every kind.
    """
    if isinstance(kind, str):
        kind = map_kind(kind)
    z0 = float(z0)
    lo, hi = kind.seed_interval
    if not (lo <= z0 <= hi) or not math.isfinite(z0):
        raise SeedOutOfRangeError(
            f"seed {z0!r} outside admissible interval [{lo}, {hi}] for map {kind.name!r}"
        )
    if any(z0 == f for f in kind.forbidden_seeds()):
        raise FixedPointSeedError(
            f"seed {z0!r} is a documented fixed point of map {kind.name!r}"
        )
    return ChaoticMap(kind=kind, z=z0, z_prev=z0)


def seeded_map(kind: ChaoticMapKind | str, rng: np.random.Generator) -> ChaoticMap:
    """Construct a generator with an admissible seed drawn from ``rng``.

    Used by optimizer runs so each chaos-driven parameter gets its own
    decorrelated state, deterministically derived from the run seed.
    """
    if isinstance(kind, str):
        kind = map_kind(kind)
    lo, hi = kind.seed_interval
    for _ in range(100):
        z0 = float(rng.uniform(lo, hi))
        try:
            return new_map(kind, z0)
        except (FixedPointSeedError, SeedOutOfRangeError):
            continue
    raise RuntimeError(f"could not draw an admissible seed for map {kind.name!r}")
