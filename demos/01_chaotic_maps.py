"""Tour of the twelve chaotic generators.

Every "chaotically tuned" number in the optimizer comes from one of these
maps.  This script iterates each kind from the default seed, prints a few
raw iterates, and summarizes the unit-rescaled stream the optimizer
actually consumes.
"""

import numpy as np

from cscf.chaos import MAP_NAMES, new_map

print("first five raw iterates from z0 = 0.7")
print("-" * 60)
for name in MAP_NAMES:
    state = new_map(name)
    values = ", ".join(f"{state.next_raw():+.4f}" for _ in range(5))
    print(f"{name:14s} {values}")

print()
print("unit-interval stream statistics over 2000 samples")
print("-" * 60)
print(f"{'map':14s} {'min':>7s} {'max':>7s} {'mean':>7s} {'var':>7s}")
for name in MAP_NAMES:
    u = np.array(new_map(name).unit(2000))
    print(f"{name:14s} {u.min():7.4f} {u.max():7.4f} {u.mean():7.4f} {u.var():7.4f}")

# Determinism is the whole point: the same seed must replay exactly.
a, b = new_map("logistic"), new_map("logistic")
same = [a.next_raw() for _ in range(1000)] == [b.next_raw() for _ in range(1000)]
print()
print("bit-identical replay from the same seed:", same)

# Seeding on a fixed point is rejected up front.
try:
    new_map("gauss", 0.0)
except Exception as error:
    print("seeding gauss at its fixed point 0.0 raises:", type(error).__name__)
