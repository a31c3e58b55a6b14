"""Movement kernels in isolation: firefly attraction and sine-cosine steps.

Both kernels are pure given a unit-draw source, so a seeded generator and
a chaotic map are interchangeable here; this script walks one agent with
each kind of source.  Positions, the box and the draws are lists of floats,
as the optimizer passes them, and each kernel returns a new list.
"""

import numpy as np

from cscf.chaos import new_map
from cscf.firefly import FireflyParams, attractiveness, move_improved, move_standard
from cscf.sca import r1_schedule, sca_step

lower, upper = [-5.0, -5.0], [5.0, 5.0]
params = FireflyParams()

print("attractiveness decays with squared distance (alpha0 = 1, beta = 1):")
for d in (0.0, 0.5, 1.0, 2.0, 4.0):
    print(f"  d = {d:3.1f} -> {attractiveness(1.0, 1.0, d):.6f}")

x = [-3.0, 2.0]
y = [1.0, 1.0]      # a brighter firefly
a = [4.0, -4.0]     # a random third one

rng = np.random.default_rng(0)
print("\nstandard move toward the brighter firefly (random eta):")
print("  from", x, "->", move_standard(x, y, params, lower, upper, rng.random))

print("improved move adds a pull toward the third firefly:")
print("  from", x, "->", move_improved(x, y, a, params, lower, upper, rng.random))

chaotic = new_map("logistic", 0.37)
print("the same kernel fed by a chaotic map instead of a generator:")
print("  from", x, "->", move_improved(x, y, a, params, lower, upper, chaotic.unit))

print("\nsine-cosine steps orbit the destination; the r1 schedule anneals:")
dest = [0.5, -0.5]
pos = [4.0, 4.0]
for t in (0, 100, 250, 400, 499):
    r1 = r1_schedule(t, 500, 2.0)
    step_rng = np.random.default_rng(t)
    pos_t = sca_step(pos, dest,
                     r1,
                     step_rng.uniform(0, 2 * np.pi, 2).tolist(),
                     step_rng.uniform(0, 2, 2).tolist(),
                     step_rng.random(2).tolist(),
                     lower, upper)
    print(f"  iter {t:3d}  r1 = {r1:4.2f}  {pos} -> {[round(v, 3) for v in pos_t]}")
