"""The twenty-function benchmark suite.

Lists every problem with its dimension, box, and reference optimum, then
shows a few spot evaluations including an out-of-bounds point and the
reseedable noise of the quartic function.
"""

import numpy as np

from cscf.benchmarks import benchmark_problem, resolve_problem_name, suite

print(f"{'id':5s} {'name':22s} {'dim':>4s} {'bounds':>18s} {'reference':>12s}")
print("-" * 66)
for problem in suite():
    bounds = f"[{problem.lower[0]:g}, {problem.upper[0]:g}]"
    ref = "unknown" if problem.f_reference is None else f"{problem.f_reference:g}"
    print(f"fn{resolve_problem_name(problem.name):<3d} {problem.name:22s} {problem.dim:4d} "
          f"{bounds:>18s} {ref:>12s}")

print()
sphere = benchmark_problem("sphere")
x = np.zeros(20)
x[:2] = (3.0, 4.0)
print("sphere at (3, 4, 0, ...):", sphere.evaluate(x))

far = np.full(20, 150.0)
in_bounds = bool(np.all((sphere.lower <= far) & (far <= sphere.upper)))
print("out-of-bounds evaluation still works:",
      sphere.evaluate(far), "in_bounds =", in_bounds)

# The noisy quartic owns a reseedable stream: freeze it and replay.
noisy = benchmark_problem("quartic_noise")
noisy.reseed_noise(7)
probe = np.full(noisy.dim, 0.5)
first = [noisy.evaluate(probe) for _ in range(3)]
noisy.reseed_noise(7)
second = [noisy.evaluate(probe) for _ in range(3)]
print("quartic noise replays after reseed:", first == second)
