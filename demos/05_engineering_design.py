"""Constrained design: welded beam, pressure vessel, tension spring.

Feasibility rules need no penalty weight: feasible designs always beat
infeasible ones and infeasible designs compare by total violation.  Each
problem below is solved with ten seeds; the best feasible design and its
constraint values are printed.
"""

from cscf.engineering import engineering_suite
from cscf.hybrid import OptimizerConfig, optimize

VARIABLES = {
    "welded_beam": ("weld height", "weld length", "bar height", "bar width"),
    "pressure_vessel": ("shell thickness", "head thickness", "inner radius", "length"),
    "spring": ("coil diameter", "active coils", "wire diameter"),
}

for problem in engineering_suite():
    records = [optimize(problem, OptimizerConfig(seed=s, max_iter=1000))
               for s in range(10)]
    feasible = [r for r in records if r.feasible]
    best = min(feasible, key=lambda r: r.best_cost)
    costs = sorted(r.best_cost for r in feasible)

    print(f"{problem.name}  ({len(feasible)}/10 seeds feasible)")
    print(f"  best cost {best.best_cost:.6g}   "
          f"median {costs[len(costs) // 2]:.6g}   "
          f"published best {problem.reference_best}")
    for label, value in zip(VARIABLES[problem.name], best.best_position):
        print(f"    {label:16s} = {value:.6g}")
    g = ", ".join(f"{v:.3g}" for v in best.best_constraints)
    print(f"    constraints (all <= 0): {g}")
    print()
