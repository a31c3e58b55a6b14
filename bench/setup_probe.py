"""One set-up, timed by run.py: a fresh interpreter imports cscf (and
cscf.cli for the harness workload) and builds the problems and configs of
a workload's first round, as listed in ``spec`` (``Workload.setup_spec``).
It prints the seconds from ``start`` (a ``time.perf_counter`` reading the
parent took just before starting it) to the end of set-up.

    python3 bench/setup_probe.py <spec as JSON> <start>
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from cscf.benchmarks import benchmark_problem  # noqa: E402
from cscf.engineering import ENGINEERING_NAMES, engineering_problem  # noqa: E402
from cscf.hybrid import OptimizerConfig, VariantSpec  # noqa: E402

spec = json.loads(sys.argv[1])
if spec["cli"]:
    import cscf.cli  # noqa: F401

for name, dim, population, max_iter, seed, kind, map_name, algorithm in spec["runs"]:
    problem = engineering_problem(name) if name in ENGINEERING_NAMES \
        else benchmark_problem(name, dim=dim)
    OptimizerConfig(population=population, max_iter=max_iter, seed=seed,
                    variant=VariantSpec(kind, map_name), algorithm=algorithm)
print(time.perf_counter() - float(sys.argv[2]))
