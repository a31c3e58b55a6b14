"""Chaotic sine-cosine firefly optimization toolkit.

A metaheuristic library built from three layers:

* kernels and generators: :mod:`cscf.chaos`, :mod:`cscf.firefly`,
  :mod:`cscf.sca`;
* problems: :mod:`cscf.benchmarks` (twenty box-constrained test
  functions) and :mod:`cscf.engineering` (three constrained design
  problems with penalty / feasibility-rule handling);
* the hybrid optimizer and experiment machinery: :mod:`cscf.hybrid`,
  :mod:`cscf.analysis`, and the ``cscf`` command line in :mod:`cscf.cli`.
"""

from .benchmarks import ObjectiveProblem, benchmark_problem, suite
from .chaos import MAP_NAMES, ChaoticMap, new_map
from .engineering import (
    ConstrainedProblem,
    PenaltyParams,
    engineering_problem,
    penalized_fitness,
)
from .firefly import FireflyParams, attractiveness, move_improved, move_standard
from .hybrid import (
    ALGORITHMS,
    OptimizerConfig,
    RunRecord,
    VariantSpec,
    optimize,
)
from .analysis import (
    SummaryStats,
    WilcoxonResult,
    compare_report,
    mae,
    summarize,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)
from .sca import r1_schedule, sca_step

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "MAP_NAMES",
    "ChaoticMap",
    "ConstrainedProblem",
    "FireflyParams",
    "ObjectiveProblem",
    "OptimizerConfig",
    "PenaltyParams",
    "RunRecord",
    "SummaryStats",
    "VariantSpec",
    "WilcoxonResult",
    "attractiveness",
    "benchmark_problem",
    "compare_report",
    "engineering_problem",
    "mae",
    "move_improved",
    "move_standard",
    "new_map",
    "optimize",
    "penalized_fitness",
    "r1_schedule",
    "sca_step",
    "suite",
    "summarize",
    "wilcoxon_rank_sum",
    "wilcoxon_signed_rank",
    "__version__",
]
