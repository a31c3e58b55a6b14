"""Which chaotic map should drive which parameter?

Runs every (variant, map) pair over the three design problems with
``cscf run``, then ``cscf report`` scores each cell by its mean absolute
error against the published best cost (``mae_grid.csv``) and ranks the
variants by their mean over all cells (``variant_rank.csv``).  Small
budgets here; scale ``--replicates``/``--iters`` up for a real study, and
give ``--out`` a directory to keep the records.
"""

import csv
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from cscf import cli
from cscf.chaos import MAP_NAMES
from cscf.engineering import ENGINEERING_NAMES

VARIANTS = ("i", "ii", "iii", "iv", "v")


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    with redirect_stdout(StringIO()):
        cli.main(["run", "--problems", ",".join(ENGINEERING_NAMES), "--algo", "cscf",
                  "--variant", ",".join(VARIANTS), "--map", ",".join(MAP_NAMES),
                  "--pop", "12", "--iters", "80", "--replicates", "2", "--seed", "0",
                  "--out", str(out)])
        cli.main(["report", "--in", str(out)])
    grid = read_csv(out / "mae_grid.csv")
    ranking = read_csv(out / "variant_rank.csv")

print(f"{len(grid) * len(VARIANTS)} cells "
      f"({len(ENGINEERING_NAMES)} problems x {len(VARIANTS)} variants x "
      f"{len(MAP_NAMES)} maps)\n")

for problem in ENGINEERING_NAMES:
    print(problem)
    print(f"  {'map':14s}" + "".join(f"{v:>10s}" for v in VARIANTS))
    for row in grid:
        if row["problem"] == problem:
            print(f"  {row['map']:14s}"
                  + "".join(f"{float(row[f'variant_{v}']):10.4g}" for v in VARIANTS))
    print()

print("variant ranking by mean MAE across all cells:")
for row in ranking:
    print(f"  rank {row['rank']}: variant {row['variant']}  "
          f"(mean MAE {float(row['mean_mae']):.4g})")
