#!/usr/bin/env python3
"""Export the elliptic residue table as CSV: (q, a, n, beta, b_n, ratio, bounds).

The beta column comes from the three-term recursion, as its ints b(n) over
the closed denominators D(n) = |A0|^n prod_{k=1..n} (Q^k - 1), reduced here;
b_n comes from the tower: the reduced residue of
``derive_step(special_values(level), n)``, the identity that the sweep's
``ratio_bounds[residue]`` link checks.  The two must agree row by row, so
the file doubles as a quick audit of the recursion against the tower that is
easy to diff or plot.  ``lower_ok`` and ``upper_ok`` say whether the ratio
beta(n)/beta(n-1) meets each side of the ratio bounds
1 < r < (q^(n/2)+1)/(q^(n/2)-1).

  PYTHONPATH=src python scripts/export_beta_table.py --out reports/elliptic_beta_table.csv --nmax 8
"""

import argparse
import csv
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from zetatower.curves import artin_elliptic, hasse_traces
from zetatower.derived_engine import derive_step, special_values
from zetatower.exact_arith import pair_str, rat_str
from zetatower.mult_struct import elliptic_beta_recursion, ratio_bounds


def export_elliptic_grid_csv(path, qs: Sequence[int], n_max: int = 8) -> int:
    """Write (q, a, n, beta, b_n, ratio, bounds) rows for the full Hasse grid.

    Returns the number of rows written.  Row order and formatting are fixed,
    so identical inputs produce byte-identical files.
    """
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "a", "n", "beta", "b_n", "ratio", "lower_ok", "upper_ok"])
        for q in qs:
            for a in hasse_traces(q):
                level = artin_elliptic(q, a)
                ints = level.P.view[1]
                bs = elliptic_beta_recursion(ints[0], ints[1], level.Q, n_max)
                # beta(n) = b(n) / D(n), D(n) = |A0|^n prod_{k=1..n} (Q^k - 1)
                D = [abs(ints[0]) ** n * math.prod(level.Q**k - 1 for k in range(1, n + 1)) for n in range(n_max + 1)]
                betas = [Fraction(b, d) for b, d in zip(bs, D)]
                for n in range(1, n_max + 1):
                    r = betas[n] / betas[n - 1]
                    lower, upper = ratio_bounds(r.numerator, r.denominator, level.Q, n)
                    b_n = pair_str(*derive_step(special_values(level), n).residue_pair())
                    row = [q, a, n, rat_str(betas[n]), b_n, rat_str(r), int(lower), int(upper)]
                    writer.writerow(row)
                    rows += 1
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", default="2,3,4,5")
    ap.add_argument("--nmax", type=int, default=8)
    ap.add_argument("--out", default="reports/elliptic_beta_table.csv")
    args = ap.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    qs = tuple(int(q) for q in args.q.split(","))
    rows = export_elliptic_grid_csv(out, qs, n_max=args.nmax)
    print(f"wrote {out} ({rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
