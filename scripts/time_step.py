#!/usr/bin/env python3
"""Time one tower step, layer by layer: best-of-3 wall seconds of ``derive_step``.

Prints, for the elliptic curve E3a1 (q = 3, trace 1) and the genus-2 catalog
curve X2g2, the time of ``derive_step(base, n)`` at n = 10, 20, 40, 60, then
the time of each step of X2g2 along the tuple (10, 10, 10, 5), whose last
level has Q = 2^5000.  Each figure is the best of three runs on the same
input; the inputs of the tuple's steps are derived once, outside the timer.

  PYTHONPATH=src python scripts/time_step.py
"""

import sys
import time

from zetatower.curves import artin_elliptic, artin_zeta, catalog_curve
from zetatower.derived_engine import derive_step

DEPTHS = (10, 20, 40, 60)
TUPLE = (10, 10, 10, 5)


def best_of_3(z, n) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        derive_step(z, n)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    bases = {"E3a1": artin_elliptic(3, 1), "X2g2": artin_zeta(catalog_curve("X2g2").spec())}
    for name, z in bases.items():
        for n in DEPTHS:
            print(f"{name} (genus {z.genus}) derive_step n={n}: {best_of_3(z, n):.3f} s", flush=True)
    z = bases["X2g2"]
    for n in TUPLE:
        bits = int(z.Q**n).bit_length()
        print(f"X2g2 step {z.steps + (n,)} (new Q has {bits} bits): {best_of_3(z, n):.3f} s", flush=True)
        z = derive_step(z, n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
