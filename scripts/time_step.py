#!/usr/bin/env python3
"""Time one tower step, layer by layer: best-of-3 wall seconds of ``derive_step``.

Prints, for the elliptic curve E3a1 (q = 3, trace 1) and the genus-2 catalog
curve X2g2, the time of ``derive_step(base, n)`` at n = 10, 20, 40, 60, then
the time of each step of X2g2 along the tuple (10, 10, 10, 5), whose last
level has Q = 2^5000.  Then the shallow regime a default elliptic sweep runs:
over the 30 bases of the built-in elliptic grid (q = 2..5) and X2g2, the total
time of ``derive_step(base, n)`` for n = 1..5, of ``validate_zeta_level`` on
those 155 levels, and of ``special_values(base, n)`` for n = 1..5.  Each
figure is the best of three runs on the same input; the inputs of the
tuple's steps and the levels to validate are derived once, outside the timer.

  PYTHONPATH=src python scripts/time_step.py
"""

import sys
import time

from zetatower.curves import artin_elliptic, artin_zeta, catalog_curve, validate_zeta_level
from zetatower.derived_engine import derive_step, special_values
from zetatower.rh_lab import builtin_elliptic_grid

DEPTHS = (10, 20, 40, 60)
TUPLE = (10, 10, 10, 5)
SHALLOW = (1, 2, 3, 4, 5)


def best_of_3(run) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    bases = {"E3a1": artin_elliptic(3, 1), "X2g2": artin_zeta(catalog_curve("X2g2").spec())}
    for name, z in bases.items():
        for n in DEPTHS:
            print(f"{name} (genus {z.genus}) derive_step n={n}: {best_of_3(lambda: derive_step(z, n)):.3f} s", flush=True)
    z = bases["X2g2"]
    for n in TUPLE:
        bits = int(z.Q**n).bit_length()
        print(f"X2g2 step {z.steps + (n,)} (new Q has {bits} bits): {best_of_3(lambda: derive_step(z, n)):.3f} s", flush=True)
        z = derive_step(z, n)

    shallow = [artin_zeta(spec) for spec in builtin_elliptic_grid()] + [bases["X2g2"]]
    levels = [derive_step(z, n) for z in shallow for n in SHALLOW]
    label = f"{len(shallow)} bases, n = {SHALLOW[0]}..{SHALLOW[-1]}"
    steps_s = best_of_3(lambda: [derive_step(z, n) for z in shallow for n in SHALLOW])
    print(f"{label}: derive_step total {steps_s:.3f} s", flush=True)
    print(f"{label}: validate_zeta_level total {best_of_3(lambda: list(map(validate_zeta_level, levels))):.3f} s")
    values_s = best_of_3(lambda: [special_values(z, n) for z in shallow for n in SHALLOW])
    print(f"{label}: special_values total {values_s:.3f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
