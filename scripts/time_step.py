#!/usr/bin/env python3
"""Time one tower step, layer by layer: best-of-3 wall seconds of ``derive_step``.

Prints, for the elliptic curve E3a1 (q = 3, trace 1) and the genus-2 catalog
curve X2g2, the time of ``derive_step(base, n)`` at n = 10, 20, 40, 60, then
the time of each step of X2g2 along the tuple (10, 10, 10, 5), whose last
level has Q = 2^5000.  Then the shallow regime a default elliptic sweep runs:
over the 30 bases of the built-in elliptic grid (q = 2..5) and X2g2, the total
time of ``derive_step(base, n)`` for n = 1..5, of ``validate_zeta_level`` and
of ``extract_invariants`` on those 155 levels, and of
``special_values(base, n)`` for n = 1..5.  Last the RH verdict:
``rh_verdict_for_level`` summed over the 98 RH-admissible integer genus-2
numerators 1 + a1 T + a2 T^2 + q a1 T^3 + q^2 T^4 over q = 2, 3 at the
steps (), (2), (3), (2, 2), alone on X2g2 at (10, 10, 10) and at
(10, 10, 10, 5), and alone on the genus-3 numerator 1 + T + 2T^2 + 3T^3 +
4T^4 + 4T^5 + 8T^6 over F_2 at (10, 10, 10), whose verdict is the exact
Sturm count (``rh_sturm``).  Each figure is the best of three
runs on the same input; the inputs of the tuple's steps, the levels to
validate and the levels to judge are derived once, outside the timer.

  PYTHONPATH=src python scripts/time_step.py
"""

import sys
import time

from zetatower.curves import CurveSpec, artin_elliptic, artin_zeta, catalog_curve, validate_zeta_level
from zetatower.derived_engine import derive_step, special_values
from zetatower.invariants import extract_invariants
from zetatower.rh_lab import builtin_elliptic_grid, curve_tower, rh_verdict_for_level

DEPTHS = (10, 20, 40, 60)
TUPLE = (10, 10, 10, 5)
SHALLOW = (1, 2, 3, 4, 5)
POOL_STEPS = ((), (2,), (3,), (2, 2))
GENUS3 = (1, 1, 2, 3, 4, 4, 8)  # over F_2


def best_of_3(run) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def genus2_pool(q: int) -> list:
    """Every integer (a1, a2) whose numerator satisfies RH over q, by the exact test on its R(u).

    R(u) = u^2 + a1 u + a2 - 2q must have both roots real and in
    [-2 sqrt q, 2 sqrt q]; with m = a2 + 2q that reads m >= 0 and m^2 >= 4q a1^2.
    """
    pool = []
    for a1 in range(-4 * q, 4 * q + 1):
        for a2 in range(-6 * q, 6 * q + 1):
            m = a2 + 2 * q
            if a1 * a1 >= 4 * (a2 - 2 * q) and a1 * a1 <= 16 * q and m >= 0 and m * m >= 4 * q * a1 * a1:
                pool.append((a1, a2))
    return pool


def main() -> int:
    bases = {"E3a1": artin_elliptic(3, 1), "X2g2": artin_zeta(catalog_curve("X2g2").spec())}
    for name, z in bases.items():
        for n in DEPTHS:
            print(f"{name} (genus {z.genus}) derive_step n={n}: {best_of_3(lambda: derive_step(z, n)):.3f} s", flush=True)
    z = bases["X2g2"]
    for n in TUPLE:
        bits = (z.Q**n).bit_length()
        print(f"X2g2 step {z.steps + (n,)} (new Q has {bits} bits): {best_of_3(lambda: derive_step(z, n)):.3f} s", flush=True)
        z = derive_step(z, n)

    shallow = [artin_zeta(spec) for spec in builtin_elliptic_grid()] + [bases["X2g2"]]
    levels = [derive_step(z, n) for z in shallow for n in SHALLOW]
    label = f"{len(shallow)} bases, n = {SHALLOW[0]}..{SHALLOW[-1]}"
    steps_s = best_of_3(lambda: [derive_step(z, n) for z in shallow for n in SHALLOW])
    print(f"{label}: derive_step total {steps_s:.3f} s", flush=True)
    print(f"{label}: validate_zeta_level total {best_of_3(lambda: list(map(validate_zeta_level, levels))):.3f} s")
    print(f"{label}: extract_invariants total {best_of_3(lambda: list(map(extract_invariants, levels))):.3f} s")
    values_s = best_of_3(lambda: [special_values(z, n) for z in shallow for n in SHALLOW])
    print(f"{label}: special_values total {values_s:.3f} s", flush=True)

    specs = [
        CurveSpec(label=f"g2_q{q}", q=q, genus=2, numerator=(1, a1, a2, q * a1, q * q))
        for q in (2, 3)
        for a1, a2 in genus2_pool(q)
    ]
    levels = [curve_tower(spec).level(steps) for spec in specs for steps in POOL_STEPS]
    verdicts_s = best_of_3(lambda: list(map(rh_verdict_for_level, levels)))
    label = f"{len(specs)} genus-2 numerators at {len(POOL_STEPS)} steps"
    print(f"{label}: rh_verdict_for_level total {verdicts_s:.3f} s", flush=True)
    tower = curve_tower(catalog_curve("X2g2").spec())
    for steps in (TUPLE[:-1], TUPLE):
        z = tower.level(steps)
        verdict_s = best_of_3(lambda: rh_verdict_for_level(z))
        print(f"X2g2 {steps} (Q has {z.Q.bit_length()} bits): rh_verdict_for_level {verdict_s:.3f} s", flush=True)
    z = curve_tower(CurveSpec(label="g3", q=2, genus=3, numerator=GENUS3)).level(TUPLE[:-1])
    verdict_s = best_of_3(lambda: rh_verdict_for_level(z))
    method = rh_verdict_for_level(z).method
    print(f"genus 3 {z.steps} (Q has {z.Q.bit_length()} bits): rh_verdict_for_level ({method}) {verdict_s:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
