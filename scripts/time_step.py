#!/usr/bin/env python3
"""Time one tower step, layer by layer: best-of-3 wall seconds of ``derive_step``.

Prints, for the elliptic curve E3a1 (q = 3, trace 1) and the genus-2 catalog
curve X2g2, the time of ``derive_step(special_values(base), n)`` at
n = 10, 20, 40, 60, then the time of each step of X2g2 along the tuple
(10, 10, 10, 5), whose last level has Q = 2^5000.  Each timed step builds its
set of special values inside the call, so every run times a whole step and
none reads a step that an earlier run kept.  Then the single steps (1), ..., (24) from E3a1 and
from X2g2 as a sweep of those tuples runs them: on a fresh
``curve_tower(spec)`` per run, each step's level and its ``beta_route``,
all 24 steps reading the base's one set of special values, which grows as
each step reads it.
Then the shallow regime a default elliptic sweep runs:
over the 30 bases of the built-in elliptic grid (q = 2..5) and X2g2, the total
time of ``derive_step(special_values(base), n)`` for n = 1..5, of
``validate_zeta_level`` and of ``extract_invariants`` on those 155 levels, and of growing a fresh
``special_values(base)`` to depth n for n = 1..5.  Last the RH verdict:
``rh_verdict_for_level`` summed over the 98 RH-admissible integer genus-2
numerators 1 + a1 T + a2 T^2 + q a1 T^3 + q^2 T^4 over q = 2, 3 (the box
|a1| <= 4q, |a2| <= 6q, kept by the package's exact ``rh_sturm``) at the
steps (), (2), (3), (2, 2), alone on X2g2 at (10, 10, 10) and at
(10, 10, 10, 5), and alone on the genus-3 numerator 1 + T + 2T^2 + 3T^3 +
4T^4 + 4T^5 + 8T^6 over F_2 at (10, 10, 10), whose verdict is the exact
Sturm count (``rh_sturm``).  Last the genus-1 check stages of a sweep on
E3a1 along (10, 10, 10): the tower's ``rh``, ``ratio_bounds``,
``invariants``, ``miracle``, ``beta_route`` and ``interlacing`` over its
levels and steps, each on a fresh tower whose levels (the miracle's
(..., 11) among them) are read before the timer starts; deriving them builds
the one set of special values each step's checks read, and the signed table
rows kept on it, so ``beta_route`` there reads rows already built and
``interlacing`` builds the positive table.  So that the closed formula's
own cost stays visible, the last line times ``beta_closed_form`` at n = 10
on a fresh set of special values of E3a1's level (10, 10), which builds the
signed table to row 10.
Each figure is the best of three runs on the same input; the inputs of the
tuple's steps, the levels to validate and the levels to judge are derived
once, outside the timer.

  PYTHONPATH=src python scripts/time_step.py
"""

import sys
import time

from zetatower.curves import CurveSpec, artin_elliptic, catalog_curve, validate_zeta_level
from zetatower.derived_engine import derive_step, special_values
from zetatower.exact_arith import Poly
from zetatower.invariants import beta_closed_form, extract_invariants
from zetatower.rh_lab import builtin_elliptic_grid, curve_tower, rh_sturm, rh_verdict_for_level

DEPTHS = (10, 20, 40, 60)
TUPLE = (10, 10, 10, 5)
SHALLOW = (1, 2, 3, 4, 5)
POOL_STEPS = ((), (2,), (3,), (2, 2))
GENUS3 = (1, 1, 2, 3, 4, 4, 8)  # over F_2
GENUS1_CHECKS = ("rh", "ratio_bounds", "invariants", "miracle", "beta_route", "interlacing")  # Tower fields
GENUS1_PATH = (10, 10, 10)
SINGLE_STEPS = tuple((n,) for n in range(1, 25))


def best_of_3(run) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def genus2_pool(q: int) -> list:
    """Every integer (a1, a2) with |a1| <= 4q, |a2| <= 6q whose numerator satisfies RH over q, by ``rh_sturm``."""
    box = [(a1, a2) for a1 in range(-4 * q, 4 * q + 1) for a2 in range(-6 * q, 6 * q + 1)]
    return [(a1, a2) for a1, a2 in box if rh_sturm(Poly([1, a1, a2, q * a1, q * q]), q).holds]


def main() -> int:
    bases = {"E3a1": artin_elliptic(3, 1), "X2g2": catalog_curve("X2g2").spec().level}
    for name, z in bases.items():
        for n in DEPTHS:
            print(f"{name} (genus {z.genus}) derive_step n={n}: {best_of_3(lambda: derive_step(special_values(z), n)):.3f} s", flush=True)
    z = bases["X2g2"]
    for n in TUPLE:
        bits = (z.Q**n).bit_length()
        print(f"X2g2 step {z.steps + (n,)} (new Q has {bits} bits): {best_of_3(lambda: derive_step(special_values(z), n)):.3f} s", flush=True)
        z = derive_step(special_values(z), n)
    for name, spec in (("E3a1", CurveSpec(label="E3a1", q=3, genus=1, trace=1)), ("X2g2", catalog_curve("X2g2").spec())):

        def single_steps():
            tower = curve_tower(spec)  # the tower keeps each result, so each run builds a fresh one
            for steps in SINGLE_STEPS:
                tower.level(steps), tower.beta_route(steps)

        label = f"{name} steps ({SINGLE_STEPS[0][0]})..({SINGLE_STEPS[-1][0]})"
        print(f"{label} through one tower, level and beta_route: {best_of_3(single_steps):.3f} s", flush=True)

    shallow = [spec.level for spec in builtin_elliptic_grid()] + [bases["X2g2"]]
    levels = [derive_step(special_values(z), n) for z in shallow for n in SHALLOW]
    label = f"{len(shallow)} bases, n = {SHALLOW[0]}..{SHALLOW[-1]}"
    steps_s = best_of_3(lambda: [derive_step(special_values(z), n) for z in shallow for n in SHALLOW])
    print(f"{label}: derive_step total {steps_s:.3f} s", flush=True)
    print(f"{label}: validate_zeta_level total {best_of_3(lambda: list(map(validate_zeta_level, levels))):.3f} s")
    print(f"{label}: extract_invariants total {best_of_3(lambda: list(map(extract_invariants, levels))):.3f} s")
    values_s = best_of_3(lambda: [special_values(z).grow(n) for z in shallow for n in SHALLOW])
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

    spec = CurveSpec(label="E3a1", q=3, genus=1, trace=1)
    paths = [GENUS1_PATH[:i] for i in range(len(GENUS1_PATH) + 1)]
    best = dict.fromkeys(GENUS1_CHECKS, float("inf"))
    for _ in range(3):
        tower = curve_tower(spec)  # the tower keeps each result, so each run reads a fresh one
        for path in paths[1:]:
            tower.level(path), tower.level(path[:-1] + (path[-1] + 1,))  # builds each prefix's special values too
        for name in GENUS1_CHECKS:
            start = time.perf_counter()
            for path in paths if name in ("rh", "invariants") else paths[1:]:  # by level, else by step
                getattr(tower, name)(path)
            best[name] = min(best[name], time.perf_counter() - start)
    stages = ", ".join(f"{name} {s:.3f} s" for name, s in best.items())
    print(f"E3a1 {GENUS1_PATH} genus-1 checks: {stages}; total {sum(best.values()):.3f} s")
    z, n = tower.level(GENUS1_PATH[:-1]), GENUS1_PATH[-1]
    fresh = iter([special_values(z) for _ in range(3)])  # a set keeps its values and rows, so each run reads its own
    closed_s = best_of_3(lambda: beta_closed_form(next(fresh), n))
    print(f"E3a1 {z.steps} beta_closed_form n={n} on fresh special values: {closed_s:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
