"""Seeded inputs for the zetatower benchmark workloads.

Each workload is a curves JSON list plus the ``zetatower sweep`` arguments
that go with it.  The program only ever sees the generated file; everything
here is computed by the benchmark itself, without importing zetatower, so the
inputs do not depend on the code under test.

Scale ``full`` is the measured workload; ``small`` is a reduced copy of the
same shape, used by the self-test.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("elliptic_grid", "deep_step", "genus2_rh")

# y^2 + y = x^5 over F_2 (catalog label X2g2): N_1 = 3, N_2 = 5.
X2G2 = {"label": "X2g2", "q": 2, "genus": 2, "point_counts": [3, 5]}

_SWEEP_ARGS = {
    "elliptic_grid": {
        "full": {"tuples": "1;2;3;4;2,2;2,3;3,2;2,2,2", "checks": "all"},
        "small": {"tuples": "1;2", "checks": "all"},
    },
    "deep_step": {
        "full": {"tuples": "9;10", "checks": "positivity,beta_routes,interlacing,rh"},
        "small": {"tuples": "4;5", "checks": "positivity,beta_routes,interlacing,rh"},
    },
    "genus2_rh": {
        "full": {"tuples": "1;2;3;2,2", "checks": "rh,beta_routes"},
        "small": {"tuples": "1;2", "checks": "rh,beta_routes"},
    },
}

ALL_CHECKS = ("positivity", "rh", "miracle", "interlacing", "ratio_bounds", "beta_routes")


def hasse_traces(q: int) -> list:
    """Integer traces a with a^2 <= 4q."""
    m = 0
    while (m + 1) ** 2 <= 4 * q:
        m += 1
    return list(range(-m, m + 1))


def real_weil_class(q: int, a1: int, a2: int):
    """Classify P = 1 + a1 T + a2 T^2 + q a1 T^3 + q^2 T^4 by its real Weil polynomial.

    P(T) = T^2 h(qT + 1/T) with h(x) = x^2 + a1 x + (a2 - 2q).  Returns None
    unless both roots of h are real and lie in [-2 sqrt q, 2 sqrt q] (the
    RH locus); otherwise True when h has a repeated root or a root at
    +-2 sqrt q, the inputs on which simultaneous root iteration stalls, and
    False for the rest.  Every test is an exact integer comparison.
    """
    c = a2 - 2 * q
    disc = a1 * a1 - 4 * c
    at_edges = 4 * q + c  # (h(2 sqrt q) + h(-2 sqrt q)) / 2
    if disc < 0 or a1 * a1 > 16 * q or at_edges < 0 or at_edges * at_edges < 4 * q * a1 * a1:
        return None
    return disc == 0 or at_edges * at_edges == 4 * q * a1 * a1


def genus2_pool(q: int) -> tuple:
    """All RH-admissible integer (a1, a2) over q, split into (regular, stalling)."""
    regular, stalling = [], []
    for a1 in range(-4 * q, 4 * q + 1):
        for a2 in range(-6 * q, 6 * q + 1):
            kind = real_weil_class(q, a1, a2)
            if kind is not None:
                (stalling if kind else regular).append((a1, a2))
    return regular, stalling


# Per q: how many regular and how many stalling numerators to sample.  The
# stalling ones cost about seven times as much in the numeric RH route, so
# their number is fixed rather than left to the draw; 3 of 20 is close to
# their share of the full pools (6/35 over F_2, 8/63 over F_3).
_G2_SAMPLE = {"full": (17, 3), "small": (1, 1)}


def _elliptic_grid(rng: random.Random, scale: str) -> list:
    qs = (2, 3, 4, 5) if scale == "full" else (2,)
    curves = [
        {"label": f"elliptic_q{q}_a{a}", "q": q, "genus": 1, "trace": a}
        for q in qs
        for a in hasse_traces(q)
    ]
    rng.shuffle(curves)  # the seed only changes the order in the file
    return curves


def _deep_step(rng: random.Random, scale: str) -> list:
    curves = []
    for q in (2, 3):
        a = rng.choice(hasse_traces(q))
        curves.append({"label": f"elliptic_q{q}_a{a}", "q": q, "genus": 1, "trace": a})
    curves.append(dict(X2G2))
    return curves


def _genus2_rh(rng: random.Random, scale: str) -> list:
    n_regular, n_stalling = _G2_SAMPLE[scale]
    curves = []
    for q in (2, 3):
        regular, stalling = genus2_pool(q)
        for a1, a2 in rng.sample(regular, n_regular) + rng.sample(stalling, n_stalling):
            curves.append(
                {
                    "label": f"g2_q{q}_a{a1}_b{a2}",
                    "q": q,
                    "genus": 2,
                    "numerator": [str(c) for c in (1, a1, a2, q * a1, q * q)],
                }
            )
    rng.shuffle(curves)
    return curves


_GENERATORS = {"elliptic_grid": _elliptic_grid, "deep_step": _deep_step, "genus2_rh": _genus2_rh}


def generate(name: str, seed: int, scale: str = "full"):
    """(curves, sweep argv tail) for one workload; the same seed gives the same inputs."""
    curves = _GENERATORS[name](random.Random(seed), scale)
    args = _SWEEP_ARGS[name][scale]
    argv = ["--tuples", args["tuples"], "--checks", args["checks"], "--jobs", "1"]
    return curves, argv


def parse_tuples(argv: list) -> list:
    text = argv[argv.index("--tuples") + 1]
    return [tuple(int(n) for n in part.split(",")) for part in text.split(";")]


def checks_of(argv: list) -> tuple:
    text = argv[argv.index("--checks") + 1]
    return ALL_CHECKS if text == "all" else tuple(text.split(","))


def input_properties(name: str, curves: list, argv: list) -> dict:
    """Exact counts describing the work one pass is given."""
    tuples = parse_tuples(argv)
    genus_mix: dict = {}
    for c in curves:
        genus_mix[str(c["genus"])] = genus_mix.get(str(c["genus"]), 0) + 1
    props = {
        "curves": len(curves),
        "cells": len(curves) * len(tuples),
        "max_step": max(n for t in tuples for n in t),
        # one composition sum of size 2^(n-1) per derivation step per cell
        "compositions": len(curves) * sum(2 ** (n - 1) for t in tuples for n in t),
        "genus_mix": genus_mix,
    }
    if name == "genus2_rh":
        stalling = sum(
            1
            for c in curves
            if real_weil_class(c["q"], int(c["numerator"][1]), int(c["numerator"][2]))
        )
        share = Fraction(stalling, len(curves))
        props["stalling_numerators"] = stalling
        props["stalling_share"] = f"{share.numerator}/{share.denominator}"
    return props


def expected_per_check(curves: list, argv: list) -> dict:
    """Every check passes on every cell of every workload.

    The workloads hold only curves inside the Hasse / RH locus, and every
    identity the sweep checks is a theorem (or, for derived RH in genus 2, a
    conjecture that holds on these inputs), so any other count is a defect.
    """
    cells = len(curves) * len(parse_tuples(argv))
    return {
        check: {"fail": 0, "pass": cells, "skipped": 0, "unknown": 0}
        for check in sorted(checks_of(argv))
    }
