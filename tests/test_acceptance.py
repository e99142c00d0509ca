"""Acceptance suite: one test per criterion, printed as a pass/fail line each.

The grid is elliptic q in {2,3,4,5} with every Hasse-admissible integer trace,
tuples (1),(2),(3),(4),(2,2),(2,3),(3,2),(2,2,2), plus the genus-2 curve
y^2 + y = x^5 over F_2 built from brute-force counts.  Everything is exact
rational arithmetic except the genus-2 RH route, which finds roots with
mpmath and compares their deviations with a tolerance derived from the
precision.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
from fractions import Fraction

import mpmath as mp
import pytest

from zetatower.curves import (
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    hasse_traces,
    validate_zeta_level,
)
from zetatower.derived_engine import (
    derive_step,
    derive_tower,
    normalize_level,
    special_values,
)
from ratfunc_oracle import (
    rational_divmod,
    residue_series_recursion,
    residue_simple_pole,
    standard_denominator,
    to_ratfunc,
)
from zetatower.exact_arith import Poly
from zetatower.invariants import (
    beta_closed_form,
    counting_miracle_check,
    extract_invariants,
    interlacing_poly,
    interlacing_signs,
)
from zetatower.mult_struct import elliptic_beta_recursion, ratio_bounds_check, residue_series_exp
from zetatower.rh_lab import rh_exact_genus1, rh_numeric, rh_sturm

ELLIPTIC_QS = (2, 3, 4, 5)
GRID_TUPLES = ((1,), (2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2))
DEV_BOUND = mp.mpf("1e-30")


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}")


@pytest.fixture(scope="module")
def grid():
    """All towers over the elliptic grid, unnormalized, base included, keyed by curve."""
    cells = {}
    for q in ELLIPTIC_QS:
        for a in hasse_traces(q):
            base = artin_elliptic(q, a)
            towers = {steps: [base] + derive_tower(base, steps) for steps in GRID_TUPLES}
            cells[f"elliptic(q={q},a={a})"] = towers
    return cells


@pytest.fixture(scope="module")
def genus2():
    base = artin_from_point_counts(2, 2, [3, 5])
    return {
        "base": base,
        "towers": {steps: [base] + derive_tower(base, steps) for steps in ((2,), (2, 2))},
    }


def test_criterion_01_functional_equation(grid):
    count = 0
    for curve, towers in grid.items():
        for levels in towers.values():
            for z in levels:
                zeta = to_ratfunc(z)
                assert zeta.subst_reciprocal(Fraction(1, z.Q)) == zeta, (curve, z.steps)
                count += 1
    _report(1, "functional equation", f"({count} levels, exact)")


def test_criterion_02_pole_cancellation(grid):
    count = 0
    for curve, towers in grid.items():
        for levels in towers.values():
            for z in levels:
                std = standard_denominator(z.Q, z.genus)
                assert rational_divmod(std, to_ratfunc(z).den)[1].is_zero(), (curve, z.steps)
                assert z.P.degree == 2 * z.genus, (curve, z.steps)
                count += 1
    _report(2, "pole cancellation", f"({count} levels, exact)")


def test_criterion_03_beta_dual_route(grid):
    count = 0
    for towers in grid.values():
        for steps, levels in towers.items():
            for prev, nxt, n in zip(levels, levels[1:], steps):
                sv = special_values(prev, n)
                assert residue_simple_pole(to_ratfunc(nxt), 1) == beta_closed_form(sv, n, prev.genus)
                count += 1
    _report(3, "beta dual route", f"({count} steps, exact)")


def test_criterion_04_counting_miracle(genus2):
    count = 0
    for q in (2, 3):
        for a in hasse_traces(q):
            base = artin_elliptic(q, a)
            for n in (1, 2, 3):
                res = counting_miracle_check(base, derive_step(base, n), derive_step(base, n + 1))
                assert res.passed, (q, a, n, res.detail)
                count += 1
    zg = genus2["base"]
    for n in (1, 2, 3):
        res = counting_miracle_check(zg, derive_step(zg, n), derive_step(zg, n + 1))
        assert res.passed, ("X2g2", n, res.detail)
        count += 1
    _report(4, "counting miracle", f"({count} identities, exact)")


def test_criterion_05_series_dual_route(grid, genus2):
    count = 0
    every = list(grid.items()) + [("X2g2", genus2["towers"])]
    for curve, towers in every:
        for levels in towers.values():
            for z in levels:
                zn = z if z.P[0] == 1 else normalize_level(z)
                exp_route = residue_series_exp(zn, 12)
                rec_route = residue_series_recursion(zn, 12)
                assert exp_route == rec_route, (curve, z.steps)
                count += 1
    _report(5, "series coefficients dual route", f"({count} levels, order 12, exact)")


def test_criterion_06_elliptic_triangle():
    count = 0
    for q in ELLIPTIC_QS:
        for a in hasse_traces(q):
            base = artin_elliptic(q, a)
            series = residue_series_exp(base, 6)
            recursion = elliptic_beta_recursion(a, q, 6)
            for n in range(1, 7):
                extracted = extract_invariants(derive_step(base, n)).beta
                assert extracted == recursion[n] == series[n], (q, a, n)
                count += 1
    _report(6, "elliptic beta triangle", f"({count} values, n <= 6, exact)")


def test_criterion_07_ratio_bounds():
    # the corollary's induction starts at the second ratio; the first one
    # genuinely escapes the bounds at the Hasse boundary (see decisions ledger)
    count = 0
    for q in ELLIPTIC_QS:
        for a in hasse_traces(q):
            betas = elliptic_beta_recursion(a, q, 8)
            checks = ratio_bounds_check(betas, q)
            for chk in checks[1:]:
                assert chk.passed, (q, a, chk.detail)
                count += 1
    _report(7, "ratio bounds", f"({count} ratios, n in 2..8, exact squared form)")


def test_criterion_08_interlacing_signs():
    count = 0
    for q in ELLIPTIC_QS:
        for a in hasse_traces(q):
            sv = special_values(artin_elliptic(q, a), 5)
            for n in range(1, 6):
                ip = interlacing_poly(sv, n)
                signs = interlacing_signs(ip)
                assert signs == [(-1) ** (k + 1) for k in range(1, n + 1)], (q, a, n, signs)
                if n > 1:
                    assert ip.poly.degree == n - 1
                count += 1
    _report(8, "interlacing sign vectors", f"({count} polynomials, n <= 5, exact)")


def test_criterion_09_rh_genus1(grid):
    count = 0
    for curve, towers in grid.items():
        for levels in towers.values():
            for z in levels[1:]:
                exact = rh_exact_genus1(z)
                assert exact.holds is True, (curve, z.steps)
                sturm = rh_sturm(z.P, z.Q)
                assert sturm.holds is exact.holds is True, (curve, z.steps)
                assert sturm.boundary is exact.boundary, (curve, z.steps)
                count += 1
    _report(9, "derived RH, genus 1", f"({count} levels, discriminant + Sturm count)")


def test_criterion_10_rh_genus2_tuples(genus2):
    for steps in ((2,), (2, 2)):
        z = genus2["towers"][steps][-1]
        v = rh_numeric(z.P, z.Q)
        assert v.holds is True, steps
        assert mp.mpf(v.max_deviation) < DEV_BOUND, (steps, v.max_deviation)
    _report(10, "derived RH, genus 2, tuples (2) and (2,2)", "(256-bit numeric)")


def test_criterion_11_positivity_scan(grid, genus2, tmp_path_factory):
    records = []
    every = list(grid.items()) + [("X2g2", genus2["towers"])]
    for curve, towers in every:
        for levels in towers.values():
            for z in levels:
                inv = extract_invariants(z)
                assert inv.positivity(), (curve, z.steps)
                records.append(
                    {
                        "curve": curve,
                        "tuple": list(z.steps),
                        "alphas": [str(x) for x in inv.alphas],
                        "beta": str(inv.beta),
                        "positivity": True,
                    }
                )
    out = tmp_path_factory.mktemp("reports") / "positivity_scan.json"
    out.write_text(json.dumps(records, sort_keys=True, indent=2), encoding="utf-8")
    _report(11, "positivity scan", f"({len(records)} levels; report at {out})")


def test_criterion_12_negative_controls():
    # planted off-circle roots in a self-inversive numerator, so the root finder is what fails it
    planted = Poly([1, -3]) * Poly([1, Fraction(-2, 3)]) * Poly([1, 0, 2])
    v = rh_numeric(planted, 2)
    assert v.holds is False

    # tampered numerator breaks the functional-equation check
    zg = artin_from_point_counts(2, 2, [3, 5])
    tampered = ZetaLevel(steps=(), Q=zg.Q, genus=2, P=zg.P + Poly([0, 1]))
    status = {r.name: r.passed for r in validate_zeta_level(tampered)}
    assert status["functional_equation"] is False

    # Hasse guard
    with pytest.raises(ValueError, match="Hasse"):
        artin_elliptic(2, 4)
    _report(12, "negative controls", "(planted root fails, tamper fails FE, Hasse guard)")
