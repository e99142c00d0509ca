"""Tests for power sums, the residue series, and the elliptic recursions."""

import csv
import importlib.util
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from zetatower.curves import (
    CATALOG,
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    artin_zeta,
    count_points_bruteforce,
    hasse_traces,
    point_counts_from_numerator,
)
from zetatower.derived_engine import derive_step, normalize_level
from zetatower.exact_arith import Poly
from zetatower.mult_struct import elliptic_beta_recursion, ratio_bounds, ratio_bounds_check
from ratfunc_oracle import (
    elliptic_beta_series_check,
    fraction_beta_recursion,
    fraction_ratio_bounds,
    fraction_trace,
    residue_series_exp,
    residue_series_recursion,
)

EXPORT = Path(__file__).resolve().parents[1] / "scripts" / "export_beta_table.py"


def _D(A0, Q, n):
    """The closed denominator |A0|^n prod_{k=1..n} (Q^k - 1) of beta(n)."""
    return abs(A0) ** n * prod(Q**k - 1 for k in range(1, n + 1))


def _betas(bs, A0, Q):
    """The recursion's ints b(n) as the rationals beta(n) = b(n) / D(n)."""
    return [Fraction(b, _D(A0, Q, n)) for n, b in enumerate(bs)]


def _export_script():
    spec = importlib.util.spec_from_file_location("export_beta_table", EXPORT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# -- power sums -----------------------------------------------------------------


def _counts(z, k_max):
    return point_counts_from_numerator(z.P, z.Q, k_max)


def test_power_sums_q2_a0():
    N = _counts(artin_elliptic(2, 0), 2)
    assert N[0] == 3  # p_1 = 0
    assert N[1] == 9  # p_2 = a^2 - 2q = -4


def test_power_sums_derived_level():
    z2n = normalize_level(derive_step(artin_elliptic(2, 0), 2))
    N = _counts(z2n, 1)
    # k = 1 Newton identity: N_1 = Q + 1 - trace, trace = -A_1
    assert N[0] == z2n.Q + 1 - fraction_trace(z2n) == 6


def test_power_sums_requires_normalization():
    with pytest.raises(ValueError, match="constant term 1"):
        residue_series_exp(derive_step(artin_elliptic(2, 0), 2), 3)


def test_power_sums_match_brute_force_counts():
    for label in ("E2a0", "E2am2", "E3a0", "E3am3", "E5a2", "X2g2"):
        curve = CATALOG[label]
        N = _counts(artin_zeta(curve.spec()), 3)
        for k in (1, 2, 3):
            assert N[k - 1] == count_points_bruteforce(curve.model, curve.q, k)


# -- residue series -----------------------------------------------------------------


def test_series_first_coefficients():
    series = residue_series_exp(artin_elliptic(2, 0), 3)
    assert series[0] == 1
    assert series[1] == Fraction(3, 2 - 1)  # N_1/(Q-1), the first derived residue
    assert series[2] == 6


def test_series_routes_agree_to_order_12():
    cases = [artin_elliptic(2, 0), artin_elliptic(3, -3), artin_elliptic(5, 4)]
    cases.append(artin_from_point_counts(2, 2, [3, 5]))
    cases.append(normalize_level(derive_step(artin_elliptic(2, 1), 2)))
    for z in cases:
        zn = normalize_level(z) if z.P[0] != 1 else z
        exp_route = residue_series_exp(zn, 12)
        rec_route = residue_series_recursion(zn, 12)
        assert exp_route == rec_route


def test_series_rejects_q_one():
    level = ZetaLevel(steps=(), Q=1, genus=1, P=Poly([1, 0, 1]))
    with pytest.raises(ValueError, match="Q = 1"):
        residue_series_exp(level, 1)


# -- elliptic beta recursion -----------------------------------------------------------


def test_elliptic_recursion_q2_a0():
    bs = elliptic_beta_recursion(1, 0, 2, 2)
    assert bs == [1, 3, 18] and _betas(bs, 1, 2) == [1, 3, 6]


def test_elliptic_recursion_first_step_is_n1_over_qm1():
    for q in (2, 3, 4, 5):
        for a in hasse_traces(q):
            betas = _betas(elliptic_beta_recursion(1, -a, q, 1), 1, q)
            assert betas[1] == Fraction(q + 1 - a, q - 1)


def test_elliptic_recursion_second_step_drops_lag_term():
    # at n = 2 the beta(n-2) coefficient Q^(n-1) - Q vanishes identically
    q = 7
    for a in (-2, 0, 5):
        betas = _betas(elliptic_beta_recursion(1, -a, q, 2), 1, q)
        assert betas[2] == Fraction(q**2 + q - a, q**2 - 1) * betas[1]


def _recursion_matches_the_fraction_route(A0, A1, Q, n_max):
    bs = elliptic_beta_recursion(A0, A1, Q, n_max)
    assert len(bs) == n_max + 1 and all(type(b) is int for b in bs)
    return _betas(bs, A0, Q) == fraction_beta_recursion(Fraction(-A1, A0), Q, n_max)


def test_int_recursion_matches_the_fraction_recursion_on_the_export_grid():
    # every Hasse trace at q = 2..5 and n <= 8, from A0 = 1 and from the pair scaled by -2, which keeps the trace
    for q in (2, 3, 4, 5):
        for a in hasse_traces(q):
            assert _recursion_matches_the_fraction_route(1, -a, q, 8), (q, a)
            assert _recursion_matches_the_fraction_route(-2, 2 * a, q, 8), (q, a)


def test_int_recursion_matches_the_fraction_recursion_on_derived_prefixes():
    # the prefixes' numerators begin A_0 + A_1 T with A_0 != 1; the recursion reads the first two view ints,
    # which a positive content divides out, and a negated pair, which has the same trace
    prefixes = [derive_step(artin_elliptic(q, a), n) for q, a in ((2, -2), (3, 1), (5, 4)) for n in (2, 3)]
    prefixes.append(derive_step(prefixes[0], 2))
    assert all(z.P[0] != 1 for z in prefixes)
    for z in prefixes:
        x0, x1 = z.P.view[1][:2]
        assert Fraction(-x1, x0) == fraction_trace(z)
        for A0, A1 in ((x0, x1), (-x0, -x1), (3 * x0, 3 * x1), (-3 * x0, -3 * x1)):
            assert _recursion_matches_the_fraction_route(A0, A1, z.Q, 8), (z.steps, A0, A1)
    # traces whose reduced denominator is not 1, over each sign of A_0
    for A0, A1, Q in ((2, 5, 4), (-2, 5, 4), (3, -1, 2), (-5, 7, 3), (4, -3, 9)):
        assert _recursion_matches_the_fraction_route(A0, A1, Q, 8), (A0, A1, Q)


def test_int_recursion_refuses_a_zero_constant_term():
    with pytest.raises(ValueError, match="constant term 0"):
        elliptic_beta_recursion(0, 1, 2, 3)


def test_beta_equals_series_check():
    res = elliptic_beta_series_check(artin_elliptic(2, 0), 6)
    assert res.passed, res.detail


def test_beta_equals_series_on_derived_prefix():
    z2n = normalize_level(derive_step(artin_elliptic(2, 0), 2))
    res = elliptic_beta_series_check(z2n, 4)
    assert res.passed, res.detail


def test_beta_equals_series_rejects_genus2():
    with pytest.raises(ValueError, match="genus 1"):
        elliptic_beta_series_check(artin_from_point_counts(2, 2, [3, 5]), 3)


# -- ratio bounds -----------------------------------------------------------------------


def _first_ratio(A0, A1, Q):
    """beta(1) / beta(0) as an int pair with a positive denominator, as the CSV's n = 1 rows read it."""
    r = _betas(elliptic_beta_recursion(A0, A1, Q, 1), A0, Q)[1]
    return r.numerator, r.denominator


def test_ratio_bounds_q2_a0_first_steps():
    bs = elliptic_beta_recursion(1, 0, 2, 2)
    checks = ratio_bounds_check(bs, 1, 2)
    # r_1 = 3: 2*(3-1)^2 = 8 < 16 = (3+1)^2; r_2 = 2: 4*1 = 4 < 9
    assert _first_ratio(1, 0, 2) == (3, 1) and ratio_bounds(3, 1, 2, 1) == (True, True)
    assert [c.name for c in checks] == ["ratio_bounds[n=2]"] and checks[0].passed


def test_ratio_bounds_negative_control():
    assert ratio_bounds(1, 1, 2, 1) == (False, True)  # r = 1 fails the strict lower bound
    checks = ratio_bounds_check([1, 1, 3], 1, 2)  # r_2 = 3 / (1 (2^2 - 1) 1) = 1
    assert not checks[0].passed and checks[0].detail == "r = 1; lower FAIL, upper ok"


def test_ratio_bounds_start_at_second_step_on_boundary_traces():
    # at the Hasse boundary the first ratio genuinely escapes the bounds,
    # while every later ratio satisfies them strictly
    num, den = _first_ratio(1, -4, 4)
    assert not all(ratio_bounds(num, den, 4, 1))
    checks = ratio_bounds_check(elliptic_beta_recursion(1, -4, 4, 8), 1, 4)
    assert [c.name for c in checks] == [f"ratio_bounds[n={n}]" for n in range(2, 9)]
    assert all(c.passed for c in checks)


def test_ratio_bounds_interior_grid():
    for q in (2, 3):
        for a in hasse_traces(q):
            bs = elliptic_beta_recursion(1, -a, q, 8)
            assert all(c.passed for c in ratio_bounds_check(bs, 1, q))


def test_ratio_bounds_match_the_fraction_bounds():
    # every r = num/den with den > 0 on a grid that holds the equality points of both bounds,
    # such as r = 1 and r = 3 at Q = 2, n = 2, where 4 (3-1)^2 = (3+1)^2
    for Q in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            for den in range(1, 9):
                for num in range(-12, 41):
                    expected = fraction_ratio_bounds(Fraction(num, den), Q, n)
                    assert ratio_bounds(num, den, Q, n) == expected, (num, den, Q, n)


def test_ratio_bounds_check_matches_the_fraction_bounds():
    # ints b(n) whose b(n-1) takes either sign, read with the closed denominators of |A0| = w,
    # the equality ratio 3 at Q = 2, n = 2 among them
    bs = [1, 3, 9, -6, 7, -14, 5, -1, 22]
    for w in (1, 2, 3):
        for Q in (2, 3, 5):
            checks = ratio_bounds_check(bs, w, Q)
            assert [c.name for c in checks] == [f"ratio_bounds[n={n}]" for n in range(2, len(bs))]
            betas = _betas(bs, w, Q)
            for n, check in enumerate(checks, start=2):
                r = betas[n] / betas[n - 1]
                lower, upper = fraction_ratio_bounds(r, Q, n)
                assert check.passed == (lower and upper), (w, Q, n)
                if not check.passed:
                    flags = f"lower {'ok' if lower else 'FAIL'}, upper {'ok' if upper else 'FAIL'}"
                    assert check.detail == f"r = {r}; {flags}"
    assert not ratio_bounds_check([1, 1, 9], 1, 2)[0].passed  # r = 9 / (2^2 - 1) = 3 meets the upper bound's equality
    with pytest.raises(ZeroDivisionError):
        ratio_bounds_check([1, 0, 1], 1, 2)


# -- csv export ----------------------------------------------------------------------------


def test_ratio_upper_bound_holds_below_one():
    # (3^(1/2)+1)/(3^(1/2)-1) > 1 > 1/2: only the lower bound fails at q = 3, a = 3, n = 1
    assert _first_ratio(1, -3, 3) == (1, 2) and ratio_bounds(1, 2, 3, 1) == (False, True)
    # and at n = 2 over Q = 3: r = 4 / (3^2 - 1) = 1/2
    check = ratio_bounds_check([1, 1, 4], 1, 3)[0]
    assert not check.passed and check.detail == "r = 1/2; lower FAIL, upper ok"
    assert ratio_bounds(1, 1, 3, 1) == (False, True)
    assert ratio_bounds(-5, 1, 4, 3) == (False, True)
    # r = 3 at Q = 2, n = 2: 4 (3-1)^2 = 16 is not below (3+1)^2 = 16
    assert ratio_bounds(3, 1, 2, 2) == (True, False)


# -- csv export ----------------------------------------------------------------------------


def test_csv_export_deterministic(tmp_path):
    export_elliptic_grid_csv = _export_script().export_elliptic_grid_csv
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = export_elliptic_grid_csv(p1, (2,), n_max=3)
    export_elliptic_grid_csv(p2, (2,), n_max=3)
    assert p1.read_bytes() == p2.read_bytes()
    assert rows == 5 * 3  # five traces over q = 2, three steps each
    with open(p1, newline="") as fh:
        table = list(csv.DictReader(fh))
    first = [r for r in table if r["q"] == "2" and r["a"] == "0" and r["n"] == "2"][0]
    assert first["beta"] == "6" and first["b_n"] == "6" and first["ratio"] == "2"


def test_csv_export_routes_agree_on_every_row(tmp_path):
    # the recursion's beta and the tower's residue b_n, row by row over q = 2..5 and n <= 8
    path = tmp_path / "grid.csv"
    rows = _export_script().export_elliptic_grid_csv(path, (2, 3, 4, 5), n_max=8)
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert rows == len(table) == 8 * sum(len(hasse_traces(q)) for q in (2, 3, 4, 5))
    assert all(r["beta"] == r["b_n"] for r in table)
    # a ratio of at most 1, which only n = 1 has, misses the lower bound and meets the upper one
    below = [r for r in table if Fraction(r["ratio"]) <= 1]
    assert len(below) == 9
    assert all(r["n"] == "1" and (r["lower_ok"], r["upper_ok"]) == ("0", "1") for r in below)
