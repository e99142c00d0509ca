"""Tests for invariant extraction, the closed beta formula, and interlacing."""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

import zetatower.invariants as invariants_module
from ratfunc_oracle import (
    RingPoly,
    fraction_trace,
    interlacing_signs,
    interlacing_tail,
    normalized_tower,
    positive_weight,
    residue_simple_pole,
    ring,
    to_ratfunc,
)
from zetatower.curves import CurveSpec, artin_elliptic, artin_from_point_counts, catalog_curve, hasse_traces
from zetatower import derived_engine
from zetatower.derived_engine import (
    DerivationError,
    composition_sums,
    compositions,
    derive_step,
    derive_tower,
    pair_plan,
    special_values,
)
from zetatower.exact_arith import Poly, over_lcm, rat_str
from zetatower.mult_struct import step_ratio_checks
from zetatower.rh_lab import SweepConfig, curve_tower, sweep
from zetatower.invariants import (
    beta_closed_form,
    beta_routes_check,
    counting_miracle_check,
    extract_invariants,
    interlacing_poly,
    interlacing_sign_check,
    invariant_values,
    reconstruct_numerator,
)


# -- extraction ---------------------------------------------------------------


def test_extract_artin_elliptic():
    z = artin_elliptic(2, 0)
    inv = extract_invariants(z)
    assert (inv.content, inv.S, inv.total) == (1, (1,), 3)
    assert invariant_values(inv, z.Q) == ((1,), 3)
    assert ring(z.P).coeffs == (1, 0, 2)


def test_extract_q3_a3():
    inv = extract_invariants(artin_elliptic(3, 3))
    assert invariant_values(inv, 3) == ((1,), Fraction(1, 2))


def test_extract_genus2():
    z = artin_from_point_counts(2, 2, [3, 5])
    inv = extract_invariants(z)
    assert invariant_values(inv, z.Q) == ((1, 3), 5)
    assert z.P == Poly([1, 0, 0, 0, 4])


def test_normalized_level_has_alpha0_one():
    levels = normalized_tower(artin_elliptic(2, 0), (2, 2))
    for z in levels:
        assert invariant_values(extract_invariants(z), z.Q)[0][0] == 1


def test_reconstruction_round_trip_small():
    for q, a in [(2, 0), (3, 3), (5, -4)]:
        z = artin_elliptic(q, a)
        inv = extract_invariants(z)
        assert ring(Poly.from_ints(reconstruct_numerator(inv.S, inv.total, z.Q, 1))) * inv.content == z.P


def test_reconstruction_exercises_all_coefficient_ranges():
    # genus 3 makes every index range of the coefficient table nondegenerate:
    # k = 0, 1, 2..g-1, g, g+1, g+2..2g-1, 2g
    for q, counts in [(2, (3, 9, 9)), (2, (4, 8, 10)), (3, (5, 11, 29))]:
        z = artin_from_point_counts(q, 3, counts)
        inv = extract_invariants(z)
        P = ring(Poly.from_ints(reconstruct_numerator(inv.S, inv.total, z.Q, 3))) * inv.content
        assert P == z.P
        assert P.degree == 6
        for i in range(7):
            assert P[6 - i] == z.Q ** (3 - i) * P[i]


def test_trace_of_genus1():
    assert fraction_trace(derive_step(special_values(artin_elliptic(2, 0)), 2)) == -1  # (Q+1) - (Q-1) * beta2/beta1 = 5 - 3*2


# -- beta closed form ------------------------------------------------------------


def test_beta_closed_form_depth_one_is_residue():
    z = artin_elliptic(2, 0)
    sv = special_values(z)
    assert Fraction(*beta_closed_form(sv, 1)) == 3 == Fraction(*sv.vhats[1])


def test_beta_closed_form_depth_two():
    z = artin_elliptic(2, 0)
    sv = special_values(z)
    # v2 + v1^2/(1 - Q^2) = 9 + 9/(1-4) = 6
    num, den = beta_closed_form(sv, 2)
    assert type(num) is int and type(den) is int and den > 0
    assert Fraction(num, den) == 6


def test_beta_dual_route_small_grid():
    for q in (2, 3):
        for a in hasse_traces(q):
            base = artin_elliptic(q, a)
            for steps in [(2,), (3,), (2, 2)]:
                levels = [base] + derive_tower(base, steps)
                for prev, nxt, n in zip(levels, levels[1:], steps):
                    sv = special_values(prev)
                    assert residue_simple_pole(to_ratfunc(nxt), 1) == Fraction(*beta_closed_form(sv, n))


def test_beta_closed_form_needs_depth():
    # a set grows from its level as far as it is read, going on from the values it holds
    sv = special_values(artin_elliptic(2, 0))
    sv.grow(1)
    assert Fraction(*beta_closed_form(sv, 2)) == 6 and len(sv.vhats) == 3
    planted = special_values(artin_elliptic(2, 0))
    planted.grow(1)
    planted.vhats[1] = (-3, 1)  # zeta_hat(1) = -3: vhat(2) = -9 grows from it, and -9 + 9 / (1 - 4) = -12
    assert Fraction(*beta_closed_form(planted, 2)) == -12 and len(planted.vhats) == 3


def _table_with_one_cofactor_off(at, first_entry_off=False):
    """The recurrence of ``derived_engine.composition_sums``, with cofactor 0 of E[m][p]'s inner sum + 1, at = (m, p).

    With ``first_entry_off``, E[1][1] + 1 instead.  Every later row is built
    by the recurrence from the planted one, so the table stays consistent
    with itself; at=None alone gives the real table.
    """

    def table(sv, m_max, positive=False):
        sv.grow(m_max)
        sign = 1 if positive else -1
        rows = [([0], 1)]
        for m in range(1, m_max + 1):
            entries = [(0, 1)]
            for p in range(1, m):
                nums, D = rows[m - p]
                L, cof = sv.plan[p][m - p]
                if (m, p) == at:
                    cof = [cof[0] + 1, *cof[1:]]
                v_num, v_den = sv.vhats[p]
                entries.append((sign * v_num * sum(map(mul, nums[1:], cof)), v_den * D * L))
            entries.append(sv.vhats[m])
            nums, D = over_lcm(entries)
            if m == 1 and first_entry_off:
                nums = [0, nums[1] + D]
            c = gcd(D, *nums)
            rows.append(([x // c for x in nums], D // c))
        return tuple(rows)

    return table


def test_a_planted_table_row_is_seen_by_some_step_check(monkeypatch):
    """The detectability matrix of a recurrence-consistent table error, and the step checks that see it.

    Cofactor 0 of one inner sum + 1, at E[3][1], E[4][1], E[4][2] or
    E[n-1][1], with every later row rebuilt from it by the recurrence, on the
    Hasse bases with q <= 5 and X2g2 at n = 5..8: the table that the step, its
    certificate and the closed beta route read alike.  The step's certificate
    or its validation refuses all but one of the 465 cases.  The one that
    passes both is E2a0 (q = 2, trace 0) at n = 6 with E[4][1] off and row 5
    rebuilt from it: its P is unlike the real one, the closed beta route, which
    reads the same table, agrees with it, and only the elliptic recursion's
    ratio link, which reads no table, and the miracle's step n + 1 refuse it.
    """
    bases = {f"E{q}a{a}": artin_elliptic(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)}
    bases["X2g2"] = catalog_curve("X2g2").spec().level
    for z in bases.values():
        sv = special_values(z)
        for positive in (False, True):
            assert _table_with_one_cofactor_off(None)(sv, 8, positive) == composition_sums(sv, 8, positive)
    caught, escapes = [], {}
    for name, z in bases.items():
        for n in (5, 6, 7, 8):
            clean = derive_step(special_values(z), n)
            for at in sorted({(3, 1), (4, 1), (4, 2), (n - 1, 1)}):
                with monkeypatch.context() as m:
                    table = _table_with_one_cofactor_off(at)
                    m.setattr(derived_engine, "composition_sums", table)
                    m.setattr(invariants_module, "composition_sums", table)
                    sv = special_values(z)
                    try:
                        derived = sv.step(n)
                    except DerivationError:
                        caught.append((name, n, at))
                        continue
                    with pytest.raises(DerivationError):
                        sv.step(n + 1)  # the miracle's step n + 1 reads the planted table too
                    escapes[name, n, at] = {
                        "P": derived.P == clean.P,
                        "beta_routes": beta_routes_check(sv, n).passed,
                        "ratio link": step_ratio_checks(sv, n)[0].passed if z.genus == 1 else None,
                    }
    assert len(caught) + len(escapes) == 465 and len(caught) == 464
    assert escapes == {("E2a0", 6, (4, 1)): {"P": False, "beta_routes": True, "ratio link": False}}


def _plan_with_one_error(error):
    """``pair_plan`` by its definition, lcm and cofactors per run, with one error the table and the certificate read alike.

    ("entry", s, j) adds 1 to cofactor 0 of plan[s][j]; ("pole", k) reads the
    pair denominator Q^k - 1 as Q^k in every run.  Each call rebuilds the plan
    it is given in place, as far as ``depth``, so a set that grows stays
    consistent with itself.
    """

    def plan(Q, depth, plan=None):
        plan = [] if plan is None else plan
        plan[:] = []
        for s in range(depth):
            row = []
            for j in range(depth - s + 1):
                pairs = [Q ** (s + r) - (0 if error == ("pole", s + r) else 1) for r in range(1, j + 1)]
                L = lcm(*pairs)
                cof = [L // d for d in pairs]
                if error == ("entry", s, j):
                    cof[0] += 1
                row.append((L, cof))
            plan.append(row)
        return plan

    return plan


def test_planted_plan_pole_and_first_entry_errors_are_seen_by_some_check(monkeypatch):
    """The detectability matrix of three error classes that the table and the certificate read alike.

    On the Hasse bases with q <= 5 and X2g2: cofactor 0 of plan[s][n/2] + 1
    at n = 4, 6, 8, the pole Q^3 - 1 read as Q^3 at n = 4..8, and E[1][1] + 1
    at n = 2.  Each case reads one planted set, as a tower does for its prefix:
    the step, the closed beta route and the miracle's step n + 1.

    The step's certificate cannot see any of them.  At even n a wrong
    plan[s][n/2] and a wrong pole Q^3 - 1 are read alike by the table and the
    certificate; validation catches each but one: on E2a0 (q = 2, trace 0) at
    n = 6 a wrong plan[1][3], like the rebuilt rows of the cofactor matrix,
    gives a P unlike the real one that passes both, and the ratio link and the
    miracle's step n + 1 see it.  At n = 2 the one residue sum is F(1, 0)
    (Res_1 + Q Res_(1/Q)), zero by the functional equation whatever E[1][1] is,
    so a wrong E[1][1] scales P and passes the certificate and validation on
    every base; the closed beta route, which reads row 2, and the miracle see
    it, and at genus 1 the ratio link too.
    """
    bases = {f"E{q}a{a}": artin_elliptic(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)}
    bases["X2g2"] = catalog_curve("X2g2").spec().level
    cases = [(name, n, ("entry", s, n // 2)) for name in bases for n in (4, 6, 8) for s in range(1, n // 2)]
    cases += [(name, n, ("pole", 3)) for name in bases for n in range(4, 9)]
    cases += [(name, 2, ("first entry",)) for name in bases]
    assert all(_plan_with_one_error(None)(z.Q, 8) == pair_plan(z.Q, 8) for z in bases.values())
    caught, escapes = {"certificate": 0, "validation": 0}, {}
    for name, n, error in cases:
        z = bases[name]
        clean = derive_step(special_values(z), n)
        with monkeypatch.context() as m:
            if error == ("first entry",):
                table = _table_with_one_cofactor_off(None, first_entry_off=True)
                m.setattr(derived_engine, "composition_sums", table)
                m.setattr(invariants_module, "composition_sums", table)
            else:
                m.setattr(derived_engine, "pair_plan", _plan_with_one_error(error))
            sv = special_values(z)
            try:
                derived = sv.step(n)
            except DerivationError as raised:
                caught["certificate" if "do not cancel" in str(raised) else "validation"] += 1
                continue
            assert derived.P != clean.P, (name, n, error)
            try:
                miracle = counting_miracle_check(sv, n).passed
            except DerivationError:  # a sweep cell that reads the miracle records the error
                miracle = False
            checks = {
                "beta_routes": beta_routes_check(sv, n).passed,
                "miracle": miracle,
                "ratio link": step_ratio_checks(sv, n)[0].passed if z.genus == 1 else True,
            }
            escapes[name, n, error] = {check for check, passed in checks.items() if not passed}
    assert len(cases) == 372 and caught == {"certificate": 0, "validation": 340}
    first_entry = {(name, 2, ("first entry",)): {"beta_routes", "miracle", "ratio link"} for name in bases}
    first_entry["X2g2", 2, ("first entry",)] = {"beta_routes", "miracle"}
    assert escapes == {("E2a0", 6, ("entry", 1, 3)): {"miracle", "ratio link"}, **first_entry}


# -- counting miracle ---------------------------------------------------------------


def _miracle(z, n):
    return counting_miracle_check(special_values(z), n)


def test_miracle_elliptic_n1_n2():
    z = artin_elliptic(2, 0)
    assert _miracle(z, 1).passed
    assert _miracle(z, 2).passed
    # g = 1 kills the q-power prefactor: alpha0 at (2) equals beta at (1)
    assert derive_step(special_values(z), 2).P[0] == 3


def test_miracle_at_depth():
    z2 = derive_step(special_values(artin_elliptic(2, 0)), 2)
    assert _miracle(z2, 1).passed
    assert _miracle(z2, 2).passed


def test_miracle_genus2_prefactor():
    zg = artin_from_point_counts(2, 2, [3, 5])
    assert _miracle(zg, 1).passed
    assert _miracle(zg, 2).passed
    # n = 1, g = 2: alpha0 at (2) picks up q^(g-1) = 2 on alpha0 * beta = 5
    assert derive_step(special_values(zg), 2).P[0] == 10


# -- interlacing polynomial -----------------------------------------------------------


def _tail_sum(sv, n):
    """The plain positive-weight sum over the compositions of n: (-1)^(n-1) times the constant term."""
    return sum(positive_weight(k, sv) for k in compositions(n))


def test_interlacing_n1_constant():
    sv = special_values(artin_elliptic(2, 0))
    poly = interlacing_poly(sv, 1)
    assert poly == Poly([3])
    check, signs = interlacing_sign_check(sv, 1)
    assert check.passed and signs == (1,) == tuple(interlacing_signs(poly, sv.Q, 1))


def test_interlacing_n2_shape_and_signs():
    sv = special_values(artin_elliptic(2, 0))
    poly = interlacing_poly(sv, 2)
    # v2*(QT-1) + v1^2/(Q^2-1)*(Q^2 T-1) = 9(2T-1) + 3(4T-1) = 30T - 12
    assert poly == Poly([-12, 30])
    assert poly.degree == 1
    assert interlacing_signs(poly, sv.Q, 2) == [1, -1]
    assert -poly[0] == _tail_sum(sv, 2)
    # the single root 2/5 lies inside (Q^-2, Q^-1) = (1/4, 1/2)
    root = Fraction(12, 30)
    assert Fraction(1, 4) < root < Fraction(1, 2)


def test_interlacing_alternation_deeper():
    sv = special_values(artin_elliptic(2, 0))
    for n in (3, 4, 5):
        poly = interlacing_poly(sv, n)
        assert poly.degree == n - 1
        assert interlacing_signs(poly, sv.Q, n) == [(-1) ** (k + 1) for k in range(1, n + 1)]
        check, signs = interlacing_sign_check(sv, n)
        assert check.passed and list(signs) == interlacing_signs(poly, sv.Q, n)
        assert (-1) ** (n - 1) * poly[0] == _tail_sum(sv, n)


def test_interlacing_defining_identity():
    # gamma equals the tail sum times the clearing product, as rational functions
    sv = special_values(artin_elliptic(3, -2))
    clearing = RingPoly([1])
    for ell in range(1, 5):
        clearing = clearing * RingPoly([-1, Fraction(3) ** ell])
    assert (interlacing_tail(sv, 4) * clearing).to_poly() == interlacing_poly(sv, 4)


def _sign_route_bases():
    """The Hasse grid q <= 5, X2g2, and every genus-2 (1, a1, a2, q a1, q^2), |a1| <= 8, |a2| <= 12, over F_2 and F_3."""
    specs = [CurveSpec(label=f"e_q{q}_a{a}", q=q, genus=1, trace=a) for q in (2, 3, 4, 5) for a in hasse_traces(q)]
    specs.append(catalog_curve("X2g2").spec())
    for q in (2, 3):
        for a1 in range(-8, 9):
            for a2 in range(-12, 13):
                try:
                    specs.append(CurveSpec(label=f"g2_q{q}_{a1}_{a2}", q=q, genus=2, numerator=[1, a1, a2, q * a1, q * q]))
                except ValueError:  # P(1) is no class number, or vanishes
                    pass
    return specs


def _polynomial_route(sv, n):
    """(passed, signs) by the cleared polynomial: its Horner signs at Q^-kappa alternate from +, and its degree is n - 1."""
    poly = interlacing_poly(sv, n)
    signs = interlacing_signs(poly, sv.Q, n)
    alternating = all(s == (-1) ** (kappa + 1) for kappa, s in enumerate(signs, start=1))
    return alternating and poly.degree == n - 1, signs


def test_interlacing_signs_are_the_polynomials_horner_signs():
    # the check reads sign(W_kappa) (-1)^(kappa+1) off row n; the second route evaluates the polynomial
    specs = _sign_route_bases()
    assert len(specs) == 553
    cases = 0
    for spec in specs:
        for prefix in ((), (2,)):
            z = derive_step(special_values(spec.level), 2) if prefix else spec.level
            sv = special_values(z)
            for n in range(1, 8):
                check, signs = interlacing_sign_check(sv, n)
                assert (check.passed, list(signs)) == _polynomial_route(sv, n), (spec.label, prefix, n)
                cases += 1
    assert cases == 7742


def test_interlacing_routes_agree_on_every_sign_flip_of_the_special_values():
    # zeta_hat(k) = vhat(k) / vhat(k-1), so flipping zeta_hat(k) flips vhat(j) for every j >= k
    cases = failed = 0
    for z in (artin_elliptic(2, 1), artin_elliptic(3, -2), catalog_curve("X2g2").spec().level):
        sv = special_values(z)
        sv.grow(6)
        for flips in range(64):
            vhats, sign = [sv.vhats[0]], 1
            for k, (num, den) in enumerate(sv.vhats[1:], start=1):
                sign = -sign if flips >> (k - 1) & 1 else sign
                vhats.append((sign * num, den))
            planted = special_values(z)
            planted.grow(6)
            planted.vhats[:] = vhats  # written into the set before any table row is read
            for n in range(1, 7):
                check, signs = interlacing_sign_check(planted, n)
                assert (check.passed, list(signs)) == _polynomial_route(planted, n), (z.Q, flips, n)
                cases += 1
                failed += not check.passed
    assert (cases, failed) == (1152, 832)


# the steps of the acceptance tuples (1), (2), (3), (4), (2,2), (2,3), (3,2), (2,2,2), as (prefix, n)
ACCEPTANCE_STEPS = ((), 1), ((), 2), ((), 3), ((), 4), ((2,), 2), ((2,), 3), ((3,), 2), ((2, 2), 2)


def test_interlacing_holds_on_every_step_from_a_positive_prefix():
    """The interlacing theorem the ``invariants`` docstring states, on the Hasse grid q <= 5 and X2g2.

    Each W_p of row n of the positive table is a sum of positive terms when
    vhat(1..n) are positive, and a prefix with positive invariants has them:
    beta and, with S's coefficients positive, every Z(Q^-k), k >= 2, are
    positive.  So every step the sweep checks passes, and there interlacing
    can fail only through a fault in the positive table.
    """
    specs = [CurveSpec(label=f"e_q{q}_a{a}", q=q, genus=1, trace=a) for q in (2, 3, 4, 5) for a in hasse_traces(q)]
    specs.append(catalog_curve("X2g2").spec())
    cases = 0
    for spec in specs:
        tower = curve_tower(spec)
        for prefix, n in ACCEPTANCE_STEPS:
            if not tower.invariants(prefix).positivity():
                continue
            sv = special_values(tower.level(prefix))
            sv.grow(n)
            assert all(num > 0 for num, _ in sv.vhats[1 : n + 1]), (spec.label, prefix, n)
            check, signs = interlacing_sign_check(sv, n)
            assert check.passed and signs == tuple((-1) ** (k + 1) for k in range(1, n + 1)), (spec.label, prefix, n)
            cases += 1
    assert cases == 248


def test_interlacing_fails_off_its_hypothesis_and_the_sweep_skips_it_there():
    # a base whose invariants are not positive: vhat(2) < 0, and the signs stop alternating from n = 2 on
    spec = CurveSpec(label="control", q=2, genus=2, numerator=[1, -100, 300, -200, 4])
    assert not extract_invariants(spec.level).positivity()
    sv = special_values(spec.level)
    sv.grow(2)
    assert sv.vhats[2][0] < 0
    assert interlacing_sign_check(sv, 2)[1] == (1, 1)
    assert [interlacing_sign_check(sv, n)[0].passed for n in range(1, 6)] == [True, False, False, False, False]
    report = sweep(SweepConfig(curves=(spec,), tuples=((2,), (3,), (4,), (5,)), checks=("interlacing",)))
    assert [cell["checks"] for cell in report["cells"]] == [{"interlacing": "skipped"}] * 4


# -- reports -----------------------------------------------------------------------


def test_positivity_flag():
    assert extract_invariants(artin_elliptic(2, 2)).positivity()


def test_invariant_report_schema():
    # the values one level's report carries; the JSON record itself is built
    # by the invariants command and pinned in test_cli
    z = artin_elliptic(2, 0)
    z2 = derive_step(special_values(z), 2)
    inv = extract_invariants(z2)
    assert list(z2.steps) == [2]
    assert rat_str(z2.Q) == "4"
    alphas, beta = invariant_values(inv, z2.Q)
    assert [rat_str(a) for a in alphas] == ["3"]
    assert rat_str(beta) == "6"
    assert inv.positivity() is True
    assert interlacing_signs(interlacing_poly(special_values(z), 2), z.Q, 2) == [1, -1]


def test_miracle_accepts_the_derived_level():
    z = artin_elliptic(3, -1)
    assert counting_miracle_check(special_values(z), 3).passed
    # the check compares the steps its set keeps: a wrong step 4 stored on the set before the check reads it
    # is the one compared, and nothing is derived in its place
    sv = special_values(z)
    following = sv.step(4)
    sv.derived[4] = replace(following, P=ring(following.P) * 2)
    planted = counting_miracle_check(sv, 3)
    assert not planted.passed and "expected" in planted.detail
    assert sv.derived[4].P != following.P


def _fraction_miracle(prev, derived, following):
    """(passed, failure detail) of the counting miracle in Fractions: the parent form of the check."""
    n = derived.steps[-1]
    expected = prev.Q ** (n * (prev.genus - 1)) * prev.P[0] * Fraction(*derived.residue_pair())
    return following.P[0] == expected, f"alpha0(step {n + 1}) = {rat_str(following.P[0])}, expected {rat_str(expected)}"


def test_miracle_matches_its_fraction_form():
    # the numerator 1 + T/2 + 2T^2 over F_2 has content 1/2, so its levels' contents have denominators;
    # each following level is taken as derived and scaled off by 2, -1/3 and 1 + 1/A_0
    specs = [
        CurveSpec(label="h", q=2, genus=1, numerator=(1, "1/2", 2)),
        CurveSpec(label="e", q=3, genus=1, trace=-2),
        CurveSpec(label="g2", q=2, genus=2, point_counts=(3, 5)),
        CurveSpec(label="g2h", q=3, genus=2, numerator=(1, "1/3", "5/2", 1, 9)),
    ]
    failed = 0
    for spec in specs:
        tower = curve_tower(spec)
        for prefix in ((), (2,)):
            prev = tower.level(prefix)
            for n in (1, 2, 3):
                derived, following = tower.level(prefix + (n,)), tower.level(prefix + (n + 1,))
                a0 = following.P[0]
                for scale in (1, 2, Fraction(-1, 3), 1 + 1 / a0):
                    shifted = replace(following, P=ring(following.P) * scale)
                    sv = special_values(prev)
                    sv.derived.update({n: derived, n + 1: shifted})  # the steps the check reads, as kept
                    check = counting_miracle_check(sv, n)
                    passed, detail = _fraction_miracle(prev, derived, shifted)
                    assert check.passed == passed, (spec.label, prefix, n, scale)
                    assert check.detail == ("" if passed else detail)
                    failed += not passed
    assert failed == 3 * 2 * 3 * len(specs)


def test_reconstruction_check_survives_python_O():
    # an assert would be stripped under -O; the explicit raise must still fire
    code = (
        "import zetatower.invariants as inv\n"
        "from zetatower.curves import artin_elliptic\n"
        "inv.reconstruct_numerator = lambda *args: [7]\n"
        "try:\n"
        "    inv.extract_invariants(artin_elliptic(2, 0))\n"
        "except inv.ReconstructionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(invariants_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
