"""The polynomial-cost engine against the composition-by-composition RatFunc route.

``ratfunc_oracle`` sums every composition as a rational function and lets gcd
reduction cancel the interior poles; the engine evaluates composition sums by
dynamic programming, certifies the cancellation by residues and reads the new
numerator off Taylor coefficients at T = 0.
The two must produce identical numerators and interlacing polynomials.
Invariant extraction on the coefficient list must agree with ``Poly``
division, on valid levels and in what it refuses.
"""

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from ratfunc_oracle import (
    RingPoly,
    composition_weight,
    normalized_tower,
    oracle_interlacing_poly,
    oracle_invariants,
    oracle_numerator,
    positive_weight,
    ring,
)
from zetatower.curves import CurveSpec, artin_elliptic, artin_from_point_counts, hasse_traces
from zetatower.derived_engine import composition_sums, compositions, derive_step, derive_tower, special_values
from zetatower.exact_arith import Poly
from zetatower.invariants import extract_invariants, interlacing_poly, invariant_values
from zetatower.rh_lab import SweepConfig, sweep

N_MAX = 8
# Z2g2 has P(1/4) = 0, so vhat(k) = 0 for every k >= 2: no step may divide by a special value
BASES = [(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)] + ["X2g2", "Z2g2"]
# genus 3 carries T^(g-1) and u^(g-1) past g - 1 = 1 in the step's series; derived to n = 1..GENUS3_N_MAX
GENUS3 = ["X2g3", "W2g3"]
GENUS3_N_MAX = 5
Z2G2 = CurveSpec(label="Z2g2", q=2, genus=2, numerator=["1", "-17/2", "22", "-17", "4"])


def _base(key):
    if key == "X2g2":
        return artin_from_point_counts(2, 2, [3, 5])
    if key == "X2g3":
        return artin_from_point_counts(2, 3, [3, 5, 9])
    if key == "W2g3":
        return CurveSpec(label=key, q=2, genus=3, numerator=[1, 1, 2, 3, 4, 4, 8]).level
    if key == "Z2g2":
        return Z2G2.level
    q, a = key
    return artin_elliptic(q, a)


@pytest.mark.parametrize("key", BASES + GENUS3, ids=str)
def test_step_numerators_match_oracle(key):
    z = _base(key)
    for n in range(1, (GENUS3_N_MAX if key in GENUS3 else N_MAX) + 1):
        assert derive_step(special_values(z), n).P == oracle_numerator(z, n), n


@pytest.mark.parametrize("key", BASES, ids=str)
def test_interlacing_matches_oracle(key):
    sv = special_values(_base(key))
    for n in range(1, N_MAX + 1):
        assert interlacing_poly(sv, n) == oracle_interlacing_poly(sv, n), n


def test_a_base_with_a_vanishing_special_value_sweeps_with_no_cell_error():
    """Z2g2's vhat(k), k >= 2, are 0; a certificate that read F(m, s) as E[m+s][s] / vhat(s) would divide by zero.

    The step reads each boundary sum as a dot product of a table row with a
    run's cofactors, so no special value is ever a divisor.
    """
    sv = special_values(Z2G2.level)
    sv.grow(4)
    assert [num for num, _ in sv.vhats[1:]] == [3, 0, 0, 0]
    report = sweep(SweepConfig(curves=(Z2G2,), tuples=((1,), (2,), (3,), (4,), (2, 2))))
    assert report["summary"]["errors"] == 0 and not [cell for cell in report["cells"] if "error" in cell]


def test_oracle_parity_at_a_derived_level():
    z = derive_step(special_values(artin_elliptic(3, 1)), 2)
    for n in range(1, 6):
        assert derive_step(special_values(z), n).P == oracle_numerator(z, n), n


@pytest.mark.parametrize(
    "z",
    [artin_elliptic(2, 0), artin_elliptic(2, 1), artin_elliptic(3, -2), artin_from_point_counts(2, 2, [3, 5])],
    ids=["E2a0", "E2a1", "E3am2", "X2g2"],
)
def test_composition_sums_match_brute_force(z):
    m_max = 10
    sv = special_values(z)
    rows = composition_sums(sv, m_max)
    positive = composition_sums(sv, m_max, positive=True)
    assert rows[0] == positive[0] == ([0], 1)
    for m in range(1, m_max + 1):
        comps = list(compositions(m))
        for (nums, D) in (rows[m], positive[m]):
            assert len(nums) == m + 1 and nums[0] == 0
            assert D > 0 and gcd(D, *nums) == 1
        (nums, D), (pos, pos_D) = rows[m], positive[m]
        for p in range(1, m + 1):
            assert Fraction(nums[p], D) == sum(composition_weight(k, sv) for k in comps if k[-1] == p)
            # reversal keeps the weight, so the first-part sums coincide
            assert Fraction(nums[p], D) == sum(composition_weight(k, sv) for k in comps if k[0] == p)
            assert Fraction(pos[p], pos_D) == sum(positive_weight(k, sv) for k in comps if k[-1] == p)


def _extraction_levels():
    """Levels of genus 1, 2 and 3: bases, derived and normalized levels."""
    bases = [artin_elliptic(q, a) for q, a in ((2, -2), (3, 1), (5, 4))]
    bases += [artin_from_point_counts(2, 2, [3, 5]), artin_from_point_counts(3, 2, [4, 10])]
    bases += [artin_from_point_counts(2, 3, (3, 9, 9)), artin_from_point_counts(3, 3, (5, 11, 29))]
    levels = []
    for z in bases:
        levels += [z] + derive_tower(z, (2, 3)) + normalized_tower(z, (3, 1))
    return levels


def test_extraction_matches_poly_division():
    levels = _extraction_levels()
    assert {z.genus for z in levels} == {1, 2, 3}
    signs = set()
    for z in levels:
        for w in [z, *_sign_variants(z)]:
            inv = extract_invariants(w)
            alphas, beta = oracle_invariants(w)
            assert invariant_values(inv, w.Q) == (alphas, beta), w
            assert inv.positivity() == all(x > 0 for x in (*alphas, beta)), w
            signs.add((min(alphas) > 0, min(alphas) == 0, beta > 0))
    assert signs == {(True, False, True), (False, False, False), (True, False, False), (False, True, True)}


def _sign_variants(z):
    """z negated (every sign flips, the content stays positive), with beta negated and the alphas kept,
    and, from genus 2 on, with alpha(g-1) = 0 and the rest kept."""
    g, Q, P = z.genus, z.Q, ring(z.P)
    variants = [P * -1, P - Poly([0] * g + [2 * (Q - 1) * Fraction(*z.residue_pair())])]
    if g > 1:
        middle = oracle_invariants(z)[0][g - 1]
        variants.append(P - RingPoly([0] * (g - 1) + [middle]) * RingPoly([1, -1]) * RingPoly([1, -Q]))
    return [replace(z, P=v) for v in variants]


def _misshapen(z):
    """z with P of the wrong degree, with no exact quotient and, from genus 2 on, with a quotient that is not palindromic."""
    g, Q, P = z.genus, z.Q, ring(z.P).coeffs
    shapes = [P[:-1], P[:-1] + (P[-1] + 1,)]
    if g > 1:
        S = RingPoly([1] + [0] * (2 * g - 3) + [Q ** (g - 1) + 1])  # S_{2g-2} != Q^(g-1) S_0
        shapes.append((S * RingPoly([1, -(Q + 1), Q]) + RingPoly([0] * g + [5])).coeffs)
    return [replace(z, P=Poly(cs)) for cs in shapes]


def test_extraction_refuses_what_poly_division_refuses():
    levels = [w for z in _extraction_levels()[::3] for w in _misshapen(z)]
    messages = set()
    for z in levels:
        with pytest.raises(ValueError) as oracle:
            oracle_invariants(z)
        with pytest.raises(ValueError) as fast:
            extract_invariants(z)
        assert str(fast.value) == str(oracle.value)
        messages.add(str(fast.value).split(" ")[0])
    assert messages == {"numerator", "level", "interior"}
