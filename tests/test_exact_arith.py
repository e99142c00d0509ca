"""Unit and property tests for the exact arithmetic substrate."""

import copy
import pickle
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from conftest import coeff_lists, rationals
from ratfunc_oracle import (
    PoleError,
    RatFunc,
    derivative,
    rational_gcd,
    rational_squarefree_factors,
    residue_simple_pole,
)
from zetatower.exact_arith import (
    ONE,
    Poly,
    ZERO,
    as_rat,
    interpolate,
    is_self_inversive,
    newton_power_sums,
    over_lcm,
    poly_gcd,
    pseudo_divide,
    real_weil_poly,
    squarefree_factors,
    rat_str,
    series_exp,
)


# -- polynomials -------------------------------------------------------------


def test_poly_difference_of_squares():
    assert Poly([1, 1]) * Poly([1, -1]) == Poly([1, 0, -1])


def test_poly_additive_identity():
    p = Poly([3, Fraction(1, 2), 7])
    assert p + ZERO == p


def test_poly_multiplicative_identity():
    p = Poly([1, 0, 2])
    assert p * ONE == p


def test_poly_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).is_zero()
    assert Poly([0]).degree == float("-inf")


def test_iterating_a_poly_stops_at_its_degree():
    # islice first: an iteration that runs on past the degree must fail here, not hang
    P = Poly([1, 2])
    assert list(islice(iter(P), 10)) == [1, 2]
    assert list(islice(iter(ZERO), 10)) == []
    assert list(P) == [1, 2] and Poly(P) == P
    assert 2 in P and 3 not in P
    with pytest.raises(TypeError):
        poly_gcd(P, P)  # the int API refuses rational coefficients instead of reading zeros forever


def test_poly_divmod_exact():
    num = (1, -3, 2)  # (1-T)(1-2T)
    q, r, m = pseudo_divide(num, (1, -1))
    assert r == [] and m == 1 and q == [1, -2]


def test_pseudo_division_scales_by_the_divisor_lead():
    # 2 (T^2 + 1) = (2T - 1)(T + 1/2) + 5/2, so 4 (T^2 + 1) = (2T + 1)(2T - 1) + 5
    q, r, m = pseudo_divide((1, 0, 1), (-1, 2))
    assert (q, r, m) == ([1, 2], [5], 4)
    with pytest.raises(ZeroDivisionError):
        pseudo_divide((1, 2), ())


def test_gcd_difference_of_squares():
    g = poly_gcd((1, 0, -1), (1, -1))
    assert g == (-1, 1)  # T - 1, primitive with a positive lead


def test_gcd_with_unit():
    assert poly_gcd((5, 1, 3), (1,)) == (1,)


def test_gcd_shared_linear_factor():
    # (1-T)(1-2T) and (1-2T)T share (1-2T); the primitive gcd with a positive lead is 2T - 1
    a = (Poly([1, -1]) * Poly([1, -2])).view[1]
    b = (Poly([1, -2]) * Poly([0, 1])).view[1]
    assert poly_gcd(a, b) == (-1, 2)


def _monic(F) -> Poly:
    """The int coefficients F over their lead."""
    return Poly(Fraction(c, F[-1]) for c in F)


def test_squarefree_factors_by_multiplicity():
    # 3 (T^2 + 1) (T + 2)^2 (T - 1)^3
    P = 3 * Poly([1, 0, 1]) * Poly([2, 1]) ** 2 * Poly([-1, 1]) ** 3
    assert squarefree_factors(P.view[1]) == [((1, 0, 1), 1), ((2, 1), 2), ((-1, 1), 3)]
    # each factor is primitive with a positive lead, whatever the content and sign of the input
    assert squarefree_factors((2, -4, 4)) == squarefree_factors((-2, 4, -4)) == [((1, -2, 2), 1)]
    assert squarefree_factors((0, 0, -6)) == [((0, 1), 2)]


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError, match="gcd undefined"):
        poly_gcd((), ())


# -- rational functions (the test-side oracle) ---------------------------------


def test_ratfunc_reduce_cancels():
    f = RatFunc(Poly([1, 0, -1]), Poly([1, -1]))
    assert f == RatFunc(Poly([1, 1]))
    assert f.is_poly()


def test_ratfunc_zero_canonical():
    f = RatFunc(ZERO, Poly([3, 5]))
    assert f.num == ZERO and f.den == ONE


def test_ratfunc_constant_factor_removed():
    num = Poly([1, -1]) * Poly([1, -2]) * 7
    den = Poly([1, -1]) * 7
    assert RatFunc(num, den) == RatFunc(Poly([1, -2]))


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, ZERO)


def test_scale_var_geometric():
    f = RatFunc(ONE, Poly([1, -1]))
    assert f.scale_var(2) == RatFunc(ONE, Poly([1, -2]))


def test_scale_var_identity():
    f = RatFunc(Poly([0, 1]), Poly([1, 0, -1]))
    assert f.scale_var(1) == f


def test_scale_var_half():
    f = RatFunc(Poly([0, 1]), Poly([1, 0, -1]))
    g = f.scale_var(Fraction(1, 2))
    assert g == RatFunc(Poly([0, Fraction(1, 2)]), Poly([1, 0, Fraction(-1, 4)]))


def test_scale_var_zero_rejected():
    with pytest.raises(ValueError):
        RatFunc(ONE, Poly([1, -1])).scale_var(0)


def test_eval_simple():
    assert RatFunc(Poly([1, 1]), Poly([1, -1]))(0) == 1


def test_eval_pole_raises():
    with pytest.raises(PoleError) as err:
        RatFunc(ONE, Poly([1, -1]))(1)
    assert err.value.point == 1


def test_eval_after_cancellation():
    f = RatFunc(Poly([1, 0, -2]), Poly([1, -1]))
    assert f(Fraction(1, 2)) == 1


def test_residue_examples():
    assert residue_simple_pole(RatFunc(ONE, Poly([1, -1])), 1) == -1
    f = RatFunc(Poly([0, 1]), Poly([1, -1]) * Poly([1, -2]))  # (q-1)T/((1-T)(1-qT)), q=2
    assert residue_simple_pole(f, 1) == 1
    assert residue_simple_pole(RatFunc(Poly([0, 1]), Poly([1, 0, -1])), 1) == Fraction(-1, 2)


def test_residue_error_cases():
    f = RatFunc(ONE, Poly([1, -1]))
    with pytest.raises(ValueError, match="not a pole"):
        residue_simple_pole(f, 2)
    g = RatFunc(ONE, Poly([1, -1]) * Poly([1, -1]))
    with pytest.raises(ValueError, match="not simple"):
        residue_simple_pole(g, 1)


# -- formal series -----------------------------------------------------------


def test_series_exp_of_zero():
    assert series_exp([0, 0, 0]) == [1, 0, 0]


def test_series_exp_of_x():
    e = series_exp([0, 1, 0, 0])
    assert e == [1, 1, Fraction(1, 2), Fraction(1, 6)]


def test_series_exp_log_inverse():
    # exp(sum T^k/k) = geometric series
    g = [0, 1, Fraction(1, 2), Fraction(1, 3)]
    assert series_exp(g) == [1, 1, 1, 1]


def test_series_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        series_exp([1, 1])


# -- serialization helpers ---------------------------------------------------


def test_rat_str_round_trip():
    for x in (Fraction(3), Fraction(-7, 4), Fraction(0)):
        assert as_rat(rat_str(x)) == x


# -- properties --------------------------------------------------------------


@given(coeff_lists(), coeff_lists(), rationals())
def test_scale_var_round_trip(num, den, c):
    assume(any(x != 0 for x in den) and c != 0)
    f = RatFunc(Poly(num), Poly(den))
    assert f.scale_var(c).scale_var(1 / c) == f


@given(coeff_lists(), coeff_lists(), rationals())
def test_reduce_preserves_values(num, den, t):
    assume(any(x != 0 for x in den))
    n, d = Poly(num), Poly(den)
    assume(d(t) != 0)
    assert RatFunc(n, d)(t) == n(t) / d(t)


@given(coeff_lists(max_size=12), coeff_lists(max_size=12))
def test_series_exp_homomorphism(a, b):
    k = 12
    g = [0] + list(a) + [0] * (k - len(a))
    h = [0] + list(b) + [0] * (k - len(b))
    product = Poly(series_exp(g)) * Poly(series_exp(h))
    assert series_exp([x + y for x, y in zip(g, h)]) == [product[i] for i in range(k + 1)]


@given(coeff_lists(max_size=4), coeff_lists(max_size=4), rationals())
def test_residue_matches_coefficient_extraction(pc, qc, t0):
    # f = p / ((T - t0) q) with q(t0) != 0, p(t0) != 0: residue is p(t0)/q(t0),
    # which is exactly ((T - t0) * f)(t0) after the division cancels the pole.
    p, q = Poly(pc), Poly(qc)
    assume(not p.is_zero() and not q.is_zero())
    assume(p(t0) != 0 and q(t0) != 0)
    f = RatFunc(p, Poly([-t0, 1]) * q)
    cancelled = RatFunc(Poly([-t0, 1])) * f
    assert residue_simple_pole(f, t0) == cancelled(t0) == p(t0) / q(t0)


@given(st.lists(rationals(), min_size=1, max_size=5), st.integers(min_value=1, max_value=8))
def test_newton_power_sums_against_brute_force(roots, k_max):
    # elementary symmetric values from the roots, then compare against direct sums
    e = [Fraction(0)] * len(roots)
    prod = Poly([1])
    for r in roots:
        prod = prod * Poly([-r, 1])
    n = len(roots)
    elem = [(-1) ** i * prod[n - i] / prod[n] for i in range(1, n + 1)]
    psums = newton_power_sums(elem, k_max)
    for k in range(1, k_max + 1):
        assert psums[k - 1] == sum(r**k for r in roots)


def test_self_inversive_examples():
    assert is_self_inversive(Poly([1, -1, 2]), 2, 1)
    assert is_self_inversive(Poly([1, 0, 2]) * Poly([1, -2, 2]), 2, 2)
    assert is_self_inversive(Poly([1, -3, 2]), 2, 1)  # (1-T)(1-2T): roots 1 and 1/2 pair up
    assert not is_self_inversive(Poly([1, -3]) ** 2 * Poly([1, 0, 2]), 2, 2)
    assert not is_self_inversive(Poly([1, -1, 3]), 2, 1)
    assert is_self_inversive(Poly([5]), 7, 0)  # an interior part of a genus-1 level


@st.composite
def _self_inversive(draw):
    """(P, Q, g): genus 1..4, rational A_0..A_g with A_0 != 0, A_{2g-i} = Q^(g-i) A_i, Q a positive rational."""
    g = draw(st.integers(min_value=1, max_value=4))
    Q = draw(rationals(max_abs=40, max_den=5).filter(lambda q: q > 0))
    half = [draw(rationals(max_abs=50, max_den=12).filter(bool))]
    half += draw(st.lists(rationals(max_abs=50, max_den=12), min_size=g, max_size=g))
    return Poly(half + [Q ** (g - i) * half[i] for i in range(g - 1, -1, -1)]), Q, g


@given(_self_inversive(), rationals(max_abs=9, max_den=9).filter(bool))
def test_real_weil_poly_is_the_substitution(case, t):
    P, Q, g = case
    assert is_self_inversive(P, Q, g) and P.degree == 2 * g
    R = Poly(real_weil_poly(P, Q, g))
    assert R.degree == g and R.coeffs[-1] == P[0]
    assert P(t) == t**g * R(Q * t + 1 / t)
    # R is linear in P: the primitive ints of the view give R over the content
    c, ints = P.view
    assert Poly(real_weil_poly(ints, Q, g)) * c == R


def test_real_weil_poly_examples():
    # y^2 + y = x^5 over F_2: P = 1 + 4T^4, R = u^2 - 4
    assert real_weil_poly(Poly([1, 0, 0, 0, 4]), 2, 2) == [-4, 0, 1]
    # (1 - 2T^2)^2: R = u^2 - 8 has the simple roots +-2 sqrt 2 where P has its double roots
    assert real_weil_poly(Poly([1, 0, -2]) ** 2, 2, 2) == [-8, 0, 1]
    # genus 1: A_0 (1 - A T + Q T^2) gives A_0 (u - A)
    assert real_weil_poly(Poly([3, -6, 15]), 5, 1) == [-6, 3]
    # (1 + 2T^2)^3: R = u^3, a triple root at the centre of [-2 sqrt 2, 2 sqrt 2]
    assert real_weil_poly(Poly([1, 0, 6, 0, 12, 0, 8]), 2, 3) == [0, 0, 0, 1]
    # int coefficients and an int Q give int coefficients
    R = real_weil_poly((1, 0, 6, 0, 12, 0, 8), 2, 3)
    assert R == [0, 0, 0, 1] and all(type(c) is int for c in R)


@pytest.mark.parametrize("P", [ZERO, ONE, Poly([1, 2]), Poly([Fraction(-3, 4), 0, 2**300])])
def test_poly_pickles_and_copies_with_its_view(P):
    for twin in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
        assert type(twin) is Poly and twin == P and twin.view == P.view


@given(coeff_lists(max_size=3), coeff_lists(max_size=3), coeff_lists(max_size=3))
def test_squarefree_factors_rebuild_the_polynomial(a, b, c):
    P = Poly(a) * Poly(b) ** 2 * Poly(c) ** 3
    assume(P.degree > 0)
    factors = squarefree_factors(P.view[1])
    rebuilt = Poly([P.coeffs[-1]])
    for F, m in factors:
        assert len(F) > 1 and F[-1] > 0 and gcd(*F) == 1
        assert poly_gcd(F, derivative(Poly(F)).view[1]) == (1,)
        rebuilt = rebuilt * _monic(F) ** m
    assert rebuilt == P
    assert len({m for _, m in factors}) == len(factors)


def _factor_products():
    """(factors, c): c times one to three rational factors of degree 1 or 2, each with a multiplicity 1 to 3."""
    factor = st.lists(rationals(), min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0)
    return st.lists(st.tuples(factor, st.integers(1, 3)), min_size=1, max_size=3), rationals().filter(bool)


@given(*_factor_products(), coeff_lists(max_size=3))
def test_integer_gcd_and_split_match_the_rational_route(factors, c, extra):
    P, shared = Poly([c]), Poly(extra) if any(extra) else ONE
    for i, (cs, m) in enumerate(factors):
        P = P * Poly(cs) ** m
        if i % 2 == 0:
            shared = shared * Poly(cs) ** (m % 2 + 1)
    for a, b in ((P, derivative(P)), (P, shared)):
        g = poly_gcd(a.view[1], b.view[1])
        assert g[-1] > 0 and _monic(g) == rational_gcd(a, b)
    assert [(_monic(F), m) for F, m in squarefree_factors(P.view[1])] == rational_squarefree_factors(P)


# -- integer sums, evaluation and interpolation -----------------------------------


def _horner(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@given(coeff_lists(max_size=7), rationals(max_abs=50, max_den=40))
def test_poly_evaluation_matches_fraction_horner(coeffs, t):
    assert Poly(coeffs)(t) == _horner(coeffs, t)


@given(coeff_lists(max_size=7), rationals(max_abs=50, max_den=40))
def test_poly_evaluation_matches_the_fraction_power_sum(coeffs, t):
    P = Poly(coeffs)
    c, ints = P.view
    assert c > 0 and tuple(c * x for x in ints) == P.coeffs
    assert P(t) == sum((a * t**i for i, a in enumerate(coeffs)), Fraction(0))


def test_over_lcm_puts_the_fractions_over_the_lcm():
    scaled, L = over_lcm([(1, 4), (-1, 6), (5, 1)])
    assert L == 12 and scaled == [3, -2, 60]
    assert Fraction(sum(scaled), L) == Fraction(1, 4) - Fraction(1, 6) + 5
    assert over_lcm([]) == ([], 1)


def _pair(x: Fraction) -> tuple:
    return x.numerator, x.denominator


@given(coeff_lists(max_size=6), st.lists(st.integers(-40, 40), min_size=6, max_size=9, unique=True))
def test_interpolate_round_trip_at_integer_nodes(coeffs, nodes):
    P = Poly(coeffs)
    assert interpolate(nodes, [_pair(P(x)) for x in nodes]) == P


@given(st.lists(st.fractions(max_denominator=2**64), min_size=1, max_size=6), st.booleans())
def test_interpolate_round_trip_at_huge_powers(coeffs, negate):
    # nodes Q^j with Q = 2^500, the shape of the tower step's nodes at a deep level
    Q = -(2**500) if negate else 2**500
    P = Poly(coeffs)
    nodes = [Q**j for j in range(1, len(coeffs) + 1)]
    assert interpolate(nodes, [_pair(P(x)) for x in nodes]) == P


def test_interpolate_examples():
    assert interpolate([1, 2, 3], [(1, 1), (4, 1), (9, 1)]) == Poly([0, 0, 1])
    # values as unreduced pairs, a denominator negative: 1, 2 and 9/2 at T = 0, 1, -1
    assert interpolate([0, 1, -1], [(2, 2), (-6, -3), (18, 4)]) == Poly([1, Fraction(-5, 4), Fraction(9, 4)])
    assert interpolate([], []) == ZERO


@pytest.mark.parametrize("xs", [[1, 1], [2, 3, 2], [-2**500, 2**500, -2**500]])
def test_interpolate_rejects_duplicate_nodes(xs):
    with pytest.raises(ValueError, match="distinct"):
        interpolate(xs, [(y, 1) for y in range(len(xs))])
