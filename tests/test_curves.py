"""Tests for base-level zeta construction, validation, and point counting."""

import copy
import itertools
import json
import pickle
import time
from dataclasses import fields as dataclass_fields, replace
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import rationals
from ratfunc_oracle import (
    RatFunc,
    RingPoly,
    newton_power_sums,
    residue_simple_pole,
    ring,
    series_exp,
    standard_denominator,
    to_ratfunc,
)
from zetatower import curves
from zetatower.curves import (
    CATALOG,
    CurveSpec,
    PlaneModel,
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    artin_zeta,
    catalog_curve,
    count_points_bruteforce,
    hasse_traces,
    load_curves,
    point_counts_from_numerator,
    prime_power_split,
    validate_zeta_level,
)
from zetatower.derived_engine import derive_step, normalize_level, special_values
from zetatower.exact_arith import Poly


def _passed(results):
    return {r.name: r.passed for r in results}


# -- point counting ----------------------------------------------------------


def test_count_cubic_f2():
    model = CATALOG["E2a0"].model
    assert count_points_bruteforce(model, 2, 1) == 3
    assert count_points_bruteforce(model, 2, 2) == 9


def test_count_quintic_genus2():
    model = CATALOG["X2g2"].model
    assert count_points_bruteforce(model, 2, 1) == 3
    assert count_points_bruteforce(model, 2, 2) == 5


def test_count_over_prime_power_base():
    # y^2 + y = x^3 over F_4 is the base change of the F_2 curve
    model = CATALOG["E4am4"].model
    assert count_points_bruteforce(model, 4, 1) == count_points_bruteforce(
        CATALOG["E2a0"].model, 2, 2
    )


def test_count_enumeration_cap():
    with pytest.raises(ValueError, match="enumeration bound"):
        count_points_bruteforce(CATALOG["E2a0"].model, 2, 25)


def _irreducible_by_trial_division(poly: tuple, p: int) -> bool:
    """No root in GF(p) and no monic factor of degree 2..d//2, by long division."""
    if any(sum(c * x**i for i, c in enumerate(poly)) % p == 0 for x in range(p)):
        return False
    for deg in range(2, (len(poly) - 1) // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor, rem = tail + (1,), list(poly)
            while len(rem) > deg:
                c, shift = rem.pop(), len(rem) - deg
                for j, dc in enumerate(divisor[:-1]):
                    rem[shift + j] = (rem[shift + j] - c * dc) % p
            if not any(rem):
                return False
    return True


def _trial_division_modulus(p: int, d: int) -> tuple:
    """The first monic irreducible of degree d over GF(p) by a root test and trial division, the search's reference."""
    if d == 1:
        return (0, 1)
    candidates = (tail + (1,) for tail in itertools.product(range(p), repeat=d) if tail[0])
    return next(poly for poly in candidates if _irreducible_by_trial_division(poly, p))


def test_the_field_modulus_is_the_trial_division_one():
    # every field with p <= 13 and p^d <= 2^12: the modulus fixes the field's element tuples, so every count
    fields = [(p, d) for p in (2, 3, 5, 7, 11, 13) for d in range(1, 13) if p**d <= 2**12]
    assert len(fields) == 34
    for p, d in fields:
        assert curves._find_irreducible(p, d) == _trial_division_modulus(p, d), (p, d)


def test_count_rejects_unknown_equation():
    with pytest.raises(ValueError, match="unsupported equation"):
        count_points_bruteforce("y^2 = x^3", 2, 1)


def test_prime_power_split():
    assert prime_power_split(4) == (2, 2)
    assert prime_power_split(5) == (5, 1)
    # 561 is a Carmichael number; 3825123056546413051 is a strong pseudoprime to the bases 2..23;
    # 3 (2^89 - 1) lies above the Miller-Rabin bound, where primality is not decided
    for q in (6, 12, 36, 2**3 * 3**3, (2**31 - 1) * 2, 561, 3825123056546413051, 3 * (2**89 - 1)):
        with pytest.raises(ValueError):
            prime_power_split(q)


@pytest.mark.parametrize(
    "q, split",
    [
        (2**31 - 1, (2**31 - 1, 1)),
        ((2**31 - 1) ** 2, (2**31 - 1, 2)),
        (2**61 - 1, (2**61 - 1, 1)),
        ((2**61 - 1) ** 2, (2**61 - 1, 2)),
    ],
)
def test_prime_power_split_of_a_large_prime_is_fast(q, split):
    # Miller-Rabin, not trial division up to sqrt(p): about 1.5e9 candidates for 2^61 - 1
    start = time.perf_counter()
    assert prime_power_split(q) == split
    assert time.perf_counter() - start < 1.0


def test_prime_power_split_refuses_a_prime_above_the_miller_rabin_bound():
    # trial division up to sqrt(2^89 - 1) did not finish in minutes; the refusal is immediate
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MILLER_RABIN_BOUND"):
        prime_power_split(2**89 - 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("k", [3000, 6000])
def test_prime_power_split_refuses_a_huge_non_prime_power_quickly(k):
    # one Newton root per exponent took 10 s at 10^3000 + 1 and 101 s at 10^6000 + 1;
    # the residue filter leaves q itself, whose primality is not decided
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MILLER_RABIN_BOUND"):
        prime_power_split(10**k + 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "p, d",
    [(2, 20011), (3, 5000), (2**61 - 1, 3), (101, 7), (2, 2**4 * 3**2), (7, 2 * 3 * 5 * 7)],
)
def test_prime_power_split_takes_the_largest_exponent(p, d):
    # roots of prime exponent are taken in turn, the same exponent again where it applies;
    # a refusal names a q past Python's 4300 decimal digits by its bit length
    assert prime_power_split(p**d) == (p, d)
    with pytest.raises(ValueError, match="q must be a prime power, got (a [0-9]+-bit number|[0-9]+)$"):
        prime_power_split(6**d)


def test_prime_power_split_matches_trial_division():
    def by_trial_division(q):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        d = 0
        while q % p == 0:
            q //= p
            d += 1
        return (p, d) if q == 1 else None

    for q in range(2, 2000):
        try:
            split = prime_power_split(q)
        except ValueError:
            split = None
        assert split == by_trial_division(q), q


def test_hasse_traces():
    assert hasse_traces(2) == [-2, -1, 0, 1, 2]
    assert hasse_traces(4) == list(range(-4, 5))


def test_hasse_traces_match_counting_up():
    for q in range(2000):
        a = 0
        while (a + 1) * (a + 1) <= 4 * q:
            a += 1
        assert hasse_traces(q) == list(range(-a, a + 1)), q


# -- building the base zeta ---------------------------------------------------


def test_artin_elliptic_trace_zero():
    z = artin_elliptic(2, 0)
    assert z.P == Poly([1, 0, 2])
    assert to_ratfunc(z) == RatFunc(Poly([1, 0, 2]), RingPoly([1, -1]) * RingPoly([1, -2]))


def test_artin_elliptic_q3_a3():
    z = artin_elliptic(3, 3)
    assert z.P == Poly([1, -3, 3])
    assert 3 * 3 <= 4 * 3  # admissible


def test_artin_elliptic_hasse_rejected():
    with pytest.raises(ValueError, match="Hasse"):
        artin_elliptic(2, 4)


def test_artin_from_counts_matches_trace_form():
    assert artin_from_point_counts(2, 1, [3]).P == Poly([1, 0, 2])
    assert artin_from_point_counts(2, 1, [5]).P == Poly([1, 2, 2])


def _exp_series_oracle(log_coeffs, order):
    """Brute-force exp: sum of powers over factorials, independent of series_exp."""
    g = RingPoly([0] + list(log_coeffs))
    acc, term, fact = RingPoly([1]), RingPoly([1]), 1
    for j in range(1, order + 1):
        term = term * g
        fact *= j
        acc = acc + term * Fraction(1, fact)
    return [acc[i] for i in range(order + 1)]


def test_artin_from_counts_genus2_against_series_oracle():
    z = artin_from_point_counts(2, 2, [3, 5])
    P = z.P
    expanded = _exp_series_oracle([3, Fraction(5, 2)], 2)
    lower = RingPoly(expanded[:3]) * RingPoly([1, -3, 2])
    assert [P[i] for i in range(3)] == [lower[i] for i in range(3)]
    # reflection gives the upper half
    assert P[3] == 2 * P[1] and P[4] == 4 * P[0]
    assert P == Poly([1, 0, 0, 0, 4])


def test_artin_from_counts_rejects_inconsistent_extras():
    with pytest.raises(ValueError, match="inconsistent"):
        artin_from_point_counts(2, 1, [3, 10])
    # the true N_2 = 9 is accepted
    artin_from_point_counts(2, 1, [3, 9])


@st.composite
def _counts(draw):
    """(q, g, counts): N_k within one past Weil's bound |q^k + 1 - N_k| <= 2g q^(k/2), so some are negative."""
    q, g = draw(st.sampled_from([2, 3, 4, 5])), draw(st.integers(min_value=1, max_value=3))
    counts = []
    for k in range(1, g + 1):
        reach = isqrt(4 * g * g * q**k) + 1
        counts.append(q**k + 1 + draw(st.integers(min_value=-reach, max_value=reach)))
    return q, g, counts


@given(_counts())
def test_point_counts_give_the_ring_product(case):
    # the truncated product on a plain list is the oracle's ring product of the exp series and (1-T)(1-qT);
    # counts are refused exactly when they are negative, break Weil's bound, or give P(1) <= 0 or a non-integer A_i
    q, g, counts = case
    series = series_exp([0] + [Fraction(n, k) for k, n in enumerate(counts, start=1)])
    lower = RingPoly(series) * RingPoly([1, -1]) * RingPoly([1, -q])
    half = [lower[i] for i in range(g + 1)]
    P = RingPoly(half + [q ** (g - i) * half[i] for i in range(g - 1, -1, -1)])
    weil = all(n >= 0 and (q**k + 1 - n) ** 2 <= 4 * g * g * q**k for k, n in enumerate(counts, start=1))
    fractional = [i for i, a in enumerate(half) if a.denominator != 1]
    if weil and P(1) > 0 and not fractional:
        z = artin_from_point_counts(q, g, counts)
        assert z.P.view == P.view and pickle.dumps(z.P) == pickle.dumps(P)
        return
    with pytest.raises(ValueError) as refused:
        artin_from_point_counts(q, g, counts)
    if weil and P(1) > 0:
        assert str(refused.value).startswith(f"A_{fractional[0]} = {half[fractional[0]]} is not an integer")


def test_numerator_endpoints():
    for q, g, counts in [(2, 1, [3]), (3, 1, [7]), (2, 2, [3, 5]), (2, 3, [3, 9, 9])]:
        P = artin_from_point_counts(q, g, counts).P
        assert P[0] == 1 and P[2 * g] == Fraction(q) ** g


def test_genus1_trace_count_round_trip():
    for q in (2, 3, 5):
        for a in hasse_traces(q):
            z = artin_elliptic(q, a)
            assert z.P[1] == -a  # A_1 = -(q + 1 - N_1)
            n1 = q + 1 - a
            assert artin_from_point_counts(q, 1, [n1]).P == z.P


# -- validation ---------------------------------------------------------------


def test_validate_artin_all_pass():
    results = validate_zeta_level(artin_elliptic(2, 0))
    assert all(r.passed for r in results)


def test_validate_catches_tampered_numerator():
    # genus 1: the only pinned coefficients are the endpoints (A_2 = q A_0)
    z = artin_elliptic(2, 0)
    tampered = ZetaLevel(steps=(), Q=z.Q, genus=1, P=Poly([1, 0, 3]))
    assert not _passed(validate_zeta_level(tampered))["functional_equation"]
    # genus 2: tampering A_1 breaks A_3 = q A_1
    zg = artin_from_point_counts(2, 2, [3, 5])
    bad = ring(zg.P) + Poly([0, 1])
    tampered2 = ZetaLevel(steps=(), Q=zg.Q, genus=2, P=bad)
    assert not _passed(validate_zeta_level(tampered2))["functional_equation"]


def test_validate_residue_relation():
    z = artin_elliptic(2, 0)
    assert residue_simple_pole(to_ratfunc(z), 1) == 3 == Fraction(*z.residue_pair())
    assert residue_simple_pole(to_ratfunc(z), Fraction(1, 2)) == Fraction(-3, 2)
    status = _passed(validate_zeta_level(z))
    assert status["residue_antisymmetry"]


def test_validate_planted_numerator_without_poles():
    # P = (1-T)(1-2T) cancels both poles: the zeta is the constant 1
    z = ZetaLevel(steps=(), Q=2, genus=1, P=Poly([1, -3, 2]))
    assert to_ratfunc(z) == RatFunc(1)
    assert _passed(validate_zeta_level(z)) == {
        "functional_equation": True,
        "residue_antisymmetry": False,
        "numerator_degree": True,
        "base_residue_positive": False,
    }


def _ratfunc_verdicts(z):
    """The checks of validate_zeta_level, computed on the reduced rational function."""
    zeta = to_ratfunc(z)

    def residue(t0):
        try:
            return residue_simple_pole(zeta, t0)
        except ValueError:  # not a pole
            return None

    res1, res_q = residue(1), residue(Fraction(1, z.Q))
    antisymmetric = res1 is not None and res_q is not None and res1 == -z.Q * res_q
    verdicts = {
        "functional_equation": zeta.subst_reciprocal(Fraction(1, z.Q)) == zeta,
        "residue_antisymmetry": antisymmetric,
        "numerator_degree": (zeta * RatFunc(standard_denominator(z.Q, z.genus))).to_poly().degree == 2 * z.genus,
    }
    if not z.steps:
        verdicts["base_residue_positive"] = res1 is not None and res1 > 0
    return verdicts


@given(
    st.sampled_from([2, 3, 4]),
    st.integers(min_value=1, max_value=2),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=6, max_size=6),
    st.booleans(),
    st.booleans(),
)
def test_coefficient_checks_match_the_ratfunc_route(q, g, coeffs, symmetric, base):
    # coeffs[2g+1] is an extra coefficient above degree 2g, usually zero after the slice
    coeffs = coeffs[: 2 * g + 2]
    if symmetric:
        coeffs[g + 1 : 2 * g + 1] = [q ** (g - i) * coeffs[i] for i in range(g - 1, -1, -1)]
    z = ZetaLevel(steps=() if base else (2,), Q=q, genus=g, P=Poly(coeffs))
    assert _passed(validate_zeta_level(z)) == _ratfunc_verdicts(z)


# -- the integer view of P ------------------------------------------------------


def _at(P, t):
    """P(t) as a sum of Fraction powers, the formula the integer view replaces."""
    return sum((c * t**i for i, c in enumerate(ring(P).coeffs)), Fraction(0))


def _view_matches(P, coeffs):
    """Whether P's view is a positive content times coprime ints that give the Fraction coefficients coeffs."""
    c, ints = P.view
    return c > 0 and gcd(*ints) in (0, 1) and tuple(c * x for x in ints) == tuple(coeffs)


@st.composite
def _levels(draw):
    """Genus 1..3, rational P, integer Q; now and then P is shifted to vanish at 1 or at 1/Q.

    P is the oracle's ``RingPoly``, so its ``coeffs`` are the Fractions it was built from.
    """
    g = draw(st.integers(min_value=1, max_value=3))
    Q = draw(st.integers(min_value=2, max_value=64))
    P = RingPoly(draw(st.lists(rationals(max_abs=50, max_den=12), min_size=2 * g + 1, max_size=2 * g + 1)))
    root = draw(st.sampled_from([None, Fraction(1), Fraction(1, Q)]))
    if root is not None:
        P = P - RingPoly([_at(P, root)])
    return ZetaLevel(steps=draw(st.sampled_from([(), (2,)])), Q=Q, genus=g, P=P)


@given(_levels(), st.integers(min_value=1, max_value=4), rationals(max_abs=9, max_den=9))
def test_view_matches_the_fraction_formulas(z, k, t):
    P, Q, g = z.P, z.Q, z.genus
    assert _view_matches(P, P.coeffs)
    (N, D), (M, E) = z.residue_pair(), z.residue_inv_q_pair()
    assert D > 0 and E > 0 and all(type(x) is int for x in (N, D, M, E))
    assert Fraction(N, D) == _at(P, 1) / (Q - 1)
    assert Fraction(M, E) == -_at(P, Fraction(1, Q)) * Q ** (g - 1) / (Q - 1)
    poles = {Fraction(1), Fraction(1, Q)} | ({Fraction(0)} if g > 1 else set())
    for x in {Q**k, Fraction(1, Q**k), t} - poles:
        assert Fraction(*z.value_pair(x.numerator, x.denominator)) == _at(P, x) / ((1 - x) * (1 - Q * x) * x ** (g - 1))


@given(_levels(), st.integers(min_value=1, max_value=6))
def test_special_values_are_the_reduced_fraction_products(z, n):
    P, Q, g = z.P, z.Q, z.genus
    values = [_at(P, 1) / (Q - 1)]  # the residue at T = 1
    for k in range(2, n + 1):
        t = Fraction(1, Q**k)
        values.append(_at(P, t) / ((1 - t) * (1 - Q * t) * t ** (g - 1)))
    vhat, expected = Fraction(1), [(1, 1)]
    for v in values:
        vhat *= v
        expected.append((vhat.numerator, vhat.denominator))  # reduced, positive denominator
    sv = special_values(z)
    assert sv.vhats == [(1, 1)]  # nothing is computed before it is read
    sv.grow(n)
    assert sv.Q == Q and sv.level is z and sv.vhats == expected
    assert all(type(x) is int for pair in sv.vhats for x in pair)


@given(_levels())
def test_view_detects_a_zero_of_P_at_either_pole(z):
    zeros = [t for t in (Fraction(1), Fraction(1, z.Q)) if _at(z.P, t) == 0]
    checks = {r.name: r for r in validate_zeta_level(z)}
    residues = checks["residue_antisymmetry"]
    if zeros:
        assert not residues.passed
        assert residues.detail == f"residue computation failed: not a pole: {', '.join(map(str, zeros))}"
    else:
        assert residues.passed == (Fraction(*z.residue_pair()) == -z.Q * Fraction(*z.residue_inv_q_pair()))
    if not z.steps:
        assert checks["base_residue_positive"].passed == (_at(z.P, 1) > 0)


@given(_levels(), rationals(max_abs=9, max_den=9).filter(bool))
def test_replace_and_normalize_rebuild_the_view(z, factor):
    scaled = replace(z, P=z.P * factor)
    assert _view_matches(scaled.P, [factor * c for c in z.P.coeffs])
    assert Fraction(*scaled.residue_pair()) == factor * Fraction(*z.residue_pair())
    if z.P[0]:
        normal = normalize_level(z)
        assert _view_matches(normal.P, [c / z.P[0] for c in z.P.coeffs]) and normal.P[0] == 1
        assert Fraction(*normal.residue_pair()) == Fraction(*z.residue_pair()) / z.P[0]


@given(
    st.lists(rationals(max_abs=50, max_den=12), max_size=7),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=30),
)
def test_a_poly_is_its_view_whichever_way_it_is_built(fractions, zeros, extra):
    # zeros pads trailing zero coefficients; extra puts the ints over a multiple of the lcm
    # of the denominators, so the int-built Poly starts from a non-unit content
    fractions = fractions + [Fraction(0)] * zeros
    den = extra * lcm(*(f.denominator for f in fractions))
    from_fractions, from_ints = Poly(fractions), Poly.from_ints([int(f * den) for f in fractions], den)
    assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
    assert from_ints.view == from_fractions.view
    assert [from_ints[i] for i in range(9)] == [from_fractions[i] for i in range(9)]
    keys = [ZetaLevel(steps=(), Q=2, genus=3, P=P).numerator_key() for P in (from_ints, from_fractions)]
    assert keys[0] == keys[1] and hash(keys[0]) == hash(keys[1])
    assert repr(from_ints) == repr(from_fractions) and ring(from_ints).coeffs == ring(from_fractions).coeffs
    while fractions and not fractions[-1]:
        fractions.pop()
    assert ring(from_fractions).coeffs == tuple(fractions)
    for P in (from_fractions, from_ints):
        for twin in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
            assert twin == P and hash(twin) == hash(P) and twin.view == P.view
            assert ring(twin).coeffs == ring(P).coeffs and repr(twin) == repr(P)


def test_a_derived_level_pickles_and_copies():
    # a level sent to a worker process comes back equal, with its view rebuilt; a level holds its fields alone
    z = derive_step(derive_step(artin_zeta(catalog_curve("X2g2").spec()), 2), 3)
    z.residue_pair(), z.residue_inv_q_pair()  # reading a residue keeps nothing on the level
    assert vars(z).keys() == {"steps", "Q", "genus", "P"}
    for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z), replace(z)):
        assert twin == z and twin.P.view == z.P.view and hash(twin) == hash(z) and repr(twin) == repr(z)
        assert twin.numerator_key() == z.numerator_key()
        assert twin.residue_pair() == z.residue_pair() and vars(twin).keys() == vars(z).keys()


def test_every_catalog_curve_has_counts_some_curve_can_have():
    for label in CATALOG:
        spec = catalog_curve(label).spec()
        assert ring(artin_zeta(spec).P)(1) >= 1, label
    assert CurveSpec(label="X2g2", q=2, genus=2, point_counts=(3, 5)).point_counts == (3, 5)


@pytest.mark.parametrize(
    "q, g, counts, message",
    [
        (2, 1, (9,), "N_1 = 9 violates Weil's bound"),
        (2, 2, (-100, 5), "N_1 = -100 is negative"),
        (3, 2, (4, -2), "N_2 = -2 is negative"),
        (2, 2, (3, 30), "N_2 = 30 violates Weil's bound"),
        (2, 1, (3, 10), "inconsistent"),  # an extra count that disagrees with N_1 is refused, as before
        (2, 2, (3, 4), "A_2 = -1/2 is not an integer"),  # P = 1 - T^2/2 + 4T^4, inside Weil's bound, P(1) = 9/2
    ],
)
def test_a_spec_refuses_point_counts_no_curve_has(q, g, counts, message):
    with pytest.raises(ValueError, match=message):
        CurveSpec(label="x", q=q, genus=g, point_counts=counts)


def test_weils_bound_is_an_exact_int_comparison():
    # at q = 4, g = 1, N_1 = 1 and 9 put the trace at -+2 sqrt 4, on the bound; one further is past it
    for n1 in (1, 9):
        assert CurveSpec(label="x", q=4, genus=1, point_counts=(n1,)).point_counts == (n1,)
    # one further: N_1 = 0 gives P(1) = 0, which the class number check names first
    for n1, message in ((0, "not a class number"), (10, "N_1 = 10 violates Weil's bound")):
        with pytest.raises(ValueError, match=message):
            CurveSpec(label="x", q=4, genus=1, point_counts=(n1,))


def test_genus0_rejected():
    with pytest.raises(ValueError, match="genus 0"):
        CurveSpec(label="bad", q=2, genus=0, trace=0)


# -- curve JSON schema ---------------------------------------------------------


def test_curve_spec_sources_exclusive():
    with pytest.raises(ValueError):
        CurveSpec(label="x", q=2, genus=1, trace=0, point_counts=(3,))
    with pytest.raises(ValueError):
        CurveSpec(label="x", q=2, genus=1)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"point_counts": (3.7,)}, "point count N_1"),
        ({"genus": 2, "point_counts": (3, 5.0)}, "point count N_2"),
        ({"trace": 0.5}, "trace"),
        ({"q": 2.0, "trace": 0}, "q"),
        ({"genus": 1.0, "trace": 0}, "genus"),
        ({"point_counts": ("3",)}, "point count N_1"),
    ],
)
def test_curve_spec_refuses_non_integers(fields, name):
    # 3.7 was truncated to N_1 = 3, 0.5 failed later with a TypeError and q = 2.0 with an AttributeError
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        CurveSpec(**{"label": "x", "q": 2, "genus": 1, **fields})


def test_point_counts_are_never_truncated():
    with pytest.raises(ValueError, match="point count N_1 must be an integer"):
        artin_from_point_counts(2, 1, [3.7])
    assert CurveSpec(label="x", q=2, genus=2, point_counts=[3, 5]).point_counts == (3, 5)


def test_curve_json_round_trip(tmp_path):
    specs = [
        CurveSpec(label="e", q=2, genus=1, trace=0),
        CurveSpec(label="c", q=2, genus=2, point_counts=(3, 5)),
        CurveSpec(label="n", q=2, genus=1, numerator=("1", "0", "2")),
    ]
    path = tmp_path / "curves.json"
    path.write_text(json.dumps([s.to_dict() for s in specs]), encoding="utf-8")
    loaded = load_curves(path)
    assert loaded == specs
    for spec in loaded:
        assert all(r.passed for r in validate_zeta_level(artin_zeta(spec)))


def test_a_spec_keeps_its_base_level_outside_its_identity():
    # the level is the one artin_zeta built; no comparison, hash, repr or to_dict reads it, and it pickles along
    spec = CurveSpec(label="c", q=2, genus=2, point_counts=[3, 5])
    assert spec.level == artin_from_point_counts(2, 2, (3, 5))
    assert [f.name for f in dataclass_fields(CurveSpec) if f.init] == list(curves.CURVE_KEYS)
    assert "level" not in repr(spec) and spec.to_dict() == {"label": "c", "q": 2, "genus": 2, "point_counts": [3, 5]}
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec and hash(clone) == hash(spec) and clone.level == spec.level
    assert replace(spec, label="d").level == spec.level


def test_numerator_source_checks_symmetry():
    with pytest.raises(ValueError, match="symmetry"):
        CurveSpec(label="bad", q=2, genus=1, numerator=("1", "0", "3"))
    with pytest.raises(ValueError, match="symmetry"):
        CurveSpec(label="bad2", q=2, genus=2, numerator=("1", "1", "0", "0", "4"))
    spec = CurveSpec(label="scaled", q=2, genus=1, numerator=("3", "0", "6"))
    assert spec.numerator == (1, 0, 2)  # normalized to constant term 1


def test_numerator_source_refuses_a_p1_that_is_no_class_number():
    # P(1) is read after the division by A_0: -1 + 3T - 2T^2 is 1 - 3T + 2T^2, with P(1) = 0
    for numerator in ((1, -3, 2), (-1, 3, -2), (1, -5, 2), (1, -4, 2, -8, 4)):
        with pytest.raises(ValueError, match=r"P\(1\) = -?\d+ is not a class number"):
            CurveSpec(label="bad", q=2, genus=len(numerator) // 2, numerator=numerator)
    assert CurveSpec(label="neg", q=2, genus=1, numerator=(-1, 0, -2)).numerator == (1, 0, 2)


def _spy_on_validation(monkeypatch) -> list:
    """The levels curves.validate_zeta_level is called on, each with the names of the checks it failed."""
    seen, validate = [], curves.validate_zeta_level

    def spy(z):
        results = validate(z)
        seen.append((z.steps, [r.name for r in results if not r.passed]))
        return results

    monkeypatch.setattr(curves, "validate_zeta_level", spy)
    return seen


@pytest.mark.parametrize(
    "fields",
    [{"trace": -1}, {"point_counts": (3, 5), "genus": 2}, {"numerator": ("1", "1/2", "2")}],
)
def test_every_base_level_is_validated_like_every_level(fields, monkeypatch):
    seen = _spy_on_validation(monkeypatch)
    spec = CurveSpec(**{"label": "x", "q": 2, "genus": 1, **fields})
    assert seen == [((), [])]
    artin_zeta(spec)
    assert seen == [((), [])] * 2


@pytest.mark.parametrize(
    "fields, failed, message",
    [
        ({"numerator": (1, 0, 3)}, ["functional_equation", "residue_antisymmetry"], "symmetry"),
        ({"numerator": (-1, 3, -2)}, ["residue_antisymmetry", "base_residue_positive"], r"P\(1\) = 0 is not a class number"),
        ({"q": 4, "point_counts": (0,)}, ["residue_antisymmetry", "base_residue_positive"], r"P\(1\) = 0 is not a class number"),
    ],
)
def test_each_source_is_refused_through_the_validator(fields, failed, message, monkeypatch):
    seen = _spy_on_validation(monkeypatch)
    with pytest.raises(ValueError, match=message):
        CurveSpec(**{"label": "x", "q": 2, "genus": 1, **fields})
    assert seen == [((), failed)]


@st.composite
def _rational_numerators(draw):
    """(P, Q): constant term 1 and rational A_1..A_d, d <= 6, so the view's x_0 is mostly above 1."""
    Q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    return Poly([1] + draw(st.lists(rationals(max_abs=20, max_den=12), min_size=1, max_size=6))), Q


def _fraction_counts(P, Q, k_max):
    """N_1..N_K by Newton's identities over Fractions, the reference for the integer recurrence."""
    psums = newton_power_sums([(-1) ** i * P[i] for i in range(1, P.degree + 1)], k_max)
    return tuple(Q**k + 1 - psums[k - 1] for k in range(1, k_max + 1))


@given(_rational_numerators(), st.integers(min_value=1, max_value=9))
def test_point_counts_of_a_rational_numerator_match_the_fraction_recurrence(case, k_max):
    P, Q = case
    counts = point_counts_from_numerator(P, Q, k_max)
    assert counts == _fraction_counts(P, Q, k_max)
    assert all(isinstance(n, Fraction) for n in counts)


def test_point_counts_of_derived_levels_match_the_fraction_recurrence():
    bases = [artin_elliptic(2, 0), artin_elliptic(3, -3), artin_zeta(catalog_curve("X2g2").spec())]
    bases.append(artin_zeta(CurveSpec(label="h", q=2, genus=1, numerator=("1", "1/2", "2"))))
    for base in bases:
        for n in (2, 3, 5):
            z = normalize_level(derive_step(base, n))
            assert point_counts_from_numerator(z.P, z.Q, 6) == _fraction_counts(z.P, z.Q, 6), (base.P, n)


def test_point_counts_of_the_catalog_match_brute_force():
    for label, c in CATALOG.items():
        ks = range(1, c.genus + 3)
        counts = tuple(count_points_bruteforce(c.model, c.q, k) for k in ks)
        assert point_counts_from_numerator(artin_zeta(c.spec()).P, c.q, len(ks)) == counts, label


# -- catalog -------------------------------------------------------------------


def test_catalog_traces_match_counts():
    expected_traces = {"E2a0": 0, "E2am2": -2, "E3a0": 0, "E3am3": -3, "E4am4": -4, "E5a2": 2}
    for label, trace in expected_traces.items():
        c = catalog_curve(label)
        n1 = count_points_bruteforce(c.model, c.q, 1)
        assert c.q + 1 - n1 == trace


def test_catalog_specs_validate():
    for label in CATALOG:
        spec = catalog_curve(label).spec()
        assert all(r.passed for r in validate_zeta_level(artin_zeta(spec)))


def test_catalog_unknown_label():
    with pytest.raises(ValueError, match="unknown catalog curve"):
        catalog_curve("nope")
