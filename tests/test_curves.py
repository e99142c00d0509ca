"""Tests for base-level zeta construction, validation, and point counting."""

import copy
import json
import pickle
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import rationals
from ratfunc_oracle import RatFunc, residue_simple_pole, standard_denominator, to_ratfunc
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
    prime_power_split,
    validate_zeta_level,
)
from zetatower.derived_engine import derive_step, normalize_level
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
    assert to_ratfunc(z) == RatFunc(Poly([1, 0, 2]), Poly([1, -1]) * Poly([1, -2]))


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
    g = Poly([0] + list(log_coeffs))
    acc, term, fact = Poly([1]), Poly([1]), 1
    for j in range(1, order + 1):
        term = term * g
        fact *= j
        acc = acc + term * Fraction(1, fact)
    return [acc[i] for i in range(order + 1)]


def test_artin_from_counts_genus2_against_series_oracle():
    z = artin_from_point_counts(2, 2, [3, 5])
    P = z.P
    expanded = _exp_series_oracle([3, Fraction(5, 2)], 2)
    lower = Poly(expanded[:3]) * Poly([1, -3, 2])
    assert [P[i] for i in range(3)] == [lower[i] for i in range(3)]
    # reflection gives the upper half
    assert P[3] == 2 * P[1] and P[4] == 4 * P[0]
    assert P == Poly([1, 0, 0, 0, 4])


def test_artin_from_counts_rejects_inconsistent_extras():
    with pytest.raises(ValueError, match="inconsistent"):
        artin_from_point_counts(2, 1, [3, 10])
    # the true N_2 = 9 is accepted
    artin_from_point_counts(2, 1, [3, 9])


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
    bad = zg.P + Poly([0, 1])
    tampered2 = ZetaLevel(steps=(), Q=zg.Q, genus=2, P=bad)
    assert not _passed(validate_zeta_level(tampered2))["functional_equation"]


def test_validate_residue_relation():
    z = artin_elliptic(2, 0)
    assert residue_simple_pole(to_ratfunc(z), 1) == 3 == z.residue()
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
    return sum((c * t**i for i, c in enumerate(P.coeffs)), Fraction(0))


def _view_matches(z):
    c, ints = z.P.view
    return c > 0 and gcd(*ints) in (0, 1) and tuple(c * x for x in ints) == z.P.coeffs


@st.composite
def _levels(draw):
    """Genus 1..3, rational P, integer Q; now and then P is shifted to vanish at 1 or at 1/Q."""
    g = draw(st.integers(min_value=1, max_value=3))
    Q = draw(st.integers(min_value=2, max_value=64))
    P = Poly(draw(st.lists(rationals(max_abs=50, max_den=12), min_size=2 * g + 1, max_size=2 * g + 1)))
    root = draw(st.sampled_from([None, Fraction(1), Fraction(1, Q)]))
    if root is not None:
        P = P - Poly([_at(P, root)])
    return ZetaLevel(steps=draw(st.sampled_from([(), (2,)])), Q=Q, genus=g, P=P)


@given(_levels(), st.integers(min_value=1, max_value=4), rationals(max_abs=9, max_den=9))
def test_view_matches_the_fraction_formulas(z, k, t):
    P, Q, g = z.P, z.Q, z.genus
    assert _view_matches(z)
    assert z.residue() == _at(P, 1) / (Q - 1)
    assert z.residue_inv_q() == -_at(P, Fraction(1, Q)) * Q ** (g - 1) / (Q - 1)
    poles = {Fraction(1), Fraction(1, Q)} | ({Fraction(0)} if g > 1 else set())
    for x in {Q**k, Fraction(1, Q**k), t} - poles:
        assert z.value(x) == _at(P, x) / ((1 - x) * (1 - Q * x) * x ** (g - 1))


@given(_levels())
def test_view_detects_a_zero_of_P_at_either_pole(z):
    zeros = [t for t in (Fraction(1), Fraction(1, z.Q)) if _at(z.P, t) == 0]
    checks = {r.name: r for r in validate_zeta_level(z)}
    residues = checks["residue_antisymmetry"]
    if zeros:
        assert not residues.passed
        assert residues.detail == f"residue computation failed: not a pole: {', '.join(map(str, zeros))}"
    else:
        assert residues.passed == (z.residue() == -z.Q * z.residue_inv_q())
    if not z.steps:
        assert checks["base_residue_positive"].passed == (_at(z.P, 1) > 0)


@given(_levels(), rationals(max_abs=9, max_den=9).filter(bool))
def test_replace_and_normalize_rebuild_the_view(z, factor):
    scaled = replace(z, P=z.P * factor)
    assert _view_matches(scaled)
    assert scaled.residue() == factor * z.residue()
    if z.P[0]:
        normal = normalize_level(z)
        assert _view_matches(normal) and normal.P[0] == 1
        assert normal.residue() == z.residue() / z.P[0]


@given(_levels())
def test_equality_hash_and_numerator_key_ignore_the_view(z):
    P = Poly(z.P.coeffs)
    object.__setattr__(P, "view", (Fraction(7), (1,)))
    other = replace(z, P=P)
    assert other == z and hash(other) == hash(z) and repr(other) == repr(z)
    assert other.numerator_key() == z.numerator_key()
    assert "view" not in repr(z)


def test_a_derived_level_pickles_and_copies():
    # a level sent to a worker process comes back equal, with its view rebuilt
    z = derive_step(derive_step(artin_zeta(catalog_curve("X2g2").spec()), 2), 3)
    for twin in (pickle.loads(pickle.dumps(z)), copy.copy(z), copy.deepcopy(z)):
        assert twin == z and twin.P.view == z.P.view
        assert twin.numerator_key() == z.numerator_key()


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


def test_numerator_source_checks_symmetry():
    with pytest.raises(ValueError, match="symmetry"):
        CurveSpec(label="bad", q=2, genus=1, numerator=("1", "0", "3"))
    with pytest.raises(ValueError, match="symmetry"):
        CurveSpec(label="bad2", q=2, genus=2, numerator=("1", "1", "0", "0", "4"))
    spec = CurveSpec(label="scaled", q=2, genus=1, numerator=("3", "0", "6"))
    assert spec.numerator == (1, 0, 2)  # normalized to constant term 1


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
