"""Tests for the RH verdicts and the sweep harness."""

import hashlib
import json
import sys
from fractions import Fraction
from math import prod

import mpmath as mp
import pytest

import zetatower.derived_engine as engine
import zetatower.invariants as invariants
import zetatower.mult_struct as mult_struct
from zetatower import rh_lab
from zetatower.curves import (
    CurveSpec,
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    catalog_curve,
    hasse_traces,
)
from zetatower.cli import parse_curve_arg
from zetatower.derived_engine import DerivationError, derive_step
from zetatower.exact_arith import Poly, is_self_inversive, real_weil_poly, squarefree_factors
from zetatower.rh_lab import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    SweepConfig,
    builtin_elliptic_grid,
    curve_tower,
    report_to_json,
    rh_exact_genus1,
    rh_numeric,
    rh_verdict_for_level,
    run_cell,
    run_curve,
    sweep,
)


# -- exact genus-1 criterion -----------------------------------------------------


def test_exact_holds_trace_zero():
    v = rh_exact_genus1(artin_elliptic(2, 0))
    assert v.holds and not v.boundary and v.method == "exact_g1"


def test_exact_holds_derived_level():
    v = rh_exact_genus1(derive_step(artin_elliptic(2, 0), 2))
    assert v.holds and v.discriminant == 1 - 16


def test_exact_fails_synthetic():
    # A = 5, Q = 4 sits outside the Hasse interval: 25 > 16
    level = ZetaLevel(steps=(), Q=4, genus=1, P=Poly([1, -5, 4]))
    assert rh_exact_genus1(level).holds is False


def test_exact_boundary_flag():
    v = rh_exact_genus1(artin_elliptic(4, 4))
    assert v.holds and v.boundary


def test_exact_rejects_higher_genus():
    with pytest.raises(ValueError):
        rh_exact_genus1(artin_from_point_counts(2, 2, [3, 5]))


# -- numeric route ------------------------------------------------------------------


def test_numeric_matches_exact_on_subgrid():
    for q in (2, 3):
        for a in hasse_traces(q):
            z = artin_elliptic(q, a)
            exact = rh_exact_genus1(z)
            numeric = rh_numeric(z.P, z.Q)
            assert numeric.holds == exact.holds is True
            assert mp.mpf(numeric.max_deviation) < mp.mpf("1e-30")


def test_numeric_genus2_product():
    # (1 + 2T^2)(1 - 2T + 2T^2): all reciprocal roots on |T| = 2^(-1/2)
    P = Poly([1, 0, 2]) * Poly([1, -2, 2])
    v = rh_numeric(P, 2, precision_bits=256)
    assert v.holds
    assert mp.mpf(v.max_deviation) < mp.mpf("1e-30")


def test_numeric_planted_off_circle_fails():
    # (1 - 3T)(1 - 2T/3) is self-inversive at Q = 2, and sqrt(2) |T| is 0.47 and 2.12 at its roots
    P = Poly([1, -3]) * Poly([1, Fraction(-2, 3)]) * Poly([1, 0, 2])
    v = rh_numeric(P, 2)
    assert v.holds is False and v.detail == "off-circle root"
    assert mp.mpf(v.max_deviation) > 1


def test_numeric_boundary_double_root():
    z = artin_elliptic(4, -4)
    v = rh_numeric(z.P, z.Q)
    assert v.holds and mp.mpf(v.max_deviation) < mp.mpf("1e-30")


def test_numeric_requires_even_degree():
    with pytest.raises(ValueError):
        rh_numeric(Poly([1, 1, 1, 1]), 2)


def _weil_rh_holds(q, a1, a2):
    """Exact RH for P = 1 + a1 T + a2 T^2 + q a1 T^3 + q^2 T^4, in integers.

    P(T) = T^2 h(qT + 1/T) with h(u) = u^2 + a1 u + a2 - 2q, and RH holds iff
    both roots of h are real and lie in [-2 sqrt q, 2 sqrt q]: a real pair
    whose midpoint -a1/2 is inside, with h(+-2 sqrt q) = m +- 2 a1 sqrt q >= 0
    for m = a2 + 2q, that is m >= 0 and m^2 >= 4 q a1^2.
    """
    m = a2 + 2 * q
    real = a1 * a1 >= 4 * (a2 - 2 * q)
    return real and a1 * a1 <= 16 * q and m >= 0 and m * m >= 4 * q * a1 * a1


def _genus2_grid():
    """Every (a1, a2) with |a1| <= 4q, |a2| <= 6q at q = 2; at q = 3 the RH pairs plus |a1| <= 2q, |a2| <= 3q."""
    cases = [(2, a1, a2) for a1 in range(-8, 9) for a2 in range(-12, 13)]
    admissible = {(a1, a2) for a1 in range(-12, 13) for a2 in range(-18, 19) if _weil_rh_holds(3, a1, a2)}
    box = {(a1, a2) for a1 in range(-6, 7) for a2 in range(-9, 10)}
    return cases + [(3, a1, a2) for a1, a2 in sorted(admissible | box)]


def _grid_outcomes():
    return [rh_numeric(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]


def _count_durand_kerner(monkeypatch) -> list:
    """Record the degree of every factor that rh_lab._durand_kerner is run on."""
    real, degrees = rh_lab._durand_kerner, []

    def counting(coeffs, *args, **kwargs):
        degrees.append(len(coeffs) - 1)
        return real(coeffs, *args, **kwargs)

    monkeypatch.setattr(rh_lab, "_durand_kerner", counting)
    return degrees


def _iterated_verdicts(degrees: list, numerators) -> list:
    """rh_numeric of each (P, Q), asserting that each one ran Durand-Kerner (counted in ``degrees``)."""
    verdicts = []
    for P, Q in numerators:
        before = len(degrees)
        verdicts.append(rh_numeric(P, Q))
        assert len(degrees) > before and min(degrees[before:]) >= 3, (P, Q)
    return verdicts


def _cubic_products():
    """(1 - aT + 2T^2)(1 - bT + 2T^2)(1 - cT + 2T^2) for a < b < c in [-3, 3]: R = (u - a)(u - b)(u - c), squarefree."""
    cases = []
    for a in range(-3, 4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                cases.append(((a, b, c), Poly([1, -a, 2]) * Poly([1, -b, 2]) * Poly([1, -c, 2])))
    return cases


def _genus3_levels():
    """(P, Q) of genus-3 levels over F_2 whose R is a squarefree cubic."""
    cases = []
    for numerator, paths in (((1, 1, 2, 3, 4, 4, 8), ((), (2,), (3,))), ((1, 0, 6, 0, 12, 0, 8), ((2,), (2, 2)))):
        tower = curve_tower(CurveSpec(label="g3", q=2, genus=3, numerator=numerator))
        cases += [(tower.level(steps).P, tower.level(steps).Q) for steps in paths]
    return cases


def test_numeric_matches_exact_real_weil_class(monkeypatch):
    cases = _genus2_grid()
    assert len(cases) == 678
    for (q, a1, a2), v in zip(cases, _grid_outcomes()):
        assert v.holds is _weil_rh_holds(q, a1, a2), (q, a1, a2, v.max_deviation)
        assert v.precision_bits == 256  # no escalation
    # genus 3, through Durand-Kerner: RH holds iff the three traces lie in [-2 sqrt 2, 2 sqrt 2]
    degrees = _count_durand_kerner(monkeypatch)
    products = _cubic_products()
    numerators = [(P, 2) for _, P in products] + _genus3_levels()
    seeded = _iterated_verdicts(degrees, numerators)
    for (traces, _), v in zip(products, seeded):
        assert v.holds is all(abs(t) <= 2 for t in traces), (traces, v.max_deviation)
    assert all(v.outcome() != "unknown" and v.precision_bits == 256 for v in seeded)
    # the float stage only picks starting points: the circle start gives the same verdicts
    monkeypatch.setattr(rh_lab, "_float_seed", lambda coeffs: None)
    circle = _iterated_verdicts(degrees, numerators)
    assert [v.outcome() for v in circle] == [v.outcome() for v in seeded]


def test_numeric_repeated_on_circle_factor_converges():
    v = rh_numeric(Poly([1, -2, 2]) ** 2, 2)
    assert v.holds is True and v.precision_bits == 256
    assert len(v.deviations) == 4
    assert all(mp.mpf(d) < mp.mpf("1e-60") for d in v.deviations)


def test_numeric_repeated_off_circle_factor_fails():
    v = rh_numeric((Poly([1, -3]) * Poly([1, Fraction(-2, 3)])) ** 2, 2)
    assert v.holds is False and len(v.deviations) == 4


@pytest.mark.parametrize("e", [600, 1100, 1101])
def test_numeric_stopping_is_relative_to_root_size(e, monkeypatch):
    # the roots have modulus 2^(-e/2), far below an absolute stopping threshold
    degrees = _count_durand_kerner(monkeypatch)
    Q, h = 2**e, 2 ** (e // 2)
    # R = u (u - h)(u - k) is a squarefree cubic, so its roots come from Durand-Kerner
    on_circle, off_circle = _iterated_verdicts(
        degrees, [(Poly([1, 0, Q]) * Poly([1, -h, Q]) * Poly([1, -k, Q]), Q) for k in (-h, 3 * h)]
    )
    assert on_circle.holds is True and mp.mpf(on_circle.max_deviation) < mp.mpf("1e-60")
    # at 1 - 3hT + QT^2, sqrt(Q) T = (3 +- sqrt 5)/2 for even e, sqrt 2 and 1/sqrt 2 for odd e
    assert off_circle.holds is False and mp.mpf(off_circle.max_deviation) > mp.mpf("0.4")


def test_float_seed_gives_up_outside_double_range():
    assert rh_lab._float_seed([mp.mpf(1), mp.mpf(0), mp.mpf(10) ** 400]) is None  # overflow
    assert rh_lab._float_seed([mp.mpf(1), mp.mpf(0), mp.mpf(10) ** -400]) is None  # constant term underflows
    roots = rh_lab._float_seed([mp.mpf(1), mp.mpf(0), mp.mpf(1)])
    assert sorted(round(r.imag, 12) for r in roots) == [-1, 1]


def _closed_form_factors():
    """(F, Q): every squarefree factor of R over the genus-2 grid and X2g2 at (2), (3), (2, 2); all of degree <= 2."""
    numerators = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]
    x2g2 = curve_tower(catalog_curve("X2g2").spec())
    numerators += [(x2g2.level(steps).P, x2g2.level(steps).Q) for steps in ((2,), (3,), (2, 2))]
    assert len(numerators) == 678 + 3
    return [(F, Q) for P, Q in numerators for F, _ in squarefree_factors(real_weil_poly(P.view[1], Q, 2))]


def test_closed_form_roots_match_durand_kerner():
    factors = _closed_form_factors()
    assert {len(F) - 1 for F, _ in factors} == {1, 2}
    bits = 256
    with mp.workprec(2 * bits + 64):
        target = mp.mpf(2) ** (-(bits + 16))
        for F, Q in factors:
            scale = 1 / mp.sqrt(mp.mpf(Q))
            closed, residual, converged = rh_lab._factor_roots(F, scale, target, bits)
            assert residual == 0 and converged is True and len(closed) == len(F) - 1
            coeffs = rh_lab._monic(F, scale)
            init = rh_lab._float_seed(coeffs)
            if init is None:
                init = [rh_lab.START_RADIUS * mp.expjpi(a) for a in rh_lab._circle(len(F) - 1)]
            iterated, _, ok = rh_lab._durand_kerner(coeffs, [mp.mpc(r) for r in init], target, max_iter=4000)
            assert ok, (F, Q)
            for r in closed:
                assert min(abs(r - s) for s in iterated) < target, (F, Q, r)


@pytest.mark.parametrize(
    "F, Q, exact",
    [
        # (10^30 u - 1)(u - 10^30): -b and sqrt(b^2 - 4c) agree to 60 digits, so their difference loses them
        ([10**30, -(10**60 + 1), 10**30], 1, lambda: [mp.mpf(10) ** 30, mp.mpf(10) ** -30]),
        # u^2 - 4Q: v = +-2, both ends of [-2, 2]
        ([-12, 0, 1], 3, lambda: [mp.mpf(2), mp.mpf(-2)]),
        # u^2 - 2u + 5 = (u - 1)^2 + 4: a complex pair
        ([5, -2, 1], 1, lambda: [mp.mpc(1, 2), mp.mpc(1, -2)]),
        # b = 0 with a real and with a complex pair
        ([-2, 0, 1], 1, lambda: [mp.sqrt(2), -mp.sqrt(2)]),
        ([4, 0, 1], 1, lambda: [mp.mpc(0, 2), mp.mpc(0, -2)]),
        # degree 1: 3u + 7
        ([7, 3], 1, lambda: [mp.mpf(-7) / 3]),
    ],
)
def test_closed_form_roots_are_exact_to_the_working_precision(F, Q, exact):
    bits = 256
    with mp.workprec(2 * bits + 64):
        roots, residual, converged = rh_lab._factor_roots(F, 1 / mp.sqrt(mp.mpf(Q)), mp.mpf(2) ** -(bits + 16), bits)
        assert residual == 0 and converged is True and len(roots) == len(F) - 1
        for r, x in zip(sorted(roots, key=lambda z: (-z.real, -z.imag)), exact()):
            assert abs(r - x) <= abs(x) * mp.mpf(2) ** -(mp.mp.prec - 8), (F, r, x)


def _whole_p_roots(ints, Q: int, precision_bits: int):
    """The roots of P = c * ints, each repeated by its multiplicity, from P's own squarefree factors.

    The parity reference for the reduced route: each factor is solved by
    ``rh_lab._factor_roots`` in x = sqrt(Q) T, where the roots RH predicts lie
    on |x| = 1, at the same working precision (in closed form up to degree 2,
    by Durand-Kerner from degree 3); as (roots, residual, converged), like
    ``rh_lab._real_weil_roots``.
    """
    with mp.workprec(2 * precision_bits + 64):
        sqrt_q = mp.sqrt(mp.mpf(Q))
        target = mp.mpf(2) ** (-(precision_bits + 16))
        roots, residual, converged = [], mp.mpf(0), True
        for F, mult in squarefree_factors(ints):
            xs, res, ok = rh_lab._factor_roots(F, sqrt_q, target, precision_bits)
            roots += [x / sqrt_q for x in xs] * mult
            residual, converged = max(residual, res), converged and ok
        return roots, residual, converged


def root_pairing_defect(P: Poly, Q: int, precision_bits: int = 128):
    """Worst distance from {roots} to its image under r -> 1/(Q * conj(r))."""
    with mp.workprec(2 * precision_bits + 64):
        roots, _, _ = _whole_p_roots(P.view[1], Q, precision_bits)
        qf = mp.mpf(Q)
        worst = mp.mpf(0)
        for r in roots:
            image = 1 / (qf * mp.conj(r))
            worst = max(worst, min(abs(image - s) for s in roots))
        return worst


def test_self_inversive_root_pairing():
    P = Poly([1, 0, 2]) * Poly([1, -2, 2])
    assert root_pairing_defect(P, 2) < mp.mpf("1e-20")


# -- the real Weil polynomial R ----------------------------------------------------


def _full_route(monkeypatch):
    """Solve every numerator as the degree-2g P, by the parity reference."""
    monkeypatch.setattr(rh_lab, "_real_weil_roots", lambda ints, Q, g, bits: _whole_p_roots(ints, Q, bits))


def _refuse(monkeypatch, name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(rh_lab, name, refuse)


def _parity_numerators():
    """(P, Q): the genus-2 grid, X2g2 at (2), (3), (2, 2), and two genus-3 numerators over F_2 at () and (2)."""
    cases = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]
    x2g2 = curve_tower(catalog_curve("X2g2").spec())
    cases += [(x2g2.level(steps).P, x2g2.level(steps).Q) for steps in ((2,), (3,), (2, 2))]
    for numerator in ((1, 0, 6, 0, 12, 0, 8), (1, 1, 2, 3, 4, 4, 8)):
        tower = curve_tower(CurveSpec(label="g3", q=2, genus=3, numerator=numerator))
        cases += [(tower.level(steps).P, tower.level(steps).Q) for steps in ((), (2,))]
    return cases


def test_reduced_route_matches_the_full_numerator(monkeypatch):
    cases = _parity_numerators()
    assert len(cases) == 678 + 3 + 4
    reduced = [rh_numeric(P, Q) for P, Q in cases]
    _full_route(monkeypatch)
    full = [rh_numeric(P, Q) for P, Q in cases]
    for (P, Q), r, f in zip(cases, reduced, full):
        assert len(r.deviations) == len(f.deviations) == P.degree, (P, Q)
        assert (r.outcome(), r.precision_bits) == (f.outcome(), f.precision_bits), (P, Q, r.max_deviation)
        for a, b in zip(r.deviations, f.deviations):  # sorted; equal to the printed digits, or both below tolerance
            assert abs(mp.mpf(a) - mp.mpf(b)) < mp.mpf(r.tolerance) + mp.mpf(b) * mp.mpf("1e-5"), (P, Q, a, b)
    assert sum(v.holds is True for v in reduced) == sum(_weil_rh_holds(*case) for case in _genus2_grid()) + 7


@pytest.mark.parametrize("bits", [MIN_PRECISION_BITS, 256])
def test_a_double_root_on_the_circle_is_a_simple_root_of_R(bits, monkeypatch):
    # (1 - 2T^2)^2 at Q = 2: R = u^2 - 8 has simple roots at u = +-2 sqrt Q, each a double root T = +-1/sqrt 2
    v = rh_numeric(Poly([1, 0, -2]) ** 2, 2, precision_bits=bits)
    assert v.holds is True and v.precision_bits == bits, v.max_deviation
    assert len(v.deviations) == 4
    # R's factor is solved in closed form, so the roots are far inside the convergence target, let alone the tolerance
    assert mp.mpf(v.max_deviation) < mp.mpf(2) ** -(bits + 16) * mp.mpf("1.01"), v.max_deviation


def test_an_asymmetric_numerator_fails_with_no_root_sought(monkeypatch):
    # 1 - 2T^2 at Q = 2 is not self-inversive, though both its roots lie on |T| = 2^(-1/2): no level has such a P
    _refuse(monkeypatch, "_real_weil_roots")
    v = rh_numeric(Poly([1, 0, -2]), 2)
    assert v.holds is False and v.detail == "not self-inversive" and v.deviations == ()
    assert v.method == "numeric" and v.max_deviation is None and v.precision_bits == 256


# -- one root, one deviation and one string per conjugate pair -----------------------


def _two_root_verdict(P: Poly, Q: int, bits: int = 256, escalated: bool = False) -> rh_lab.RHVerdict:
    """The numeric verdict with every step done separately, as the reference for ``rh_numeric``.

    The tolerance is formed afresh, both T roots (u +- w) / 2Q of every root
    u of R by the formula, and one deviation and one string for each root.
    """
    g, ints = int(P.degree) // 2, P.view[1]
    with mp.workprec(2 * bits + 64):
        tol = mp.mpf(10) ** (-(mp.mpf(bits) * 3 / 20))
        fields = {"method": "numeric", "precision_bits": bits, "tolerance": mp.nstr(tol, 6)}
        if not is_self_inversive(ints, Q, g):
            return rh_lab.RHVerdict(holds=False, detail="not self-inversive", **fields)
        q = mp.mpf(Q)
        sqrt_q = mp.sqrt(q)
        target = mp.mpf(2) ** (-(bits + 16))
        roots, residual, converged = [], mp.mpf(0), True
        for F, mult in squarefree_factors(real_weil_poly(ints, Q, g)):
            vs, res, ok = rh_lab._factor_roots(F, 1 / sqrt_q, target, bits)
            for v in vs:
                u = v * sqrt_q
                w = mp.sqrt(u * u - 4 * q)
                roots += [(u + w) / (2 * q), (u - w) / (2 * q)] * mult
            residual, converged = max(residual, res), converged and ok
        devs = sorted(abs(abs(r) * mp.sqrt(mp.mpf(Q)) - 1) for r in roots)
        if not converged:
            holds, detail = None, f"no convergence; residual {mp.nstr(residual, 6)}"
        elif devs[-1] < tol:
            holds, detail = True, ""
        elif not devs[-1] < 10 * tol:
            holds, detail = False, "off-circle root"
        elif not escalated:
            return _two_root_verdict(P, Q, 2 * bits, escalated=True)
        else:
            holds, detail = None, "deviation inside the escalation band after retry"
        deviations = tuple(mp.nstr(d, 6) for d in devs)
        return rh_lab.RHVerdict(holds=holds, max_deviation=deviations[-1], deviations=deviations, detail=detail, **fields)


def _has_real_w(P: Poly, Q: int) -> bool:
    """Whether some root u of R is real with u^2 > 4Q, so that w = sqrt(u^2 - 4Q) is real and nonzero."""
    with mp.workprec(256):
        sqrt_q = mp.sqrt(mp.mpf(Q))
        for F, _ in squarefree_factors(real_weil_poly(P.view[1], Q, int(P.degree) // 2)):
            vs, _, _ = rh_lab._factor_roots(F, 1 / sqrt_q, mp.mpf(2) ** -200, 128)
            if any(abs(v.imag) < mp.mpf(2) ** -100 and abs(v.real) > 2 + mp.mpf(2) ** -100 for v in vs):
                return True
    return False


# (1 - 3T)(1 - 2T/3)(1 + 2T^2) at Q = 2: R = (u - 11/3) u, and u = 11/3 > 2 sqrt 2 gives a real w
_REAL_W_CONTROL = (Poly([1, -3]) * Poly([1, Fraction(-2, 3)]) * Poly([1, 0, 2]), 2)


def test_every_verdict_field_equals_the_two_root_reference():
    cases = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]
    cases += [(P, 2) for _, P in _cubic_products()] + _genus3_levels()
    cases += [(Poly([1, 0, -2]) ** 2, 2), _REAL_W_CONTROL]  # w = 0 at u = +-2 sqrt 2; a real w
    assert len(cases) == 678 + 35 + 5 + 2
    assert _has_real_w(*_REAL_W_CONTROL)
    assert sum(_has_real_w(P, Q) for P, Q in cases[:678]) > 100  # off-circle grid numerators have real w too
    for P, Q in cases:
        # a dataclass compares every field: outcome, deviations and their maximum, tolerance, precision, detail
        assert rh_numeric(P, Q) == _two_root_verdict(P, Q), (P, Q)
    for bits in (MIN_PRECISION_BITS, 100):  # precisions whose tolerance is formed per verdict
        for P, Q in cases[::50] + cases[-2:]:
            assert rh_numeric(P, Q, precision_bits=bits) == _two_root_verdict(P, Q, bits), (P, Q, bits)


def test_each_root_of_R_gives_its_own_pair_of_T_roots():
    # (r1, r2) of one u solve Q T^2 - u T + 1, so Q r1 r2 = 1: a conjugate taken for a pair with real w, or
    # for a purely imaginary u (R = u^2 + 1 below, whose w is imaginary too), would break it
    cases = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()[::7]]
    cases += [_REAL_W_CONTROL, (Poly([1, 0, 5, 0, 4]), 2), (Poly([1, 0, -2]) ** 2, 2)]
    for P, Q in cases:
        roots, _, _ = rh_lab._real_weil_roots(P.view[1], Q, 2, 256)
        with mp.workprec(576):
            for r1, r2 in zip(roots[::2], roots[1::2]):
                assert abs(Q * r1 * r2 - 1) < mp.mpf(10) ** -100, (P, Q, r1, r2)
                assert abs(sum(c * r1**i for i, c in enumerate(P.view[1]))) < mp.mpf(10) ** -100, (P, Q, r1)


# -- the verdict's branches --------------------------------------------------------


def _plant_band_roots(monkeypatch, at_bits=None):
    """Make _real_weil_roots return 2g roots at deviation 2 * 10^(-0.15 bits), inside the band; only at ``at_bits`` if given."""
    real = rh_lab._real_weil_roots
    calls = []

    def planted(P, Q, g, bits):
        calls.append(bits)
        if at_bits is not None and bits != at_bits:
            return real(P, Q, g, bits)
        deviation = 2 * mp.mpf(10) ** (-mp.mpf(bits) * 3 / 20)
        return [(1 + deviation) / mp.sqrt(mp.mpf(Q.numerator) / Q.denominator)] * (2 * g), mp.mpf(0), True

    monkeypatch.setattr(rh_lab, "_real_weil_roots", planted)
    return calls


_G2_P = Poly([1, 1, 3, 2, 4])  # 1 + T + 3T^2 + 2T^3 + 4T^4 over F_2: RH holds


def _tolerance_string(bits: int) -> str:
    with mp.workprec(2 * bits + 64):
        return mp.nstr(mp.mpf(10) ** (-(mp.mpf(bits) * 3 / 20)), 6)


def test_a_deviation_in_the_band_twice_is_unknown(monkeypatch):
    calls = _plant_band_roots(monkeypatch)
    v = rh_numeric(_G2_P, 2, precision_bits=MIN_PRECISION_BITS)
    assert calls == [MIN_PRECISION_BITS, 2 * MIN_PRECISION_BITS]
    assert v.holds is None and v.outcome() == "unknown" and v.precision_bits == 2 * MIN_PRECISION_BITS
    assert v.detail == "deviation inside the escalation band after retry"
    assert len(v.deviations) == 4


def test_a_deviation_in_the_band_once_holds_after_the_retry(monkeypatch):
    calls = _plant_band_roots(monkeypatch, at_bits=256)
    v = rh_numeric(_G2_P, 2, precision_bits=256)
    assert calls == [256, 512]
    assert v.holds is True and v.precision_bits == 512 and v.detail == ""
    assert mp.mpf(v.max_deviation) < mp.mpf(v.tolerance)


@pytest.mark.parametrize("bits", [MIN_PRECISION_BITS, DEFAULT_PRECISION_BITS])
def test_the_retry_reports_the_tolerance_of_the_doubled_precision(bits, monkeypatch):
    # the first precision's tolerance string would pass both tests above
    _plant_band_roots(monkeypatch, at_bits=bits)
    held = rh_numeric(_G2_P, 2, precision_bits=bits)
    _plant_band_roots(monkeypatch)
    unknown = rh_numeric(_G2_P, 2, precision_bits=bits)
    assert (held.holds, unknown.holds) == (True, None)
    assert held.tolerance == unknown.tolerance == _tolerance_string(2 * bits) != _tolerance_string(bits)


def test_a_factor_that_does_not_converge_is_unknown(monkeypatch):
    real = rh_lab._factor_roots
    calls = []

    def stalled(F, scale, target, bits):
        roots, residual, ok = real(F, scale, target, bits)
        calls.append(F)
        return roots, residual, ok and len(calls) > 1  # the first factor reports no convergence

    monkeypatch.setattr(rh_lab, "_factor_roots", stalled)
    v = rh_numeric(_G2_P, 2)
    assert v.holds is None and v.precision_bits == 256  # no retry at a higher precision
    assert v.detail.startswith("no convergence; residual ")
    assert len(v.deviations) == 4 and v.max_deviation is not None


def test_an_unknown_level_verdict_reads_unknown_in_its_cell(monkeypatch):
    _plant_band_roots(monkeypatch)
    spec = catalog_curve("X2g2").spec()
    report = sweep(SweepConfig(curves=(spec,), tuples=((2,),), checks=("rh",)))
    (cell,) = report["cells"]
    assert cell["checks"] == {"rh": "unknown"} and cell["data"]["rh_methods"] == ["numeric"]
    assert report["summary"]["per_check"]["rh"] == {"pass": 0, "fail": 0, "unknown": 1, "skipped": 0}
    assert report["summary"]["failed"] is False  # counts failed checks and cell errors only


def test_verdict_dispatch_by_genus():
    assert rh_verdict_for_level(artin_elliptic(2, 1)).method == "exact_g1"
    assert rh_verdict_for_level(artin_from_point_counts(2, 2, [3, 5])).method == "numeric"


def test_numeric_verdict_reads_the_numerator_directly(monkeypatch):
    def refuse(level):
        raise AssertionError("genus >= 2 needs only P and Q")

    monkeypatch.setattr(rh_lab, "extract_invariants", refuse)
    assert rh_verdict_for_level(artin_from_point_counts(2, 2, [3, 5])).holds is True


def test_exact_verdict_reads_the_numerator_directly(monkeypatch):
    def refuse(level):
        raise AssertionError("genus 1 needs only the trace and Q")

    monkeypatch.setattr(rh_lab, "extract_invariants", refuse)
    assert rh_verdict_for_level(artin_elliptic(2, 1)).holds is True
    assert rh_verdict_for_level(derive_step(artin_elliptic(2, 0), 2)).discriminant == 1 - 16


# -- sweep harness -------------------------------------------------------------------


def test_empty_grid_gives_empty_report():
    rep = sweep(SweepConfig(curves=(), tuples=((2,),)))
    assert rep["cells"] == [] and rep["summary"]["cells"] == 0
    assert rep["summary"]["failed"] is False


def test_sweep_small_grid_all_pass():
    cfg = SweepConfig(curves=tuple(builtin_elliptic_grid((2,))), tuples=((2,), (2, 2)))
    rep = sweep(cfg)
    assert rep["summary"]["failed"] is False
    assert rep["summary"]["cells"] == 10
    for cell in rep["cells"]:
        assert all(v in ("pass", "skipped") for v in cell["checks"].values())


def test_sweep_reports_are_byte_identical():
    cfg = SweepConfig(curves=tuple(builtin_elliptic_grid((2,))), tuples=((2,),))
    assert report_to_json(sweep(cfg)) == report_to_json(sweep(cfg))


# sha256 of report_to_json for small sweeps with all checks; the first two were
# recorded when levels were still stored as reduced rational functions, the
# genus-2 one while every cell still checked each level of its own path
REPORT_DIGESTS = {
    "elliptic q=2,3; 1;2;2,2": "d24592c02a8dd0bcec9232672c6331b28d567c8abfbc066e36e78a1754e4cba4",
    "X2g2; 2": "ebb5951d58cdfcf9da62a7241bb696b30332fe16a12e704ff48535478e174df6",
    "X2g2; 1;2;3;2,2": "26608f8867984f41793c4fc801481e076190643c68a5cf5979eee8452d09795b",
}


def test_sweep_report_bytes_are_unchanged():
    configs = {
        "elliptic q=2,3; 1;2;2,2": SweepConfig(
            curves=tuple(builtin_elliptic_grid((2, 3))), tuples=((1,), (2,), (2, 2))
        ),
        "X2g2; 2": SweepConfig(curves=(catalog_curve("X2g2").spec(),), tuples=((2,),)),
        "X2g2; 1;2;3;2,2": SweepConfig(
            curves=(catalog_curve("X2g2").spec(),), tuples=((1,), (2,), (3,), (2, 2))
        ),
    }
    for name, config in configs.items():
        report = report_to_json(sweep(config)).encode("utf-8")
        assert hashlib.sha256(report).hexdigest() == REPORT_DIGESTS[name], name


def _levels_of(spec):
    """A fresh tower of the curve, for run_cell without run_curve."""
    return curve_tower(spec)


def test_run_cell_extracts_invariants_once_per_level(monkeypatch):
    calls = {"extract_invariants": 0, "special_values": 0}
    for name in calls:
        real = getattr(rh_lab, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rh_lab, name, counting)
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    cell = run_cell(spec, (2, 3), SweepConfig(curves=(spec,), tuples=((2, 3),)), _levels_of(spec))
    assert set(cell["checks"].values()) == {"pass"}
    # three levels, shared by positivity and interlacing (the RH verdict and
    # ratio_bounds read the trace off the level); one set of special values per step
    assert calls == {"extract_invariants": 3, "special_values": 2}


def test_sweep_parallel_matches_serial():
    cfg = SweepConfig(curves=tuple(builtin_elliptic_grid((2,))), tuples=((2,), (3,)))
    assert report_to_json(sweep(cfg, jobs=1)) == report_to_json(sweep(cfg, jobs=2))
    genus2 = (
        catalog_curve("X2g2").spec(),
        CurveSpec(label="g2_q3_a1_b3", q=3, genus=2, numerator=(1, 1, 3, 3, 9)),
    )
    cfg = SweepConfig(curves=genus2, tuples=((1,), (2,), (2, 2)))
    assert report_to_json(sweep(cfg, jobs=1)) == report_to_json(sweep(cfg, jobs=2))


def test_sweep_rejects_unknown_checks():
    spec = CurveSpec(label="e", q=2, genus=1, trace=0)
    # a misspelt check would run nothing and read as a pass
    with pytest.raises(ValueError, match=r"unknown checks: \['positivty', 'rhh'\]; available: "):
        sweep(SweepConfig(curves=(spec,), tuples=((2,),), checks=("rhh", "positivty")))
    with pytest.raises(ValueError, match="unknown checks"):
        sweep(SweepConfig(curves=(), tuples=((2,),), checks=("rh", "nope")))


def test_sweep_checks_the_precision_up_front(monkeypatch):
    # below the floor every cell once ran and recorded the same error, while positivity counted as passed
    def fail(*args):
        raise AssertionError("derived a level before checking the precision")

    monkeypatch.setattr(rh_lab, "derive_step", fail)
    cfg = SweepConfig(
        curves=(catalog_curve("X2g2").spec(),), tuples=((1,), (2,)), checks=("rh", "positivity"), precision_bits=8
    )
    with pytest.raises(ValueError, match="precision must be at least 32 bits, got 8"):
        sweep(cfg)


def test_sweep_records_cell_errors():
    bad = CurveSpec(label="boundary", q=4, genus=1, trace=4)
    # tuples beyond the cap, empty ones and entries below 1 abort up front instead of running
    with pytest.raises(ValueError, match="cap"):
        sweep(SweepConfig(curves=(bad,), tuples=((65,),)))
    for steps in ((), (2, 0), (-1,)):
        with pytest.raises(ValueError, match="positive"):
            sweep(SweepConfig(curves=(bad,), tuples=((2,), steps)))


def test_run_cell_genus2():
    spec = CurveSpec(label="X2g2", q=2, genus=2, point_counts=(3, 5))
    cell = run_cell(spec, (2,), SweepConfig(curves=(spec,), tuples=((2,),)), _levels_of(spec))
    assert "error" not in cell
    assert cell["checks"]["positivity"] == "pass"
    assert cell["checks"]["rh"] == "pass"
    assert cell["checks"]["ratio_bounds"] == "skipped"
    assert cell["checks"]["miracle"] == "pass"


def test_ratio_bounds_read_the_tower_they_report_on(monkeypatch):
    # doubling every beta(n >= 1) of the recursion leaves each bounded ratio, from n = 2 on, as it was
    curves = tuple(builtin_elliptic_grid((2, 3)))
    config = SweepConfig(curves=curves, tuples=((2,), (3,), (2, 2)), checks=("ratio_bounds",))
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {"ratio_bounds": "pass"} for cell in cells)
    real = rh_lab.elliptic_beta_recursion

    def doubled(a, Q, n_max):
        betas = real(a, Q, n_max)
        return betas[:1] + [2 * b for b in betas[1:]]

    monkeypatch.setattr(rh_lab, "elliptic_beta_recursion", doubled)
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {"ratio_bounds": "fail"} for cell in cells)


def _plant_in_the_checked_row(monkeypatch, in_positive_row, edit):
    """Edit row n of the composition sums that invariants reads; derive_step reads its own and stays right."""
    real = invariants.composition_sums

    def planted(sv, m_max, positive=False):
        rows = list(real(sv, m_max, positive))
        if positive == in_positive_row:
            rows[m_max] = edit(*rows[m_max])
        return tuple(rows)

    monkeypatch.setattr(invariants, "composition_sums", planted)


@pytest.mark.parametrize(
    "check, positive, edit",
    [
        # E[n][n] + 1 in the closed beta sum
        ("beta_routes", False, lambda nums, D: (nums[:-1] + [nums[-1] + D], D)),
        # W_1 -> -W_1, which flips the sign at T = Q^-1
        ("interlacing", True, lambda nums, D: ([0, -nums[1]] + nums[2:], D)),
    ],
)
def test_table_checks_read_the_table_they_report_on(monkeypatch, check, positive, edit):
    curves = tuple(builtin_elliptic_grid((2, 3)))
    config = SweepConfig(curves=curves, tuples=((2,), (3,), (2, 2)), checks=(check,))
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {check: "pass"} for cell in cells)
    _plant_in_the_checked_row(monkeypatch, positive, edit)
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {check: "fail"} for cell in cells)


def _minus_beta(z):
    # P - 2(Q-1) beta T^g: the residue becomes -beta, the alphas and the functional equation stay
    return z.P - Poly([0] * z.genus + [2 * (z.Q - 1) * z.residue()])


def _off_circle(z):
    # trace Q + 2 > 2 sqrt(Q): both roots leave |T| = Q^(-1/2); P(1) = -alpha_0 keeps the pole at 1
    return Poly([z.P[0], -(z.Q + 2) * z.P[0], z.Q * z.P[0]])


def _scaled_by_last_step(z):
    # n * P at the step (prefix, n): alpha_0(prefix, n+1) and beta(prefix, n) are off by factors that differ
    return z.P * z.steps[-1]


@pytest.mark.parametrize(
    "check, plant",
    [("positivity", _minus_beta), ("rh", _off_circle), ("miracle", _scaled_by_last_step)],
)
def test_level_checks_read_the_levels_they_report_on(monkeypatch, check, plant):
    # the tower derives every level through rh_lab.derive_step; each plant is a valid level with one defect
    curves = tuple(builtin_elliptic_grid((2, 3)))
    config = SweepConfig(curves=curves, tuples=((2,), (3,), (2, 2)), checks=(check,))
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {check: "pass"} for cell in cells)
    real = rh_lab.derive_step

    def planted(z, n):
        level = real(z, n)
        return ZetaLevel(steps=level.steps, Q=level.Q, genus=level.genus, P=plant(level))

    monkeypatch.setattr(rh_lab, "derive_step", planted)
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {check: "fail"} for cell in cells)


def test_every_level_has_an_int_q_and_no_float_leaks_in(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"label": "g2", "q": 2, "genus": 2, "numerator": [1, -1, 1, -2, 4]}))
    sources = ("elliptic:q=3,a=1", "counts:q=2,g=2,N=3;5", str(path), "catalog:X2g2")

    def exact(x):
        return type(x) in (int, Fraction)

    for source in sources:
        spec = parse_curve_arg(source)
        tower = curve_tower(spec)
        for steps in ((), (2,), (3,), (2, 2)):
            z = tower.level(steps)
            assert type(z.Q) is int and z.Q == spec.q ** prod(steps), (source, steps)
            assert exact(z.residue()) and exact(z.residue_inv_q()), (source, steps)
            invs = tower.invariants(steps)
            assert all(map(exact, invs.alphas)) and exact(invs.beta), (source, steps)
            if z.genus == 1:
                assert all(map(exact, mult_struct.elliptic_beta_recursion(z.trace(), z.Q, 4))), (source, steps)
            if steps:
                sv = tower.special_values(steps)
                assert type(sv.Q) is int and all(type(x) is int for pair in sv.vhats for x in pair), (source, steps)
                signs = tower.interlacing(steps)[1]
                assert signs and all(type(s) is int and s in (-1, 0, 1) for s in signs), (source, steps)


# -- numeric settings ------------------------------------------------------------------


@pytest.mark.parametrize("bits", [0, MIN_PRECISION_BITS - 1])
def test_precision_below_floor_rejected(bits):
    # at precision 0 the default tolerance is 10^0 = 1, wide enough to pass the root T = 1 at deviation 0.41
    with pytest.raises(ValueError, match="precision"):
        rh_numeric(Poly([1, -3, 2]), 2, precision_bits=bits)
    assert rh_numeric(Poly([1, -3, 2]), 2, precision_bits=MIN_PRECISION_BITS).holds is False


GRID_TUPLES = ((1,), (2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2))


def _count_derivations(monkeypatch, fail_at=None):
    """Record the steps of every derive_step call in the package; raise DerivationError at ``fail_at``."""
    calls = []
    real = engine.derive_step

    def counting(z, n):
        calls.append(z.steps + (n,))
        if calls[-1] == fail_at:
            raise DerivationError(f"planted at {fail_at}")
        return real(z, n)

    for module in (engine, invariants, mult_struct, rh_lab):
        monkeypatch.setattr(module, "derive_step", counting, raising=False)
    return calls


def test_run_curve_derives_each_level_once(monkeypatch):
    calls = _count_derivations(monkeypatch)
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    cells = run_curve(spec, SweepConfig(curves=(spec,), tuples=GRID_TUPLES))
    assert [tuple(c["tuple"]) for c in cells] == list(GRID_TUPLES)
    for cell in cells:
        assert "error" not in cell
        assert set(cell["checks"].values()) <= {"pass", "skipped"}
    # the 8 tower paths and the 13 miracle levels n+1 name 12 distinct levels;
    # deriving every cell's prefix and miracle levels afresh made 26 calls
    assert len(calls) == 12
    assert set(calls) == {
        (1,), (2,), (3,), (4,), (5,), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (2, 2, 2), (2, 2, 3)
    }


def test_run_curve_shares_a_failed_derivation(monkeypatch):
    calls = _count_derivations(monkeypatch, fail_at=(2, 2))
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    cells = run_curve(spec, SweepConfig(curves=(spec,), tuples=GRID_TUPLES))
    errors = {tuple(c["tuple"]): c.get("error") for c in cells}
    # the failure is not stored: each cell through (2, 2) tries it and records the same error
    assert errors.pop((2, 2)) == errors.pop((2, 2, 2)) == "DerivationError: planted at (2, 2)"
    assert calls.count((2, 2)) == 2
    assert set(errors.values()) == {None}
    for cell in cells:
        if "error" not in cell:
            assert set(cell["checks"].values()) <= {"pass", "skipped"}


def test_sweep_counts_the_errored_cells(monkeypatch, tmp_path):
    from zetatower.cli import main

    calls = _count_derivations(monkeypatch, fail_at=(2, 2))
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    report = sweep(SweepConfig(curves=(spec,), tuples=GRID_TUPLES))
    errors = {tuple(c["tuple"]): c.get("error") for c in report["cells"]}
    # the cells that read the level (2, 2) carry its error, and only they
    assert {steps for steps, error in errors.items() if error} == {(2, 2), (2, 2, 2)}
    assert {errors[(2, 2)], errors[(2, 2, 2)]} == {"DerivationError: planted at (2, 2)"}
    assert report["summary"]["errors"] == 2 and report["summary"]["failed"] is True
    for cell in report["cells"]:
        if "error" not in cell:
            assert set(cell["checks"].values()) <= {"pass", "skipped"}
    path = tmp_path / "curves.json"
    path.write_text(json.dumps([spec.to_dict()]))
    tuples = ";".join(",".join(map(str, steps)) for steps in GRID_TUPLES)
    assert main(["sweep", "--curves", str(path), "--tuples", tuples, "--output", str(tmp_path / "r.json")]) == 1
    assert calls.count((2, 2)) == 4  # two cells in each sweep


def _count_calls(monkeypatch, names, plant=None):
    """Record the arguments of every call of ``names`` in rh_lab.

    ``plant(name, args)`` may raise, or return a result that replaces the real one.
    """
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(rh_lab, name)

        def counting(*args, _real=real, _name=name):
            calls[_name].append(args)
            planted = plant(_name, args) if plant else None
            return _real(*args) if planted is None else planted

        monkeypatch.setattr(rh_lab, name, counting)
    return calls


def test_run_curve_checks_each_level_and_step_once(monkeypatch):
    per_level = ("extract_invariants", "rh_verdict_for_level")
    per_step = ("special_values", "beta_closed_form", "counting_miracle_check", "interlacing_poly")
    calls = _count_calls(monkeypatch, per_level + per_step + ("elliptic_beta_recursion",))
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    cells = run_curve(spec, SweepConfig(curves=(spec,), tuples=GRID_TUPLES))
    for cell in cells:
        assert "error" not in cell
        assert set(cell["checks"].values()) <= {"pass", "skipped"}
    # the 8 paths reach 9 distinct levels through 8 distinct steps, and (1,)
    # gives back the base's numerator, so the level stages see 8 numerators;
    # checking every cell's own path made 21 calls per level stage and 13 per step stage
    levels = [(), (1,), (2,), (2, 2), (2, 2, 2), (2, 3), (3,), (3, 2), (4,)]
    for name in per_level:
        assert sorted(args[0].steps for args in calls[name]) == [s for s in levels if s != (1,)], name
    assert sorted(z.steps + (n,) for z, n in calls["special_values"]) == levels[1:]
    assert sorted(derived.steps for _, derived, _ in calls["counting_miracle_check"]) == levels[1:]
    assert {name: len(calls[name]) for name in per_step} == dict.fromkeys(per_step, 8)
    # the ratio bounds run the recursion once per prefix, and again only when a deeper n is read:
    # () over Q = 3 at n = 1 (to depth 2), 3 and 4, (2,) over 3^2 at n = 2 and 3, (3,) and (2, 2) once
    depths = [(Q, n_max) for _, Q, n_max in calls["elliptic_beta_recursion"]]
    assert sorted(depths) == [(3, 2), (3, 3), (3, 4), (9, 2), (9, 3), (27, 2), (81, 2)]


def test_a_sweep_forms_no_fraction_coefficients_of_a_derived_level(monkeypatch):
    # a derived numerator is read through its integer view: its tuple of Fraction coefficients is never formed
    read, derived = [], []
    real_coeffs, real_derive = Poly.coeffs, rh_lab.derive_step

    def deriving(z, n):
        derived.append(real_derive(z, n))
        return derived[-1]

    def coeffs(P):
        read.append(P)
        return real_coeffs.fget(P)

    monkeypatch.setattr(rh_lab, "derive_step", deriving)
    monkeypatch.setattr(Poly, "coeffs", property(coeffs))
    curves = (*builtin_elliptic_grid((2, 3)), catalog_curve("X2g2").spec())
    report = sweep(SweepConfig(curves=curves, tuples=((1,), (2,), (2, 2)), checks=rh_lab.ALL_CHECKS))
    assert report["summary"]["errors"] == 0 and not report["summary"]["failed"]
    assert {z.steps for z in derived} >= {(1,), (2,), (2, 2), (3,), (2, 3)}
    assert not {id(z.P) for z in derived} & {id(P) for P in read}
    assert all(z.P._coeffs is None for z in derived)  # nor formed when the level was built


def test_a_level_of_index_one_gets_its_prefix_results():
    for spec in (CurveSpec(label="e", q=3, genus=1, trace=1), catalog_curve("X2g2").spec()):
        tower = curve_tower(spec)
        for prefix in ((), (2,)):
            z, same = tower.level(prefix), tower.level(prefix + (1,))
            assert same.steps == prefix + (1,) and (same.P, same.Q) == (z.P, z.Q)
            assert tower.rh(prefix + (1,)) is tower.rh(prefix)
            assert tower.invariants(prefix + (1,)) is tower.invariants(prefix)


def test_a_long_path_on_a_fresh_tower_costs_no_recursion():
    # a level is derived from the longest stored prefix in a loop, not one call deeper per step
    tower = curve_tower(CurveSpec(label="e", q=2, genus=1, trace=0))
    z = tower.level((1,) * 2000)
    assert z.steps == (1,) * 2000 and (z.P, z.Q) == (tower.level(()).P, tower.level(()).Q)


def test_a_path_read_twice_builds_its_numerator_key_once(monkeypatch):
    calls = []
    real = ZetaLevel.numerator_key

    def counting(self):
        calls.append(self.steps)
        return real(self)

    monkeypatch.setattr(ZetaLevel, "numerator_key", counting)
    tower = curve_tower(CurveSpec(label="e", q=3, genus=1, trace=1))
    assert tower.invariants((2,)) is tower.invariants((2,))
    assert calls == [(2,)]


def test_a_failure_planted_at_the_base_is_shared_by_the_index_one_cells(monkeypatch):
    def plant(name, args):
        if args[0].steps == ():
            if name == "rh_verdict_for_level":
                return rh_lab.RHVerdict(method="exact_g1", holds=False, detail="planted")
            return invariants.InvariantSet(alphas=(Fraction(-1),), beta=Fraction(-7))

    names = ("extract_invariants", "rh_verdict_for_level")
    calls = _count_calls(monkeypatch, names, plant)
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    tuples = ((1,), (1, 1), (2,), (2, 1))
    cells = {tuple(c["tuple"]): c for c in run_curve(spec, SweepConfig(curves=(spec,), tuples=tuples))}
    for name in names:  # the levels (1,), (1, 1) and (2, 1) reuse the results of () and (2,)
        assert [args[0].steps for args in calls[name]] == [(), (2,)], name
    for steps in ((1,), (1, 1)):  # their last level is the planted base
        assert (cells[steps]["data"]["alphas"], cells[steps]["data"]["beta"]) == (["-1"], "-7")
    for key in ("alphas", "beta"):
        assert cells[(2, 1)]["data"][key] == cells[(2,)]["data"][key]
    for cell in cells.values():
        assert "error" not in cell
        assert cell["checks"]["positivity"] == cell["checks"]["rh"] == "fail"


def test_each_run_curve_call_makes_its_own_verdicts(monkeypatch):
    calls = _count_calls(monkeypatch, ("rh_verdict_for_level",))
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    config = SweepConfig(curves=(spec,), tuples=((1,), (2, 1)), checks=("rh",))
    assert run_curve(spec, config) == run_curve(spec, config)
    assert [args[0].steps for args in calls["rh_verdict_for_level"]] == [(), (2,)] * 2


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str digit limit")
def test_passing_checks_format_no_number_past_the_digit_limit():
    # the trace and discriminant at (10, 10, 5) and the beta ratios at (10, 10, 8)
    # have more decimal digits than Python converts to a string by default
    spec = CurveSpec(label="e", q=5, genus=1, trace=2)
    config = SweepConfig(
        curves=(spec,), tuples=((10, 10, 5), (10, 10, 8)), checks=("rh", "ratio_bounds"), product_cap=10**9
    )
    for cell in sweep(config)["cells"]:
        assert "error" not in cell, cell["error"]
        assert cell["checks"] == {"rh": "pass", "ratio_bounds": "pass"}
        assert cell["data"]["rh_methods"] == ["exact_g1"]


_DEEP_POSITIVITY = SweepConfig(
    curves=(CurveSpec(label="e", q=5, genus=1, trace=2),), tuples=((10, 10, 8),), checks=("positivity",), product_cap=10**9
)


def _assert_deep_positivity_cells(cells):
    # alpha(0) and beta at (10, 10, 8) have more decimal digits than Python converts by default
    (cell,) = cells
    assert "error" not in cell, cell["error"]
    assert cell["checks"] == {"positivity": "pass"}
    assert max(len(s) for s in cell["data"]["alphas"] + [cell["data"]["beta"]]) > 4300


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str digit limit")
def test_library_sweep_writes_report_strings_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    _assert_deep_positivity_cells(sweep(_DEEP_POSITIVITY)["cells"])
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-to-str digit limit")
def test_a_spawned_worker_writes_report_strings_past_the_digit_limit():
    # a spawned process starts with the default limit, whatever the parent set
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    spec = _DEEP_POSITIVITY.curves[0]
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        _assert_deep_positivity_cells(pool.submit(run_curve, spec, _DEEP_POSITIVITY).result())


def test_run_curve_shares_a_failed_level_check(monkeypatch):
    def plant(name, args):
        if args[0].steps == (2,):
            raise ArithmeticError(f"planted in {name}")

    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    config = SweepConfig(curves=(spec,), tuples=GRID_TUPLES)
    through = {(2,), (2, 2), (2, 3), (2, 2, 2)}  # the cells whose path reads level (2,)
    for name in ("extract_invariants", "rh_verdict_for_level"):
        with monkeypatch.context() as m:
            calls = _count_calls(m, (name,), plant)
            cells = run_curve(spec, config)
        errors = {tuple(c["tuple"]): c.get("error") for c in cells}
        # a failure is not stored: each cell that reads it runs it again and records the same error
        assert {errors.pop(steps) for steps in through} == {f"ArithmeticError: planted in {name}"}
        assert [args[0].steps for args in calls[name]].count((2,)) == len(through)
        assert set(errors.values()) == {None}
        for cell in cells:
            if tuple(cell["tuple"]) not in through:
                assert set(cell["checks"].values()) <= {"pass", "skipped"}


def test_run_curve_shares_a_failed_rh_verdict(monkeypatch):
    def plant(name, args):
        if args[0].steps == (2,):
            return rh_lab.RHVerdict(method="exact_g1", holds=False, detail="planted")

    calls = _count_calls(monkeypatch, ("rh_verdict_for_level",), plant)
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    cells = run_curve(spec, SweepConfig(curves=(spec,), tuples=GRID_TUPLES))
    rh = {tuple(c["tuple"]): c["checks"]["rh"] for c in cells}
    assert {steps for steps, status in rh.items() if status == "fail"} == {(2,), (2, 2), (2, 3), (2, 2, 2)}
    assert set(rh.values()) == {"pass", "fail"}
    # a verdict that was reached is shared, whatever it says
    assert [args[0].steps for args in calls["rh_verdict_for_level"]].count((2,)) == 1
