"""Tests for the RH verdicts and the sweep harness."""

import cmath
import hashlib
import importlib.util
import json
import math
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import mpmath as mp
import pytest

import zetatower.derived_engine as engine
import zetatower.invariants as invariants
import zetatower.mult_struct as mult_struct
from zetatower import rh_lab
from ratfunc_oracle import (
    RingPoly,
    fraction_beta_recursion,
    fraction_discriminant,
    fraction_trace,
    rational_squarefree_factors,
    ring,
)
from zetatower.curves import (
    CurveSpec,
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    artin_zeta,
    catalog_curve,
    hasse_traces,
)
from zetatower.cli import parse_curve_arg
from zetatower.derived_engine import DerivationError, derive_step
from zetatower.exact_arith import Poly, is_self_inversive, rat_str, real_weil_poly
from zetatower.invariants import beta_closed_form
from zetatower.rh_lab import (
    DEFAULT_PRECISION_BITS,
    SweepConfig,
    builtin_elliptic_grid,
    curve_tower,
    report_to_json,
    rh_exact_genus1,
    rh_numeric,
    rh_sturm,
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
    assert v.holds and v.discriminant[1] > 0 and Fraction(*v.discriminant) == 1 - 16


def test_exact_fails_synthetic():
    # A = 5, Q = 4 sits outside the Hasse interval: 25 > 16
    level = ZetaLevel(steps=(), Q=4, genus=1, P=Poly([1, -5, 4]))
    assert rh_exact_genus1(level).holds is False


def test_exact_boundary_flag():
    v = rh_exact_genus1(artin_elliptic(4, 4))
    assert v.holds and v.boundary


def _genus1_verdict_levels():
    """The boundary bases (q, a) = (4, +-4), the failing base 1 + 3T + 2T^2 over F_2, their levels at steps 2 and 3,
    and every x0 + x1 T + Q x0 T^2 with |x0| <= 3, |x1| <= 12, Q = 2..5, over contents 1 and 3/7."""
    failing = artin_zeta(CurveSpec(label="f", q=2, genus=1, numerator=(1, 3, 2)))
    bases = [artin_elliptic(4, 4), artin_elliptic(4, -4), failing]
    levels = bases + [derive_step(z, n) for z in bases for n in (2, 3)]
    for Q in (2, 3, 4, 5):
        for x0 in (-3, -2, -1, 1, 2, 3):
            for x1 in range(-12, 13):
                for c in (1, Fraction(3, 7)):
                    levels.append(ZetaLevel(steps=(), Q=Q, genus=1, P=Poly([c * x0, c * x1, c * Q * x0])))
    return levels


def test_exact_genus1_matches_the_fraction_discriminant():
    # |x0| > 1 tells x1^2 <= 4Q x0^2 apart from x1^2 <= 4Q, and the boundary bases sit on disc = 0, where < and <= differ
    levels = _genus1_verdict_levels()
    assert [rh_exact_genus1(z).outcome() for z in levels[:3]] == ["pass", "pass", "fail"]
    assert rh_exact_genus1(levels[0]).boundary and rh_exact_genus1(levels[1]).boundary
    outcomes = set()
    for z in levels:
        v, disc = rh_exact_genus1(z), fraction_discriminant(z)
        assert (v.holds, v.boundary) == (disc <= 0, disc == 0), z.P
        assert v.discriminant[1] > 0 and Fraction(*v.discriminant) == disc, z.P
        detail = "" if disc <= 0 else f"trace {rat_str(fraction_trace(z))}, discriminant {rat_str(disc)}"
        assert v.detail == detail, z.P
        outcomes.add((v.holds, v.boundary, z.P.view[1][0] in (-1, 1)))
    # on the boundary x1 = +-2 sqrt(Q) x0, and the view's ints are coprime, so x0 = +-1 there
    assert outcomes == {(True, True, True), (True, False, True), (True, False, False), (False, False, True), (False, False, False)}


def _fraction_step_checks(tower, steps):
    """(beta route, residue link) of the step ``steps`` in Fractions: the parent form of the tower's checks."""
    prev, z, n = tower.level(steps[:-1]), tower.level(steps), steps[-1]
    closed = Fraction(*beta_closed_form(engine.special_values(prev), n, prev.genus))
    beta = fraction_beta_recursion(fraction_trace(prev), prev.Q, n)[n]
    beta_n = Fraction(*z.residue_pair())
    return beta_n == closed, beta_n == prev.P[0] ** n * beta


@pytest.mark.parametrize("plant", [None, "scaled"])
def test_genus1_step_checks_match_their_fraction_forms(monkeypatch, plant):
    # towers of rational content (1 + T/2 + 2T^2 over F_2), of a failing RH base and of a Hasse boundary base;
    # planted, each derived level is n times itself, which the two checks see differently
    if plant:
        real = rh_lab.derive_step

        def scaled(z, n, sv=None):
            level = real(z, n, sv)
            return ZetaLevel(steps=level.steps, Q=level.Q, genus=1, P=ring(level.P) * n)

        monkeypatch.setattr(rh_lab, "derive_step", scaled)
    specs = [
        CurveSpec(label="h", q=2, genus=1, numerator=(1, "1/2", 2)),
        CurveSpec(label="f", q=2, genus=1, numerator=(1, 3, 2)),
        CurveSpec(label="b", q=4, genus=1, trace=-4),
        CurveSpec(label="e", q=3, genus=1, trace=1),
    ]
    seen = set()
    for spec in specs:
        tower = curve_tower(spec)
        for steps in ((1,), (2,), (3,), (2, 2), (3, 2), (2, 1, 3)):
            route, link = _fraction_step_checks(tower, steps)
            assert tower.beta_route(steps).passed == route, (spec.label, steps)
            assert tower.ratio_bounds(steps)[0].passed == link, (spec.label, steps)
            seen |= {route, link}
    assert seen == ({True, False} if plant else {True})


def test_exact_refuses_a_zero_constant_term():
    with pytest.raises(ValueError, match="constant term 0"):
        rh_exact_genus1(ZetaLevel(steps=(), Q=2, genus=1, P=Poly([0, 1])))


def test_exact_rejects_higher_genus():
    with pytest.raises(ValueError):
        rh_exact_genus1(artin_from_point_counts(2, 2, [3, 5]))


# -- test-side numeric reference ----------------------------------------------------


def _float_seeds(F):
    """Rough roots of the int polynomial F (lowest first) in builtin complex floats, by Durand-Kerner; None if they do not settle."""
    deg, lead = len(F) - 1, F[-1]
    cs = [c / lead for c in reversed(F)]
    roots = [1.125 * cmath.exp(1j * math.pi * (2 * k + 0.5) / deg) for k in range(deg)]
    for _ in range(200):
        worst = 0.0
        for i, x in enumerate(roots):
            val = 0j
            for c in cs:
                val = val * x + c
            den = prod(x - y for j, y in enumerate(roots) if j != i)
            if den == 0:
                return None
            roots[i] = x - val / den
            worst = max(worst, abs(val / den))
        if worst < 1e-13 * max(1.0, *map(abs, roots)):
            return roots if all(cmath.isfinite(r) for r in roots) else None
    return None


def _polyroots(F) -> list:
    """The roots of the int polynomial F (lowest first) at the working precision, by mpmath.polyroots.

    Builtin-float Durand-Kerner only picks the starting points; mpmath raises
    NoConvergence unless its own iteration settles.
    """
    if len(F) == 2:
        return [mp.mpc(mp.mpf(-F[0]) / F[1])]
    return mp.polyroots(F[::-1], maxsteps=100, extraprec=20, roots_init=_float_seeds(F), cleanup=False)


def _oracle_split(ints) -> list:
    """[(F, m)] with ints = c * prod F^m: the Fraction oracle's squarefree split, each monic F as its view's ints.

    Those ints are the primitive factor with a positive lead.
    """
    return [(F.view[1], m) for F, m in rational_squarefree_factors(Poly(ints))]


def _reference_holds(P: Poly, Q: int) -> bool:
    """RH by mpmath.polyroots on each squarefree factor of R: every root real and in [-2 sqrt Q, 2 sqrt Q], to 10^-12."""
    g, ints = int(P.degree) // 2, P.view[1]
    if not is_self_inversive(ints, Q, g):
        return False
    with mp.workdps(20):
        sqrt_q, eps = mp.sqrt(Q), mp.mpf(10) ** -12
        for F, _ in _oracle_split(real_weil_poly(ints, Q, g)):
            for v in (mp.mpc(u) / sqrt_q for u in _polyroots(F)):
                if abs(v.imag) > eps or abs(v.real) > 2 + eps:
                    return False
    return True


# -- numeric route (genus 2) ----------------------------------------------------------


def test_numeric_matches_exact_on_subgrid():
    # genus 1: the exact comparison, the test-side numeric reference and the Sturm count agree
    for q in (2, 3):
        for a in hasse_traces(q):
            z = artin_elliptic(q, a)
            assert rh_exact_genus1(z).holds is _reference_holds(z.P, z.Q) is rh_sturm(z.P, z.Q).holds is True
    planted = Poly([1, -5, 4])  # trace 5 > 2 sqrt 4
    assert _reference_holds(planted, 4) is rh_sturm(planted, 4).holds is False


def test_numeric_genus2_product():
    # (1 + 2T^2)(1 - 2T + 2T^2): all reciprocal roots on |T| = 2^(-1/2)
    P = RingPoly([1, 0, 2]) * RingPoly([1, -2, 2])
    v = rh_numeric(P, 2)
    assert v.holds
    assert mp.mpf(v.max_deviation) < mp.mpf("1e-30")


def test_numeric_planted_off_circle_fails():
    # (1 - 3T)(1 - 2T/3) is self-inversive at Q = 2, and sqrt(2) |T| is 0.47 and 2.12 at its roots
    P = RingPoly([1, -3]) * RingPoly([1, Fraction(-2, 3)]) * RingPoly([1, 0, 2])
    v = rh_numeric(P, 2)
    assert v.holds is False and v.detail == "off-circle root"
    assert mp.mpf(v.max_deviation) > 1


def test_numeric_boundary_double_root():
    # (1 - 4T + 4T^2)^2 at Q = 4: R = (u - 4)^2, so T = 1/2 = Q^(-1/2) four times
    v = rh_numeric(RingPoly([1, -4, 4]) ** 2, 4)
    assert v.holds and mp.mpf(v.max_deviation) < mp.mpf("1e-30")


def test_numeric_requires_even_degree():
    # the numeric route is genus 2 only: degree 4
    for P in (Poly([1, 1, 1, 1]), Poly([1, 0, 2]), Poly([1, 0, 6, 0, 12, 0, 8])):
        with pytest.raises(ValueError, match="degree 4"):
            rh_numeric(P, 2)


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


def test_numeric_matches_exact_real_weil_class():
    cases = _genus2_grid()
    assert len(cases) == 678
    for q, a1, a2 in cases:
        v = rh_numeric(Poly([1, a1, a2, q * a1, q * q]), q)
        assert v.holds is _weil_rh_holds(q, a1, a2), (q, a1, a2, v.max_deviation)
        assert v.precision_bits == 256  # no escalation


def _root_deviations(P: Poly, Q: int, solve=None, bits: int = DEFAULT_PRECISION_BITS) -> list:
    """The sorted | |r| sqrt(Q) - 1 | over the roots r that ``solve(ints, Q, sqrt_q)`` gives, at the working precision
    of a verdict at ``bits``; ``solve`` is ``rh_lab._real_weil_roots`` by default."""
    with mp.workprec(2 * bits + 64):
        sqrt_q = mp.sqrt(mp.mpf(Q))
        roots = (solve or rh_lab._real_weil_roots)(P.view[1], Q, sqrt_q)
        return sorted(abs(abs(r) * sqrt_q - 1) for r in roots)


def test_numeric_repeated_on_circle_factor_converges():
    P = RingPoly([1, -2, 2]) ** 2
    v = rh_numeric(P, 2)
    assert v.holds is True and v.precision_bits == 256 and mp.mpf(v.max_deviation) < mp.mpf("1e-60")
    devs = _root_deviations(P, 2)
    assert len(devs) == 4 and all(d < mp.mpf("1e-60") for d in devs)


def test_numeric_repeated_off_circle_factor_fails():
    P = (RingPoly([1, -3]) * RingPoly([1, Fraction(-2, 3)])) ** 2
    v = rh_numeric(P, 2)
    assert v.holds is False and len(_root_deviations(P, 2)) == 4


def _factor_roots(F, scale) -> list:
    """Roots scale * u of an int factor F of degree 1 or 2 in u, by rh_lab's ``_monic`` and ``_quadratic_roots``."""
    coeffs = rh_lab._monic(F, scale)
    return [mp.mpc(-coeffs[1])] if len(F) == 2 else rh_lab._quadratic_roots(coeffs[1], coeffs[2])


def _oracle_real_weil_roots(ints, Q: int, sqrt_q) -> list:
    """``rh_lab._real_weil_roots`` with R split by the Fraction oracle and each factor solved by ``_factor_roots``."""
    q = mp.mpf(Q)
    roots = []
    for F, mult in _oracle_split(real_weil_poly(ints, Q, 2)):
        for v in _factor_roots(F, 1 / sqrt_q):
            u = v * sqrt_q
            w = mp.sqrt(u * u - 4 * q)
            r = (u + w) / (2 * q)
            roots += [r, mp.conj(r) if u.imag == 0 and w.real == 0 else (u - w) / (2 * q)] * mult
    return roots


# double roots: of T and not of R, (1 - 2T^2)^2 at Q = 2 (R = u^2 - 8); of R, (1 - 2T + 2T^2)^2 at Q = 2
# (R = (u - 2)^2) and (1 - 4T + 4T^2)^2 at Q = 4 (R = (u - 4)^2, the boundary u = 2 sqrt Q)
_DOUBLE_ROOTS = [(RingPoly([1, 0, -2]) ** 2, 2), (RingPoly([1, -2, 2]) ** 2, 2), (RingPoly([1, -4, 4]) ** 2, 4)]


def test_the_closed_split_of_R_matches_the_fraction_oracle():
    # R = c0 + c1 u + c2 u^2 has one double root when c1^2 = 4 c0 c2 and two simple ones otherwise; the roots
    # equal, bit for bit, those of the oracle's primitive factors, also from the ints scaled by -3 and by -3^701,
    # whose c / c2 round differently unreduced at 2 * 512 + 64 bits
    cases = _parity_numerators() + _DOUBLE_ROOTS
    assert len(cases) == 678 + 3 + 3
    doubles = 0
    for P, Q in cases:
        for ints in (P.view[1], [-3 * x for x in P.view[1]], [-(3**701) * x for x in P.view[1]]):
            c0, c1, c2 = real_weil_poly(ints, Q, 2)
            double = c1 * c1 == 4 * c0 * c2
            doubles += double
            assert [(len(F) - 1, m) for F, m in _oracle_split((c0, c1, c2))] == [(1, 2) if double else (2, 1)], (P, Q)
            for bits in (256, 512):
                with mp.workprec(2 * bits + 64):
                    sqrt_q = mp.sqrt(mp.mpf(Q))
                    roots = rh_lab._real_weil_roots(ints, Q, sqrt_q)
                    assert len(roots) == 4 and roots == _oracle_real_weil_roots(ints, Q, sqrt_q), (P, Q, ints)
    # R = u^2 + a1 u + a2 - 2q on the grid, none at X2g2's levels, and the last two of _DOUBLE_ROOTS
    assert doubles == 3 * (sum(a1 * a1 == 4 * (a2 - 2 * q) for q, a1, a2 in _genus2_grid()) + 2) > 3 * 2


def _closed_form_factors():
    """(F, Q): every squarefree factor of R over the genus-2 grid and X2g2 at (2), (3), (2, 2); all of degree <= 2."""
    numerators = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]
    x2g2 = curve_tower(catalog_curve("X2g2").spec())
    numerators += [(x2g2.level(steps).P, x2g2.level(steps).Q) for steps in ((2,), (3,), (2, 2))]
    assert len(numerators) == 678 + 3
    return [(F, Q) for P, Q in numerators for F, _ in _oracle_split(real_weil_poly(P.view[1], Q, 2))]


def test_closed_form_roots_match_durand_kerner():
    # mpmath.polyroots is a Durand-Kerner iteration
    factors = _closed_form_factors()
    assert {len(F) - 1 for F, _ in factors} == {1, 2}
    with mp.workprec(2 * 256 + 64):
        target = mp.mpf(2) ** -(256 + 16)
        for F, Q in factors:
            sqrt_q = mp.sqrt(mp.mpf(Q))
            closed = _factor_roots(F, 1 / sqrt_q)
            assert len(closed) == len(F) - 1
            iterated = [u / sqrt_q for u in _polyroots(F)]
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
    with mp.workprec(2 * 256 + 64):
        roots = _factor_roots(F, 1 / mp.sqrt(mp.mpf(Q)))
        assert len(roots) == len(F) - 1
        for r, x in zip(sorted(roots, key=lambda z: (-z.real, -z.imag)), exact()):
            assert abs(r - x) <= abs(x) * mp.mpf(2) ** -(mp.mp.prec - 8), (F, r, x)


def _whole_p_roots(ints, Q: int) -> list:
    """The roots of P = c * ints at the working precision, each repeated by its multiplicity, from P's own squarefree factors.

    The parity reference for the reduced route: each factor is solved by
    mpmath.polyroots in T, with no real Weil polynomial and no closed form.
    """
    return [r for F, mult in _oracle_split(ints) for r in _polyroots(F) for _ in range(mult)]


def root_pairing_defect(P: Poly, Q: int, precision_bits: int = 128):
    """Worst distance from {roots} to its image under r -> 1/(Q * conj(r))."""
    with mp.workprec(2 * precision_bits + 64):
        roots = _whole_p_roots(P.view[1], Q)
        qf = mp.mpf(Q)
        worst = mp.mpf(0)
        for r in roots:
            image = 1 / (qf * mp.conj(r))
            worst = max(worst, min(abs(image - s) for s in roots))
        return worst


def test_self_inversive_root_pairing():
    P = RingPoly([1, 0, 2]) * RingPoly([1, -2, 2])
    assert root_pairing_defect(P, 2) < mp.mpf("1e-20")


# -- the real Weil polynomial R ----------------------------------------------------


def _full_route(monkeypatch):
    """Solve every numerator as the degree-4 P, by the parity reference at 256 bits, far below the verdict's tolerance."""

    def whole_p(ints, Q, sqrt_q):
        with mp.workprec(256):
            return _whole_p_roots(ints, Q)

    monkeypatch.setattr(rh_lab, "_real_weil_roots", whole_p)


def _refuse(monkeypatch, name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(rh_lab, name, refuse)


def _parity_numerators():
    """(P, Q): the genus-2 grid and X2g2 at (2), (3), (2, 2)."""
    cases = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]
    x2g2 = curve_tower(catalog_curve("X2g2").spec())
    return cases + [(x2g2.level(steps).P, x2g2.level(steps).Q) for steps in ((2,), (3,), (2, 2))]


def test_reduced_route_matches_the_full_numerator(monkeypatch):
    cases = _parity_numerators()
    assert len(cases) == 678 + 3
    reduced = [rh_numeric(P, Q) for P, Q in cases]
    reduced_devs = [_root_deviations(P, Q) for P, Q in cases]
    _full_route(monkeypatch)
    full = [rh_numeric(P, Q) for P, Q in cases]
    for (P, Q), r, f, r_devs in zip(cases, reduced, full, reduced_devs):
        f_devs = _root_deviations(P, Q, rh_lab._real_weil_roots)  # the full route, patched in
        assert len(r_devs) == len(f_devs) == P.degree, (P, Q)
        assert (r.outcome(), r.precision_bits) == (f.outcome(), f.precision_bits), (P, Q, r.max_deviation)
        for a, b in zip(r_devs, f_devs):  # sorted; equal to 5 digits, or both below tolerance
            assert abs(a - b) < mp.mpf(r.tolerance) + b * mp.mpf("1e-5"), (P, Q, a, b)
    assert sum(v.holds is True for v in reduced) == sum(_weil_rh_holds(*case) for case in _genus2_grid()) + 3


def test_a_double_root_on_the_circle_is_a_simple_root_of_R():
    # (1 - 2T^2)^2 at Q = 2: R = u^2 - 8 has simple roots at u = +-2 sqrt Q, each a double root T = +-1/sqrt 2
    v = rh_numeric(RingPoly([1, 0, -2]) ** 2, 2)
    assert v.holds is True and v.precision_bits == DEFAULT_PRECISION_BITS, v.max_deviation
    assert len(_root_deviations(RingPoly([1, 0, -2]) ** 2, 2)) == 4
    # R's factor is solved in closed form, so the roots are far inside 2^-(bits + 16), let alone the tolerance
    assert mp.mpf(v.max_deviation) < mp.mpf(2) ** -(DEFAULT_PRECISION_BITS + 16) * mp.mpf("1.01"), v.max_deviation


def test_an_asymmetric_numerator_fails_with_no_root_sought(monkeypatch):
    # 1 - 4T^4 at Q = 2 and 1 - 8T^6 at Q = 2 are not self-inversive, though all their roots lie on
    # |T| = 2^(-1/2): no level has such a P
    _refuse(monkeypatch, "_real_weil_roots")
    _refuse(monkeypatch, "_sturm_chain")
    v = rh_numeric(Poly([1, 0, 0, 0, -4]), 2)
    assert v.holds is False and v.detail == "not self-inversive"
    assert v.method == "numeric" and v.max_deviation is None and v.precision_bits == 256
    v = rh_sturm(Poly([1, 0, 0, 0, 0, 0, -8]), 2)
    assert (v.method, v.holds, v.boundary, v.detail) == ("exact_sturm", False, False, "not self-inversive")


# -- one root, one deviation and one string per conjugate pair -----------------------


def _two_root_verdict(P: Poly, Q: int, bits: int = 256, escalated: bool = False) -> tuple:
    """(the numeric verdict, the strings of its sorted deviations) with every step done separately, as the
    reference for ``rh_numeric``.

    R is split by the Fraction oracle, the tolerance is formed afresh, both T
    roots (u +- w) / 2Q of every root u of R by the formula, and one deviation
    and one string for each root.
    """
    g, ints = int(P.degree) // 2, P.view[1]
    with mp.workprec(2 * bits + 64):
        tol = mp.mpf(10) ** (-(mp.mpf(bits) * 3 / 20))
        fields = {"method": "numeric", "precision_bits": bits, "tolerance": mp.nstr(tol, 6)}
        if not is_self_inversive(ints, Q, g):
            return rh_lab.RHVerdict(holds=False, detail="not self-inversive", **fields), ()
        q = mp.mpf(Q)
        sqrt_q = mp.sqrt(q)
        roots = []
        for F, mult in _oracle_split(real_weil_poly(ints, Q, g)):
            for v in _factor_roots(F, 1 / sqrt_q):
                u = v * sqrt_q
                w = mp.sqrt(u * u - 4 * q)
                roots += [(u + w) / (2 * q), (u - w) / (2 * q)] * mult
        devs = sorted(abs(abs(r) * mp.sqrt(mp.mpf(Q)) - 1) for r in roots)
        if devs[-1] < tol:
            holds, detail = True, ""
        elif not devs[-1] < 10 * tol:
            holds, detail = False, "off-circle root"
        elif not escalated:
            return _two_root_verdict(P, Q, 2 * bits, escalated=True)
        else:
            holds, detail = None, "deviation inside the escalation band after retry"
        deviations = tuple(mp.nstr(d, 6) for d in devs)
        return rh_lab.RHVerdict(holds=holds, max_deviation=deviations[-1], detail=detail, **fields), deviations


def _has_real_w(P: Poly, Q: int) -> bool:
    """Whether some root u of R is real with u^2 > 4Q, so that w = sqrt(u^2 - 4Q) is real and nonzero."""
    with mp.workprec(256):
        sqrt_q = mp.sqrt(mp.mpf(Q))
        for F, _ in _oracle_split(real_weil_poly(P.view[1], Q, int(P.degree) // 2)):
            vs = _factor_roots(F, 1 / sqrt_q)
            if any(abs(v.imag) < mp.mpf(2) ** -100 and abs(v.real) > 2 + mp.mpf(2) ** -100 for v in vs):
                return True
    return False


# (1 - 3T)(1 - 2T/3)(1 + 2T^2) at Q = 2: R = (u - 11/3) u, and u = 11/3 > 2 sqrt 2 gives a real w
_REAL_W_CONTROL = (RingPoly([1, -3]) * RingPoly([1, Fraction(-2, 3)]) * RingPoly([1, 0, 2]), 2)


def test_every_verdict_field_equals_the_two_root_reference():
    cases = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()]
    cases += [(RingPoly([1, 0, -2]) ** 2, 2), _REAL_W_CONTROL]  # w = 0 at u = +-2 sqrt 2; a real w
    assert len(cases) == 678 + 2
    assert _has_real_w(*_REAL_W_CONTROL)
    assert sum(_has_real_w(P, Q) for P, Q in cases[:678]) > 100  # off-circle grid numerators have real w too
    for P, Q in cases:
        # a dataclass compares every field: outcome, the largest deviation, tolerance, precision, detail; the
        # sorted deviations of the roots _real_weil_roots gives are the reference's, to the printed digits
        verdict, deviations = _two_root_verdict(P, Q)
        assert rh_numeric(P, Q) == verdict, (P, Q)
        assert tuple(mp.nstr(d, 6) for d in _root_deviations(P, Q)) == deviations, (P, Q)
    for P, Q in cases[::50] + cases[-2:]:  # the retry, whose tolerance is formed per verdict
        verdict, deviations = _two_root_verdict(P, Q, 512, escalated=True)
        assert rh_numeric(P, Q, _escalated=True) == verdict, (P, Q)
        assert tuple(mp.nstr(d, 6) for d in _root_deviations(P, Q, bits=512)) == deviations, (P, Q)


def test_each_root_of_R_gives_its_own_pair_of_T_roots():
    # (r1, r2) of one u solve Q T^2 - u T + 1, so Q r1 r2 = 1: a conjugate taken for a pair with real w, or
    # for a purely imaginary u (R = u^2 + 1 below, whose w is imaginary too), would break it
    cases = [(Poly([1, a1, a2, q * a1, q * q]), q) for q, a1, a2 in _genus2_grid()[::7]]
    cases += [_REAL_W_CONTROL, (Poly([1, 0, 5, 0, 4]), 2), (RingPoly([1, 0, -2]) ** 2, 2)]
    for P, Q in cases:
        with mp.workprec(576):
            roots = rh_lab._real_weil_roots(P.view[1], Q, mp.sqrt(mp.mpf(Q)))
            for r1, r2 in zip(roots[::2], roots[1::2]):
                assert abs(Q * r1 * r2 - 1) < mp.mpf(10) ** -100, (P, Q, r1, r2)
                assert abs(sum(c * r1**i for i, c in enumerate(P.view[1]))) < mp.mpf(10) ** -100, (P, Q, r1)


# -- the verdict's branches --------------------------------------------------------


def _plant_band_roots(monkeypatch, at_bits=None):
    """Make _real_weil_roots return 4 roots at deviation 2 * 10^(-0.15 bits), inside the band; only at ``at_bits`` if given."""
    real = rh_lab._real_weil_roots
    calls = []

    def planted(ints, Q, sqrt_q):
        bits = (mp.mp.prec - 64) // 2  # the verdict works at 2 * bits + 64
        calls.append(bits)
        if at_bits is not None and bits != at_bits:
            return real(ints, Q, sqrt_q)
        return [(1 + 2 * mp.mpf(10) ** (-mp.mpf(bits) * 3 / 20)) / sqrt_q] * 4

    monkeypatch.setattr(rh_lab, "_real_weil_roots", planted)
    return calls


_G2_P = Poly([1, 1, 3, 2, 4])  # 1 + T + 3T^2 + 2T^3 + 4T^4 over F_2: RH holds


def _tolerance_string(bits: int) -> str:
    with mp.workprec(2 * bits + 64):
        return mp.nstr(mp.mpf(10) ** (-(mp.mpf(bits) * 3 / 20)), 6)


def test_a_deviation_in_the_band_twice_is_unknown(monkeypatch):
    calls = _plant_band_roots(monkeypatch)
    v = rh_numeric(_G2_P, 2)
    assert calls == [256, 512]
    assert v.holds is None and v.outcome() == "unknown" and v.precision_bits == 512
    assert v.detail == "deviation inside the escalation band after retry"
    with mp.workprec(2 * 512 + 64):  # the verdict reads the planted deviation 2 * 10^(-0.15 * 512)
        sqrt_q = mp.sqrt(2)
        planted = (1 + 2 * mp.mpf(10) ** (-mp.mpf(512) * 3 / 20)) / sqrt_q
        assert v.max_deviation == mp.nstr(abs(abs(planted) * sqrt_q - 1), 6) != _tolerance_string(512)


def test_a_deviation_in_the_band_once_holds_after_the_retry(monkeypatch):
    calls = _plant_band_roots(monkeypatch, at_bits=256)
    v = rh_numeric(_G2_P, 2)
    assert calls == [256, 512]
    assert v.holds is True and v.precision_bits == 512 and v.detail == ""
    assert mp.mpf(v.max_deviation) < mp.mpf(v.tolerance)


def test_the_retry_reports_the_tolerance_of_the_doubled_precision(monkeypatch):
    # the first precision's tolerance string would pass both tests above
    _plant_band_roots(monkeypatch, at_bits=256)
    held = rh_numeric(_G2_P, 2)
    _plant_band_roots(monkeypatch)
    unknown = rh_numeric(_G2_P, 2)
    assert (held.holds, unknown.holds) == (True, None)
    assert held.tolerance == unknown.tolerance == _tolerance_string(512) != _tolerance_string(256)


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
    assert rh_verdict_for_level(artin_from_point_counts(2, 3, [3, 5, 9])).method == "exact_sturm"


def test_numeric_verdict_reads_the_numerator_directly(monkeypatch):
    def refuse(level):
        raise AssertionError("genus >= 2 needs only P and Q")

    monkeypatch.setattr(rh_lab, "extract_invariants", refuse)
    assert rh_verdict_for_level(artin_from_point_counts(2, 2, [3, 5])).holds is True
    assert rh_verdict_for_level(artin_from_point_counts(2, 3, [3, 5, 9])).holds is True


def test_exact_verdict_reads_the_numerator_directly(monkeypatch):
    def refuse(level):
        raise AssertionError("genus 1 needs only the trace and Q")

    monkeypatch.setattr(rh_lab, "extract_invariants", refuse)
    assert rh_verdict_for_level(artin_elliptic(2, 1)).holds is True
    assert Fraction(*rh_verdict_for_level(derive_step(artin_elliptic(2, 0), 2)).discriminant) == 1 - 16


# -- the exact Sturm route (genus >= 3) ------------------------------------------------


def _genus3_grid():
    """(A_1, A_2, A_3) with |A_1| <= 4, |A_2| <= 6 and even |A_3| <= 10: P = 1 + A_1 T + ... + 8 T^6 over F_2."""
    return [(a1, a2, a3) for a1 in range(-4, 5) for a2 in range(-6, 7) for a3 in range(-10, 11, 2)]


def test_sturm_matches_the_numeric_reference_on_the_genus3_grid():
    cases = _genus3_grid()
    assert len(cases) == 1287
    numerators = [Poly([1, a1, a2, a3, 2 * a2, 4 * a1, 8]) for a1, a2, a3 in cases]
    verdicts = [rh_sturm(P, 2) for P in numerators]
    assert {(v.method, v.outcome()) for v in verdicts} == {("exact_sturm", "pass"), ("exact_sturm", "fail")}
    for c, P, v in zip(cases, numerators, verdicts):
        assert v.holds is _reference_holds(P, 2), c
    assert sum(v.holds for v in verdicts) == 107


def _cubic_products():
    """(1 - aT + 2T^2)(1 - bT + 2T^2)(1 - cT + 2T^2) for a < b < c in [-3, 3]: R = (u - a)(u - b)(u - c), squarefree."""
    cases = []
    for a in range(-3, 4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                cases.append(((a, b, c), RingPoly([1, -a, 2]) * RingPoly([1, -b, 2]) * RingPoly([1, -c, 2])))
    return cases


def _genus3_levels():
    """(P, Q) of genus-3 levels over F_2 whose R is a squarefree cubic."""
    cases = []
    for numerator, paths in (((1, 1, 2, 3, 4, 4, 8), ((), (2,), (3,))), ((1, 0, 6, 0, 12, 0, 8), ((2,), (2, 2)))):
        tower = curve_tower(CurveSpec(label="g3", q=2, genus=3, numerator=numerator))
        cases += [(tower.level(steps).P, tower.level(steps).Q) for steps in paths]
    return cases


def test_sturm_matches_the_traces_and_the_reference_on_products_and_levels():
    # RH holds iff the three traces lie in [-2 sqrt 2, 2 sqrt 2]
    products = _cubic_products()
    assert len(products) == 35
    for traces, P in products:
        v = rh_sturm(P, 2)
        assert v.holds is all(abs(t) <= 2 for t in traces) is _reference_holds(P, 2), traces
    levels = _genus3_levels()
    for P, Q in levels:
        assert rh_sturm(P, Q).holds is _reference_holds(P, Q) is True, (P, Q)
    z = curve_tower(CurveSpec(label="g3", q=2, genus=3, numerator=(1, 1, 2, 3, 4, 4, 8))).level((2,))
    assert rh_verdict_for_level(z) == rh_sturm(z.P, z.Q)


def test_sturm_matches_exact_real_weil_class_at_genus_2():
    # the genus-2 dispatch stays numeric for now; the Sturm count already agrees on the whole grid
    cases = _genus2_grid()
    assert len(cases) == 678
    for q, a1, a2 in cases:
        v = rh_sturm(Poly([1, a1, a2, q * a1, q * q]), q)
        assert v.method == "exact_sturm" and v.holds is _weil_rh_holds(q, a1, a2), (q, a1, a2)


def _from_traces(Q: int, *traces) -> Poly:
    """prod (1 - a T + Q T^2) over the traces: R = prod (u - a)."""
    return prod((RingPoly([1, -a, Q]) for a in traces), start=RingPoly([1]))


@pytest.mark.parametrize(
    "P, Q, holds, boundary",
    [
        # a root at w = 0: R = u^2 (u + 1), whose G is not squarefree at w = 0
        (_from_traces(2, 0, 0, -1), 2, True, False),
        (_from_traces(2, 0, 0, 3), 2, False, False),  # u = 3 > 2 sqrt 2 next to a double u = 0
        (_from_traces(2, 0, 0, 0), 2, True, False),  # G = w^3: nothing left after the strip
        # roots at w = 4Q, u = +-4 = +-2 sqrt 4: double T roots on the circle
        (_from_traces(4, 4, -4, 1), 4, True, True),
        (_from_traces(4, 4, 4, -1), 4, True, True),  # a repeated u at the boundary
        (_from_traces(4, 4, 5, 0), 4, False, True),  # on the boundary, and one root past it
        # repeated roots inside and outside
        (_from_traces(2, 1, 1, -2), 2, True, False),
        (_from_traces(2, 1, -1, 1, -1), 2, True, False),  # genus 4: G = (w - 1)^4
        (_from_traces(2, 3, 3, 0), 2, False, False),
        # R = u (u^2 + 1): u^2 = -1 < 0; and u^2 - 2u + 5, whose u^2 are not real
        (RingPoly([1, 0, 5, 0, 4]) * RingPoly([1, 0, 2]), 2, False, False),
        (RingPoly([1, -2, 9, -4, 4]) * RingPoly([1, 0, 2]), 2, False, False),
    ],
)
def test_sturm_boundary_cases(P, Q, holds, boundary):
    v = rh_sturm(P, Q)
    assert (v.method, v.holds, v.boundary) == ("exact_sturm", holds, boundary)
    assert (v.detail == "") is holds
    assert _reference_holds(P, Q) is holds


def test_a_sturm_chain_on_a_repeated_root_ends_in_the_gcd():
    # G = (w - 1)^2 (w - 2): a chain on G itself ends in w - 1, so the verdict counts G / (w - 1) instead
    assert rh_lab._sturm_chain([-2, 5, -4, 1])[-1] == (-1, 1)
    assert rh_lab._sturm_chain([2, -3, 1])[-1] == (1,)  # (w - 1)(w - 2): the chain ends in a constant


@pytest.mark.parametrize("e", [600, 1100, 1101])
def test_exact_verdict_is_independent_of_root_size(e):
    # the roots have modulus 2^(-e/2); Q = 2^e is past every float exponent, and the count forms no float
    Q, h = 2**e, 2 ** (e // 2)
    on_circle, off_circle = (rh_sturm(RingPoly([1, 0, Q]) * RingPoly([1, -h, Q]) * RingPoly([1, -k, Q]), Q) for k in (-h, 3 * h))
    assert on_circle.holds is True and off_circle.holds is False


def test_a_genus3_verdict_needs_no_mpmath(monkeypatch):
    class NoFloats:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath.{name} read")

    monkeypatch.setattr(rh_lab, "mp", NoFloats())
    tower = curve_tower(CurveSpec(label="g3", q=2, genus=3, numerator=(1, 1, 2, 3, 4, 4, 8)))
    verdicts = [tower.rh(steps) for steps in ((), (2,), (2, 3))]
    assert [(v.method, v.holds) for v in verdicts] == [("exact_sturm", True)] * 3
    assert rh_sturm(_from_traces(2, 0, 0, 3), 2).holds is False


def test_the_timing_script_pools_the_rh_admissible_genus2_numerators():
    # loaded by path, without running main(): a src/ name the script imports that goes away fails here
    path = Path(__file__).resolve().parents[1] / "scripts" / "time_step.py"
    spec = importlib.util.spec_from_file_location("time_step", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for q, size in ((2, 35), (3, 63)):
        box = [(a1, a2) for a1 in range(-4 * q, 4 * q + 1) for a2 in range(-6 * q, 6 * q + 1)]
        pool = script.genus2_pool(q)
        assert len(pool) == size
        assert pool == [(a1, a2) for a1, a2 in box if _weil_rh_holds(q, a1, a2)]


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
    # ratio_bounds read the view's ints off the level); one set of special
    # values per prefix, grown as far as it is read, serves the step, its
    # checks and its miracle step n + 1
    assert calls == {"extract_invariants": 3, "special_values": 2}


def test_jobs_starts_no_more_workers_than_curves(monkeypatch):
    # a pool starts all of its workers at the first submit, however few curves there are to spread
    import concurrent.futures

    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = SweepConfig(curves=tuple(builtin_elliptic_grid((2,)))[:3], tuples=((2,),), checks=("rh",))
    serial = report_to_json(sweep(cfg))
    assert [report_to_json(sweep(cfg, jobs=jobs)) for jobs in (2, 3, 1000)] == [serial] * 3
    assert workers == [2, 3, 3]


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


def test_sweep_rejects_a_repeated_check():
    # a repeated check would run the same work under another config_hash
    spec = CurveSpec(label="e", q=2, genus=1, trace=0)
    for checks in (("rh", "rh"), ("miracle", "rh", "positivity", "rh", "miracle")):
        with pytest.raises(ValueError, match="check 'rh' is repeated; each check of a sweep is run once"):
            sweep(SweepConfig(curves=(spec,), tuples=((2,),), checks=checks))


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
    # doubling every b(n >= 1) of the recursion leaves each bounded ratio, from n = 2 on, as it was
    curves = tuple(builtin_elliptic_grid((2, 3)))
    config = SweepConfig(curves=curves, tuples=((2,), (3,), (2, 2)), checks=("ratio_bounds",))
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {"ratio_bounds": "pass"} for cell in cells)
    real = mult_struct.elliptic_beta_recursion

    def doubled(A0, A1, Q, n_max):
        bs = real(A0, A1, Q, n_max)
        return bs[:1] + [2 * b for b in bs[1:]]

    monkeypatch.setattr(mult_struct, "elliptic_beta_recursion", doubled)
    cells = sweep(config)["cells"]
    assert len(cells) == 36 and all(cell["checks"] == {"ratio_bounds": "fail"} for cell in cells)


def test_ratio_bounds_refuse_a_step_off_genus_one():
    # the elliptic recursion run on a genus-2 numerator gave a failing residue link beside passing bounds
    tower = curve_tower(catalog_curve("X2g2").spec())
    with pytest.raises(ValueError, match=r"level \(2,\) is not the genus-1 level \(\) derived by n"):
        tower.ratio_bounds((2,))
    tower = curve_tower(CurveSpec(label="e", q=3, genus=1, trace=1))
    for prev, derived in (((), (2, 2)), ((2,), (2,)), ((2,), (3,))):  # not prev derived by n
        with pytest.raises(ValueError, match="is not the genus-1 level"):
            mult_struct.step_ratio_checks(tower.level(prev), tower.level(derived))
    for steps, bounds in (((1,), [2]), ((3,), [2, 3]), ((2, 2), [2])):
        results = tower.ratio_bounds(steps)
        assert [r.name for r in results] == ["ratio_bounds[residue]"] + [f"ratio_bounds[n={n}]" for n in bounds]
        assert all(r.passed and r.detail == "" for r in results), steps


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
    return ring(z.P) - Poly([0] * z.genus + [2 * (z.Q - 1) * Fraction(*z.residue_pair())])


def _off_circle(z):
    # trace Q + 2 > 2 sqrt(Q): both roots leave |T| = Q^(-1/2); P(1) = -alpha_0 keeps the pole at 1
    return Poly([z.P[0], -(z.Q + 2) * z.P[0], z.Q * z.P[0]])


def _scaled_by_last_step(z):
    # n * P at the step (prefix, n): alpha_0(prefix, n+1) and beta(prefix, n) are off by factors that differ
    return ring(z.P) * z.steps[-1]


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

    def planted(z, n, sv=None):
        level = real(z, n, sv)
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
            assert all(type(x) is int for x in (*z.residue_pair(), *z.residue_inv_q_pair())), (source, steps)
            invs = tower.invariants(steps)
            assert type(invs.total) is int and all(type(s) is int for s in invs.S), (source, steps)
            alphas, beta = invariants.invariant_values(invs, z.Q)
            assert all(map(exact, alphas)) and exact(beta), (source, steps)
            if z.genus == 1:
                bs = mult_struct.elliptic_beta_recursion(*z.P.view[1][:2], z.Q, 4)
                assert len(bs) == 5 and all(type(b) is int for b in bs), (source, steps)
            if steps:
                sv = engine.special_values(tower.level(steps[:-1]))
                sv.grow(steps[-1])
                assert type(sv.Q) is int and all(type(x) is int for pair in sv.vhats for x in pair), (source, steps)
                signs = tower.interlacing(steps)[1]
                assert signs and all(type(s) is int and s in (-1, 0, 1) for s in signs), (source, steps)


GRID_TUPLES = ((1,), (2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2))


def _count_derivations(monkeypatch, fail_at=None):
    """Record the steps of every derive_step call in the package; raise DerivationError at ``fail_at``."""
    calls = []
    real = engine.derive_step

    def counting(z, n, sv=None):
        calls.append(z.steps + (n,))
        if calls[-1] == fail_at:
            raise DerivationError(f"planted at {fail_at}")
        return real(z, n, sv)

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


def _count_calls(monkeypatch, names, plant=None, module=rh_lab):
    """Record the arguments of every call of ``names`` in ``module``, rh_lab unless given.

    ``plant(name, args)`` may raise, or return a result that replaces the real one.
    """
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)

        def counting(*args, _real=real, _name=name):
            calls[_name].append(args)
            planted = plant(_name, args) if plant else None
            return _real(*args) if planted is None else planted

        monkeypatch.setattr(module, name, counting)
    return calls


def test_run_curve_checks_each_level_and_step_once(monkeypatch, interlacing_poly_calls):
    per_level = ("extract_invariants", "rh_verdict_for_level")
    per_step = ("beta_closed_form", "counting_miracle_check", "interlacing_sign_check")
    calls = {
        **_count_calls(monkeypatch, per_level + per_step[1:] + ("special_values",)),
        # the beta routes and the ratio bounds call these inside the modules that own the checks
        **_count_calls(monkeypatch, per_step[:1], module=invariants),
        **_count_calls(monkeypatch, ("elliptic_beta_recursion",), module=mult_struct),
    }
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
    # one set of special values per prefix, read by the prefix's derivations (the miracle's n + 1
    # among them), beta routes and interlacing, each growing it as far as it reads
    assert sorted(z.steps for z, in calls["special_values"]) == [(), (2,), (2, 2), (3,)]
    assert sorted(derived.steps for _, derived, _ in calls["counting_miracle_check"]) == levels[1:]
    assert {name: len(calls[name]) for name in per_step} == dict.fromkeys(per_step, 8)
    # interlacing reads the signs off one table row per step and builds no polynomial
    assert interlacing_poly_calls == []
    # the ratio bounds run the recursion once per step, to depth max(n, 2), since the bounds start at n = 2:
    # () over Q = 3 at n = 1, 2, 3 and 4, (2,) over 3^2 at n = 2 and 3, (3,) and (2, 2) at n = 2
    depths = [(Q, n_max) for _, _, Q, n_max in calls["elliptic_beta_recursion"]]
    assert sorted(depths) == [(3, 2), (3, 2), (3, 3), (3, 4), (9, 2), (9, 3), (27, 2), (81, 2)]


def _count_builds(monkeypatch):
    """(built, kept): every special value and table row the package's towers compute, and their sets by prefix.

    built holds (prefix, "vhat", k) for each product vhat(k) and (prefix, positive, m) for each table row,
    one entry per time it is appended to its set.
    """
    built, kept = [], {}
    real = rh_lab.special_values

    class Counting(list):
        def __init__(self, items, key):
            super().__init__(items)
            self.key = key

        def append(self, item):
            built.append(self.key + (len(self),))
            super().append(item)

    def counting(z):
        assert z.steps not in kept, f"a second set of special values for {z.steps}"
        sv = kept[z.steps] = real(z)
        sv.vhats = Counting(sv.vhats, (z.steps, "vhat"))
        for positive in (False, True):
            sv.tables[positive] = Counting(sv.tables[positive], (z.steps, positive))
        return sv

    monkeypatch.setattr(rh_lab, "special_values", counting)
    return built, kept


# () serves the steps 1..4 and the miracle's 5, (2,) the steps 2, 3 and the miracle's 4, and (2, 2) and (3,)
# the step 2 and the miracle's 3: each set grows to the largest step read from it, and so do the signed rows
# (its beta route) and the positive rows (its interlacing)
GRID_DEPTHS = {(): 4, (2,): 3, (2, 2): 2, (3,): 2}


def _assert_built_once(built, kept):
    """Each value and row of GRID_DEPTHS built once, and every set equal to a fresh one grown as far."""
    rows = sorted((p, s, m) for p, d in GRID_DEPTHS.items() for s in (False, True) for m in range(1, d + 1))
    values = sorted((p, "vhat", k) for p, d in GRID_DEPTHS.items() for k in range(1, d + 1))
    assert len(rows) == 22  # building each of the 28 tables afresh built 60
    assert sorted(built, key=repr) == sorted(rows + values, key=repr)
    assert kept.keys() == GRID_DEPTHS.keys()
    for prefix, sv in kept.items():  # no reader mutated a shared row
        fresh = engine.special_values(sv.level)
        for positive, table in sv.tables.items():
            assert tuple(table) == engine.composition_sums(fresh, GRID_DEPTHS[prefix], positive)
        assert sv.vhats == fresh.vhats and sv.plan == fresh.plan == engine.pair_plan(sv.Q, GRID_DEPTHS[prefix])


def test_run_curve_builds_each_table_row_once(monkeypatch):
    # a prefix's derivations (the miracle's n + 1 among them), beta routes and interlacing share the values
    # and rows kept on its one set of special values: each is built, appended, once
    built, kept = _count_builds(monkeypatch)
    spec = CurveSpec(label="e", q=3, genus=1, trace=1)
    cells = run_curve(spec, SweepConfig(curves=(spec,), tuples=GRID_TUPLES))
    for cell in cells:
        assert "error" not in cell
        assert set(cell["checks"].values()) <= {"pass", "skipped"}
    _assert_built_once(built, kept)


@pytest.mark.parametrize("descending", [True, False], ids=["descending", "ascending"])
def test_a_tower_read_in_any_order_builds_each_value_and_row_once(monkeypatch, descending):
    # the step checks before their level, the miracle's n + 1 first: whatever the order, a set grows as far
    # as each reader reads, so it holds what run_curve's does, each value and row built once
    built, kept = _count_builds(monkeypatch)
    tower = curve_tower(CurveSpec(label="e", q=3, genus=1, trace=1))
    reads = [
        lambda steps: tower.level(steps[:-1] + (steps[-1] + 1,)),
        tower.interlacing,
        tower.beta_route,
        tower.miracle,
        tower.ratio_bounds,
        tower.level,
    ]
    for steps in sorted(GRID_TUPLES, reverse=descending):
        for read in reads if descending else reads[::-1]:
            read(steps)
    for steps in GRID_TUPLES:
        assert tower.interlacing(steps)[0].passed and tower.beta_route(steps).passed and tower.miracle(steps).passed
    _assert_built_once(built, kept)


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
            return invariants.InvariantSet(content=Fraction(1), S=(-1,), total=-14)  # beta = -14 / (3 - 1)

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
