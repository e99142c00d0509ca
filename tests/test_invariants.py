"""Tests for invariant extraction, the closed beta formula, and interlacing."""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import zetatower.invariants as invariants_module
from ratfunc_oracle import interlacing_tail, positive_weight, residue_simple_pole, to_ratfunc
from zetatower.curves import artin_elliptic, artin_from_point_counts, hasse_traces
from zetatower.derived_engine import compositions, derive_step, derive_tower, special_values
from zetatower.exact_arith import Poly, rat_str
from zetatower.invariants import (
    beta_closed_form,
    counting_miracle_check,
    extract_invariants,
    interlacing_poly,
    interlacing_sign_check,
    interlacing_signs,
    reconstruct_numerator,
)


# -- extraction ---------------------------------------------------------------


def test_extract_artin_elliptic():
    z = artin_elliptic(2, 0)
    inv = extract_invariants(z)
    assert inv.alphas == (1,)
    assert inv.beta == 3
    assert z.P.coeffs == (1, 0, 2)


def test_extract_q3_a3():
    inv = extract_invariants(artin_elliptic(3, 3))
    assert inv.beta == Fraction(1, 2)
    assert inv.alphas == (1,)


def test_extract_genus2():
    z = artin_from_point_counts(2, 2, [3, 5])
    inv = extract_invariants(z)
    assert inv.alphas == (1, 3)
    assert inv.beta == 5
    assert z.P == Poly([1, 0, 0, 0, 4])


def test_normalized_level_has_alpha0_one():
    levels = derive_tower(artin_elliptic(2, 0), (2, 2), normalize=True)
    for z in levels:
        assert extract_invariants(z).alphas[0] == 1


def test_reconstruction_round_trip_small():
    for q, a in [(2, 0), (3, 3), (5, -4)]:
        z = artin_elliptic(q, a)
        inv = extract_invariants(z)
        assert reconstruct_numerator(inv.alphas, inv.beta, z.Q, 1) == z.P


def test_reconstruction_exercises_all_coefficient_ranges():
    # genus 3 makes every index range of the coefficient table nondegenerate:
    # k = 0, 1, 2..g-1, g, g+1, g+2..2g-1, 2g
    for q, counts in [(2, (3, 9, 9)), (2, (4, 8, 10)), (3, (5, 11, 29))]:
        z = artin_from_point_counts(q, 3, counts)
        inv = extract_invariants(z)
        P = reconstruct_numerator(inv.alphas, inv.beta, z.Q, 3)
        assert P == z.P
        assert P.degree == 6
        for i in range(7):
            assert P[6 - i] == z.Q ** (3 - i) * P[i]


def test_trace_of_genus1():
    assert derive_step(artin_elliptic(2, 0), 2).trace() == -1  # (Q+1) - (Q-1) * beta2/beta1 = 5 - 3*2


# -- beta closed form ------------------------------------------------------------


def test_beta_closed_form_depth_one_is_residue():
    z = artin_elliptic(2, 0)
    sv = special_values(z, 1)
    assert beta_closed_form(sv, 1, 1) == 3 == sv.zeta1


def test_beta_closed_form_depth_two():
    z = artin_elliptic(2, 0)
    sv = special_values(z, 2)
    # v2 + v1^2/(1 - Q^2) = 9 + 9/(1-4) = 6
    assert beta_closed_form(sv, 2, 1) == 6


def test_beta_dual_route_small_grid():
    for q in (2, 3):
        for a in hasse_traces(q):
            base = artin_elliptic(q, a)
            for steps in [(2,), (3,), (2, 2)]:
                levels = [base] + derive_tower(base, steps)
                for prev, nxt, n in zip(levels, levels[1:], steps):
                    sv = special_values(prev, n)
                    assert residue_simple_pole(to_ratfunc(nxt), 1) == beta_closed_form(sv, n, prev.genus)


def test_beta_closed_form_needs_depth():
    sv = special_values(artin_elliptic(2, 0), 1)
    with pytest.raises(ValueError, match="depth"):
        beta_closed_form(sv, 2, 1)


# -- counting miracle ---------------------------------------------------------------


def _miracle(z, n):
    return counting_miracle_check(z, derive_step(z, n), derive_step(z, n + 1))


def test_miracle_elliptic_n1_n2():
    z = artin_elliptic(2, 0)
    assert _miracle(z, 1).passed
    assert _miracle(z, 2).passed
    # g = 1 kills the q-power prefactor: alpha0 at (2) equals beta at (1)
    assert derive_step(z, 2).P[0] == 3


def test_miracle_at_depth():
    z2 = derive_step(artin_elliptic(2, 0), 2)
    assert _miracle(z2, 1).passed
    assert _miracle(z2, 2).passed


def test_miracle_genus2_prefactor():
    zg = artin_from_point_counts(2, 2, [3, 5])
    assert _miracle(zg, 1).passed
    assert _miracle(zg, 2).passed
    # n = 1, g = 2: alpha0 at (2) picks up q^(g-1) = 2 on alpha0 * beta = 5
    assert derive_step(zg, 2).P[0] == 10


# -- interlacing polynomial -----------------------------------------------------------


def _tail_sum(sv, n):
    """The plain positive-weight sum over the compositions of n: (-1)^(n-1) times the constant term."""
    return sum(positive_weight(k, sv) for k in compositions(n))


def test_interlacing_n1_constant():
    sv = special_values(artin_elliptic(2, 0), 1)
    ip = interlacing_poly(sv, 1)
    assert ip.poly == Poly([3])
    assert interlacing_sign_check(ip).passed


def test_interlacing_n2_shape_and_signs():
    sv = special_values(artin_elliptic(2, 0), 2)
    ip = interlacing_poly(sv, 2)
    # v2*(QT-1) + v1^2/(Q^2-1)*(Q^2 T-1) = 9(2T-1) + 3(4T-1) = 30T - 12
    assert ip.poly == Poly([-12, 30])
    assert ip.poly.degree == 1
    assert interlacing_signs(ip) == [1, -1]
    assert -ip.poly[0] == _tail_sum(sv, 2)
    # the single root 2/5 lies inside (Q^-2, Q^-1) = (1/4, 1/2)
    root = Fraction(12, 30)
    assert Fraction(1, 4) < root < Fraction(1, 2)


def test_interlacing_alternation_deeper():
    sv = special_values(artin_elliptic(2, 0), 5)
    for n in (3, 4, 5):
        ip = interlacing_poly(sv, n)
        assert ip.poly.degree == n - 1
        assert interlacing_signs(ip) == [(-1) ** (k + 1) for k in range(1, n + 1)]
        assert interlacing_sign_check(ip).passed
        assert (-1) ** (n - 1) * ip.poly[0] == _tail_sum(sv, n)


def test_interlacing_defining_identity():
    # gamma equals the tail sum times the clearing product, as rational functions
    sv = special_values(artin_elliptic(3, -2), 4)
    ip = interlacing_poly(sv, 4)
    clearing = Poly([1])
    for ell in range(1, 5):
        clearing = clearing * Poly([-1, Fraction(3) ** ell])
    assert (interlacing_tail(sv, 4) * clearing).to_poly() == ip.poly


# -- reports -----------------------------------------------------------------------


def test_positivity_flag():
    assert extract_invariants(artin_elliptic(2, 2)).positivity()


def test_invariant_report_schema():
    # the values one level's report carries; the JSON record itself is built
    # by the invariants command and pinned in test_cli
    z = artin_elliptic(2, 0)
    z2 = derive_step(z, 2)
    inv = extract_invariants(z2)
    assert list(z2.steps) == [2]
    assert rat_str(z2.Q) == "4"
    assert [rat_str(a) for a in inv.alphas] == ["3"]
    assert rat_str(inv.beta) == "6"
    assert inv.positivity() is True
    assert interlacing_signs(interlacing_poly(special_values(z, 2), 2)) == [1, -1]


def test_miracle_accepts_the_derived_level():
    z = artin_elliptic(3, -1)
    derived, following = derive_step(z, 3), derive_step(z, 4)
    assert counting_miracle_check(z, derived, following).passed
    # the check compares the levels it is given and derives nothing itself
    planted = counting_miracle_check(z, derived, replace(following, P=following.P * 2))
    assert not planted.passed and "expected" in planted.detail
    for derived_by, following_by in ((2, 4), (3, 5), (3, 3)):
        with pytest.raises(ValueError, match="derived by"):
            counting_miracle_check(z, derive_step(z, derived_by), derive_step(z, following_by))
    with pytest.raises(ValueError, match="derived by"):
        counting_miracle_check(z, z, following)


def test_reconstruction_check_survives_python_O():
    # an assert would be stripped under -O; the explicit raise must still fire
    code = (
        "import zetatower.invariants as inv\n"
        "from zetatower.curves import artin_elliptic\n"
        "inv.reconstruct_numerator = lambda *args: inv.Poly([7])\n"
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
