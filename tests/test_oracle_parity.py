"""The polynomial-cost engine against the composition-by-composition RatFunc route.

``ratfunc_oracle`` sums every composition as a rational function and lets gcd
reduction cancel the interior poles; the engine evaluates composition sums by
dynamic programming, certifies the cancellation by residues and interpolates.
The two must produce identical numerators and interlacing polynomials.
"""

import pytest

from ratfunc_oracle import composition_weight, oracle_interlacing_poly, oracle_numerator, positive_weight
from zetatower.curves import artin_elliptic, artin_from_point_counts, hasse_traces
from zetatower.derived_engine import composition_sums, compositions, derive_step, special_values
from zetatower.invariants import interlacing_poly

N_MAX = 8
BASES = [(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)] + ["X2g2"]


def _base(key):
    if key == "X2g2":
        return artin_from_point_counts(2, 2, [3, 5], label="X2g2")
    q, a = key
    return artin_elliptic(q, a)


@pytest.mark.parametrize("key", BASES, ids=str)
def test_step_numerators_match_oracle(key):
    z = _base(key)
    for n in range(1, N_MAX + 1):
        assert derive_step(z, n).P == oracle_numerator(z, n), n


@pytest.mark.parametrize("key", BASES, ids=str)
def test_interlacing_matches_oracle(key):
    sv = special_values(_base(key), N_MAX)
    for n in range(1, N_MAX + 1):
        assert interlacing_poly(sv, n).poly == oracle_interlacing_poly(sv, n), n


def test_oracle_parity_at_a_derived_level():
    z = derive_step(artin_elliptic(3, 1), 2)
    for n in range(1, 6):
        assert derive_step(z, n).P == oracle_numerator(z, n), n


@pytest.mark.parametrize(
    "z",
    [artin_elliptic(2, 1), artin_elliptic(3, -2), artin_from_point_counts(2, 2, [3, 5])],
    ids=["E2a1", "E3am2", "X2g2"],
)
def test_composition_sums_match_brute_force(z):
    m_max = 10
    sv = special_values(z, m_max)
    table = composition_sums(sv, m_max)
    positive = composition_sums(sv, m_max, positive=True)
    assert table[0] == (0,)
    for m in range(1, m_max + 1):
        comps = list(compositions(m))
        assert table[m][0] == 0
        for p in range(1, m + 1):
            assert table[m][p] == sum(composition_weight(k, sv) for k in comps if k[-1] == p)
            # reversal keeps the weight, so the first-part sums coincide
            assert table[m][p] == sum(composition_weight(k, sv) for k in comps if k[0] == p)
            assert positive[m][p] == sum(positive_weight(k, sv) for k in comps if k[-1] == p)
