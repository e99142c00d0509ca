"""Tests for the tower derivation step and its structural guarantees."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from zetatower.curves import (
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    validate_zeta_level,
)
from zetatower import derived_engine
from zetatower.derived_engine import (
    DerivationError,
    SpecialValues,
    compositions,
    derive_step,
    derive_tower,
    normalize_level,
    special_values,
)
from ratfunc_oracle import RatFunc, composition_weight, rational_divmod, residue_simple_pole, to_ratfunc
from zetatower.exact_arith import Poly


# -- compositions --------------------------------------------------------------


def test_compositions_of_zero_is_single_empty():
    assert list(compositions(0)) == [()]


def test_compositions_of_two():
    assert list(compositions(2)) == [(1, 1), (2,)]


def test_compositions_of_three():
    got = list(compositions(3))
    assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(got) == 4


@given(st.integers(min_value=1, max_value=9))
def test_compositions_count_and_sums(n):
    comps = list(compositions(n))
    assert len(comps) == 2 ** (n - 1)
    assert all(sum(c) == n and all(p >= 1 for p in c) for c in comps)
    assert len(set(comps)) == len(comps)


# -- special values -------------------------------------------------------------


def test_special_values_q2_a0():
    z = artin_elliptic(2, 0)
    sv = special_values(z, 3)
    # residue route and the N_1/(q-1) route must agree
    assert sv.zeta1 == 3 == Fraction(2 + 1 - 0, 2 - 1)
    # zeta_hat(2) = Z(1/4) = (1 + 2/16)/((3/4)(1/2)) = 3 by hand
    assert sv.zeta_hat(2) == 3
    assert sv.vhat(2) == 9
    assert sv.vhat(0) == 1


def test_special_values_vhat_recursion():
    sv = special_values(artin_elliptic(3, -1), 5)
    for n in range(1, 6):
        assert sv.vhat(n) == sv.vhat(n - 1) * sv.zeta_hat(n)


def test_composition_weight_pairs():
    sv = special_values(artin_elliptic(2, 0), 3)
    assert composition_weight((2,), sv) == 9
    assert composition_weight((1, 1), sv) == Fraction(9, 1 - 4)
    assert composition_weight((1, 1, 1), sv) == Fraction(27, (1 - 4) * (1 - 4))


# -- derive_step ------------------------------------------------------------------


def test_derive_step_index_one_is_identity():
    z = artin_elliptic(2, 0)
    z1 = derive_step(z, 1)
    assert to_ratfunc(z1) == to_ratfunc(z)
    assert z1.steps == (1,)
    assert z1.Q == 2


def test_derive_step_two_golden():
    # expanded by hand: the two a-terms combine to 3(1+T+4T^2)/((1-T)(1-4T))
    z2 = derive_step(artin_elliptic(2, 0), 2)
    assert z2.P == Poly([3, 3, 12])
    assert z2.Q == 4
    assert residue_simple_pole(to_ratfunc(z2), 1) == 6


def test_derive_step_twice():
    z = artin_elliptic(2, 0)
    z22 = derive_step(derive_step(z, 2), 2)
    assert z22.Q == 16
    rem = rational_divmod(Poly([1, -1]) * Poly([1, -16]), to_ratfunc(z22).den)[1]
    assert rem.is_zero()
    assert all(r.passed for r in validate_zeta_level(z22))


def test_derive_tower_ones():
    z = artin_elliptic(2, 0)
    levels = derive_tower(z, (1, 1, 1))
    assert [l.steps for l in levels] == [(1,), (1, 1), (1, 1, 1)]
    assert all(to_ratfunc(l) == to_ratfunc(z) for l in levels)


def test_derive_tower_two_three():
    levels = derive_tower(artin_elliptic(2, 0), (2, 3))
    assert levels[-1].Q == 64
    assert all(r.passed for r in validate_zeta_level(levels[-1]))


def test_derivation_guard_trips_on_malformed_input():
    from zetatower.exact_arith import ONE

    # the zeta 1/(1-T) at Q = 2: its P = 1-2T has degree 1 and no pole at T = 1/2
    garbage = ZetaLevel(steps=(), Q=2, genus=1, P=Poly([1, -2]))
    assert to_ratfunc(garbage) == RatFunc(ONE, Poly([1, -1]))
    with pytest.raises(DerivationError, match="derivation inconsistency"):
        derive_step(garbage, 2)


def test_derive_tower_rejects_bad_tuples():
    z = artin_elliptic(2, 0)
    with pytest.raises(ValueError):
        derive_tower(z, ())
    with pytest.raises(ValueError):
        derive_tower(z, (0,))


def test_functional_equation_every_level():
    for q, a in [(2, 0), (3, 2), (5, -3)]:
        for steps in [(2,), (3,), (2, 2)]:
            for level in derive_tower(artin_elliptic(q, a), steps):
                assert to_ratfunc(level).subst_reciprocal(Fraction(1, level.Q)) == to_ratfunc(level)


def test_genus2_derivation_validates():
    zg = artin_from_point_counts(2, 2, [3, 5])
    z2 = derive_step(zg, 2)
    assert z2.Q == 4 and z2.genus == 2
    assert z2.P.degree == 4
    assert all(r.passed for r in validate_zeta_level(z2))


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-3, 7), Fraction(5, 2)])
@pytest.mark.parametrize("n", [2, 3])
def test_constant_scaling_covariance(c, n):
    # scaling the input zeta by c scales the derived zeta by c**n
    z = artin_elliptic(2, 0)
    scaled = ZetaLevel(steps=(), Q=z.Q, genus=1, P=z.P * c)
    assert to_ratfunc(scaled) == to_ratfunc(z) * c
    derived = derive_step(z, n)
    derived_scaled = derive_step(scaled, n)
    assert to_ratfunc(derived_scaled) == to_ratfunc(derived) * c**n


# -- normalization ------------------------------------------------------------------


def test_normalize_level_records_constant():
    z2 = derive_step(artin_elliptic(2, 0), 2)
    z2n = normalize_level(z2)
    assert z2n.P[0] == 1
    assert to_ratfunc(z2n) * 3 == to_ratfunc(z2)


def test_normalized_tower_matches_post_hoc_normalization():
    # by the scaling covariance, normalize-as-you-go equals normalizing each
    # unnormalized level by its own constant term
    base = artin_elliptic(3, 1)
    norm = derive_tower(base, (2, 2), normalize=True)
    plain = derive_tower(base, (2, 2), normalize=False)
    for zn, zp in zip(norm, plain):
        assert to_ratfunc(zn) == to_ratfunc(normalize_level(zp))


def test_derive_tower_from_curve_spec():
    from zetatower.curves import CurveSpec

    spec = CurveSpec(label="e", q=2, genus=1, trace=0)
    levels = derive_tower(spec, (2,))
    assert levels[0].P == Poly([3, 3, 12])


# -- pole-cancellation certificate ------------------------------------------------


def _corrupt_table(monkeypatch, m, p):
    # E[m][p] + 1 on the int row (nums, D): nums[p] + D
    real = derived_engine.composition_sums

    def corrupted(sv, m_max, positive=False):
        rows = list(real(sv, m_max, positive))
        nums, D = rows[m]
        rows[m] = (nums[:p] + [nums[p] + D] + nums[p + 1 :], D)
        return tuple(rows)

    monkeypatch.setattr(derived_engine, "composition_sums", corrupted)


@pytest.mark.parametrize("z", [artin_elliptic(3, 1), artin_from_point_counts(2, 2, [3, 5])], ids=["E3a1", "X2g2"])
def test_corrupted_composition_sum_is_caught(monkeypatch, z):
    n = 5
    for m in range(1, n):
        for p in range(1, m + 1):
            with monkeypatch.context() as mp:
                _corrupt_table(mp, m, p)
                with pytest.raises(DerivationError, match="do not cancel"):
                    derive_step(z, n)
    assert derive_step(z, n).steps == (n,)  # the real table passes


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_corrupted_special_value_is_caught(monkeypatch, k):
    real = derived_engine.special_values

    def corrupted(z, n_max):
        sv = real(z, n_max)
        values = list(sv.values)
        values[k - 1] += Fraction(1, 3)
        vhats = [Fraction(1)]
        for v in values:
            vhats.append(vhats[-1] * v)
        return SpecialValues(Q=sv.Q, values=tuple(values), vhats=tuple(vhats))

    monkeypatch.setattr(derived_engine, "special_values", corrupted)
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(artin_elliptic(2, -1), 5)


def test_deep_genus2_step_is_certified_and_valid():
    z = derive_step(artin_from_point_counts(2, 2, [3, 5]), 20)
    assert z.Q == 2**20 and z.P.degree == 4
    assert all(r.passed for r in validate_zeta_level(z))


def test_level_with_residues_past_the_int_str_limit_validates():
    # Res(1) at (10, 10, 6) has more than 4300 decimal digits, Python's default
    # limit for converting an int to a string
    levels = derive_tower(artin_from_point_counts(2, 2, [3, 5]), (10, 10, 6))
    assert levels[-1].Q == 2**600
    assert all(r.passed for r in validate_zeta_level(levels[-1]))


# The certificate also reads the previous level directly: its residues at 1 and
# 1/Q and its values Z(Q^-k) at the interior points.  A wrong one must not cancel.

_BASES = [artin_elliptic(3, 1), artin_from_point_counts(2, 2, [3, 5])]


def _plant(monkeypatch, name, wrong):
    real = getattr(ZetaLevel, name)
    monkeypatch.setattr(ZetaLevel, name, lambda self, *t: wrong(self, real(self, *t), *t))


@pytest.mark.parametrize("z", _BASES, ids=["E3a1", "X2g2"])
@pytest.mark.parametrize("name", ["residue", "residue_inv_q"])
def test_wrong_residue_of_the_previous_level_is_caught(monkeypatch, z, name):
    _plant(monkeypatch, name, lambda self, res: res + Fraction(1, 3))
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(z, 5)


@pytest.mark.parametrize("z", _BASES, ids=["E3a1", "X2g2"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_wrong_interior_value_of_the_previous_level_is_caught(monkeypatch, z, k):
    _plant(monkeypatch, "value", lambda self, v, t: v + Fraction(1, 3) if t == Fraction(1, self.Q**k) else v)
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(z, 5)


@pytest.mark.parametrize("z", _BASES, ids=["E3a1", "X2g2"])
def test_wrong_value_at_a_node_is_caught_by_validation(monkeypatch, z):
    # the certificate is over by the time the nodes T = Q^j are interpolated
    real = derived_engine.interpolate
    for j in range(1, 2 * z.genus + 2):
        with monkeypatch.context() as mp:

            def wrong(xs, ys, j=j):  # N/D + 1/3 at node j
                return real(xs, [(3 * N + D, 3 * D) if i == j else (N, D) for i, (N, D) in enumerate(ys, 1)])

            mp.setattr(derived_engine, "interpolate", wrong)
            with pytest.raises(DerivationError, match="functional_equation") as caught:
                derive_step(z, 5)
            assert "do not cancel" not in str(caught.value)
