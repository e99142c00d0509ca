"""Tests for the tower derivation step and its structural guarantees."""

import math
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from zetatower.curves import (
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    hasse_traces,
    validate_zeta_level,
)
from zetatower import derived_engine
from zetatower.derived_engine import (
    DerivationError,
    SpecialValues,
    composition_sums,
    compositions,
    derive_step,
    derive_tower,
    normalize_level,
    pair_plan,
    special_values,
)
from ratfunc_oracle import (
    ONE,
    RatFunc,
    RingPoly,
    composition_weight,
    normalized_tower,
    rational_divmod,
    residue_simple_pole,
    ring,
    to_ratfunc,
)
from zetatower.exact_arith import Poly
from zetatower.invariants import counting_miracle_check


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
    sv = special_values(z)
    sv.grow(3)
    # residue route and the N_1/(q-1) route must agree
    assert sv.vhats[1] == (3, 1) and Fraction(*sv.vhats[1]) == Fraction(2 + 1 - 0, 2 - 1)
    # zeta_hat(2) = Z(1/4) = (1 + 2/16)/((3/4)(1/2)) = 3 by hand
    assert sv.vhats[2] == (9, 1)
    assert sv.vhats[0] == (1, 1)


def test_special_values_vhat_recursion():
    z = artin_elliptic(3, -1)
    sv = special_values(z)
    sv.grow(5)
    beta = Fraction(*z.residue_pair())
    assert sv.vhats[1] == (beta.numerator, beta.denominator)  # reduced, positive denominator
    for n in range(2, 6):
        assert Fraction(*sv.vhats[n]) == Fraction(*sv.vhats[n - 1]) * Fraction(*z.value_pair(1, 3**n))


@pytest.mark.parametrize("Q", [2, 3, 4, 5, 9, 2**10, 3**10])
def test_pair_plan_matches_its_definition(Q):
    depth = 12
    plan = pair_plan(Q, depth)
    assert len(plan) == depth
    for s, row in enumerate(plan):
        assert len(row) == depth - s + 1
        for j, (L, cof) in enumerate(row):  # every s + j <= depth; j = 0 is the empty run
            pairs = [Q ** (s + r) - 1 for r in range(1, j + 1)]
            assert L == math.lcm(*pairs)
            assert len(cof) == j and all(c * d == L for c, d in zip(cof, pairs))
    assert pair_plan(Q, 0) == []
    # extended in place, depth by depth, the plan is the one built at once
    grown = []
    for d in (0, 3, 4, 9, depth):
        assert pair_plan(Q, d, grown) is grown
        assert grown == pair_plan(Q, d)


def test_special_values_carry_the_plan_of_their_depth():
    z = artin_elliptic(3, 1)
    sv = special_values(z)
    for depth in (2, 5, 3):  # a set grows in place and never shrinks
        sv.grow(depth)
    assert len(sv.vhats) == 6 and sv.plan == pair_plan(3, 5)
    # a set grown as far, and read by no table, holds the same values and plan and no rows
    again = SpecialValues(z)
    again.grow(5)
    composition_sums(sv, 5), composition_sums(sv, 3, positive=True)
    assert [len(sv.tables[positive]) for positive in (False, True)] == [6, 4]
    assert [len(again.tables[positive]) for positive in (False, True)] == [1, 1]
    assert again.level is z and again.vhats == sv.vhats and again.plan == sv.plan
    assert SpecialValues(z).plan == []


def test_special_values_of_depth_zero_are_the_empty_table():
    for z in (artin_elliptic(3, 1), artin_from_point_counts(2, 2, [3, 5])):
        sv = special_values(z)
        assert sv.Q == z.Q and sv.level is z and sv.vhats == [(1, 1)] and sv.plan == []
        assert composition_sums(sv, 0) == (([0], 1),)  # what a step of index 1 reads
        assert sv.vhats == [(1, 1)] and sv.plan == [] and SpecialValues(z).vhats == sv.vhats  # row 0 grows nothing


def test_composition_weight_pairs():
    sv = special_values(artin_elliptic(2, 0))
    assert composition_weight((2,), sv) == 9
    assert composition_weight((1, 1), sv) == Fraction(9, 1 - 4)
    assert composition_weight((1, 1, 1), sv) == Fraction(27, (1 - 4) * (1 - 4))


# -- derive_step ------------------------------------------------------------------


def test_derive_step_index_one_is_identity():
    z = artin_elliptic(2, 0)
    z1 = derive_step(special_values(z), 1)
    assert to_ratfunc(z1) == to_ratfunc(z)
    assert z1.steps == (1,)
    assert z1.Q == 2


def test_derive_step_reads_special_values_of_any_depth_it_needs():
    # a set already grown past n - 1 is read as it is, and a shallower one is grown to n - 1
    bases = [artin_elliptic(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)]
    bases.append(artin_from_point_counts(2, 2, [3, 5]))  # X2g2
    assert len(bases) == 31
    for z in bases:
        for n in range(1, 9):
            level = derive_step(special_values(z), n)
            for depth in range(n - 2, n + 3):
                sv = special_values(z)
                sv.grow(depth)
                assert derive_step(sv, n) == level, (z.P, n, depth)
                assert len(sv.vhats) == max(depth, n - 1) + 1


def test_kept_table_rows_equal_a_fresh_build():
    # one set of special values read at depths in a mixed order builds each row once and keeps it;
    # every read equals the table built afresh on equal values
    bases = [artin_elliptic(q, a) for q in (2, 3, 4, 5) for a in hasse_traces(q)]
    bases.append(artin_from_point_counts(2, 2, [3, 5]))  # X2g2
    for z in bases:
        sv = special_values(z)
        for positive in (False, True):
            for m_max in (3, 7, 5, 8, 1):
                rows = composition_sums(sv, m_max, positive)
                assert rows == composition_sums(special_values(z), m_max, positive), (z.P, m_max)
                assert len(rows) == m_max + 1
            assert len(sv.tables[positive]) == 9
        assert sv.tables[False] != sv.tables[True]


def test_derive_step_refuses_foreign_or_shallow_special_values():
    # a step reads its level off its set, so a set of another level cannot be passed beside a level
    z = artin_elliptic(3, 1)
    shallow = special_values(z)
    shallow.grow(2)
    assert derive_step(shallow, 4) == derive_step(special_values(z), 4)  # the set grows to n - 1
    assert len(shallow.vhats) == 4
    # a set goes on from the values it holds: zeta_hat(2) + 1/3 written into a set grown to 2, and vhat(3)
    # grown from it, do not cancel
    planted = special_values(z)
    planted.grow(2)
    wrong = Fraction(*planted.vhats[2]) + Fraction(*planted.vhats[1]) / 3
    planted.vhats[2] = (wrong.numerator, wrong.denominator)
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(planted, 4)
    assert len(planted.vhats) == 4 and planted.vhats[2] == (wrong.numerator, wrong.denominator)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_derive_step_refuses_the_special_values_of_another_level_over_the_same_q(n):
    # E3a1 and E3a-2 share Q = 3.  A step reads its level off its set, so the other's set cannot be passed
    # beside z; the other's values written into a set of z are read as they are: the step returns 2 times
    # the right P at n = 2, which validation cannot see, and raises DerivationError at n = 3 and 5
    z, other = artin_elliptic(3, 1), artin_elliptic(3, -2)
    values, planted = special_values(other), special_values(z)
    values.grow(n - 1), planted.grow(n - 1)
    planted.vhats[:] = values.vhats
    if n == 2:
        assert derive_step(planted, 2).P == Poly([3, 3, 27])
        assert derive_step(special_values(z), 2).P == Poly([Fraction(3, 2), Fraction(3, 2), Fraction(27, 2)])
    else:
        with pytest.raises(DerivationError, match="do not cancel"):
            derive_step(planted, n)


def test_a_set_derives_each_step_once_and_keeps_nothing_from_a_raise(monkeypatch):
    # sv.step looks derive_step up when it is called, so a patch of the module global is what runs
    real, calls = derived_engine.derive_step, []

    def counting(sv, n):
        calls.append(n)
        if sv.Q == 2:
            raise DerivationError(f"planted at {n}")
        return real(sv, n)

    monkeypatch.setattr(derived_engine, "derive_step", counting)
    z = artin_elliptic(3, 1)
    sv = special_values(z)
    step = sv.step(3)
    assert sv.step(3) is step and step == real(special_values(z), 3) and calls == [3]
    assert counting_miracle_check(sv, 2).passed  # reads the kept step 3 as its n + 1
    assert calls == [3, 2] and sorted(sv.derived) == [2, 3]
    failing = special_values(artin_elliptic(2, 0))
    for _ in range(2):  # nothing is kept, so the second read derives again and raises again
        with pytest.raises(DerivationError, match="planted at 3"):
            failing.step(3)
    assert calls == [3, 2, 3, 3] and failing.derived == {}


def test_derive_step_two_golden():
    # expanded by hand: the two a-terms combine to 3(1+T+4T^2)/((1-T)(1-4T))
    z2 = derive_step(special_values(artin_elliptic(2, 0)), 2)
    assert z2.P == Poly([3, 3, 12])
    assert z2.Q == 4
    assert residue_simple_pole(to_ratfunc(z2), 1) == 6


def test_derive_step_twice():
    z = artin_elliptic(2, 0)
    z2 = derive_step(special_values(z), 2)
    z22 = derive_step(special_values(z2), 2)
    assert z22.Q == 16
    rem = rational_divmod(RingPoly([1, -1]) * RingPoly([1, -16]), to_ratfunc(z22).den)[1]
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
    # the zeta 1/(1-T) at Q = 2: its P = 1-2T has degree 1 and no pole at T = 1/2
    garbage = ZetaLevel(steps=(), Q=2, genus=1, P=Poly([1, -2]))
    assert to_ratfunc(garbage) == RatFunc(ONE, Poly([1, -1]))
    with pytest.raises(DerivationError, match="derivation inconsistency"):
        derive_step(special_values(garbage), 2)


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
    z2 = derive_step(special_values(zg), 2)
    assert z2.Q == 4 and z2.genus == 2
    assert z2.P.degree == 4
    assert all(r.passed for r in validate_zeta_level(z2))


@pytest.mark.parametrize("c", [Fraction(2), Fraction(-3, 7), Fraction(5, 2)])
@pytest.mark.parametrize("n", [2, 3])
def test_constant_scaling_covariance(c, n):
    # scaling the input zeta by c scales the derived zeta by c**n
    z = artin_elliptic(2, 0)
    scaled = ZetaLevel(steps=(), Q=z.Q, genus=1, P=ring(z.P) * c)
    assert to_ratfunc(scaled) == to_ratfunc(z) * c
    derived = derive_step(special_values(z), n)
    derived_scaled = derive_step(special_values(scaled), n)
    assert to_ratfunc(derived_scaled) == to_ratfunc(derived) * c**n


# -- normalization ------------------------------------------------------------------


def test_normalize_level_records_constant():
    z2 = derive_step(special_values(artin_elliptic(2, 0)), 2)
    z2n = normalize_level(z2)
    assert z2n.P[0] == 1
    assert to_ratfunc(z2n) * 3 == to_ratfunc(z2)


_NORMALIZE_LEVELS = [
    artin_elliptic(3, 1),
    derive_step(special_values(artin_elliptic(2, 0)), 2),
    derive_step(special_values(artin_from_point_counts(2, 2, [3, 5])), 3),
]


@pytest.mark.parametrize("scale", [1, -1, Fraction(-3, 7), Fraction(5, 2), -(2**70)])
@pytest.mark.parametrize("z", _NORMALIZE_LEVELS, ids=["E3a1", "E2a0-2", "X2g2-3"])
def test_normalize_level_matches_the_ring_division(z, scale):
    # A_0 = 1 at E3a1 unscaled, negative and rational A_0 from the scales; the view ints over A_0's
    # int are the oracle's Fraction product P * (1 / A_0), to the pickled byte
    z = replace(z, P=ring(z.P) * scale)
    expected = ring(z.P) * (1 / z.P[0])
    normalized = normalize_level(z)
    assert normalized.P.view == expected.view and normalized.P[0] == 1
    assert pickle.dumps(normalized.P) == pickle.dumps(expected)
    assert pickle.dumps(normalized) == pickle.dumps(replace(z, P=Poly._from_view(expected.view)))


def test_normalize_level_refuses_a_zero_constant_term():
    for P in (Poly(), Poly([0, 1, 2])):
        with pytest.raises(ValueError, match="constant term is zero"):
            normalize_level(ZetaLevel(steps=(), Q=2, genus=1, P=P))


def test_normalized_tower_matches_post_hoc_normalization():
    # by the scaling covariance, normalize-as-you-go (the oracle's normalized_tower) equals
    # normalizing each unnormalized level by its own constant term
    base = artin_elliptic(3, 1)
    norm = normalized_tower(base, (2, 2))
    plain = derive_tower(base, (2, 2))
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
    """From n = 3 on, one wrong table entry, special value, residue or value of Z makes some residue sum nonzero.

    This test and the ones below plant each at n = 5.
    """
    n = 5
    for m in range(1, n):
        for p in range(1, m + 1):
            with monkeypatch.context() as mp:
                _corrupt_table(mp, m, p)
                with pytest.raises(DerivationError, match="do not cancel"):
                    derive_step(special_values(z), n)
    assert derive_step(special_values(z), n).steps == (n,)  # the real table passes


@pytest.mark.parametrize("z", [artin_elliptic(3, 1), artin_from_point_counts(2, 2, [3, 5])], ids=["E3a1", "X2g2"])
def test_a_patched_table_leaves_the_kept_rows_real(monkeypatch, z):
    # the patch reads the kept rows and edits a copy: an unpatched read of the same values gets the real rows
    n, sv = 5, special_values(z)
    with monkeypatch.context() as mp:
        _corrupt_table(mp, 3, 1)
        with pytest.raises(DerivationError, match="do not cancel"):
            derive_step(sv, n)
    assert composition_sums(sv, n) == composition_sums(special_values(z), n)
    assert derive_step(sv, n) == derive_step(special_values(z), n)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("z", [artin_elliptic(3, 1), artin_from_point_counts(2, 2, [3, 5])], ids=["E3a1", "X2g2"])
def test_corrupted_pair_plan_is_caught(monkeypatch, z, n):
    # L + 1, or the first or the last cofactor + 1, of one plan entry at a time; the table and the
    # certificate read the one plan.  Row 0 is read only by the certificate's F(m, 0), which meets
    # only residue-pair terms, so a wrong entry there may leave the level as it is.  At even n the
    # certificate cannot see a wrong plan[s][n/2], which the table and the certificate read alike;
    # validation catches it here
    true = derive_step(special_values(z), n)
    real = derived_engine.pair_plan
    for s in range(n - 1):
        for j in range(1, n - s):
            for kind in ("L", "first", "last"):

                def corrupted(Q, depth, plan=None, s=s, j=j, kind=kind):
                    plan = real(Q, depth, plan)
                    if s + j <= depth:  # the entry exists: the step grows its set once, to n - 1
                        L, cof = plan[s][j][0], list(plan[s][j][1])
                        if kind == "L":
                            L += 1
                        else:
                            cof[0 if kind == "first" else -1] += 1
                        plan[s][j] = (L, cof)
                    return plan

                with monkeypatch.context() as mp:
                    mp.setattr(derived_engine, "pair_plan", corrupted)
                    if s:
                        with pytest.raises(DerivationError, match="functional_equation" if 2 * j == n else "do not cancel"):
                            derive_step(special_values(z), n)
                    else:
                        try:
                            assert derive_step(special_values(z), n) == true, (s, j, kind)
                        except DerivationError as caught:
                            assert "do not cancel" in str(caught)
    assert derive_step(special_values(z), n) == true  # the real plan passes


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_corrupted_special_value_is_caught(k):
    # zeta_hat(k) + 1/3, the products from it on made from the wrong value, written into the set
    sv = special_values(artin_elliptic(2, -1))
    sv.grow(4)  # what step 5 reads
    vhats = [Fraction(*v) for v in sv.vhats]
    values = [b / a for a, b in zip(vhats, vhats[1:])]
    values[k - 1] += Fraction(1, 3)
    wrong = [(1, 1)]
    for v in values:
        x = Fraction(*wrong[-1]) * v
        wrong.append((x.numerator, x.denominator))
    assert wrong[k] != sv.vhats[k]
    sv.vhats[:] = wrong
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(sv, 5)


def test_deep_genus2_step_is_certified_and_valid():
    z = derive_step(special_values(artin_from_point_counts(2, 2, [3, 5])), 20)
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
@pytest.mark.parametrize("name", ["residue_pair", "residue_inv_q_pair"], ids=["residue", "residue_inv_q"])
def test_wrong_residue_of_the_previous_level_is_caught(monkeypatch, z, name):
    _plant(monkeypatch, name, lambda self, res: (3 * res[0] + res[1], 3 * res[1]))  # res + 1/3
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(special_values(z), 5)


@pytest.mark.parametrize("z", _BASES, ids=["E3a1", "X2g2"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_wrong_interior_value_of_the_previous_level_is_caught(monkeypatch, z, k):
    def wrong(self, v, u, w):  # Z(Q^-k) + 1/3, as the pair (3N + D, 3D)
        return (3 * v[0] + v[1], 3 * v[1]) if (u, w) == (1, self.Q**k) else v

    _plant(monkeypatch, "value_pair", wrong)
    with pytest.raises(DerivationError, match="do not cancel"):
        derive_step(special_values(z), 5)


@pytest.mark.parametrize("z", _BASES, ids=["E3a1", "X2g2"])
def test_wrong_taylor_coefficient_of_a_term_is_caught_by_validation(monkeypatch, z):
    # the certificate is over by the time the Taylor coefficients at T = 0 are read; one coefficient
    # + 1 in the right sum of the term a = n-m (row m >= 1) or in the left sum of a = m+1 (row m <= n-2).
    # R_a starts at T^1 for a < n, so the left sum's T^(2g) reaches no coefficient of P_n
    real = derived_engine.side_series
    n = 5
    for side, rows, orders in ((0, range(1, n), 2 * z.genus + 1), (1, range(n - 1), 2 * z.genus)):
        for m in rows:
            for k in range(orders):
                with monkeypatch.context() as mp:

                    def wrong(row, n, powers, side=side, m=m, k=k):
                        series = list(real(row, n, powers))
                        if len(row[0]) - 1 == m:
                            coeffs = series[side]
                            series[side] = coeffs[:k] + [coeffs[k] + series[2]] + coeffs[k + 1 :]
                        return tuple(series)

                    mp.setattr(derived_engine, "side_series", wrong)
                    with pytest.raises(DerivationError, match="functional_equation") as caught:
                        derive_step(special_values(z), n)
                    assert "do not cancel" not in str(caught.value)
    assert derive_step(special_values(z), n).steps == (n,)  # the real series pass
