"""The inductive derivation step of the zeta tower, at polynomial cost in n.

A level is its numerator (``curves.ZetaLevel`` holds steps, Q, genus and P),
and a numerator is its integer view ``P.view``, a rational content times
coprime ints; every value, residue and special value of the previous zeta
below is one integer Horner pass over those ints.

Given a level with prime power Q, complete zeta Z(T) = P(T)/((1-T)(1-QT)T^(g-1))
and special values, the next level for index n is the finite double sum

    q^(C(n,2)(g-1)) * sum over a = 1..n of  R_a(T) * Z(Q^(n-a) T) * L_a(T),

    R_a(T) = sum over compositions (k) of n-a:  w(k) * T/(T - Q^(a+k_last-n)),
    L_a(T) = sum over compositions (l) of a-1:  w(l) / (1 - Q^(n-a+1+l_first) T),

with composition weight w(k) = prod v_{k_i} / prod_j (1 - Q^(k_j + k_{j+1})),
where v_N is the product of the first N special values of the previous level
and q^(...) means the previous Q.  An empty composition sum (n-a = 0, resp.
a-1 = 0) contributes the constant 1 with no boundary factor.

Nothing here loops over the 2^(m-1) compositions of m.  A weight depends on
adjacent parts only and each boundary factor on the last (first) part only,
so ``composition_sums`` builds E[m][p], the sum of w(k) over the compositions
of m with last part p, by the recurrence

    E[m][m] = v_m,    E[m][p] = v_p * sum_r E[m-p][r] / (1 - Q^(r+p)),

in O(n^3) operations.  Reversing a composition keeps its weight, so the same
table gives the first-part sums L_a needs.  Step n reads v(1..n-1), the
``pair_plan`` entries below index n and rows <= n-1, all from one
``SpecialValues`` of the previous level.

The step first certifies that the poles at the interior points T = Q^e,
e = 1-n..-1, cancel.  Within one a-term the poles are simple and distinct
(R_a has them at e = a-n+1..0, Z(Q^(n-a) T) at a-n and a-n-1, L_a at
-n..a-n-2), so cancellation means that the n residues at each interior point
sum to exactly zero.  There R_a(Q^e) = F(n-a, a-n-e), L_a(Q^e) =
F(a-1, n-a+1+e) and the middle factor is Z(Q^(n-a+e)), with

    F(m, s) = sum over p = 1..m of  E[m][p] / (1 - Q^(p+s)),    F(0, s) = 1,

so the certificate reads only the poles 1/(1 - Q^k) = -1/(Q^k - 1),
1 <= k < n, through the plan the table read, the middle values Z(Q^k),
|k| < n, the residues of Z at 1 and 1/Q and the table.  A nonzero residue
sum raises DerivationError.  An error that the table and the certificate read
alike may pass; the step checks' planted-error tests pin what sees it.

Then P_n = Q^(C(n,2)(g-1)) (1-T)(1-Q^n T) T^(g-1) S(T), S the sum over a, is
read off its first 2g+1 Taylor coefficients at T = 0, where every factor is
a series with int coefficients (u = Q^(n-a), c * ints the previous view):

    T/(T - Q^-r) = -sum_{k>=1} Q^(rk) T^k,    1/(1 - Q^s T) = sum_{k>=0} Q^(sk) T^k,
    T^(g-1) Z(uT) = c u^-(g-1) sum_k z_k u^k T^k,  z_k = sum_{i<=k} ints[i] (Q^(k-i+1) - 1)/(Q - 1).

After the certificate, the poles at T = 1 and T = Q^-n are cleared by the
denominator, the one at 0 has order at most g-1, and every term grows at most
like T^(g-1), so the cleared sum is a polynomial of degree at most 2g.  Every
factor is analytic at 0: the right sums have their poles at Q^e, e <= 0, the
left sums at Q^-s, s >= 1, and T^(g-1) clears Z's pole of order g-1.  So the
Taylor coefficients are the polynomial's coefficients.  At T = 0 only the
a = n term survives, so A_0 of P_n is Q^(C(n,2)(g-1)) A_0(prev) times
sum_p E[n-1][p], the closed row sum; A_2g collects every term, and validation
ties it to A_0 by A_2g = Q^(ng) A_0.  All of it runs on Python ints.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence, Union

from zetatower.curves import CurveSpec, ZetaLevel, validate_zeta_level
from zetatower.exact_arith import Poly, horner, over_lcm


class DerivationError(RuntimeError):
    """A derivation failed its pole-cancellation certificate or validation; signals a bug."""


def compositions(total: int) -> Iterator[tuple]:
    """All ordered compositions of ``total`` into positive parts, lexicographically.

    total = 0 yields the empty composition exactly once; total = n >= 1 yields
    2**(n-1) tuples.
    """
    if total < 0:
        raise ValueError("compositions of a negative total")
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def pair_plan(Q: int, depth: int, plan: Optional[list] = None) -> list:
    """The runs of pair denominators Q^(s+r) - 1, r = 1..j, over their lcm: plan[s][j] = (L, cof), s < depth, j <= depth - s.

    L = lcm(Q^(s+r) - 1, r = 1..j) and cof[r-1] = L // (Q^(s+r) - 1), so a
    sum of x_r / (Q^(s+r) - 1) is sum(map(mul, xs, cof)) / L; plan[s][0] is
    (1, []), and depth 0 gives the empty plan.  Row s runs one lcm along r:
    where it grows by f, the cofactors so far are multiplied by f, and the new
    one is the old L over its gcd with the new denominator; no division by L.
    Given ``plan``, the plan of a smaller depth, each row's run goes on from
    its last entry, new rows start, and that plan is returned, extended.
    """
    plan = [] if plan is None else plan
    plan += [[(1, [])] for _ in range(len(plan), depth)]
    for s, row in enumerate(plan):
        (L, cof), power = row[-1], Q ** (s + len(row) - 1)
        for _ in range(depth - s + 1 - len(row)):
            power *= Q
            g = gcd(L, power - 1)
            f = (power - 1) // g  # lcm(L, Q^(s+r) - 1) = L * f
            cof = [c * f for c in cof]
            cof.append(L // g)
            L *= f
            row.append((L, cof))
    return plan


class SpecialValues:
    """The products of the special values of one level, as reduced int pairs, their pair plan, table rows and steps.

    The special values are zeta_hat(1), the residue at T = 1, and for k >= 2
    zeta_hat(k), the exact value at T = Q^-k (never a pole, the only poles
    being T = 1 and T = 1/Q).  vhats[N] = (num, den) stands for
    vhat(N) = prod_{k<=N} zeta_hat(k), with den > 0, gcd(num, den) = 1 and
    vhats[0] = (1, 1); zeta_hat(k) itself is vhat(k) / vhat(k-1).
    ``plan`` is ``pair_plan(Q, depth)``, depth = len(vhats) - 1: the lcm and
    cofactors of every run of pair denominators Q^k - 1, k <= depth, that the
    composition table and the step's certificate read.  ``tables[positive]``
    holds the rows of ``composition_sums`` built so far, from row 0, for each
    sign, and ``derived[n]`` the level ``step(n)`` derived.

    A set is built from its level alone and grows as far as it is read:
    ``grow(depth)`` extends the values and the plan in place, going on from
    what the set holds, and each row and step is built once, when a reader
    first reaches it.  Every later reader shares it; none may mutate it.
    """

    def __init__(self, level: ZetaLevel):
        self.level, self.Q, self.vhats, self.plan = level, level.Q, [(1, 1)], []
        self.tables, self.derived = {False: [([0], 1)], True: [([0], 1)]}, {}

    def grow(self, depth: int) -> None:
        """Extend vhats and the plan to ``depth``, each new product one gcd."""
        vhats, z = self.vhats, self.level
        if len(vhats) > depth:
            return
        for k in range(len(vhats), depth + 1):
            N, D = z.residue_pair() if k == 1 else z.value_pair(1, z.Q**k)  # Res_{T=1} Z, then Z(Q^-k); D > 0
            num, den = vhats[-1]
            num, den = num * N, den * D
            c = gcd(num, den)
            vhats.append((num // c, den // c))
        pair_plan(self.Q, depth, self.plan)

    def step(self, n: int) -> ZetaLevel:
        """The level derived by n, by ``derive_step`` on this set the first time it is read; a raise keeps nothing."""
        if n not in self.derived:
            self.derived[n] = derive_step(self, n)
        return self.derived[n]


def special_values(z: ZetaLevel) -> SpecialValues:
    """The special values of z, none computed yet: each reader grows them, and derives its steps, as far as it reads."""
    return SpecialValues(z)


def composition_sums(sv: SpecialValues, m_max: int, positive: bool = False) -> tuple:
    """Rows 0..m_max of E[m][p], the sum of composition weights over the compositions of m with last part p.

    Built by the module's recurrence in O(m_max^3) int operations: the inner
    sum is row m-p's nums dotted with the cofactors of ``sv.plan[p][m-p]``,
    over its lcm, with no lcm or division per term.  Row m is the int row
    (nums, D) with E[m][p] = nums[p] / D, D > 0 and gcd(D, *nums) = 1: its
    entries go over one lcm and the row is divided by one gcd, which keeps D
    from compounding down the rows.  nums[0] = 0, and row 0 is ([0], 1): it
    holds no composition.  With positive=True every pair denominator is
    Q^(r+p) - 1 instead, the interlacing convention.  The rows are
    ``sv.tables[positive]``: ``sv`` grows to m_max, and only the rows past
    those already kept are built.
    """
    sv.grow(m_max)
    sign = 1 if positive else -1  # 1 / (1 - Q^s) = -1 / (Q^s - 1)
    rows = sv.tables[positive]
    for m in range(len(rows), m_max + 1):
        entries = [(0, 1)]
        for p in range(1, m):
            nums, D = rows[m - p]
            L, cof = sv.plan[p][m - p]
            v_num, v_den = sv.vhats[p]
            entries.append((sign * v_num * sum(map(mul, nums[1:], cof)), v_den * D * L))
        entries.append(sv.vhats[m])
        nums, D = over_lcm(entries)
        c = gcd(D, *nums)
        rows.append(([x // c for x in nums], D // c))
    return tuple(rows[: m_max + 1])


def side_series(row: tuple, n: int, powers: Sequence[int]) -> tuple:
    """(right, left, D): the Taylor coefficients at T = 0, to T^K, of the side sums of step n that read row m.

    powers[k] = Q^k, k = 0..K.  ``right`` is R_a for a = n-m and ``left`` is
    L_a for a = m+1, both ints over the row's D; the empty row m = 0 gives 1.
    """
    nums, D = row
    m = len(nums) - 1
    if not m:
        unit = [1] + [0] * (len(powers) - 1)
        return unit, unit, 1
    right, left = [0], [sum(nums)]
    for x in powers[1:]:
        right.append(-horner(nums[1:], 1, x))  # sum_p nums[p] x^(m-p)
        left.append(horner(nums, x, 1) * x ** (n - m))  # sum_p nums[p] x^(n-m+p)
    return right, left, D


def _truncated_product(x: list, y: list) -> list:
    """The first len(x) Taylor coefficients of the product of two series of that length."""
    return [sum(map(mul, x[: k + 1], y[k::-1])) for k in range(len(x))]


def derive_step(sv: SpecialValues, n: int) -> ZetaLevel:
    """The level ``sv.level`` derived by n: exact, certified and validated.

    Reads the level off ``sv``, grows ``sv`` to depth n-1 and returns the new
    level, with steps ``sv.level.steps + (n,)``.  Raises ValueError for n < 1,
    and DerivationError when the pole certificate or validation fails.
    """
    if n < 1:
        raise ValueError("derivation index must be >= 1")
    z = sv.level
    Q, g = z.Q, z.genus
    steps = z.steps + (n,)
    rows = composition_sums(sv, n - 1)

    K = 2 * g  # the series run to T^K; the certificate reads Q^k for k < n
    Qk = [1]  # Qk[k] = Q^k
    for _ in range(max(n, K)):
        Qk.append(Qk[-1] * Q)

    side = {}

    def F(m: int, s: int) -> tuple:  # (N, L): row m's sum is N / (D_m L), 1/(1 - Q^(p+s)) = -1/(Q^(p+s) - 1)
        if (m, s) not in side:
            if m:
                L, cof = sv.plan[s][m]
                side[m, s] = -sum(map(mul, rows[m][0][1:], cof)), L
            else:
                side[m, s] = 1, 1
        return side[m, s]

    middle = {}

    def mid(k: int) -> tuple:  # Z(Q^k)
        if k not in middle:
            middle[k] = z.value_pair(Qk[k], 1) if k >= 0 else z.value_pair(1, Qk[-k])
        return middle[k]

    # A value is an unreduced int pair.  F(m, s) keeps row m's nums dotted with the cofactors of plan[s][m]
    # over the plan's lcm, with the row's D_m factored out, so the a-term at an interior point is
    # N_a / (D_(n-a) D_(a-1) Y_a), Y_a from the plan's lcms, Z(Q^k) or the residues.  Each residue sum is
    # scaled by Lambda = lcm_a(D_(n-a) D_(a-1)), once per step, and by M, the lcm of its Y_a; scaled by
    # Lambda M > 0 it is an int, tested for zero.  sigma[a-1] = Lambda / (D_(n-a) D_(a-1)).
    sigma, _ = over_lcm((1, rows[n - a][1] * rows[a - 1][1]) for a in range(1, n + 1))

    # Each a-term has exactly one simple pole at T = Q^e: in the right sum R_a(Q^e) = F(n-a, a-n-e) for
    # a <= n-1+e, in Z(Q^(n-a) T) at u = 1 (residues[0]) for a = n+e and at u = 1/Q (residues[1]) for
    # a = n+e+1, and in the left sum L_a(Q^e) = F(a-1, n-a+1+e) for a >= n+e+2.
    # The sum is scaled by Q^-e, which drops Q^e from the side sums and leaves Q on Res(1/Q).
    res_inv_q = z.residue_inv_q_pair()
    residues = (z.residue_pair(), (res_inv_q[0] * Q, res_inv_q[1]))
    uncancelled = []
    for e in range(1 - n, 0):
        terms = []  # (N_a, Y_a): the a-term is N_a / (D_(n-a) D_(a-1) Y_a)
        for a in range(1, n + 1):
            if a <= n - 1 + e:
                (x, w), (y, L) = mid(n - a + e), F(a - 1, n - a + 1 + e)
                terms.append((rows[n - a][0][n - a + e] * x * y, w * L))
            elif a <= n + e + 1:
                (x, w), (y, L), (t, L2) = residues[a - n - e], F(n - a, a - n - e), F(a - 1, n - a + 1 + e)
                terms.append((x * y * t, w * L * L2))
            else:
                (y, L), (x, w) = F(n - a, a - n - e), mid(n - a + e)
                terms.append((-rows[a - 1][0][a - 1 - n - e] * y * x, L * w))
        M = lcm(*(Y for _, Y in terms))
        if sum(s * N * (M // Y) for s, (N, Y) in zip(sigma, terms)):
            uncancelled.append(e)
    if uncancelled:
        raise DerivationError(
            f"derivation inconsistency at steps {steps}: residues at T = Q^e "
            f"do not cancel for e in {uncancelled}"
        )

    # T^(g-1) Z(uT) = content u^-(g-1) sum_k z_k u^k T^k, z_k = sum_i ints[i] h[k-i], h[j] = (Q^(j+1) - 1)/(Q - 1)
    content, ints = z.P.view
    h = list(accumulate(Qk[: K + 1]))
    zs = [sum(x * h[k - i] for i, x in enumerate(ints[: k + 1])) for k in range(K + 1)]
    # each a-term is two truncated products over D_(n-a) D_(a-1) u^(g-1), and the n terms go over one lcm;
    # only the special-value products, the table rows and P_n (Poly.from_ints) are reduced, one gcd each
    sides = [side_series(row, n, Qk[: K + 1]) for row in rows]
    series, dens = [], []
    for a in range(1, n + 1):
        (right_a, _, D_right), (_, left_a, D_left), u = sides[n - a], sides[a - 1], Qk[n - a]
        middle_a = [x * u**k for k, x in enumerate(zs)]
        series.append(_truncated_product(_truncated_product(right_a, middle_a), left_a))
        dens.append(D_right * D_left * u ** (g - 1))
    scales, L = over_lcm((1, d) for d in dens)
    total = [sum(s * t[k] for s, t in zip(scales, series)) for k in range(K + 1)]
    Qn, f = Qk[n], Q ** (comb(n, 2) * (g - 1)) * content.numerator
    cleared = [x - (1 + Qn) * x1 + Qn * x2 for x, x1, x2 in zip(total, [0] + total, [0, 0] + total)]
    level = ZetaLevel(steps=steps, Q=Qn, genus=g, P=Poly.from_ints([f * x for x in cleared], content.denominator * L))
    failed = [c for c in validate_zeta_level(level) if not c.passed]
    if failed:
        raise DerivationError(
            "derivation inconsistency at steps "
            f"{level.steps}: {'; '.join(f'{c.name}: {c.detail}' for c in failed)}"
        )
    return level


def normalize_level(z: ZetaLevel) -> ZetaLevel:
    """Divide the numerator by its constant coefficient: c * ints over c * ints[0] is the ints over ints[0]."""
    ints = z.P.view[1]
    if not ints or not ints[0]:
        raise ValueError("cannot normalize: numerator constant term is zero")
    sign = 1 if ints[0] > 0 else -1
    return replace(z, P=Poly.from_ints([sign * x for x in ints], abs(ints[0])))


def derive_tower(base: Union[CurveSpec, ZetaLevel], steps: Sequence[int]) -> list:
    """Iterate derive_step along ``steps`` from a level or a spec's ``level``, on a fresh set per level; returns the derived levels in order."""
    steps = tuple(int(n) for n in steps)
    if not steps:
        raise ValueError("derivation tuple must be nonempty")
    if any(n < 1 for n in steps):
        raise ValueError("derivation tuple entries must be >= 1")
    levels = [base.level if isinstance(base, CurveSpec) else base]
    for n in steps:
        levels.append(derive_step(special_values(levels[-1]), n))
    return levels[1:]
