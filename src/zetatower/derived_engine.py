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

in O(n^3) operations.  Reversing a composition keeps its weight, so
the same table gives the first-part sums L_a needs.

The step sum is only ever evaluated at powers of Q.  At T = Q^e the
boundary factors become 1/(1 - Q^(p+s)), so both side sums are values of

    F(m, s) = sum over p = 1..m of  E[m][p] / (1 - Q^(p+s)),    F(0, s) = 1,

namely R_a(Q^e) = F(n-a, a-n-e) and L_a(Q^e) = F(a-1, n-a+1+e), and the
middle factor is Z(Q^(n-a+e)).  ``derive_step`` computes each F and middle
value once and reads it for the certificate and for the nodes alike.

All of it runs on Python ints, a level's Q = q^(prod of its steps) among
them, with the powers Q^k computed once per step.  Inside ``derive_step`` a
value is an int pair (N, D) that stands for N/D and is never reduced: each
pole 1/(1 - Q^k), each F(m, s), each middle value Z(Q^k)
(``ZetaLevel.value_pair``, for k < 0 too), each table entry, the two
residues of the previous level (``ZetaLevel.residue_pair`` and
``residue_inv_q_pair``), and the 2g+1 node values that go to
``exact_arith.interpolate``.  A sum of products of pairs puts the products
over the lcm of their denominators (``exact_arith.over_lcm``) and adds ints.
Values are reduced in three places only: the products vhat(N) of the special
values, which ``special_values`` returns as int pairs, one gcd per product;
the rows of the table, each of which ``composition_sums`` returns as ints
over one denominator, divided by their gcd; and the interpolated
coefficients, which become the new numerator's view by one content gcd.  A residue sum of the
certificate is tested for zero unreduced, and the new level is validated on
its view's ints.

The new numerator P_n = Z_n(T) (1-T)(1-Q^n T) T^(g-1) has degree at most 2g.
It is evaluated exactly at the 2g+1 nodes T = Q^j, j = 1..2g+1, and recovered
by interpolation.  Every pole of an a-term sits at T = 0 or at Q^e
with -n <= e <= 0, so no factor has a pole at a node.

Interpolation alone would fit a polynomial through any values, so before it
the step certifies that the poles at the interior points T = Q^e,
e = 1-n..-1, really cancel.  Within one a-term every pole is simple and the
poles are distinct: R_a has them at e = a-n+1..0, Z(Q^(n-a) T) at a-n and
a-n-1, L_a at -n..a-n-2.  So each a-term has exactly one simple pole at each
interior point, and cancellation means that the n scalar residues there sum
to exactly zero.  The residues of Z at 1 and 1/Q come from the previous
numerator P, the composition sums from the special values, so a wrong table
entry, special value, residue or value of Z makes some sum nonzero and raises
DerivationError.  The poles at T = 1 and T = Q^-n are cleared by the
denominator, the one at 0 has order at most g-1, and every term grows at most
like T^(g-1), so a certified sum times that denominator is a polynomial of
degree at most 2g and the interpolation is exact.  The level is then
validated like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, gcd
from typing import Iterator, Sequence, Union

from zetatower.curves import CurveSpec, ZetaLevel, validate_zeta_level
from zetatower.exact_arith import Poly, interpolate, over_lcm


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


@dataclass(frozen=True)
class SpecialValues:
    """The products of the special values of one level, as reduced int pairs.

    The special values are zeta_hat(1), the residue at T = 1, and for k >= 2
    zeta_hat(k), the exact value at T = Q^-k (never a pole, the only poles
    being T = 1 and T = 1/Q).  vhats[N] = (num, den) stands for
    vhat(N) = prod_{k<=N} zeta_hat(k), with den > 0, gcd(num, den) = 1 and
    vhats[0] = (1, 1); zeta_hat(k) itself is vhat(k) / vhat(k-1).
    """

    Q: int
    vhats: tuple  # vhats[N] = vhat(N) as (num, den), N = 0..depth


def special_values(z: ZetaLevel, n_max: int) -> SpecialValues:
    """vhat(0..n_max) of z: each value is an int pair with a positive denominator, each product one gcd."""
    if n_max < 1:
        raise ValueError("need depth >= 1")
    vhats = [(1, 1)]
    for k in range(1, n_max + 1):
        N, D = z.residue_pair() if k == 1 else z.value_pair(1, z.Q**k)  # Res_{T=1} Z, then Z(Q^-k); D > 0
        num, den = vhats[-1]
        num, den = num * N, den * D
        c = gcd(num, den)
        vhats.append((num // c, den // c))
    return SpecialValues(Q=z.Q, vhats=tuple(vhats))


def composition_sums(sv: SpecialValues, m_max: int, positive: bool = False) -> tuple:
    """E[m][p]: the sum of composition weights over the compositions of m with last part p.

    Built by the recurrence E[m][m] = vhat(m),
    E[m][p] = vhat(p) * sum_r E[m-p][r] / (1 - Q^(r+p)) in O(m_max^3) integer
    operations.  Row m, for m = 0..m_max, is the int row (nums, D) with
    E[m][p] = nums[p] / D, D > 0 and gcd(D, *nums) = 1: its unreduced entries
    go over one lcm and the row is divided by one gcd, which keeps D from
    compounding down the rows.  nums[0] = 0, and row 0 is ([0], 1): it holds
    no composition.  Reversal keeps the weight, so E[m][p] is also the sum over
    the compositions of m with first part p.  With positive=True every pair
    denominator is Q^(r+p) - 1 instead, the interlacing convention.
    """
    if len(sv.vhats) <= m_max:
        raise ValueError(f"special values of depth {len(sv.vhats) - 1} < {m_max}")
    Q = sv.Q
    sign = 1 if positive else -1  # 1 / (1 - Q^s) = -1 / (Q^s - 1)
    pair = [None] + [Q**s - 1 for s in range(1, m_max + 1)]
    rows = [([0], 1)]
    for m in range(1, m_max + 1):
        entries = [(0, 1)]
        for p in range(1, m):
            nums, D = rows[m - p]
            scaled, L = over_lcm((x, pair[r + p]) for r, x in enumerate(nums[1:], 1))
            v_num, v_den = sv.vhats[p]
            entries.append((sign * v_num * sum(scaled), v_den * D * L))
        entries.append(sv.vhats[m])
        nums, D = over_lcm(entries)
        c = gcd(D, *nums)
        rows.append(([x // c for x in nums], D // c))
    return tuple(rows)


def derive_step(z: ZetaLevel, n: int) -> ZetaLevel:
    """Produce the next tower level; exact, certified, validated, and pure."""
    if n < 1:
        raise ValueError("derivation index must be >= 1")
    Q, g = z.Q, z.genus
    steps = z.steps + (n,)
    rows = composition_sums(special_values(z, n - 1), n - 1) if n > 1 else (([0], 1),)

    K = n + 2 * g + 1  # the largest |k| of a Q^k that a pole, a middle value or a node reads
    Qk = [1]  # Qk[k] = Q^k
    for _ in range(K):
        Qk.append(Qk[-1] * Q)
    poles = {k: (1, 1 - Qk[k]) for k in range(1, K + 1)}  # poles[k] = 1 / (1 - Q^k), k != 0
    poles.update({-k: (Qk[k], Qk[k] - 1) for k in range(1, K + 1)})

    def lcm_sum(products) -> tuple:  # (N, L): N / L is the sum of the products of triples of pairs
        scaled, L = over_lcm((x[0] * y[0] * w[0], x[1] * y[1] * w[1]) for x, y, w in products)
        return sum(scaled), L

    side = {}

    def F(m: int, s: int) -> tuple:  # row m over its D, the poles over their lcm
        if (m, s) not in side:
            if m:
                nums, D = rows[m]
                scaled, L = over_lcm((nums[p] * poles[p + s][0], poles[p + s][1]) for p in range(1, m + 1))
                side[m, s] = sum(scaled), D * L
            else:
                side[m, s] = 1, 1
        return side[m, s]

    middle = {}

    def mid(k: int) -> tuple:  # Z(Q^k)
        if k not in middle:
            middle[k] = z.value_pair(Qk[k], 1) if k >= 0 else z.value_pair(1, Qk[-k])
        return middle[k]

    def right(a: int, e: int) -> tuple:  # R_a(Q^e)
        return F(n - a, a - n - e)

    def left(a: int, e: int) -> tuple:  # L_a(Q^e)
        return F(a - 1, n - a + 1 + e)

    # Each a-term has exactly one simple pole at T = Q^e: in the right sum for
    # a <= n-1+e, in Z(Q^(n-a) T) at u = 1 (residues[0]) for a = n+e and at
    # u = 1/Q (residues[1]) for a = n+e+1, and in the left sum for a >= n+e+2.
    # The sum is scaled by Q^-e, which drops Q^e from the side sums and leaves Q on Res(1/Q).
    res_inv_q = z.residue_inv_q_pair()
    residues = (z.residue_pair(), (res_inv_q[0] * Q, res_inv_q[1]))
    uncancelled = []
    for e in range(1 - n, 0):
        terms = []
        for a in range(1, n + 1):
            if a <= n - 1 + e:
                terms.append(((rows[n - a][0][n - a + e], rows[n - a][1]), mid(n - a + e), left(a, e)))
            elif a <= n + e + 1:
                terms.append((residues[a - n - e], right(a, e), left(a, e)))
            else:
                terms.append(((-rows[a - 1][0][a - 1 - n - e], rows[a - 1][1]), right(a, e), mid(n - a + e)))
        if lcm_sum(terms)[0]:
            uncancelled.append(e)
    if uncancelled:
        raise DerivationError(
            f"derivation inconsistency at steps {steps}: residues at T = Q^e "
            f"do not cancel for e in {uncancelled}"
        )
    prefactor = Q ** (comb(n, 2) * (g - 1))
    xs = Qk[1 : 2 * g + 2]
    sums = [lcm_sum((right(a, j), mid(n - a + j), left(a, j)) for a in range(1, n + 1)) for j in range(1, 2 * g + 2)]
    ys = [(prefactor * (1 - t) * (1 - Qk[n] * t) * t ** (g - 1) * N, L) for t, (N, L) in zip(xs, sums)]
    level = ZetaLevel(steps=steps, Q=Qk[n], genus=g, P=interpolate(xs, ys))
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
    """Iterate derive_step along ``steps`` from a level or a spec's ``level``; returns the derived levels in order."""
    steps = tuple(int(n) for n in steps)
    if not steps:
        raise ValueError("derivation tuple must be nonempty")
    if any(n < 1 for n in steps):
        raise ValueError("derivation tuple entries must be >= 1")
    levels = [base.level if isinstance(base, CurveSpec) else base]
    for n in steps:
        levels.append(derive_step(levels[-1], n))
    return levels[1:]
