"""The inductive derivation step of the zeta tower, at polynomial cost in n.

A level is its numerator (``curves.ZetaLevel`` holds steps, Q, genus and P);
every value, residue and special value of the previous zeta below is read
off its P, by one integer Horner pass over ``P.view``, the rational content
times coprime ints that each ``Poly`` builds once.

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
them.  Inside ``derive_step`` a value is an int pair (N, D) that
stands for N/D and is never reduced: each pole 1/(1 - Q^k), each F(m, s),
each middle value Z(Q^k) (``ZetaLevel.value_pair``, for k < 0 too), each
table entry, the two residues of the previous level as they are read
(``exact_arith.as_pair``), and the 2g+1 node values that go to
``exact_arith.interpolate``.  A sum of products of pairs puts the products
over the lcm of their denominators (``exact_arith.over_lcm``) and adds ints.
Values are reduced in three places only: the special values, which
``special_values`` returns as Fractions; the rows of the table, each of which
``composition_sums`` returns as ints over one denominator, divided by their
gcd; and the interpolated coefficients of the new numerator.  A residue sum
of the certificate is tested for zero unreduced.

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
from fractions import Fraction
from functools import cache
from math import comb, gcd, prod
from typing import Iterator, Sequence, Union

from zetatower.curves import CurveSpec, ZetaLevel, artin_zeta, validate_zeta_level
from zetatower.exact_arith import as_pair, interpolate, over_lcm


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
    """Special values of one level: zeta_hat(k) for k = 1..depth and their products.

    zeta_hat(1) is the residue at T = 1; zeta_hat(k) for k >= 2 is the exact
    value at T = Q^-k (never a pole, the only poles being T = 1 and T = 1/Q).
    vhat(N) = prod_{k<=N} zeta_hat(k), with vhat(0) = 1.
    """

    Q: int
    values: tuple  # values[k-1] = zeta_hat(k)
    vhats: tuple  # vhats[N] = vhat(N), length depth+1

    @property
    def zeta1(self) -> Fraction:
        return self.values[0]

    @property
    def depth(self) -> int:
        return len(self.values)

    def zeta_hat(self, k: int) -> Fraction:
        return self.values[k - 1]

    def vhat(self, n: int) -> Fraction:
        return self.vhats[n]


def special_values(z: ZetaLevel, n_max: int) -> SpecialValues:
    if n_max < 1:
        raise ValueError("need depth >= 1")
    values = [z.residue()] + [z.value(Fraction(1, z.Q**k)) for k in range(2, n_max + 1)]
    vhats = [Fraction(1)]
    for v in values:
        vhats.append(vhats[-1] * v)
    return SpecialValues(Q=z.Q, values=tuple(values), vhats=tuple(vhats))


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
    if sv.depth < m_max:
        raise ValueError(f"special values of depth {sv.depth} < {m_max}")
    Q = sv.Q
    sign = 1 if positive else -1  # 1 / (1 - Q^s) = -1 / (Q^s - 1)
    pair = [None] + [Q**s - 1 for s in range(1, m_max + 1)]
    rows = [([0], 1)]
    for m in range(1, m_max + 1):
        entries = [(0, 1)]
        for p in range(1, m):
            nums, D = rows[m - p]
            scaled, L = over_lcm((x, pair[r + p]) for r, x in enumerate(nums[1:], 1))
            v = sv.vhat(p)
            entries.append((sign * v.numerator * sum(scaled), v.denominator * D * L))
        entries.append(as_pair(sv.vhat(m)))
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

    def lcm_sum(products) -> tuple:  # (N, L): N / L is the sum of the products of pairs
        scaled, L = over_lcm((prod(n for n, _ in fs), prod(d for _, d in fs)) for fs in products)
        return sum(scaled), L

    @cache
    def pole(k: int) -> tuple:  # 1 / (1 - Q^k), k != 0
        return (1, 1 - Q**k) if k > 0 else (Q**-k, Q**-k - 1)

    @cache
    def F(m: int, s: int) -> tuple:  # row m over its D, the poles over their lcm
        if not m:
            return 1, 1
        nums, D = rows[m]
        scaled, L = over_lcm((nums[p] * pole(p + s)[0], pole(p + s)[1]) for p in range(1, m + 1))
        return sum(scaled), D * L

    @cache
    def mid(k: int) -> tuple:  # Z(Q^k)
        return z.value_pair(Q**k, 1) if k >= 0 else z.value_pair(1, Q**-k)

    def right(a: int, e: int) -> tuple:  # R_a(Q^e)
        return F(n - a, a - n - e)

    def left(a: int, e: int) -> tuple:  # L_a(Q^e)
        return F(a - 1, n - a + 1 + e)

    # Each a-term has exactly one simple pole at T = Q^e: in the right sum for
    # a <= n-1+e, in Z(Q^(n-a) T) at u = 1 (residues[0]) for a = n+e and at
    # u = 1/Q (residues[1]) for a = n+e+1, and in the left sum for a >= n+e+2.
    # The sum is scaled by Q^-e, which drops Q^e from the side sums and leaves Q on Res(1/Q).
    residues = (as_pair(z.residue()), as_pair(z.residue_inv_q() * Q))
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
    xs = [Q**j for j in range(1, 2 * g + 2)]
    sums = [lcm_sum((right(a, j), mid(n - a + j), left(a, j)) for a in range(1, n + 1)) for j in range(1, 2 * g + 2)]
    ys = [(prefactor * (1 - t) * (1 - Q**n * t) * t ** (g - 1) * N, L) for t, (N, L) in zip(xs, sums)]
    level = ZetaLevel(steps=steps, Q=Q**n, genus=g, P=interpolate(xs, ys))
    failed = [c for c in validate_zeta_level(level) if not c.passed]
    if failed:
        raise DerivationError(
            "derivation inconsistency at steps "
            f"{level.steps}: {'; '.join(f'{c.name}: {c.detail}' for c in failed)}"
        )
    return level


def normalize_level(z: ZetaLevel) -> ZetaLevel:
    """Divide the numerator by its constant coefficient."""
    alpha0 = z.P[0]
    if alpha0 == 0:
        raise ValueError("cannot normalize: numerator constant term is zero")
    return replace(z, P=z.P * (1 / alpha0))


def derive_tower(
    base: Union[CurveSpec, ZetaLevel], steps: Sequence[int], normalize: bool = False
) -> list:
    """Iterate derive_step along ``steps``; returns the derived levels in order.

    With normalize=True every level (including the base) is divided by its
    constant numerator coefficient before deriving further.
    """
    steps = tuple(int(n) for n in steps)
    if not steps:
        raise ValueError("derivation tuple must be nonempty")
    if any(n < 1 for n in steps):
        raise ValueError("derivation tuple entries must be >= 1")
    cur = artin_zeta(base) if isinstance(base, CurveSpec) else base
    if normalize:
        cur = normalize_level(cur)
    levels = []
    for n in steps:
        cur = derive_step(cur, n)
        if normalize:
            cur = normalize_level(cur)
        levels.append(cur)
    return levels
