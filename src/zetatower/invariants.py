"""Numerator invariants of a tower level and their cross-checks.

A level's numerator P (degree 2g, constant term alpha(0)) decomposes as

    P = S(T) * (1-T)(1-QT) + (Q-1) * beta * T^g

where beta is the residue at T = 1 and S is palindromic of degree 2(g-1) with
lower coefficients alpha(0)..alpha(g-1).  Extraction inverts that by exact
division on the ints of P's view, so any deviation from the required shape
fails loudly instead of being least-squares'd away; a reconstruction
mismatch, also in those ints, raises ReconstructionError, which
``python -O`` keeps.  An ``InvariantSet`` holds ints and the view's content:
the ints of S and P(1) / content, so positivity is a sign test, and the
alphas and beta are formed (``invariant_values``) only where a report
prints them.  P, Q and the genus are read off the ``ZetaLevel``, so only
callers that need the invariants extract.  The same beta is also given by a
closed sum over integer compositions of special values of the previous
level, q^(C(n,2)(g-1)) * sum_p E[n][p] with the last-part table E of
``derived_engine.composition_sums``, whose row n is the int row (nums, D)
with E[n][p] = nums[p] / D, so the sum is the int pair
(q^(C(n,2)(g-1)) sum(nums), D); that is the dual route the test suite
exercises everywhere, and ``beta_routes_check(sv, n)`` compares it with the
residue pair of ``sv.step(n)`` by cross-multiplication, as the counting
miracle compares the constant terms of the set's steps n and n+1.  Each step
check reads a set and n alone, so the level, its derived steps and the rows
all belong to the set's level: no pair that does not belong together can be
passed.  The rows are those kept on the set, shared with its derivations and
built once; a table built afresh would give the same rows bit for bit, since
both routes call one pure function on one set.
The routes differ in what they read: the derived level's residue rests on
rows <= n-1, through the step's certificate and Taylor read, and the closed
sum on row n.  A second route that reads no table is still open.

Interlacing is the statement that the cleared composition polynomial

    sum over (k) of n:  [prod v_{k_i} / prod_j (Q^(k_j+k_{j+1}) - 1)] * prod_{l != k_last} (Q^l T - 1)

has one real root in each interval (Q^-(kappa+1), Q^-kappa), kappa = 1..n-1.
Grouped by last part p it is sum_p W_p * prod_{l != p} (Q^l T - 1), with W_p
the entry of row n of the positive-denominator table.  At T = Q^-kappa every
term but p = kappa vanishes, and the kappa - 1 factors l < kappa of the one
left are negative, so its sign there is sign(W_kappa) * (-1)^(kappa+1): the
signs alternate starting + exactly when W_1..W_n are all positive, and the
check reads them off that row, with no polynomial.  Each W_kappa is positive
whenever vhat(1..n) are (every pair denominator Q^s - 1 is), and the sweep
checks a step only from a prefix whose invariants are positive.  That makes
beta and, by the decomposition above with S's coefficients positive, every
Z(Q^-k), k >= 2, positive, and so every vhat.  There the check can fail
only through a fault in the positive table.  ``interlacing_poly``
builds the polynomial itself for the per-layer trace and the numerator
pins, which read it by name; no command calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from zetatower.curves import CheckResult, ZetaLevel
from zetatower.derived_engine import SpecialValues, composition_sums
from zetatower.exact_arith import Poly, is_self_inversive, pair_str


class ReconstructionError(RuntimeError):
    """Extracted invariants do not rebuild their numerator; signals an implementation bug."""


@dataclass(frozen=True)
class InvariantSet:
    """One level's invariants on the ints of its view: alpha(l) = content * S[l], beta = content * total / (Q-1).

    ``S`` holds S[0]..S[g-1] and ``total`` is P(1) / content, the sum of the
    view's ints.  P, Q and the genus stay on the ZetaLevel; ``invariant_values``
    forms the alphas and beta for a report that prints them.
    """

    content: Fraction
    S: tuple
    total: int

    def positivity(self) -> bool:
        """Every alpha and beta positive: the content and Q - 1 are, so the signs are the ints'."""
        return all(s > 0 for s in self.S) and self.total > 0


def invariant_values(inv: InvariantSet, Q: int, scale: Optional[Fraction] = None) -> tuple:
    """(alphas, beta) as rationals: the ints of ``inv`` times ``scale``, the content unless given."""
    scale = inv.content if scale is None else scale
    return tuple(scale * s for s in inv.S), scale * Fraction(inv.total, Q - 1)


def reconstruct_numerator(S: Sequence[int], total: int, Q: int, genus: int) -> list:
    """The ints of P / content rebuilt from S[0..g-1] and total = P(1) / content: S(T) (1-T)(1-QT) + total T^g."""
    g = genus
    full = [0] * (2 * g - 1)
    for ell in range(g - 1):
        full[ell] += S[ell]
        full[2 * (g - 1) - ell] += Q ** (g - 1 - ell) * S[ell]
    full[g - 1] += S[g - 1]
    ints = [0] * (2 * g + 1)
    for k, s in enumerate(full):  # S * (1 - (Q+1) T + Q T^2)
        ints[k] += s
        ints[k + 1] -= (Q + 1) * s
        ints[k + 2] += Q * s
    ints[g] += total
    return ints


def extract_invariants(z: ZetaLevel) -> InvariantSet:
    """Read (S, P(1)) off a level by residue plus exact division, on the ints of P's view.

    With P = c * ints, R = P - (Q-1) beta T^g is c times the ints with sum(ints)
    taken off the middle one, and the division by 1 - (Q+1)T + QT^2, whose
    constant term is 1, stays in the ints; so does the reconstruction check.
    """
    g, Q = z.genus, z.Q
    P = z.P
    if P.degree != 2 * g:
        raise ValueError(f"numerator degree {P.degree}, expected {2 * g}")
    c, ints = P.view
    total = sum(ints)  # (Q-1) beta / c
    R = list(ints)
    R[g] -= total
    # R / (1 - (Q+1) T + Q T^2) from the constant term up; S = R / that exactly iff its last two terms vanish
    S = []
    for k, r in enumerate(R):
        if k >= 1:
            r += (Q + 1) * S[k - 1]
        if k >= 2:
            r -= Q * S[k - 2]
        S.append(r)
    if S[-1] or S[-2]:
        raise ValueError("level violates the numerator decomposition shape")
    del S[-2:]
    if not is_self_inversive(S, Q, g - 1):
        raise ValueError("interior part is not palindromic")
    S = tuple(S[:g])
    if tuple(reconstruct_numerator(S, total, Q, g)) != ints:
        raise ReconstructionError(f"invariants of level {z.steps} do not reconstruct its numerator")
    return InvariantSet(content=c, S=S, total=total)


def beta_closed_form(sv: SpecialValues, n: int) -> tuple:
    """Residue of the level ``sv.step(n)`` by the closed composition sum, no derivation, as an unreduced int pair (N, D), D > 0."""
    nums, D = composition_sums(sv, n)[n]
    return sv.Q ** (comb(n, 2) * (sv.level.genus - 1)) * sum(nums), D


def beta_routes_check(sv: SpecialValues, n: int) -> CheckResult:
    """The residue of ``sv.step(n)`` against ``beta_closed_form(sv, n)``, cross-multiplied."""
    num, den = sv.step(n).residue_pair()
    closed_num, closed_den = beta_closed_form(sv, n)
    return CheckResult("beta_routes", num * closed_den == closed_num * den)


def counting_miracle_check(sv: SpecialValues, n: int) -> CheckResult:
    """Constant term of ``sv.step(n + 1)`` against q^(n(g-1)) * alpha_prev(0) * beta of ``sv.step(n)``, cross-multiplied.

    alpha_prev(0) is read off ``sv.level``, beta as a residue pair, and each
    constant term is its view's content times its first int; the two steps
    are the set's, each derived the first time a reader reads it and kept.

    The step reads alpha(0) off T = 0, where only its a = n term survives, so
    the left side is q^(n(g-1)) alpha_prev(0) times ``beta_closed_form`` as the
    step computes it: the routes beta_routes compares.  The full sum meets the
    closed value in validation's A_2g = Q_n^g A_0, which every a-term reaches.
    """
    prev, derived, following = sv.level, sv.step(n), sv.step(n + 1)
    g = prev.genus
    (c, ints), (c_next, ints_next) = prev.P.view, following.P.view
    beta_num, beta_den = derived.residue_pair()
    got_num, got_den = c_next.numerator * ints_next[0], c_next.denominator
    expected_num = prev.Q ** (n * (g - 1)) * c.numerator * ints[0] * beta_num
    expected_den = c.denominator * beta_den
    ok = got_num * expected_den == expected_num * got_den
    # built only on failure: deep levels have more digits than Python converts to a string
    detail = "" if ok else f"alpha0(step {n + 1}) = {pair_str(got_num, got_den)}, expected {pair_str(expected_num, expected_den)}"
    return CheckResult("counting_miracle", ok, detail)


# --------------------------------------------------------------------------
# Interlacing
# --------------------------------------------------------------------------


def interlacing_sign_check(sv: SpecialValues, n: int) -> tuple:
    """(check, signs) of step n: the signs sign(W_kappa) * (-1)^(kappa+1) at T = Q^-kappa, kappa = 1..n.

    They alternate starting + iff row n of the positive table is positive,
    which forces one real root in each interval (Q^-(kappa+1), Q^-kappa);
    a zero at a sample point is reported as degenerate rather than passed.
    """
    nums, _ = composition_sums(sv, n, positive=True)[n]  # W_p = nums[p] / D, D > 0
    signs = tuple((-1) ** (kappa + 1) * ((w > 0) - (w < 0)) for kappa, w in enumerate(nums[1:], start=1))
    detail = f"root at sample point; signs {list(signs)}" if 0 in signs else f"signs at Q^-kappa: {list(signs)}"
    return CheckResult("interlacing", all(w > 0 for w in nums[1:]), detail), signs


def interlacing_poly(sv: SpecialValues, n: int) -> Poly:
    """The cleared composition polynomial of step n, of degree n-1: sum_p W_p * prod_{l != p} (Q^l T - 1)."""
    Q = sv.Q
    nums, D = composition_sums(sv, n, positive=True)[n]  # W_p = nums[p] / D
    powers = [Q**ell for ell in range(n + 1)]  # each Q^l once, for its factor and its quotient
    clearing = [1]  # prod_{l=1..n} (Q^l T - 1), lowest coefficient first
    for power in powers[1:]:
        clearing = [power * a - b for a, b in zip([0] + clearing, clearing + [0])]
    coeffs = [0] * n
    for p, w in enumerate(nums[1:], start=1):  # w * clearing / (Q^p T - 1), from the constant term up
        quotient, power = 0, powers[p]
        for k in range(n):
            quotient = power * quotient - clearing[k]
            coeffs[k] += w * quotient
    return Poly.from_ints(coeffs, D)
