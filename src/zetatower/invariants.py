"""Numerator invariants of a tower level and their cross-checks.

A level's numerator P (degree 2g, constant term alpha(0)) decomposes as

    P = S(T) * (1-T)(1-QT) + (Q-1) * beta * T^g

where beta is the residue at T = 1 and S is palindromic of degree 2(g-1) with
lower coefficients alpha(0)..alpha(g-1).  Extraction inverts that by exact
division, so any deviation from the required shape fails loudly instead of
being least-squares'd away; a reconstruction mismatch raises
ReconstructionError, which ``python -O`` keeps.  An ``InvariantSet`` holds
just the alphas and beta: P, Q and the genus are read off the ``ZetaLevel``,
so only callers that need the alphas extract.  The same beta is also given
by a closed sum over integer compositions of special values of the previous
level, q^(C(n,2)(g-1)) * sum_p E[n][p] with the last-part table E of
``derived_engine.composition_sums``, whose row n is the int row (nums, D)
with E[n][p] = nums[p] / D, so the sum is one Fraction sum(nums) / D; that is
the dual route the test suite exercises everywhere.

The interlacing polynomial built here clears the composition sum

    sum over (k) of n:  [prod v_{k_i} / prod_j (Q^(k_j+k_{j+1}) - 1)] / (Q^(k_last) T - 1)

against prod_{l=1..n} (Q^l T - 1).  Grouped by last part p, with W_p the
positive-denominator table entry, it is sum_p W_p * prod_{l != p} (Q^l T - 1):
each cofactor is an exact integer division of the clearing product by
(Q^p T - 1), the W_p are the ints nums[p] of the table's row n over its one
denominator D, and each coefficient is reduced once.  An ``InterlacingPoly``
holds just n, the previous (int) Q and that polynomial.
All composition weights are positive, so at T = Q^-kappa only the
compositions ending in kappa survive and the sign is forced to (-1)^(kappa+1):
the sign vector alternates and pins one real root in each interval
(Q^-(kappa+1), Q^-kappa), kappa = 1..n-1; each sign is an integer Horner sum's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from zetatower.curves import CheckResult, ZetaLevel
from zetatower.derived_engine import SpecialValues, composition_sums
from zetatower.exact_arith import BigRat, Poly, horner, is_self_inversive, rat_str


class ReconstructionError(RuntimeError):
    """Extracted invariants do not rebuild their numerator; signals an implementation bug."""


@dataclass(frozen=True)
class InvariantSet:
    """alpha(0)..alpha(g-1) and beta of one level; its P and Q stay on the ZetaLevel."""

    alphas: tuple
    beta: BigRat

    def positivity(self) -> bool:
        return all(a > 0 for a in self.alphas) and self.beta > 0


def reconstruct_numerator(alphas, beta, Q: int, genus: int) -> Poly:
    """Expand the (alphas, beta) decomposition back into P."""
    g = genus
    S = [Fraction(0)] * (2 * g - 1)
    for ell in range(g - 1):
        S[ell] += Fraction(alphas[ell])
        S[2 * (g - 1) - ell] += Q ** (g - 1 - ell) * Fraction(alphas[ell])
    S[g - 1] += Fraction(alphas[g - 1])
    P = [Fraction(0)] * (2 * g + 1)
    for k, s in enumerate(S):  # S * (1 - (Q+1) T + Q T^2)
        P[k] += s
        P[k + 1] -= (Q + 1) * s
        P[k + 2] += Q * s
    P[g] += (Q - 1) * Fraction(beta)
    return Poly(P)


def extract_invariants(z: ZetaLevel) -> InvariantSet:
    """Read (alphas, beta) off a level by residue plus exact division, on the coefficient list."""
    g, Q = z.genus, z.Q
    P = z.P
    if P.degree != 2 * g:
        raise ValueError(f"numerator degree {P.degree}, expected {2 * g}")
    beta = z.residue()
    R = list(P.coeffs)
    R[g] -= (Q - 1) * beta
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
    alphas = tuple(S[:g])
    if reconstruct_numerator(alphas, beta, Q, g) != P:
        raise ReconstructionError(f"invariants of level {z.steps} do not reconstruct its numerator")
    return InvariantSet(alphas=alphas, beta=beta)


def beta_closed_form(sv: SpecialValues, n: int, genus: int) -> Fraction:
    """Residue of the next level by the closed composition sum, no derivation."""
    nums, D = composition_sums(sv, n)[n]
    return sv.Q ** (comb(n, 2) * (genus - 1)) * Fraction(sum(nums), D)


def counting_miracle_check(prev: ZetaLevel, derived: ZetaLevel, following: ZetaLevel) -> CheckResult:
    """Constant term at step n+1 against q^(n(g-1)) * alpha_prev(0) * beta at step n.

    ``derived`` and ``following`` are ``prev`` derived by n and by n+1, taken
    from the caller's tower; nothing is derived here.  Their steps must say
    so, else ValueError.  beta is read off ``derived`` as a residue.
    """
    n = derived.steps[-1] if derived.steps else 0
    if derived.steps != prev.steps + (n,) or following.steps != prev.steps + (n + 1,):
        raise ValueError(f"levels {derived.steps}, {following.steps} are not {prev.steps} derived by n, n+1")
    g = prev.genus
    alpha0_prev = prev.P[0]
    beta_n = derived.residue()
    alpha0_next = following.P[0]
    expected = prev.Q ** (n * (g - 1)) * alpha0_prev * beta_n
    ok = alpha0_next == expected
    # built only on failure: deep levels have more digits than Python converts to a string
    detail = "" if ok else f"alpha0(step {n + 1}) = {rat_str(alpha0_next)}, expected {rat_str(expected)}"
    return CheckResult("counting_miracle", ok, detail)


# --------------------------------------------------------------------------
# Interlacing polynomial
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InterlacingPoly:
    """Cleared composition sum whose sign alternation certifies root interlacing."""

    n: int
    Q_prev: int
    poly: Poly  # sum_p W_p * prod_{l != p} (Q^l T - 1), W_p the positive-weight sum over last part p


def interlacing_poly(sv: SpecialValues, n: int) -> InterlacingPoly:
    """Build the cleared composition polynomial of degree n-1."""
    Q = sv.Q
    nums, D = composition_sums(sv, n, positive=True)[n]  # W_p = nums[p] / D
    clearing = [1]  # prod_{l=1..n} (Q^l T - 1), lowest coefficient first
    for ell in range(1, n + 1):
        clearing = [Q**ell * a - b for a, b in zip([0] + clearing, clearing + [0])]
    coeffs = [0] * n
    for p, w in enumerate(nums[1:], start=1):  # w * clearing / (Q^p T - 1), from the constant term up
        quotient = 0
        for k in range(n):
            quotient = Q**p * quotient - clearing[k]
            coeffs[k] += w * quotient
    return InterlacingPoly(n=n, Q_prev=Q, poly=Poly(Fraction(c, D) for c in coeffs))


def interlacing_signs(ip: InterlacingPoly) -> list:
    """Exact signs at T = Q^-kappa, kappa = 1..n: the view's content is positive, so the Horner sums' signs."""
    signs = []
    for kappa in range(1, ip.n + 1):
        h = horner(ip.poly.view[1], 1, ip.Q_prev**kappa)
        signs.append((h > 0) - (h < 0))
    return signs


def interlacing_sign_check(ip: InterlacingPoly) -> CheckResult:
    """Exact signs at T = Q^-kappa, kappa = 1..n, must alternate starting +.

    The alternation forces one real root in each interval
    (Q^-(kappa+1), Q^-kappa) for kappa = 1..n-1; a zero value at a sample
    point is reported as degenerate rather than passed.
    """
    signs = interlacing_signs(ip)
    if 0 in signs:
        return CheckResult("interlacing", False, f"root at sample point; signs {signs}")
    ok = all(s == (-1) ** (kappa + 1) for kappa, s in enumerate(signs, start=1))
    degree_ok = ip.poly.degree == ip.n - 1 if ip.n > 1 else ip.poly.degree <= 0
    return CheckResult(
        "interlacing",
        ok and degree_ok,
        f"signs at Q^-kappa: {signs}; degree {ip.poly.degree}",
    )
