"""Second route for the tower step and the interlacing polynomial, for tests only.

This is the direct transcription of the double-composition sum: it loops over
every integer composition (2^(n-1) of them) and adds canonical ``RatFunc``s,
so the pole cancellation happens symbolically, by gcd reduction, instead of
being certified by residues.  Its cost is exponential in n; keep n <= 8.
"""

from fractions import Fraction
from math import comb

from zetatower.derived_engine import composition_weight, compositions, special_values
from zetatower.exact_arith import Poly, RatFunc


def oracle_zeta(z, n: int) -> RatFunc:
    """The complete zeta of z derived by n, summed as rational functions."""
    g, qp = z.genus, z.Q
    sv = special_values(z, n) if n > 1 else None
    total = RatFunc(0)
    for a in range(1, n + 1):
        mid = z.zeta.scale_var(qp ** (n - a))

        if n - a == 0:
            right = RatFunc(1)
        else:
            right = RatFunc(0)
            for comp in compositions(n - a):
                boundary = RatFunc(Poly([0, 1]), Poly([-(qp ** (a + comp[-1] - n)), 1]))
                right = right + composition_weight(comp, sv) * boundary

        if a - 1 == 0:
            left = RatFunc(1)
        else:
            left = RatFunc(0)
            for comp in compositions(a - 1):
                boundary = RatFunc(1, Poly([1, -(qp ** (n - a + 1 + comp[0]))]))
                left = left + composition_weight(comp, sv) * boundary

        total = total + right * mid * left
    return qp ** (comb(n, 2) * (g - 1)) * total


def oracle_numerator(z, n: int) -> Poly:
    """P of the derived level: the oracle zeta times (1-T)(1-Q^n T)T^(g-1)."""
    den = Poly([1, -1]) * Poly([1, -(z.Q**n)]) * Poly([0, 1]) ** (z.genus - 1)
    return (oracle_zeta(z, n) * RatFunc(den)).to_poly()


def positive_weight(comp, sv) -> Fraction:
    """Composition weight with the pair denominators taken positively."""
    w = Fraction(1)
    for part in comp:
        w *= sv.vhat(part)
    for left, right in zip(comp, comp[1:]):
        w /= sv.Q ** (left + right) - 1
    return w


def oracle_interlacing_poly(sv, n: int) -> Poly:
    """sum over compositions k of n of w+(k) / (Q^(k_last) T - 1), cleared by prod_l (Q^l T - 1)."""
    Q = sv.Q
    tail = RatFunc(0)
    for comp in compositions(n):
        tail = tail + positive_weight(comp, sv) * RatFunc(1, Poly([-1, Q ** comp[-1]]))
    clearing = Poly([1])
    for ell in range(1, n + 1):
        clearing = clearing * Poly([-1, Q**ell])
    return (tail * RatFunc(clearing)).to_poly()
