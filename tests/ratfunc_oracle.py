"""Rational functions and the second routes to what the package computes, for tests only.

The package stores a level as its numerator P; ``to_ratfunc`` rebuilds the
complete zeta P / ((1-T)(1-QT)T^(g-1)) as a canonical ``RatFunc``, so the
tests can check the functional equation, the reduced denominator and the
residues symbolically, independently of the coefficient arithmetic in
``curves.validate_zeta_level``.

``oracle_zeta`` is the direct transcription of the double-composition sum:
it loops over every integer composition (2^(n-1) of them) and adds canonical
``RatFunc``s, so the pole cancellation happens symbolically, by gcd
reduction, instead of being certified by residues.  Its cost is exponential
in n; keep n <= 8.

``oracle_invariants`` reads (alphas, beta) off a level by ``Poly`` division,
the reference for ``invariants.extract_invariants``, which divides on the
coefficient list.

``derivative``, ``rational_divmod``, ``rational_gcd`` and
``rational_squarefree_factors`` are Euclid and Yun's split over ``Fraction``
coefficients, the parity route for the package's integer ``poly_gcd`` and
``squarefree_factors``.

``residue_series_recursion`` is the second route to the residue series, and
``elliptic_beta_series_check`` matches each derived residue of a genus-1
level against the series coefficient.
"""

from fractions import Fraction
from math import comb

from zetatower.curves import CheckResult, ZetaLevel
from zetatower.derived_engine import compositions, derive_step, special_values
from zetatower.exact_arith import ONE, ZERO, Poly, as_rat, is_self_inversive
from zetatower.mult_struct import residue_series_exp


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""

    def __init__(self, point: Fraction):
        self.point = point
        super().__init__(f"pole at evaluation point {point}")


def _scaled_coeffs(p: Poly, c: Fraction) -> list:
    """The coefficients of p(c*T)."""
    return [coeff * c**i for i, coeff in enumerate(p.coeffs)]


def _as_poly(x) -> Poly:
    return x if isinstance(x, Poly) else Poly([x])


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def rational_divmod(a: Poly, b: Poly) -> tuple:
    """(quotient, remainder) of a by b, long division over the rationals."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [Fraction(0)] * max(len(rem) - len(b.coeffs) + 1, 0)
    lead = b.coeffs[-1]
    dlen = len(b.coeffs)
    while len(rem) >= dlen and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < dlen:
            break
        f = rem[-1] / lead
        shift = len(rem) - dlen
        quo[shift] = f
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= f * c
        rem.pop()
    return Poly(quo), Poly(rem)


def monic(p: Poly) -> Poly:
    if p.is_zero():
        raise ValueError("zero polynomial has no monic form")
    lead = p.coeffs[-1]
    return Poly([c / lead for c in p.coeffs])


def rational_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    while not b.is_zero():
        a, b = b, rational_divmod(a, b)[1]
    return monic(a)


def rational_squarefree_factors(P: Poly) -> list:
    """Yun's squarefree decomposition over the rationals: [(F, m)] with P = lead * prod F^m, the F monic."""
    dP = derivative(P)
    common = rational_gcd(P, dP)
    if common.degree == 0:
        return [(monic(P), 1)]
    b = rational_divmod(P, common)[0]
    d = rational_divmod(dP, common)[0] - derivative(b)
    out, m = [], 1
    while b.degree > 0:
        a = rational_gcd(b, d)
        b = rational_divmod(b, a)[0]
        d = rational_divmod(d, a)[0] - derivative(b)
        if a.degree > 0:
            out.append((a, m))
        m += 1
    return out


class RatFunc:
    """Reduced quotient of two polynomials in one formal variable.

    Canonical form: gcd(num, den) = 1 and the denominator's lowest nonzero
    coefficient equals 1 (its constant term, whenever that is nonzero), so
    structural equality is mathematical equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=ZERO, den=ONE):
        num, den = _as_poly(num), _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = ZERO, ONE
        else:
            g = rational_gcd(num, den)
            if g.degree > 0:
                num, den = rational_divmod(num, g)[0], rational_divmod(den, g)[0]
            c = next(c for c in den.coeffs if c != 0)
            if c != 1:
                num, den = num * (1 / c), den * (1 / c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    def is_poly(self) -> bool:
        return self.den == ONE

    def to_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"not a polynomial: denominator {self.den!r}")
        return self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __call__(self, t) -> Fraction:
        t = as_rat(t)
        d = self.den(t)
        if d == 0:
            raise PoleError(t)
        return self.num(t) / d

    def scale_var(self, c) -> "RatFunc":
        """f(c*T) for nonzero c."""
        c = as_rat(c)
        if c == 0:
            raise ValueError("variable scale must be nonzero")
        return RatFunc(Poly(_scaled_coeffs(self.num, c)), Poly(_scaled_coeffs(self.den, c)))

    def subst_reciprocal(self, c) -> "RatFunc":
        """f(c/T) for nonzero c, as a rational function of T."""
        c = as_rat(c)
        if c == 0:
            raise ValueError("substitution constant must be nonzero")
        # T**deg * p(c/T) reverses the coefficients of p(c*T)
        num = Poly(_scaled_coeffs(self.num, c)[::-1])
        den = Poly(_scaled_coeffs(self.den, c)[::-1])
        dn = len(self.num.coeffs) - 1 if self.num.coeffs else 0
        dd = len(self.den.coeffs) - 1
        T = Poly([0, 1])
        if dd >= dn:
            num = num * T ** (dd - dn)
        else:
            den = den * T ** (dn - dd)
        return RatFunc(num, den)


def _as_ratfunc(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)


def residue_simple_pole(f: RatFunc, t0) -> Fraction:
    """Residue of f at a simple pole t0, computed as num(t0)/den'(t0)."""
    t0 = as_rat(t0)
    if f.den(t0) != 0:
        raise ValueError(f"not a pole: {t0}")
    d = derivative(f.den)(t0)
    if d == 0:
        raise ValueError(f"pole not simple at {t0}")
    return f.num(t0) / d


def standard_denominator(Q, genus: int) -> Poly:
    """(1-T)(1-QT)T^(g-1)."""
    return Poly([1, -1]) * Poly([1, -Q]) * Poly([0, 1]) ** (genus - 1)


def to_ratfunc(level) -> RatFunc:
    """The complete zeta of a level, P / ((1-T)(1-QT)T^(g-1)), reduced."""
    return RatFunc(level.P, standard_denominator(level.Q, level.genus))


def oracle_zeta(z, n: int) -> RatFunc:
    """The complete zeta of z derived by n, summed as rational functions."""
    g, qp = z.genus, Fraction(z.Q)  # a boundary factor reads a negative power
    sv = special_values(z, n) if n > 1 else None
    total = RatFunc(0)
    for a in range(1, n + 1):
        mid = to_ratfunc(z).scale_var(qp ** (n - a))

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
    return (oracle_zeta(z, n) * RatFunc(standard_denominator(z.Q**n, z.genus))).to_poly()


def composition_weight(comp, sv) -> Fraction:
    """prod v_{k_i} / prod_j (1 - Q^(k_j + k_{j+1})) for one composition."""
    w = Fraction(1)
    for part in comp:
        w *= sv.vhat(part)
    for left, right in zip(comp, comp[1:]):
        w /= 1 - sv.Q ** (left + right)
    return w


def positive_weight(comp, sv) -> Fraction:
    """Composition weight with the pair denominators taken positively."""
    w = Fraction(1)
    for part in comp:
        w *= sv.vhat(part)
    for left, right in zip(comp, comp[1:]):
        w /= sv.Q ** (left + right) - 1
    return w


def interlacing_tail(sv, n: int) -> RatFunc:
    """The uncleared sum over compositions k of n of w+(k) / (Q^(k_last) T - 1), one simple pole per last part."""
    tail = RatFunc(0)
    for comp in compositions(n):
        tail = tail + positive_weight(comp, sv) * RatFunc(1, Poly([-1, sv.Q ** comp[-1]]))
    return tail


def oracle_interlacing_poly(sv, n: int) -> Poly:
    """The interlacing tail of n cleared by prod_l (Q^l T - 1)."""
    clearing = Poly([1])
    for ell in range(1, n + 1):
        clearing = clearing * Poly([-1, sv.Q**ell])
    return (interlacing_tail(sv, n) * RatFunc(clearing)).to_poly()


def oracle_invariants(z) -> tuple:
    """(alphas, beta) of a level: divide P - (Q-1) beta T^g by (1-T)(1-QT) as polynomials.

    Raises ValueError, with the messages of ``extract_invariants``, when P
    does not have the decomposition's shape.
    """
    g, P = z.genus, z.P
    if P.degree != 2 * g:
        raise ValueError(f"numerator degree {P.degree}, expected {2 * g}")
    beta = z.residue()
    S, rem = rational_divmod(P - (z.Q - 1) * beta * Poly([0, 1]) ** g, Poly([1, -1]) * Poly([1, -z.Q]))
    if not rem.is_zero():
        raise ValueError("level violates the numerator decomposition shape")
    if not is_self_inversive(S, z.Q, g - 1):
        raise ValueError("interior part is not palindromic")
    return tuple(S[ell] for ell in range(g)), beta


def residue_series_recursion(level: ZetaLevel, k_max: int) -> tuple:
    P, Q, g = level.P, level.Q, level.genus
    if P[0] != 1:
        raise ValueError("recursion needs the numerator normalized to constant term 1")
    b = [Fraction(1)]
    for k in range(1, k_max + 1):
        rhs = (Q + 1) * Q ** (k - 1) * b[k - 1]
        if k >= 2:
            rhs -= Q ** (k - 1) * b[k - 2]
        for ell in range(1, min(k, 2 * g) + 1):
            rhs += P[ell] * b[k - ell]
        b.append(rhs / (Q**k - 1))
    return tuple(b)


def elliptic_beta_series_check(level: ZetaLevel, n_max: int) -> CheckResult:
    """Residues of the derived levels against the series coefficients, exactly.

    level must be a normalized genus-1 level; beta at step n is the residue
    of a fresh derivation, b_n from the exp route on the level.
    """
    if level.genus != 1:
        raise ValueError("the identity is specific to genus 1")
    series = residue_series_exp(level, n_max)
    mismatches = []
    for n in range(0, n_max + 1):
        beta_n = derive_step(level, n).residue() if n else Fraction(1)
        if beta_n != series[n]:
            mismatches.append((n, beta_n, series[n]))
    return CheckResult(
        "beta_equals_series",
        not mismatches,
        "exact match to order %d" % n_max if not mismatches else f"mismatches: {mismatches}",
    )
