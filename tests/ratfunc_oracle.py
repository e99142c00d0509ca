"""Rational functions and the second routes to what the package computes, for tests only.

The package ``Poly`` is only its integer view, with no arithmetic.
``RingPoly`` is the test-only subclass that adds the polynomial ring over
``Fraction`` coefficients (+, -, *, **, evaluation and the cached ``coeffs``
tuple);
``ring(P)`` lifts a package ``Poly`` by its view, and ``ZERO`` and ``ONE``
are its constants.  A test that multiplies a level's P, evaluates it, or
reads its coefficients as a tuple, goes through ``ring``.
``newton_power_sums`` is Newton's identities over ``Fraction``s, the
reference for the integer recurrence of ``curves.point_counts_from_numerator``.

The package stores a level as its numerator P; ``to_ratfunc`` rebuilds the
complete zeta P / ((1-T)(1-QT)T^(g-1)) as a canonical ``RatFunc``, so the
tests can check the functional equation, the reduced denominator and the
residues symbolically, independently of the coefficient arithmetic in
``curves.validate_zeta_level``.

``oracle_zeta`` is the direct transcription of the double-composition sum:
it loops over every integer composition (2^(n-1) of them) and forms each
weight on its own, with no recurrence.  The weights that share a boundary
pole are added first (``weights_by_part``), and the side sums add one
canonical ``RatFunc`` per distinct pole, so the pole cancellation happens
symbolically, by gcd reduction, instead of being certified by residues.  Its
cost is exponential in n; keep n <= 8.

``interlacing_signs`` is the polynomial route to the interlacing signs: the
exact signs of a cleared interlacing polynomial at T = Q^-kappa, each an
integer Horner sum, where the package reads them off one table row.

``normalized_tower`` is ``derive_tower`` with every level, the base
included, divided by its constant coefficient before the next step.

``oracle_invariants`` reads (alphas, beta) off a level by ``Poly`` division,
the reference for ``invariants.extract_invariants``, which divides on the
coefficient list.

``derivative``, ``rational_divmod``, ``rational_gcd`` and
``rational_squarefree_factors`` are Euclid and Yun's split over ``Fraction``
coefficients, the parity route for the package's integer ``poly_gcd`` and for
the closed split of a genus-2 R in ``rh_lab._real_weil_roots``.

The residue-generating series of a level is

    B(x) = exp( sum_m  N_m / (Q^m - 1) * x^m / m ),

N_m = Q^m + 1 - p_m the counts that its constant-term-1 numerator implies
(``curves.point_counts_from_numerator``).  ``residue_series_exp`` takes it
by the exact series exponential ``series_exp``; ``residue_series_recursion``
is the second route, the three-term recursion obtained from clearing
denominators in (1-x)(1-Qx) B(Qx) = B(x) * P(x),

    (Q^k - 1) b_k = (Q+1) Q^(k-1) b_{k-1} - Q^(k-1) b_{k-2}
                    + sum_{l=1..min(k,2g)} A_l b_{k-l},      b_0 = 1.

(The middle coefficient is (Q+1), matching the denominator clearing; a
displayed (Q-1) variant is a typo that the exp route would immediately
contradict.)  For genus 1, b_n is the residue of the n-th derived level:
``elliptic_beta_series_check`` matches each derived residue against the
series coefficient, a third route beside the tower and the package's
elliptic recursion.

``fraction_beta_recursion``, ``fraction_ratio_bounds``, ``fraction_trace``
and ``fraction_discriminant`` are the genus-1 checks in ``Fraction``s, the
references for the package's int recursion, cross-multiplied bounds and
integer RH verdict.
"""

from fractions import Fraction
from math import comb

from zetatower.curves import CheckResult, ZetaLevel, point_counts_from_numerator
from zetatower.derived_engine import compositions, derive_step, normalize_level, special_values
from zetatower.exact_arith import Poly, as_rat, horner, is_self_inversive


class RingPoly(Poly):
    """The package ``Poly`` with the ring operations over ``Fraction`` coefficients, for tests only.

    ``coeffs`` is the tuple of Fraction coefficients, lowest first, with no
    trailing zero; it is formed on its first read (or kept from the rationals
    the polynomial was built from) and reused by every operation.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rat(c) for c in coeffs]
        super().__init__(cs)
        object.__setattr__(self, "_coeffs", tuple(cs[: len(self.view[1])]))

    @property
    def coeffs(self) -> tuple:
        try:
            return self._coeffs
        except AttributeError:  # built from a view
            c, ints = self.view
            object.__setattr__(self, "_coeffs", tuple(c * x for x in ints))
            return self._coeffs

    def is_zero(self) -> bool:
        return not self.view[1]

    def __iter__(self):
        return iter(self.coeffs)

    def __call__(self, t) -> Fraction:
        """P(t) by Horner over the Fraction coefficients."""
        t, acc = as_rat(t), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __add__(self, other) -> "RingPoly":
        a, b = self.coeffs, ring(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RingPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RingPoly":
        return RingPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "RingPoly":
        return self + (-ring(other))

    def __rsub__(self, other) -> "RingPoly":
        return ring(other) - self

    def __mul__(self, other) -> "RingPoly":
        if isinstance(other, (int, Fraction)):
            return RingPoly([c * other for c in self.coeffs])
        other = ring(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RingPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RingPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def ring(p) -> RingPoly:
    """p as a ``RingPoly``: a package ``Poly`` lifted by its view, a scalar as a constant."""
    if isinstance(p, RingPoly):
        return p
    if isinstance(p, Poly):
        return RingPoly._from_view(p.view)
    if isinstance(p, (int, Fraction)):
        return RingPoly([p])
    raise TypeError(f"cannot interpret {p!r} as a polynomial")


ZERO = RingPoly()
ONE = RingPoly([1])


def newton_power_sums(elem, k_max: int) -> list:
    """Power sums p_1..p_K from elementary symmetric values e_1..e_m, in Fractions.

    Newton's identities; no root extraction.  elem[i-1] holds e_i, values
    beyond the given list are zero.  The reference for the integer recurrence
    of ``curves.point_counts_from_numerator``.
    """
    e = [as_rat(c) for c in elem]
    m = len(e)

    def ei(i: int) -> Fraction:
        return e[i - 1] if 1 <= i <= m else Fraction(0)

    p: list = []
    for k in range(1, k_max + 1):
        acc = (-1) ** (k - 1) * k * ei(k)
        for i in range(1, k):
            acc += (-1) ** (i - 1) * ei(i) * p[k - i - 1]
        p.append(acc)
    return p


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a pole."""

    def __init__(self, point: Fraction):
        self.point = point
        super().__init__(f"pole at evaluation point {point}")


def _scaled_coeffs(p: Poly, c: Fraction) -> list:
    """The coefficients of p(c*T)."""
    return [coeff * c**i for i, coeff in enumerate(ring(p).coeffs)]


def derivative(p: Poly) -> RingPoly:
    return RingPoly([i * c for i, c in enumerate(ring(p).coeffs)][1:])


def rational_divmod(a: Poly, b: Poly) -> tuple:
    """(quotient, remainder) of a by b, long division over the rationals."""
    a, b = ring(a), ring(b)
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
    return RingPoly(quo), RingPoly(rem)


def monic(p: Poly) -> RingPoly:
    p = ring(p)
    if p.is_zero():
        raise ValueError("zero polynomial has no monic form")
    lead = p.coeffs[-1]
    return RingPoly([c / lead for c in p.coeffs])


def rational_gcd(a: Poly, b: Poly) -> RingPoly:
    """Monic greatest common divisor over the rationals."""
    a, b = ring(a), ring(b)
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
        num, den = ring(num), ring(den)
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
        return RatFunc(RingPoly(_scaled_coeffs(self.num, c)), RingPoly(_scaled_coeffs(self.den, c)))

    def subst_reciprocal(self, c) -> "RatFunc":
        """f(c/T) for nonzero c, as a rational function of T."""
        c = as_rat(c)
        if c == 0:
            raise ValueError("substitution constant must be nonzero")
        # T**deg * p(c/T) reverses the coefficients of p(c*T)
        num = RingPoly(_scaled_coeffs(self.num, c)[::-1])
        den = RingPoly(_scaled_coeffs(self.den, c)[::-1])
        dn = len(self.num.coeffs) - 1 if self.num.coeffs else 0
        dd = len(self.den.coeffs) - 1
        T = RingPoly([0, 1])
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
    return RingPoly([1, -1]) * RingPoly([1, -Q]) * RingPoly([0, 1]) ** (genus - 1)


def to_ratfunc(level) -> RatFunc:
    """The complete zeta of a level, P / ((1-T)(1-QT)T^(g-1)), reduced."""
    return RatFunc(level.P, standard_denominator(level.Q, level.genus))


def oracle_zeta(z, n: int) -> RatFunc:
    """The complete zeta of z derived by n, summed as rational functions.

    Each composition's weight is formed on its own; the weights that share a
    boundary pole (by last part for R_a, by first part for L_a) are added
    first, so each side sum is one ``RatFunc`` per distinct pole.
    """
    g, qp = z.genus, Fraction(z.Q)  # a boundary factor reads a negative power
    sv = special_values(z)
    total = RatFunc(0)
    for a in range(1, n + 1):
        mid = to_ratfunc(z).scale_var(qp ** (n - a))

        if n - a == 0:
            right = RatFunc(1)
        else:
            right = RatFunc(0)
            for p, w in weights_by_part(n - a, -1, composition_weight, sv).items():
                right = right + w * RatFunc(RingPoly([0, 1]), RingPoly([-(qp ** (a + p - n)), 1]))

        if a - 1 == 0:
            left = RatFunc(1)
        else:
            left = RatFunc(0)
            for p, w in weights_by_part(a - 1, 0, composition_weight, sv).items():
                left = left + w * RatFunc(1, RingPoly([1, -(qp ** (n - a + 1 + p))]))

        total = total + right * mid * left
    return qp ** (comb(n, 2) * (g - 1)) * total


def oracle_numerator(z, n: int) -> Poly:
    """P of the derived level: the oracle zeta times (1-T)(1-Q^n T)T^(g-1)."""
    return (oracle_zeta(z, n) * RatFunc(standard_denominator(z.Q**n, z.genus))).to_poly()


def composition_weight(comp, sv) -> Fraction:
    """prod v_{k_i} / prod_j (1 - Q^(k_j + k_{j+1})) for one composition."""
    w = Fraction(1)
    sv.grow(max(comp, default=0))  # the set grows as far as it is read
    for part in comp:
        w *= Fraction(*sv.vhats[part])
    for left, right in zip(comp, comp[1:]):
        w /= 1 - sv.Q ** (left + right)
    return w


def weights_by_part(m: int, index: int, weight, sv) -> dict:
    """{p: the sum of weight(k, sv) over the compositions k of m with k[index] = p}, each weight formed on its own."""
    sums = {}
    for comp in compositions(m):
        sums[comp[index]] = sums.get(comp[index], 0) + weight(comp, sv)
    return sums


def positive_weight(comp, sv) -> Fraction:
    """Composition weight with the pair denominators taken positively."""
    w = Fraction(1)
    sv.grow(max(comp, default=0))  # the set grows as far as it is read
    for part in comp:
        w *= Fraction(*sv.vhats[part])
    for left, right in zip(comp, comp[1:]):
        w /= sv.Q ** (left + right) - 1
    return w


def interlacing_tail(sv, n: int) -> RatFunc:
    """The uncleared sum over compositions k of n of w+(k) / (Q^(k_last) T - 1), one simple pole per last part."""
    tail = RatFunc(0)
    for p, w in weights_by_part(n, -1, positive_weight, sv).items():
        tail = tail + w * RatFunc(1, RingPoly([-1, sv.Q**p]))
    return tail


def oracle_interlacing_poly(sv, n: int) -> Poly:
    """The interlacing tail of n cleared by prod_l (Q^l T - 1)."""
    clearing = RingPoly([1])
    for ell in range(1, n + 1):
        clearing = clearing * RingPoly([-1, sv.Q**ell])
    return (interlacing_tail(sv, n) * RatFunc(clearing)).to_poly()


def interlacing_signs(poly: Poly, Q: int, n: int) -> list:
    """Exact signs of ``poly`` at T = Q^-kappa, kappa = 1..n: the view's content is positive, so the Horner sums' signs."""
    hs = (horner(poly.view[1], 1, Q**kappa) for kappa in range(1, n + 1))
    return [(h > 0) - (h < 0) for h in hs]


def normalized_tower(base: ZetaLevel, steps) -> list:
    """The levels of ``derive_tower(base, steps)``, each step taken from the normalized previous level and normalized."""
    cur, levels = normalize_level(base), []
    for n in steps:
        cur = normalize_level(derive_step(cur, n))
        levels.append(cur)
    return levels


def oracle_invariants(z) -> tuple:
    """(alphas, beta) of a level: divide P - (Q-1) beta T^g by (1-T)(1-QT) as polynomials.

    Raises ValueError, with the messages of ``extract_invariants``, when P
    does not have the decomposition's shape.
    """
    g, P = z.genus, ring(z.P)
    if P.degree != 2 * g:
        raise ValueError(f"numerator degree {P.degree}, expected {2 * g}")
    beta = Fraction(*z.residue_pair())
    S, rem = rational_divmod(P - (z.Q - 1) * beta * RingPoly([0, 1]) ** g, RingPoly([1, -1]) * RingPoly([1, -z.Q]))
    if not rem.is_zero():
        raise ValueError("level violates the numerator decomposition shape")
    if not is_self_inversive(S, z.Q, g - 1):
        raise ValueError("interior part is not palindromic")
    return tuple(S[ell] for ell in range(g)), beta


def series_exp(g) -> list:
    """exp of a truncated series with zero constant term, to the same order.

    ``g[i]`` is the coefficient of T**i.  Uses the derivative recursion
    exp(g)' = g' * exp(g), so every coefficient is an exact rational.
    """
    g = [as_rat(c) for c in g]
    if not g or g[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    e = [Fraction(1)]
    for n in range(1, len(g)):
        e.append(sum(j * g[j] * e[n - j] for j in range(1, n + 1)) / n)
    return e


def residue_series_exp(level: ZetaLevel, k_max: int) -> tuple:
    """b_0..b_K of B(x) by the exp route, from the counts N_1..N_K the constant-term-1 numerator implies."""
    Q = level.Q
    if Q == 1:
        raise ValueError("Q = 1 makes the series undefined")
    N = point_counts_from_numerator(level.P, Q, k_max)
    log_b = [Fraction(0)] + [N[m - 1] / ((Q**m - 1) * m) for m in range(1, k_max + 1)]
    return tuple(series_exp(log_b))


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
        beta_n = Fraction(*derive_step(level, n).residue_pair()) if n else Fraction(1)
        if beta_n != series[n]:
            mismatches.append((n, beta_n, series[n]))
    return CheckResult(
        "beta_equals_series",
        not mismatches,
        "exact match to order %d" % n_max if not mismatches else f"mismatches: {mismatches}",
    )


def fraction_beta_recursion(a, Q: int, n_max: int) -> list:
    """beta(0)..beta(n_max) of a genus-1 level of trace a over Q, in Fractions: the reference for the int recursion.

    (Q^n - 1) beta(n) = (Q^n + Q^(n-1) - a) beta(n-1) - (Q^(n-1) - Q) beta(n-2),
    with beta(0) = 1 and beta(-1) = 0.
    """
    a = Fraction(a)
    betas = [Fraction(1)]
    prev2 = Fraction(0)
    for n in range(1, n_max + 1):
        value = ((Q**n + Q ** (n - 1) - a) * betas[-1] - (Q ** (n - 1) - Q) * prev2) / (Q**n - 1)
        prev2 = betas[-1]
        betas.append(value)
    return betas


def fraction_ratio_bounds(r: Fraction, Q: int, n: int) -> tuple:
    """(lower, upper): 1 < r, and r < (Q^(n/2)+1)/(Q^(n/2)-1) as Q^n (r-1)^2 < (r+1)^2 when r > 1, in Fractions."""
    return r > 1, r <= 1 or Q**n * (r - 1) ** 2 < (r + 1) ** 2


def fraction_trace(level: ZetaLevel) -> Fraction:
    """The A with P = alpha(0) (1 - A T + Q T^2) of a genus-1 level."""
    return -level.P[1] / level.P[0]


def fraction_discriminant(level: ZetaLevel) -> Fraction:
    """A^2 - 4Q of a genus-1 level, from its Fraction trace: RH holds iff it is at most 0."""
    a = fraction_trace(level)
    return a * a - 4 * level.Q

