"""Exact arithmetic substrate: big rationals, dense polynomials, truncated series.

Every scalar is a ``fractions.Fraction`` (aliased ``BigRat``); nothing in this
module ever touches a float.  A polynomial is a dense tuple of coefficients,
index ``i`` holding the coefficient of ``T**i``, with no trailing zeros (the
zero polynomial is the empty tuple), so structural equality is mathematical
equality.  A truncated power series is a plain coefficient list.

All values are immutable after construction and all operations are pure, so
everything here is safe to share freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

BigRat = Fraction

Scalar = Union[int, str, Fraction]

NEG_INF = float("-inf")


def as_rat(x: Scalar) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Serialize exactly; round-trips through as_rat."""
    return str(Fraction(x))


class Poly:
    """Dense univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> "int | float":
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*T")
            else:
                terms.append(f"{c}*T^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient of T**i (zero beyond the stored degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.coeffs[-1]
        dlen = len(other.coeffs)
        while len(rem) >= dlen and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dlen:
                break
            f = rem[-1] / lead
            shift = len(rem) - dlen
            quo[shift] = f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= f * c
            rem.pop()
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- analysis ------------------------------------------------------------

    def __call__(self, t: Scalar) -> Fraction:
        t = as_rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


ZERO = Poly()
ONE = Poly([1])


def interpolate(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Poly:
    """The unique polynomial of degree < len(xs) through the points (xs[i], ys[i])."""
    xs = [as_rat(x) for x in xs]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    out = ZERO
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, scale = ONE, as_rat(yi)
        for j, xj in enumerate(xs):
            if j != i:
                basis = basis * Poly([-xj, 1])
                scale /= xi - xj
        out = out + basis * scale
    return out


def is_self_inversive(P: Poly, Q: Scalar, g: int) -> bool:
    """A_{2g-i} = Q^(g-i) A_i for i = 0..g, the coefficient form of the functional equation."""
    return all(P[2 * g - i] == Q ** (g - i) * P[i] for i in range(g + 1))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor over the rationals."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def squarefree_factors(P: Poly) -> list:
    """Yun's squarefree decomposition: [(F, m)] with P = lead * prod F^m.

    The F are monic, squarefree, pairwise coprime and of positive degree
    (D. Y. Y. Yun, On square-free decomposition algorithms, SYMSAC 1976).
    Exact over the rationals, so a repeated root becomes a simple root of
    one factor.  P must have positive degree.
    """
    dP = P.derivative()
    common = poly_gcd(P, dP)
    if common.degree == 0:
        return [(P.monic(), 1)]
    b = P // common
    d = dP // common - b.derivative()
    out, m = [], 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        b = b // a
        d = d // a - b.derivative()
        if a.degree > 0:
            out.append((a, m))
        m += 1
    return out


def series_exp(g: Sequence[Scalar]) -> list:
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


def newton_power_sums(elem: Sequence[Fraction], k_max: int) -> list:
    """Power sums p_1..p_K from elementary symmetric values e_1..e_m.

    Newton's identities; no root extraction.  elem[i-1] holds e_i, values
    beyond the given list are zero.
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
