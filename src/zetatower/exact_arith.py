"""Exact arithmetic substrate: big rationals, dense polynomials, truncated series.

Every scalar a caller sees is a ``fractions.Fraction`` (aliased ``BigRat``),
except a level's Q, an int prime power that the callers pass in.
Inside, sums and interpolation run on Python ints over the lcm of their
denominators (``over_lcm``), reduced once per output.  Nothing touches a float.
A polynomial is a dense tuple of coefficients, index ``i`` holding the
coefficient of ``T**i``, with no trailing zeros (the zero polynomial is the
empty tuple), so structural equality is mathematical equality.  Each ``Poly``
also keeps, from construction on, its integer view: a rational content times
coprime ints (``content_primitive``), which every evaluation reads by one
integer ``horner`` pass.  ``Poly`` has no division: ``pseudo_divide``,
``poly_gcd`` and ``squarefree_factors`` work on int coefficient lists, such
as a view's ints, and form no rational.  A truncated power series is a plain
coefficient list.

All values are immutable after construction and all operations are pure, so
everything here is safe to share freely across threads; the one exception is
``unlimited_int_digits``, which changes a process-wide setting.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod
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


def as_pair(x: Fraction) -> tuple:
    """x as the int pair (numerator, denominator)."""
    return x.numerator, x.denominator


def over_lcm(pairs: Iterable[tuple]) -> tuple:
    """(scaled, L): the i-th pair (n, d) of ints is scaled[i]/L, L the lcm of the ds, so sum(scaled)/L is the sum."""
    pairs = list(pairs)
    L = lcm(*(d for _, d in pairs))
    return [n * (L // d) for n, d in pairs], L


def content_primitive(coeffs: Sequence[Fraction]) -> tuple:
    """(c, ints): coeffs[i] = c * ints[i] with c > 0 rational and the ints coprime; (1, ()) when all are zero."""
    L = lcm(*[c.denominator for c in coeffs])
    scaled = [c.numerator * (L // c.denominator) for c in coeffs]
    g = gcd(*scaled)
    return (Fraction(g, L), tuple(x // g for x in scaled)) if g else (Fraction(1), ())


def horner(ints: Sequence[int], u: int, w: int) -> int:
    """sum ints[i] u^i w^(d-i), d = len(ints) - 1: w^d times the polynomial with coefficients ints at u/w."""
    acc, wk = 0, 1
    for c in reversed(ints):
        acc, wk = acc * u + c * wk, wk * w
    return acc


def rat_str(x: Fraction) -> str:
    """Serialize exactly; round-trips through as_rat."""
    return str(Fraction(x))


@contextmanager
def unlimited_int_digits():
    """Lift Python's limit on int <-> str digits inside the block, then restore it.

    Deep levels have coefficients far past the default 4300 decimal digits,
    and every emitted rational is a decimal string (``rat_str``).  The limit
    is process-wide, so blocks in concurrent threads must not interleave.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # Python before 3.11 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class Poly:
    """Dense univariate polynomial over the rationals.

    ``view`` is (c, ints) from ``content_primitive``, built with the coefficients; ==, hash and repr ignore it.
    """

    __slots__ = ("coeffs", "view")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "view", content_primitive(cs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        """Pickle and copy by the coefficients alone, so the view is rebuilt and no slot is set."""
        return Poly, (self.coeffs,)

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

    def __iter__(self):
        """The stored coefficients, lowest first: iteration through __getitem__ would never stop."""
        return iter(self.coeffs)

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
        """P(u/w) = c sum ints_i u^i w^(d-i) / w^d, one integer Horner pass over the view."""
        t = as_rat(t)
        c, ints = self.view
        num = c.numerator * horner(ints, t.numerator, t.denominator)
        return Fraction(num, c.denominator * t.denominator ** max(len(ints) - 1, 0))


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


ZERO = Poly()
ONE = Poly([1])


def interpolate(xs: Sequence[int], ys: Sequence[tuple]) -> Poly:
    """The unique polynomial of degree < len(xs) through the points (xs[i], N_i/D_i), ys[i] = (N_i, D_i).

    The nodes are distinct ints.  With M = prod (T - x_i) the weights
    N_i / (D_i M'(x_i)) go over one lcm, each M / (T - x_i) is a synthetic
    division, and each coefficient is reduced once.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    master = [1]  # prod (T - x_i), lowest coefficient first
    for x in xs:
        master = [a - x * b for a, b in zip([0] + master, master + [0])]
    weights, L = over_lcm((N, D * prod(x - v for v in xs if v != x)) for x, (N, D) in zip(xs, ys))
    coeffs = [0] * len(xs)
    for x, w in zip(xs, weights):  # w * M / (T - x) by synthetic division
        acc = 0
        for k in range(len(xs), 0, -1):
            acc = acc * x + master[k]
            coeffs[k - 1] += w * acc
    return Poly(Fraction(c, L) for c in coeffs)


def is_self_inversive(P: "Poly | Sequence", Q: Scalar, g: int) -> bool:
    """A_{2g-i} = Q^(g-i) A_i for i = 0..g, the coefficient form of the functional equation.

    P is a Poly or a coefficient list of length at least 2g+1, lowest first.
    """
    return all(P[2 * g - i] == Q ** (g - i) * P[i] for i in range(g + 1))


def real_weil_poly(P: "Poly | Sequence", Q: "int | Fraction", g: int) -> list:
    """The coefficients, lowest first and trimmed, of the degree-g R(u) with P(T) = T^g R(Q T + 1/T).

    Kedlaya's substitution (Search techniques for root-unitary polynomials,
    2008) for a self-inversive P of degree 2g: s_k = T^-k + Q^k T^k obeys
    s_0 = 2, s_1 = u, s_{k+1} = u s_k - Q s_{k-1}, so R = A_g + sum_k A_{g-k} s_k.
    P is a Poly or a coefficient list of length at least 2g+1, lowest first.
    R is linear in P, so ``Poly.view``'s ints and an integer Q give R in ints
    up to the content, with the same roots.
    """
    out = [P[g]] + [0] * g
    s_prev, s = [2], [0, 1]  # s_0 and s_1, lowest coefficient first
    for k in range(1, g + 1):
        for i, c in enumerate(s):
            out[i] += P[g - k] * c
        s_prev, s = s, [a - Q * b for a, b in zip([0] + s, s_prev + [0, 0])]
    return _trim(out)


def _trim(xs: list) -> list:
    """xs without its trailing zeros, in place."""
    while xs and not xs[-1]:
        xs.pop()
    return xs


def _primitive(a: Sequence[int]) -> tuple:
    """The ints a over their gcd, with a positive lead; () for zero."""
    a = _trim(list(a))
    g = -gcd(*a) if a and a[-1] < 0 else gcd(*a)
    return tuple(x // g for x in a)


def pseudo_divide(a: Sequence[int], b: Sequence[int]) -> tuple:
    """(q, r, m) over the ints with m a = q b + r, deg r < deg b, m = lead(b)^k; b has no trailing zero.

    A step divides by lead(b) when it can and scales the remainder by it
    otherwise, k times in all; so m = 1 when b divides a over the ints, as a
    primitive b that divides a over the rationals does (Gauss's lemma).
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r, m, lead = _trim(list(a)), 1, b[-1]
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        f, rest = divmod(r[-1], lead)
        if rest:
            q, r, m, f = [lead * x for x in q], [lead * x for x in r], m * lead, r[-1]
        shift = len(r) - len(b)
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        _trim(r)
    return q, r, m


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Primitive gcd, with a positive lead, of int coefficient sequences, lowest first; (1,) when constant.

    The primitive remainder sequence (Basu, Pollack and Roy, Algorithms in
    Real Algebraic Geometry, ch. 8): no rational is formed.
    """
    a, b = _primitive(a), _primitive(b)
    if not a and not b:
        raise ValueError("gcd undefined for two zero polynomials")
    while b:
        a, b = b, _primitive(pseudo_divide(a, b)[1])
    return a


def squarefree_factors(ints: Sequence[int]) -> list:
    """Yun's squarefree decomposition of an int polynomial, lowest first: [(F, m)] with ints = c * prod F^m, c an int.

    The F are primitive int tuples with a positive lead, squarefree, pairwise
    coprime and of positive degree (D. Y. Y. Yun, On square-free
    decomposition algorithms, SYMSAC 1976).  Each gcd is primitive, so each
    quotient is exact; a repeated root becomes a simple root of one factor.
    The polynomial must have positive degree.
    """

    def quotient(a, b) -> list:
        q, r, m = pseudo_divide(a, b)
        if r or m != 1:
            raise ArithmeticError("inexact polynomial quotient over the integers")
        return q

    def derivative(a) -> list:
        return [i * c for i, c in enumerate(a)][1:]

    def minus(a, b) -> list:
        return _trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])

    dP = derivative(ints)
    common = poly_gcd(ints, dP)
    if len(common) == 1:
        return [(_primitive(ints), 1)]
    b = quotient(ints, common)
    d = minus(quotient(dP, common), derivative(b))
    out, m = [], 1
    while len(b) > 1:
        a = poly_gcd(b, d)
        b = quotient(b, a)
        d = minus(quotient(d, a), derivative(b))
        if len(a) > 1:
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
