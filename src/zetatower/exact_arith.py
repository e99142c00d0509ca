"""Exact arithmetic substrate: big rationals and dense polynomials.

The work runs on Python ints: sums over the lcm of their denominators
(``over_lcm``), reduced once per output.  Nothing touches a float.
A ``Poly`` is its integer view: a content c > 0 times coprime, trimmed ints,
index ``i`` holding the coefficient of ``T**i`` (``content_primitive``; the
zero polynomial is (1, ())).  That form is unique, so equality and hashing
read it, and every evaluation is one integer ``horner`` pass over it.
Fractions appear only at the edges: a coefficient that a caller reads
(``P[i]``, c * ints[i]) and the rationals that callers pass in and get back.
A level's Q is an int prime power that the callers pass in.  ``Poly`` has no
ring operations and no division: ``pseudo_divide`` and ``poly_gcd`` work on
int coefficient lists, such as a view's ints, and form no rational.

All values are immutable after construction and all operations are pure, so
everything here is safe to share freely across threads; the one exception is
``unlimited_int_digits``, which changes a process-wide setting.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, str, Fraction]

NEG_INF = float("-inf")

# the strings as_rat reads: ASCII digits, an optional sign and denominator, no space, "_", point or exponent
RAT_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_rat(x: Scalar) -> Fraction:
    """Coerce ints, ``"p/q"`` strings matching ``RAT_STRING`` (else ValueError) and Fractions to an exact rational.

    ``Fraction`` alone reads exponents too: a 12-byte "1e10000000" is a ten-million-digit int.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str) and RAT_STRING.fullmatch(x):
        return Fraction(x)
    if isinstance(x, str):
        raise ValueError(f'{x!r} is not an integer or "p/q" string')
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def over_lcm(pairs: Iterable[tuple]) -> tuple:
    """(scaled, L): the i-th pair (n, d) of ints is scaled[i]/L, L the lcm of the ds, so sum(scaled)/L is the sum."""
    pairs = list(pairs)
    L = lcm(*(d for _, d in pairs))
    return [n * (L // d) for n, d in pairs], L


def _trim(xs: list) -> list:
    """xs without its trailing zeros, in place."""
    while xs and not xs[-1]:
        xs.pop()
    return xs


def content_primitive(nums: Sequence[int], den: int = 1) -> tuple:
    """(c, ints) with nums[i] / den = c * ints[i], den > 0: c > 0, the ints coprime and trimmed; (1, ()) for zero."""
    nums = _trim(list(nums))
    g = gcd(*nums)
    return (Fraction(g, den), tuple(x // g for x in nums)) if g else (Fraction(1), ())


def horner(ints: Sequence[int], u: int, w: int) -> int:
    """sum ints[i] u^i w^(d-i), d = len(ints) - 1: w^d times the polynomial with coefficients ints at u/w."""
    acc, wk = 0, 1
    for c in reversed(ints):
        acc, wk = acc * u + c * wk, wk * w
    return acc


def rat_str(x: Fraction) -> str:
    """Serialize exactly; round-trips through as_rat."""
    return str(Fraction(x))


def pair_str(num: int, den: int) -> str:
    """The reduced string of the int pair num/den, den != 0: ``rat_str`` of that rational, for what a report prints."""
    return str(Fraction(num, den))


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
    """Dense univariate polynomial over the rationals, identified by its integer view.

    ``view`` is (c, ints): the coefficient of T**i is c * ints[i], with c > 0
    rational and the ints coprime and trimmed, (1, ()) for zero.  That form is
    unique, so ==, hash and pickling read it, and a Poly equals only a Poly.
    ``P[i]`` is c * ints[i].  A ``Poly`` is not a ring: the work runs on the
    view's ints.
    """

    __slots__ = ("view",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_rat(c) for c in coeffs]
        L = lcm(*[c.denominator for c in cs])
        object.__setattr__(self, "view", content_primitive([c.numerator * (L // c.denominator) for c in cs], L))

    @classmethod
    def from_ints(cls, nums: Sequence[int], den: int = 1) -> "Poly":
        """The polynomial with coefficients nums[i] / den, den > 0: one gcd, and no Fraction per coefficient."""
        return cls._from_view(content_primitive(nums, den))

    @classmethod
    def _from_view(cls, view: tuple) -> "Poly":
        self = object.__new__(cls)
        object.__setattr__(self, "view", view)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        """Pickle and copy by the view alone, so no slot is set through __setattr__."""
        return Poly._from_view, (self.view,)

    @property
    def degree(self) -> "int | float":
        """Degree, with -inf for the zero polynomial."""
        return len(self.view[1]) - 1 if self.view[1] else NEG_INF

    def __bool__(self) -> bool:
        return bool(self.view[1])

    def __eq__(self, other) -> bool:
        return self.view == other.view if isinstance(other, Poly) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.view)

    def __repr__(self) -> str:
        c, ints = self.view
        terms = [f"{c * x}" + ("" if i == 0 else "*T" if i == 1 else f"*T^{i}") for i, x in enumerate(ints) if x]
        return "Poly(" + (" + ".join(terms) or "0") + ")"

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient of T**i (zero beyond the stored degree)."""
        c, ints = self.view
        if 0 <= i < len(ints):
            return c * ints[i]
        return Fraction(0)

    __iter__ = None  # iteration through __getitem__ would never stop


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

    def _primitive(a: Sequence[int]) -> tuple:  # the ints over their gcd, with a positive lead; () for zero
        a = _trim(list(a))
        g = -gcd(*a) if a and a[-1] < 0 else gcd(*a)
        return tuple(x // g for x in a)

    a, b = _primitive(a), _primitive(b)
    if not a and not b:
        raise ValueError("gcd undefined for two zero polynomials")
    while b:
        a, b = b, _primitive(pseudo_divide(a, b)[1])
    return a

