"""Base-level zeta functions of curves over finite fields.

The complete zeta of a curve is P(T) / ((1-T)(1-qT)T^(g-1)) with deg P = 2g,
P(0) = 1 and the coefficient symmetry A_{2g-i} = q^(g-i) A_i.  This module
builds that object from three kinds of input (an elliptic trace, the first g
point counts, or the numerator coefficients themselves), validates it with
``validate_zeta_level`` like every level, and provides a small brute-force
point counter for the catalog curves so the analytic data can be
cross-checked against actual counting.  Point counts become P, and P becomes
point counts, by one integer Newton recurrence each way, with
p_k = q^k + 1 - N_k the power sums of the reciprocal roots.

Every level of the derived tower has the same shape over its own Q, the int
q^(prod of its steps), so a ``ZetaLevel`` is its steps, Q, genus and
numerator P, nothing more.  Every value and residue reads the integer view
of P (content times coprime ints), which is what the ``Poly`` is.  Its
functional equation is the coefficient symmetry, its residue at T = 1 is
P(1)/(Q-1), and validation is exact integer arithmetic on the view's ints.

Point counting supports plane models y^2 + a3*y = f(x) with coefficients in
the prime field and a single smooth point at infinity; that covers the whole
catalog (char-2 Weierstrass forms, odd-characteristic y^2 = cubic, and the
genus-2 quintic over F_2).  Counting works in GF(p^d) built from a
deterministically chosen irreducible modulus; one reduction mod (modulus, p),
``_reduce``, serves the field product and the modulus search.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from zetatower.exact_arith import RAT_STRING, Poly, as_rat, horner, is_self_inversive, pair_str, rat_str

BRUTE_FORCE_FIELD_CAP = 2**20


# Miller-Rabin with the primes up to 41 as bases accepts no composite below
# this bound (Sorenson and Webster, 2015); above it no test here is both exact and fast.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; ValueError from MILLER_RABIN_BOUND on."""
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"cannot decide whether a {p.bit_length()}-bit number is prime: "
            f"primality is exact only below MILLER_RABIN_BOUND = {MILLER_RABIN_BOUND}"
        )
    if p < 2:
        return False
    if p in MILLER_RABIN_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in MILLER_RABIN_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _may_be_power(q: int, e: int) -> bool:
    """False only if q is no e-th power: for up to four primes l = k e + 1 not dividing q, an e-th power has q^k = 1 mod l."""
    l, seen = 1, 0
    while seen < 4:
        l += e * (1 + e % 2)  # l odd
        if _is_prime(l) and q % l:
            if pow(q, (l - 1) // e, l) != 1:
                return False
            seen += 1
    return True


def prime_power_split(q: int) -> tuple:
    """(p, d) with q = p**d, or raise if q is not a prime power.

    Exact roots of prime exponent e are taken by Newton's method on integers
    while one exists, from e = 2 up; a root of a number with no e'-th root,
    e' < e, has none either, so p ends with none and d is the largest
    exponent.  Only an e that passes the residue filter ``_may_be_power``
    costs a root.  p must be prime (``_is_prime``), so a prime q of 61 bits
    splits in milliseconds.  A p at or above MILLER_RABIN_BOUND raises
    ValueError, since its primality is not decided.
    """
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    p, d, e = q, 1, 2
    while e < p.bit_length():  # p = r^e with r >= 2 needs 2^e <= p
        if _is_prime(e) and _may_be_power(p, e):
            r = 1 << -(-p.bit_length() // e)  # at least p^(1/e); Newton descends to its floor
            while (s := ((e - 1) * r + p // r ** (e - 1)) // e) < r:
                r = s
            if r**e == p:
                p, d = r, d * e
                continue
        e += 1
    if _is_prime(p):
        return p, d
    shown = q if q.bit_length() <= 256 else f"a {q.bit_length()}-bit number"  # a long int has no decimal string
    raise ValueError(f"q must be a prime power, got {shown}")


def hasse_traces(q: int) -> list:
    """All integer traces a with a^2 <= 4q."""
    a = math.isqrt(4 * q)
    return list(range(-a, a + 1))


# --------------------------------------------------------------------------
# Finite fields for brute-force counting
# --------------------------------------------------------------------------


def _reduce(a: Sequence[int], monic: tuple, p: int) -> tuple:
    """The d = deg(monic) coefficients of a mod (monic, p), each in range(p); len(a) >= d."""
    d = len(monic) - 1
    out = [x % p for x in a]
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * monic[j]) % p
    return tuple(out[:d])


def _find_irreducible(p: int, d: int) -> tuple:
    """First monic irreducible of degree d over GF(p), in lexicographic order.

    A candidate is irreducible when no monic polynomial of degree 1..d//2
    divides it, i.e. leaves a zero ``_reduce`` remainder (so at d = 1, T itself).
    """
    divisors = [tail + (1,) for k in range(1, d // 2 + 1) for tail in itertools.product(range(p), repeat=k)]
    for tail in itertools.product(range(p), repeat=d):
        candidate = tail + (1,)
        if all(any(_reduce(candidate, divisor, p)) for divisor in divisors):
            return candidate
    raise RuntimeError(f"no irreducible of degree {d} over GF({p})")  # pragma: no cover


class GF:
    """GF(p**d); elements are length-d tuples of ints mod p."""

    def __init__(self, p: int, d: int):
        self.p = p
        self.d = d
        self.modulus = _find_irreducible(p, d)
        self.zero = (0,) * d

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.d):
            yield tup

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _reduce(out, self.modulus, self.p)

    def embed_int(self, n: int) -> tuple:
        return (n % self.p,) + (0,) * (self.d - 1)

    def poly_eval(self, coeffs: Sequence[int], x: tuple) -> tuple:
        """Evaluate a prime-field polynomial at x by Horner."""
        acc = self.zero
        for c in reversed(list(coeffs)):
            acc = self.add(self.mul(acc, x), self.embed_int(c))
        return acc


@dataclass(frozen=True)
class PlaneModel:
    """Affine model y^2 + a3*y = f(x) plus its points at infinity."""

    a3: int
    f_coeffs: tuple
    points_at_infinity: int = 1

    def describe(self) -> str:
        left = "y^2" if self.a3 == 0 else (f"y^2 + {self.a3}y" if self.a3 != 1 else "y^2 + y")
        terms = []
        for i, c in enumerate(self.f_coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = "x" if i == 1 else f"x^{i}"
                terms.append(mono if c == 1 else f"{c}{mono}")
        return f"{left} = {' + '.join(terms) if terms else '0'}"


def count_points_bruteforce(equation: PlaneModel, q: int, k: int = 1) -> int:
    """Number of F_{q^k}-rational points of the smooth projective model.

    Enumerates one pass over x and one over y, matching value multiplicities,
    so the cost is O(q^k) field operations rather than O(q^{2k}).
    """
    if not isinstance(equation, PlaneModel):
        raise ValueError(f"unsupported equation form: {equation!r}")
    p, d = prime_power_split(q)
    if q**k > BRUTE_FORCE_FIELD_CAP:
        raise ValueError(f"enumeration bound exceeded: q^k = {q**k} > {BRUTE_FORCE_FIELD_CAP}")
    fld = GF(p, d * k)
    a3 = fld.embed_int(equation.a3)

    lhs_counts: dict = {}
    for y in fld.elements():
        v = fld.add(fld.mul(y, y), fld.mul(a3, y))
        lhs_counts[v] = lhs_counts.get(v, 0) + 1
    affine = 0
    for x in fld.elements():
        affine += lhs_counts.get(fld.poly_eval(equation.f_coeffs, x), 0)
    return affine + equation.points_at_infinity


# --------------------------------------------------------------------------
# Curve specifications and zeta levels
# --------------------------------------------------------------------------


CURVE_KEYS = ("label", "q", "genus", "trace", "point_counts", "numerator")  # of a curves-file entry


@dataclass(frozen=True)
class CurveSpec:
    """Input data for a base-level zeta: exactly one source must be given.

    Building a spec is the one check of its fields, from any source: a str
    label, int q, genus and trace, and a list or tuple of int point counts or
    of int, "p/q" string or Fraction numerator coefficients (never a bool),
    or ValueError.  It divides a numerator by its A_0 and builds the base
    level once (``artin_zeta``) as ``level``, which no comparison, hash, repr
    or ``to_dict`` reads, so a spec whose level fails ``validate_zeta_level``
    or whose point counts no curve has is refused.
    The numerator source takes Weil-polynomial input, not only curves: any
    self-inversive rational polynomial with P(1) > 0 is accepted, rational
    coefficients and numerators that fail RH included, since the
    rational-content towers and the RH controls are built from them.
    """

    label: str
    q: int
    genus: int
    trace: Optional[int] = None
    point_counts: Optional[tuple] = None
    numerator: Optional[tuple] = None
    level: ZetaLevel = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        _integer(self.q, "q")
        _integer(self.genus, "genus")
        if self.trace is not None:
            _integer(self.trace, "trace")
        if self.point_counts is not None:
            object.__setattr__(self, "point_counts", _point_counts(self.point_counts))
        if self.numerator is not None:
            if not isinstance(self.numerator, (list, tuple)):
                raise ValueError(f'numerator must be a list of integers or "p/q" strings, got {self.numerator!r}')
            for i, c in enumerate(self.numerator):
                if not (_is_int(c) or isinstance(c, Fraction) or isinstance(c, str) and RAT_STRING.fullmatch(c)):
                    raise ValueError(f'numerator coefficient A_{i} must be an int, "p/q" string or Fraction, got {c!r}')
        prime_power_split(self.q)
        if self.genus < 1:
            raise ValueError("genus 0 is rejected; the tower formulas need g >= 1")
        sources = [s is not None for s in (self.trace, self.point_counts, self.numerator)]
        if sum(sources) != 1:
            raise ValueError("exactly one of trace / point_counts / numerator must be given")
        if self.trace is not None and self.genus != 1:
            raise ValueError("a trace only describes a genus-1 curve")
        if self.numerator is not None:
            try:
                coeffs = tuple(as_rat(c) for c in self.numerator)
            except ZeroDivisionError:
                raise ValueError(f"numerator {list(self.numerator)} has a zero denominator") from None
            if len(coeffs) != 2 * self.genus + 1 or coeffs[0] == 0 or coeffs[-1] == 0:
                raise ValueError("numerator must have degree exactly 2g with nonzero ends")
            object.__setattr__(self, "numerator", tuple(c / coeffs[0] for c in coeffs))  # force A_0 = 1
        object.__setattr__(self, "level", artin_zeta(self))  # refuses an invalid level, or counts no curve has

    def to_dict(self) -> dict:
        out = {"label": self.label, "q": self.q, "genus": self.genus}
        if self.trace is not None:
            out["trace"] = self.trace
        if self.point_counts is not None:
            out["point_counts"] = list(self.point_counts)
        if self.numerator is not None:
            out["numerator"] = [rat_str(c) for c in self.numerator]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CurveSpec":
        """Build from a parsed JSON object; ValueError unless it is an object of CURVE_KEYS with label, q and genus.

        Its fields are checked by ``CurveSpec`` itself; a null trace, point_counts or numerator counts as absent.
        """
        if not isinstance(d, dict):
            raise ValueError(f"a curve entry must be a JSON object, got {d!r}")
        unknown = [k for k in d if k not in CURVE_KEYS]
        if unknown:
            raise ValueError(f"curve entry {d!r} has unknown key {unknown[0]!r}; expected {', '.join(CURVE_KEYS)}")
        missing = [k for k in ("label", "q", "genus") if k not in d]
        if missing:
            raise ValueError(f"curve entry {d!r} lacks {', '.join(missing)}")
        return cls(**d)


def _is_int(x) -> bool:
    """True for a JSON integer; bool is an int subclass in Python, but not one in JSON."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(x, name: str) -> int:
    """x if it is an int; ValueError naming ``name`` otherwise, so nothing is ever truncated."""
    if not _is_int(x):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def _point_counts(counts) -> tuple:
    """N_1, N_2, ... from a list or tuple of ints, as a tuple; ValueError naming the first that is not one."""
    if not isinstance(counts, (list, tuple)):
        raise ValueError(f"point_counts must be a list of integers, got {counts!r}")
    return tuple(_integer(n, f"point count N_{k}") for k, n in enumerate(counts, start=1))


def load_curves(path) -> list:
    """Read one curve object or a list of them from a JSON file; any other JSON value raises ValueError."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"curves file {path} nests its JSON too deeply") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"curves file {path} does not parse as UTF-8 JSON: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        kind = {bool: "a boolean", str: "a string", type(None): "null"}.get(type(data), "a number")
        raise ValueError(f"a curves file must hold a JSON object or a list of them, got {kind}")
    return [CurveSpec.from_dict(d) for d in data]


@dataclass(frozen=True)
class ZetaLevel:
    """One rung of the derived tower: Z(T) = P(T) / ((1-T)(1-QT)T^(g-1)).

    steps is the tuple of derivation indices applied so far (empty for the
    base), Q = q**prod(steps) is an int, and P is the numerator in this
    level's own variable.  Every value and residue is one integer Horner pass
    over ``P.view`` (content times coprime ints), kept as an unreduced int
    pair: ``residue_pair``, ``residue_inv_q_pair`` and ``value_pair``.
    """

    steps: tuple
    Q: int
    genus: int
    P: Poly

    def numerator_key(self) -> tuple:
        """(P, Q, genus), all that a level's invariants and RH verdict depend on.

        Levels with one key, such as (..., 1) and its prefix, share those results.
        """
        return self.P, self.Q, self.genus

    def residue_pair(self) -> tuple:
        """Res_{T=1} Z as the unreduced int pair (c.numerator * sum(ints), c.denominator * (Q-1)); a check cross-multiplies it."""
        c, ints = self.P.view
        return c.numerator * sum(ints), c.denominator * (self.Q - 1)

    def residue_inv_q_pair(self) -> tuple:
        """Res_{T=1/Q} Z = -P(1/Q) Q^(g-1)/(Q-1) as an unreduced int pair with a positive denominator.

        P(1/Q) = c H / Q^d (H the Horner sum, d = deg P), so the residue is
        -c H Q^(g-1-d) / (Q-1), the power of Q on the side where it is nonnegative.
        """
        c, ints = self.P.view
        Q = self.Q
        e = self.genus - len(ints)  # g-1-d
        return -c.numerator * horner(ints, 1, Q) * Q ** max(e, 0), c.denominator * Q ** max(-e, 0) * (Q - 1)

    def value_pair(self, u: int, w: int) -> tuple:
        """Z(u/w) as an unreduced pair (N, D) of ints, N/D = Z(u/w); w != 0.

        The denominator (1-T)(1-QT)T^(g-1) at T = u/w is
        (w-u)(w-Qu)u^(g-1) / w^(g+1), and P(u/w) = c H / w^d.  At a pole D is 0.
        """
        c, ints = self.P.view
        g = self.genus
        e = g + 2 - len(ints)  # w^(g+1) over the w^d of P(u/w)
        num = c.numerator * horner(ints, u, w) * w ** max(e, 0)
        return num, c.denominator * w ** max(-e, 0) * (w - u) * (w - self.Q * u) * u ** (g - 1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def validate_zeta_level(z: ZetaLevel) -> list:
    """Structural checks every well-formed level must pass; reports, never raises.

    All of them are exact integer arithmetic on the view (c, ints) of P: the
    content c > 0 is common to every coefficient, so each identity on the
    A_i = c * ints[i] holds exactly when it holds on the ints.
    """
    P, Q, g = z.P, z.Q, z.genus
    ints = P.view[1]
    results = []

    # Z(1/(QT)) = Z(T) holds exactly when A_{2g-i} = Q^(g-i) A_i and deg P <= 2g
    fe = P.degree <= 2 * g and is_self_inversive(ints + (0,) * (2 * g + 1 - len(ints)), Q, g)
    results.append(CheckResult("functional_equation", fe, "numerator violates the functional-equation symmetry"))

    # Z has a simple pole at T = 1 (resp. 1/Q) unless P vanishes there.  The
    # functional equation forces Res_{T=1} = -Q * Res_{T=1/Q}, which with
    # H(w) = w^d P(1/w) / c (d = deg P) reads H(1) = H(Q) Q^(g-d).  The detail
    # is built only on failure: a valid level's residues can have more digits
    # than Python converts to a decimal string.
    h1, hq = sum(ints), horner(ints, 1, Q)
    zeros = [w for w, h in ((1, h1), (Q, hq)) if h == 0]  # P(1/w) = 0
    if zeros:
        detail = f"residue computation failed: not a pole: {', '.join(rat_str(Fraction(1, w)) for w in zeros)}"
        results.append(CheckResult("residue_antisymmetry", False, detail))
    else:
        e = g + 1 - len(ints)  # g - d
        ok = h1 * Q ** max(-e, 0) == hq * Q ** max(e, 0)
        detail = "" if ok else f"Res(1)={pair_str(*z.residue_pair())}, Res(1/Q)={pair_str(*z.residue_inv_q_pair())}"
        results.append(CheckResult("residue_antisymmetry", ok, detail))

    results.append(CheckResult("numerator_degree", P.degree == 2 * g, f"numerator degree {P.degree}"))

    if not z.steps:
        # P(1) = c * sum(ints) with c > 0 is the class number
        c = P.view[0]
        detail = "" if h1 > 0 else f"P(1) = {pair_str(c.numerator * h1, c.denominator)} is not a class number (at least 1)"
        results.append(CheckResult("base_residue_positive", h1 > 0, detail))
    return results


def _base_level(P: Poly, q: int, g: int) -> ZetaLevel:
    """The base level of numerator P; ValueError joining the details of every ``validate_zeta_level`` check it fails."""
    level = ZetaLevel(steps=(), Q=q, genus=g, P=P)
    failed = [c.detail for c in validate_zeta_level(level) if not c.passed]
    if failed:
        raise ValueError(f"{'; '.join(failed)}; no curve has this zeta")
    return level


def artin_elliptic(q: int, a: int) -> ZetaLevel:
    """Complete zeta (1 - aT + qT^2)/((1-T)(1-qT)) of an elliptic trace."""
    prime_power_split(q)
    if a * a > 4 * q:
        raise ValueError(f"Hasse bound violated: {a}^2 = {a * a} > 4q = {4 * q}")
    return _base_level(Poly([1, -a, q]), q, 1)


def artin_from_point_counts(q: int, g: int, counts: Sequence[int]) -> ZetaLevel:
    """Complete zeta from the first g point counts N_1..N_g.

    With p_k = q^k + 1 - N_k, Newton's identities k A_k = -sum_{j<=k} p_j A_{k-j}
    give A_0..A_g; on the ints a_k = g! A_k each division by k is exact.  The
    upper half follows from A_{2g-i} = q^(g-i) A_i.  Extra counts beyond
    the g needed are cross-checked against the result and rejected on mismatch.
    Counts no curve has are refused, naming the first bad N_k: a negative one,
    then (once the level passes ``validate_zeta_level``, so P(1), the class
    number, is positive) one outside Weil's bound (q^k + 1 - N_k)^2 <= 4 g^2 q^k,
    in exact ints.  Last, a curve's P has integer coefficients, so the first
    non-integer A_i is named.
    """
    counts = _point_counts(counts)
    if g < 1:
        raise ValueError("genus must be >= 1")
    if len(counts) < g:
        raise ValueError(f"need at least g = {g} point counts, got {len(counts)}")
    for k, n_k in enumerate(counts, start=1):
        if n_k < 0:
            raise ValueError(f"point count N_{k} = {n_k} is negative; no curve has it")
    p = [q**k + 1 - n_k for k, n_k in enumerate(counts[:g], start=1)]
    a = [math.factorial(g)]
    for k in range(1, g + 1):
        a.append(-sum(p[j - 1] * a[k - j] for j in range(1, k + 1)) // k)
    a += [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]
    P = Poly.from_ints(a, a[0])

    # Any extra supplied counts must agree with the counts the numerator implies.
    implied_counts = point_counts_from_numerator(P, q, len(counts))
    for k, (n_k, implied) in enumerate(zip(counts, implied_counts), start=1):
        if implied != n_k:
            raise ValueError(f"point count N_{k} = {n_k} inconsistent with the zeta numerator ({implied})")
    level = _base_level(P, q, g)
    for k, n_k in enumerate(counts, start=1):
        if (q**k + 1 - n_k) ** 2 > 4 * g * g * q**k:
            raise ValueError(
                f"point count N_{k} = {n_k} violates Weil's bound |q^k + 1 - N_k| <= 2g q^(k/2) "
                f"at q = {q}, g = {g}; no curve has it"
            )
    for i, a_i in enumerate(a[: g + 1]):
        if a_i % a[0]:
            raise ValueError(f"A_{i} = {pair_str(a_i, a[0])} is not an integer, so no curve has these point counts")
    return level


def point_counts_from_numerator(P: Poly, Q: int, k_max: int) -> tuple:
    """N_1..N_K implied by a constant-term-1 numerator over Q: N_k = Q^k + 1 - p_k.

    p_k is the k-th power sum of the reciprocal roots, by Newton's identities
    on the view's ints x (A_i = x_i / x_0): s_k = p_k x_0^k is the int
    -(k x_k x_0^(k-1) + sum_{j<k} s_j x_{k-j} x_0^(k-1-j)); no root extraction.
    """
    if P[0] != 1:
        raise ValueError("power sums need the numerator normalized to constant term 1")
    x = P.view[1] + (0,) * k_max
    x0 = [x[0] ** i for i in range(k_max + 1)]  # powers of x_0
    s = [0]  # s_0 is unused
    for k in range(1, k_max + 1):
        s.append(-(k * x[k] * x0[k - 1] + sum(s[j] * x[k - j] * x0[k - 1 - j] for j in range(1, k))))
    return tuple(Q**k + 1 - Fraction(s[k], x0[k]) for k in range(1, k_max + 1))


def artin_zeta(spec: CurveSpec) -> ZetaLevel:
    """Build the base ZetaLevel from a CurveSpec, whatever its source."""
    if spec.trace is not None:
        return artin_elliptic(spec.q, spec.trace)
    if spec.point_counts is not None:
        return artin_from_point_counts(spec.q, spec.genus, spec.point_counts)
    return _base_level(Poly(spec.numerator), spec.q, spec.genus)


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogCurve:
    label: str
    q: int
    genus: int
    model: PlaneModel

    def spec(self) -> CurveSpec:
        counts = [count_points_bruteforce(self.model, self.q, k) for k in range(1, self.genus + 1)]
        return CurveSpec(label=self.label, q=self.q, genus=self.genus, point_counts=tuple(counts))


CATALOG = {
    c.label: c
    for c in [
        CatalogCurve("E2a0", 2, 1, PlaneModel(a3=1, f_coeffs=(0, 0, 0, 1))),
        CatalogCurve("E2am2", 2, 1, PlaneModel(a3=1, f_coeffs=(0, 1, 0, 1))),
        CatalogCurve("E3a0", 3, 1, PlaneModel(a3=0, f_coeffs=(0, 1, 0, 1))),
        CatalogCurve("E3am3", 3, 1, PlaneModel(a3=0, f_coeffs=(1, 2, 0, 1))),
        CatalogCurve("E4am4", 4, 1, PlaneModel(a3=1, f_coeffs=(0, 0, 0, 1))),
        CatalogCurve("E5a2", 5, 1, PlaneModel(a3=0, f_coeffs=(0, 1, 0, 1))),
        CatalogCurve("X2g2", 2, 2, PlaneModel(a3=1, f_coeffs=(0, 0, 0, 0, 0, 1))),
    ]
}


def catalog_curve(label: str) -> CatalogCurve:
    try:
        return CATALOG[label]
    except KeyError:
        raise ValueError(f"unknown catalog curve {label!r}; known: {sorted(CATALOG)}") from None
