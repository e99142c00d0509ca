"""Base-level zeta functions of curves over finite fields.

The complete zeta of a curve is P(T) / ((1-T)(1-qT)T^(g-1)) with deg P = 2g,
P(0) = 1 and the coefficient symmetry A_{2g-i} = q^(g-i) A_i.  This module
builds that object from three kinds of input (an elliptic trace, the first g
point counts, or the numerator coefficients themselves), validates it, and
provides a small brute-force point counter for the catalog curves so the
analytic data can be cross-checked against actual counting.

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
deterministically chosen irreducible modulus.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from zetatower.exact_arith import (
    Poly,
    as_rat,
    horner,
    is_self_inversive,
    newton_power_sums,
    rat_str,
    series_exp,
)

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


def prime_power_split(q: int) -> tuple:
    """(p, d) with q = p**d, or raise if q is not a prime power.

    d is the largest exponent for which q has an exact integer d-th root p,
    found by Newton's method on integers, and p must be prime (``_is_prime``),
    so a prime q of 61 bits splits in milliseconds.  A p at or above
    MILLER_RABIN_BOUND raises ValueError at once, since its primality is not decided.
    """
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    for d in range(q.bit_length(), 0, -1):
        p = 1 << -(-q.bit_length() // d)  # at least q^(1/d); Newton descends to its floor
        while (s := ((d - 1) * p + q // p ** (d - 1)) // d) < p:
            p = s
        if p**d == q:
            if _is_prime(p):
                return p, d
            break
    raise ValueError(f"q must be a prime power, got {q}")


def hasse_traces(q: int) -> list:
    """All integer traces a with a^2 <= 4q."""
    a = math.isqrt(4 * q)
    return list(range(-a, a + 1))


# --------------------------------------------------------------------------
# Finite fields for brute-force counting
# --------------------------------------------------------------------------


def _poly_mod_mul(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    d = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            for j in range(d + 1):
                out[i - d + j] = (out[i - d + j] - c * modulus[j]) % p
    return tuple(out[:d])


def _is_irreducible(poly: tuple, p: int) -> bool:
    d = len(poly) - 1
    # no roots in GF(p)
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    # no monic factor of degree 2..d//2 (trial division)
    for deg in range(2, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor = tuple(tail) + (1,)
            rem = list(poly)
            while len(rem) > deg:
                c = rem[-1]
                if c:
                    shift = len(rem) - deg - 1
                    for j, dc in enumerate(divisor):
                        rem[shift + j] = (rem[shift + j] - c * dc) % p
                rem.pop()
            if not any(rem):
                return False
    return True


def _find_irreducible(p: int, d: int) -> tuple:
    """First monic irreducible of degree d over GF(p), in lexicographic order."""
    if d == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=d):
        candidate = tuple(tail) + (1,)
        if candidate[0] == 0:
            continue  # divisible by x
        if _is_irreducible(candidate, p):
            return candidate
    raise RuntimeError(f"no irreducible of degree {d} over GF({p})")  # pragma: no cover


class GF:
    """GF(p**d); elements are length-d tuples of ints mod p."""

    def __init__(self, p: int, d: int):
        self.p = p
        self.d = d
        self.order = p**d
        self.modulus = _find_irreducible(p, d)
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)

    def elements(self):
        for tup in itertools.product(range(self.p), repeat=self.d):
            yield tup

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        return _poly_mod_mul(a, b, self.modulus, self.p)

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
    """Input data for a base-level zeta: exactly one source must be given."""

    label: str
    q: int
    genus: int
    trace: Optional[int] = None
    point_counts: Optional[tuple] = None
    numerator: Optional[tuple] = None

    def __post_init__(self):
        _integer(self.q, "q")
        _integer(self.genus, "genus")
        prime_power_split(self.q)
        if self.genus < 1:
            raise ValueError("genus 0 is rejected; the tower formulas need g >= 1")
        sources = [s is not None for s in (self.trace, self.point_counts, self.numerator)]
        if sum(sources) != 1:
            raise ValueError("exactly one of trace / point_counts / numerator must be given")
        if self.trace is not None:
            _integer(self.trace, "trace")
            if self.genus != 1:
                raise ValueError("a trace only describes a genus-1 curve")
            if self.trace * self.trace > 4 * self.q:
                raise ValueError(f"Hasse bound violated: {self.trace}^2 > 4*{self.q}")
        if self.point_counts is not None:
            object.__setattr__(self, "point_counts", _point_counts(self.point_counts))
            artin_from_point_counts(self.q, self.genus, self.point_counts)  # refuses counts that no curve has
        if self.numerator is not None:
            try:
                coeffs = tuple(as_rat(c) for c in self.numerator)
            except ZeroDivisionError:
                raise ValueError(f"numerator {list(self.numerator)} has a zero denominator") from None
            if len(coeffs) != 2 * self.genus + 1 or coeffs[0] == 0 or coeffs[-1] == 0:
                raise ValueError("numerator must have degree exactly 2g with nonzero ends")
            coeffs = tuple(c / coeffs[0] for c in coeffs)  # force A_0 = 1
            if not is_self_inversive(coeffs, self.q, self.genus):
                raise ValueError("numerator violates the functional-equation symmetry")
            object.__setattr__(self, "numerator", coeffs)

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
        """Build from a parsed JSON object; a field of the wrong type, or a key not in CURVE_KEYS, raises ValueError.

        A null trace, point_counts or numerator counts as absent.
        """
        if not isinstance(d, dict):
            raise ValueError(f"a curve entry must be a JSON object, got {d!r}")
        unknown = [k for k in d if k not in CURVE_KEYS]
        if unknown:
            raise ValueError(f"curve entry {d!r} has unknown key {unknown[0]!r}; expected {', '.join(CURVE_KEYS)}")
        missing = [k for k in ("label", "q", "genus") if k not in d]
        if missing:
            raise ValueError(f"curve entry {d!r} lacks {', '.join(missing)}")
        if not isinstance(d["label"], str) or not (_is_int(d["q"]) and _is_int(d["genus"])):
            raise ValueError(f"curve entry {d!r} needs a string label and integer q and genus")
        trace, counts, numerator = d.get("trace"), d.get("point_counts"), d.get("numerator")
        if trace is not None and not _is_int(trace):
            raise ValueError(f"trace must be an integer, got {trace!r}")
        if counts is not None and not (isinstance(counts, list) and all(_is_int(n) for n in counts)):
            raise ValueError(f"point_counts must be a list of integers, got {counts!r}")
        if numerator is not None and not (
            isinstance(numerator, list) and all(_is_int(c) or isinstance(c, str) for c in numerator)
        ):
            raise ValueError(f'numerator must be a list of integers or "p/q" strings, got {numerator!r}')
        return cls(
            label=d["label"],
            q=d["q"],
            genus=d["genus"],
            trace=trace,
            point_counts=None if counts is None else tuple(counts),
            numerator=None if numerator is None else tuple(numerator),
        )


def _is_int(x) -> bool:
    """True for a JSON integer; bool is an int subclass in Python, but not one in JSON."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(x, name: str) -> int:
    """x if it is an int; ValueError naming ``name`` otherwise, so nothing is ever truncated."""
    if not _is_int(x):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def _point_counts(counts) -> tuple:
    """The point counts N_1, N_2, ... as a tuple of ints; ValueError naming the first that is not one."""
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
    over ``P.view`` (content times coprime ints): a residue is reduced once,
    a value is the unreduced int pair of ``value_pair``.
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

    def residue(self) -> Fraction:
        """Res_{T=1} Z = P(1)/(Q-1), which is beta; formed on the first call and kept.

        The kept value is no field: equality, hashing, ``dataclasses.replace``
        and pickling read the fields alone.
        """
        res = self.__dict__.get("_residue")
        if res is None:
            c, ints = self.P.view
            res = Fraction(c.numerator * sum(ints), c.denominator * (self.Q - 1))
            object.__setattr__(self, "_residue", res)
        return res

    def __reduce__(self):
        """Pickle and copy by the fields, so the kept residue stays behind."""
        return ZetaLevel, (self.steps, self.Q, self.genus, self.P)

    def residue_inv_q(self) -> Fraction:
        """Res_{T=1/Q} Z = -P(1/Q) Q^(g-1)/(Q-1).

        P(1/Q) = c H / Q^d (H the Horner sum, d = deg P), so the residue is
        -c H Q^(g-1-d) / (Q-1), the power of Q on the side where it is nonnegative.
        """
        c, ints = self.P.view
        Q = self.Q
        e = self.genus - len(ints)  # g-1-d
        return Fraction(-c.numerator * horner(ints, 1, Q) * Q ** max(e, 0), c.denominator * Q ** max(-e, 0) * (Q - 1))

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

    def trace(self) -> Fraction:
        """For genus 1: the A with P = alpha(0) * (1 - A*T + Q*T^2)."""
        if self.genus != 1:
            raise ValueError("trace only defined for genus 1")
        return -self.P[1] / self.P[0]


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
    results.append(CheckResult("functional_equation", fe, "zeta(1/(QT)) = zeta(T)"))

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
        detail = "" if ok else f"Res(1)={rat_str(z.residue())}, Res(1/Q)={rat_str(z.residue_inv_q())}"
        results.append(CheckResult("residue_antisymmetry", ok, detail))

    results.append(CheckResult("numerator_degree", P.degree == 2 * g, f"numerator degree {P.degree}"))

    if not z.steps:
        # P(1) = c * sum(ints) with c > 0
        results.append(CheckResult("base_residue_positive", h1 > 0, "Res_{T=1} > 0 at the base"))
    return results


def _base_level(P: Poly, q: int, g: int) -> ZetaLevel:
    """The base level of numerator P; rejects P(1) <= 0, since P(1) is the class number."""
    if P(1) <= 0:
        raise ValueError(f"P(1) = {rat_str(P(1))} is not a class number (at least 1); no curve has this zeta")
    return ZetaLevel(steps=(), Q=q, genus=g, P=P)


def artin_elliptic(q: int, a: int) -> ZetaLevel:
    """Complete zeta (1 - aT + qT^2)/((1-T)(1-qT)) of an elliptic trace."""
    prime_power_split(q)
    if a * a > 4 * q:
        raise ValueError(f"Hasse bound violated: {a}^2 = {a * a} > 4q = {4 * q}")
    return _base_level(Poly([1, -a, q]), q, 1)


def artin_from_point_counts(q: int, g: int, counts: Sequence[int]) -> ZetaLevel:
    """Complete zeta from the first g point counts N_1..N_g.

    A_0..A_g come from the truncation of exp(sum N_k T^k / k) * (1-T)(1-qT);
    the upper half follows from A_{2g-i} = q^(g-i) A_i.  Extra counts beyond
    the g needed are cross-checked against the result and rejected on mismatch.
    Counts no curve has are refused, naming the first bad N_k: a negative one,
    then (once P(1), the class number, is known to be positive) one outside
    Weil's bound (q^k + 1 - N_k)^2 <= 4 g^2 q^k, in exact ints.
    """
    counts = _point_counts(counts)
    if g < 1:
        raise ValueError("genus must be >= 1")
    if len(counts) < g:
        raise ValueError(f"need at least g = {g} point counts, got {len(counts)}")
    for k, n_k in enumerate(counts, start=1):
        if n_k < 0:
            raise ValueError(f"point count N_{k} = {n_k} is negative; no curve has it")
    zser = series_exp([0] + [Fraction(counts[k - 1], k) for k in range(1, g + 1)])
    lower = Poly(zser) * Poly([1, -1]) * Poly([1, -q])
    coeffs = [lower[i] for i in range(g + 1)]
    for i in range(g - 1, -1, -1):
        coeffs.append(q ** (g - i) * coeffs[i])
    P = Poly(coeffs)

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
    return level


def point_counts_from_numerator(P: Poly, Q: int, k_max: int) -> tuple:
    """N_1..N_K implied by a constant-term-1 numerator over Q: N_k = Q^k + 1 - p_k.

    p_k is the k-th power sum of the reciprocal roots, from the coefficients
    by Newton's identities; no root extraction.
    """
    if P[0] != 1:
        raise ValueError("power sums need the numerator normalized to constant term 1")
    psums = newton_power_sums([(-1) ** i * c for i, c in enumerate(P.coeffs)][1:], k_max)
    return tuple(Q**k + 1 - psums[k - 1] for k in range(1, k_max + 1))


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
