"""Riemann-hypothesis verification and the conjecture sweep harness.

Genus 1 is decided exactly: with P = alpha(0) (1 - A T + Q T^2), all roots lie
on |T| = Q^(-1/2) iff A^2 <= 4Q, a single integer comparison on the view's
ints, A_1^2 <= 4Q A_0^2 (the boundary A^2 = 4Q is a repeated on-circle root
and carries its own flag).  Every higher genus goes through the degree-g R
with P(T) = T^g R(QT + 1/T) (``real_weil_poly``, Kedlaya's criterion): RH
holds iff every root of R is real and lies in [-2 sqrt Q, 2 sqrt Q].  The functional equation makes every
level's P self-inversive, and any other P fails with no root sought.

From genus 3 on the verdict is exact (``rh_sturm``): the roots u^2 of
G(w) = R(u) R(-u) must lie in [0, 4Q], and a Sturm chain on the squarefree
part of G counts them in integers, with no float and no setting.  Genus 2
stays numeric (``rh_numeric``) until the benchmark's pinned reports change
with it: R = c0 + c1 u + c2 u^2 is one quadratic, with the double root
-c1 / (2 c2) when c1^2 = 4 c0 c2, and otherwise solved in closed form in
v = u / sqrt(Q) at the working precision, by the quadratic formula that does
not cancel.  Each root u gives the two roots (u +- w) / 2Q of
Q T^2 - u T + 1, w = sqrt(u^2 - 4Q); for a real u with w purely imaginary
the second is the conjugate of the first, and the pair has one deviation.
The numeric verdict runs at DEFAULT_PRECISION_BITS, with the tolerance
10^(-0.15 precision_bits) formed once, at import.  It is "holds" when the
worst |root| * sqrt(Q) deviation from 1 is below the tolerance, "fails" at
10x the tolerance or beyond, and lands in the unknown band between (after
one automatic retry at doubled precision, whose tolerance is formed then).

Sweeps run a configurable battery of checks over a curve x tuple grid and
emit a deterministic JSON-able report: no timestamps, fixed ordering, exact
rationals as strings.  Identical configs give byte-identical reports.  Each
curve has one tower (``curve_tower``), the only derivation path that sweeps
and the CLI use: sweeps read it, and so do the CLI's derive, invariants and
rh-check.
Each prefix level has one set of special values, which derives each of its
steps at most once and keeps it.  Each distinct level numerator (invariants,
RH verdict) is checked at most once per curve, and so is each step (the beta
routes, the counting miracle, interlacing, the ratio bounds), by one call
into ``invariants`` or ``mult_struct`` on (prefix set, n): the tower only
memoises.  The steps' derivations (the miracle's n+1 among them) and checks
read the set in any order and grow it as far as each reads, with the rows of
its composition-sum tables, each built once and shared.  The genus-1 checks
compare the ints of the levels' views by cross-multiplication; a rational is
formed only for a report string, such as the final level's alphas and beta.
A step of index 1 gives back its prefix's numerator, so a level ``(..., 1)``
reuses its prefix's results.  A cell only combines the results of its path,
and ``--jobs`` spreads the curves, not the cells, over worker processes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional, Sequence

import mpmath as mp

from zetatower.curves import CheckResult, CurveSpec, ZetaLevel, hasse_traces, prime_power_split
from zetatower.derived_engine import SpecialValues, special_values
from zetatower.exact_arith import (
    Poly,
    content_primitive,
    horner,
    is_self_inversive,
    pair_str,
    pseudo_divide,
    rat_str,
    real_weil_poly,
    unlimited_int_digits,
)
from zetatower.invariants import (
    InvariantSet,
    beta_routes_check,
    counting_miracle_check,
    extract_invariants,
    interlacing_sign_check,
    invariant_values,
)
from zetatower.mult_struct import step_ratio_checks

DEFAULT_PRECISION_BITS = 256
DEFAULT_PRODUCT_CAP = 64  # largest step product a sweep or the CLI accepts by default
UNKNOWN_BAND_FACTOR = 10


@dataclass(frozen=True)
class RHVerdict:
    method: str  # "exact_g1" (genus 1) | "numeric" (genus 2) | "exact_sturm" (genus >= 3)
    holds: Optional[bool]  # None = unknown, numeric only
    boundary: bool = False
    discriminant: Optional[tuple] = None  # genus 1: A^2 - 4Q as an int pair (N, D), D > 0, unreduced
    max_deviation: Optional[str] = None  # decimal string, numeric only
    precision_bits: Optional[int] = None
    tolerance: Optional[str] = None
    detail: str = ""

    def outcome(self) -> str:
        if self.holds is None:
            return "unknown"
        return "pass" if self.holds else "fail"


def rh_exact_genus1(level: ZetaLevel) -> RHVerdict:
    """Exact integer decision for a quadratic numerator: A_1^2 <= 4Q A_0^2.

    The view's content is positive, so that holds iff it holds on the view's
    ints x: x_1^2 <= 4Q x_0^2, with the boundary at equality.  The trace
    A = -x_1/x_0 has the discriminant A^2 - 4Q = (x_1^2 - 4Q x_0^2) / x_0^2,
    kept as that int pair; it is reduced only where it is printed.
    """
    if level.genus != 1:
        raise ValueError("exact criterion only applies to genus 1")
    x0, x1 = (level.P.view[1] + (0, 0))[:2]
    if not x0:
        raise ValueError("the trace of a numerator with constant term 0 is undefined")
    disc, square = x1 * x1 - 4 * level.Q * x0 * x0, x0 * x0
    # built only on failure: deep levels have more digits than Python converts to a string
    detail = "" if disc <= 0 else f"trace {pair_str(-x1, x0)}, discriminant {pair_str(disc, square)}"
    return RHVerdict(method="exact_g1", holds=disc <= 0, boundary=disc == 0, discriminant=(disc, square), detail=detail)


def _square(a: Sequence[int]) -> list:
    """The coefficients of a(x)^2, lowest first."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return out


def _sturm_chain(G: Sequence[int]) -> list:
    """Sturm's chain of the int polynomial G, lowest coefficient first: G, G', then each remainder negated.

    One primitive remainder sequence through ``pseudo_divide``: m a = q b + r
    with m = lead(b)^k, so the remainder of a by b is r / m, and the next
    entry is -r when m > 0, r when m < 0, over its positive content
    (``content_primitive``).  Every entry is a positive multiple of the
    classical one, so the sign changes are the same.  The chain ends at
    gcd(G, G'), a nonconstant entry when G has a repeated root.
    """
    chain = [G, content_primitive([i * c for i, c in enumerate(G)][1:])[1]]
    while len(chain[-1]) > 1:
        _, r, m = pseudo_divide(chain[-2], chain[-1])
        if not r:
            break
        chain.append(content_primitive([-x for x in r] if m > 0 else r)[1])
    return chain


def _sign_changes(chain: list, w: int) -> int:
    """The sign changes along the chain at the int point w, zeros dropped."""
    values = [v for v in (horner(p, w, 1) for p in chain) if v]
    return sum((a < 0) != (b < 0) for a, b in zip(values, values[1:]))


def rh_sturm(P: Poly, Q: int) -> RHVerdict:
    """Exact verdict for a degree-2g numerator P over an integer Q, by a Sturm count on the squares of R's roots.

    With R(u) = E(u^2) + u O(u^2) from ``real_weil_poly``, G(w) = E(w)^2 -
    w O(w)^2 = R(u) R(-u) has the roots u_i^2, so RH holds iff every distinct
    root of G lies in [0, 4Q].  A factor w^k (u = 0) is in range and is
    stripped; a G with a repeated root is divided by the end of its chain,
    gcd(G, G'), and counted again.  Then V(0) - V(4Q) counts its roots in
    (0, 4Q].  A P that is not self-inversive fails with no chain run.
    """
    deg = P.degree
    if deg == float("-inf") or deg < 2 or deg % 2 != 0:
        raise ValueError(f"numerator degree must be even and >= 2, got {deg}")
    g, ints = int(deg) // 2, P.view[1]
    if not is_self_inversive(ints, Q, g):
        return RHVerdict(method="exact_sturm", holds=False, detail="not self-inversive")
    R = real_weil_poly(ints, Q, g)
    E, O = R[0::2], R[1::2]
    G = [x - y for x, y in zip_longest(_square(E), [0, *_square(O)], fillvalue=0)]
    boundary = horner(G, 4 * Q, 1) == 0  # u = +-2 sqrt Q: a double T root on the circle
    G = G[next(i for i, c in enumerate(G) if c) :]
    chain = _sturm_chain(G)
    if len(chain[-1]) > 1:
        G = content_primitive(pseudo_divide(G, chain[-1])[0])[1]
        chain = _sturm_chain(G)
    distinct, inside = len(G) - 1, _sign_changes(chain, 0) - _sign_changes(chain, 4 * Q)
    detail = "" if inside == distinct else f"{distinct - inside} of {distinct} distinct roots u^2 lie off [0, 4Q]"
    return RHVerdict(method="exact_sturm", holds=inside == distinct, boundary=boundary, detail=detail)


def _quadratic_roots(b, c):
    """Both roots of v^2 + b v + c at the working precision, by the quadratic formula that does not cancel."""
    d = b * b - 4 * c
    if d < 0:
        re, im = -b / 2, mp.sqrt(-d) / 2
        return [mp.mpc(re, im), mp.mpc(re, -im)]
    big = -(b + mp.sqrt(d)) / 2 if b >= 0 else -(b - mp.sqrt(d)) / 2
    return [mp.mpc(big), mp.mpc(c / big)]


def _monic(F: Sequence[int], scale) -> list:
    """An int polynomial F in u (lowest coefficient first), made monic in scale * u; highest coefficient first."""
    deg, lead = len(F) - 1, F[-1]
    coeffs = []
    for i, c in enumerate(F):
        k = math.gcd(c, lead)  # reduce c / lead first: an unreduced quotient may round differently
        coeffs.append(mp.mpf(c // k) / (lead // k) * scale ** (deg - i))
    return coeffs[::-1]


def _real_weil_roots(ints: Sequence[int], Q: int, sqrt_q) -> list:
    """The 4 roots of a self-inversive genus-2 P = c * ints over Q, by multiplicity, from the 2 of its R.

    Runs at the working precision, with ``sqrt_q`` = sqrt(Q) formed there.
    R = c0 + c1 u + c2 u^2 is solved in v = u / sqrt(Q): its double root
    -c1 / (2 c2) when c1^2 = 4 c0 c2, else by ``_quadratic_roots``.  A root u
    gives the roots (u +- w) / 2Q of Q T^2 - u T + 1, w = sqrt(u^2 - 4Q); for
    a real u with w purely imaginary the second is formed as the conjugate of
    the first, bit for bit the same number.
    """
    q = mp.mpf(Q)
    two_q, four_q, scale = 2 * q, 4 * q, 1 / sqrt_q
    c0, c1, c2 = real_weil_poly(ints, Q, 2)  # c2 = ints[0], nonzero at degree 4
    if c1 * c1 == 4 * c0 * c2:
        vs, mult = [mp.mpc(-_monic((c1, 2 * c2), scale)[1])], 2
    else:
        monic = _monic((c0, c1, c2), scale)
        vs, mult = _quadratic_roots(monic[1], monic[2]), 1
    roots = []
    for v in vs:
        u = v * sqrt_q
        w = mp.sqrt(u * u - four_q)
        r = (u + w) / two_q
        roots += [r, mp.conj(r) if u.imag == 0 and w.real == 0 else (u - w) / two_q] * mult
    return roots


def _tolerance(precision_bits: int) -> tuple:
    """(tol, its 6-digit string, UNKNOWN_BAND_FACTOR * tol) at the working precision, with tol = 10^(-0.15 precision_bits)."""
    with mp.workprec(2 * precision_bits + 64):
        tol = mp.mpf(10) ** (-(mp.mpf(precision_bits) * 3 / 20))
        return tol, mp.nstr(tol, 6), UNKNOWN_BAND_FACTOR * tol


# formed once, at import; a retry forms its own
_DEFAULT_TOLERANCE = _tolerance(DEFAULT_PRECISION_BITS)


def _max_deviation(roots, sqrt_q):
    """The largest | |r| sqrt(Q) - 1 | over ``roots``, one per conjugate pair and per repeat.

    A root that repeats the one before it, or is its conjugate, has its modulus bit for bit.
    """
    devs, prev = [], None
    for r in roots:
        if prev is None or not (r is prev or r == mp.conj(prev)):
            devs.append(abs(abs(r) * sqrt_q - 1))
        prev = r
    return max(devs)


def rh_numeric(P: Poly, Q: int, _escalated: bool = False) -> RHVerdict:
    """Numeric root-modulus verdict for a genus-2 (degree-4) numerator P over an integer Q, from the 2 roots of its R.

    A P that is not self-inversive fails with no root sought.  The verdict
    runs at DEFAULT_PRECISION_BITS, its one retry (``_escalated``) at twice that.
    """
    if P.degree != 4:
        raise ValueError(f"the numeric verdict takes a genus-2 numerator of degree 4, got degree {P.degree}")
    ints = P.view[1]
    precision_bits = 2 * DEFAULT_PRECISION_BITS if _escalated else DEFAULT_PRECISION_BITS
    tol, tolerance, band = _tolerance(precision_bits) if _escalated else _DEFAULT_TOLERANCE

    fields = {"method": "numeric", "precision_bits": precision_bits, "tolerance": tolerance}
    with mp.workprec(2 * precision_bits + 64):
        if not is_self_inversive(ints, Q, 2):
            return RHVerdict(holds=False, detail="not self-inversive", **fields)
        sqrt_q = mp.sqrt(mp.mpf(Q))
        dev = _max_deviation(_real_weil_roots(ints, Q, sqrt_q), sqrt_q)

        if dev < tol:
            holds, detail = True, ""
        elif not dev < band:  # a NaN deviation fails too
            holds, detail = False, "off-circle root"
        elif not _escalated:
            return rh_numeric(P, Q, _escalated=True)
        else:
            holds, detail = None, "deviation inside the escalation band after retry"
        return RHVerdict(holds=holds, max_deviation=mp.nstr(dev, 6), detail=detail, **fields)


def rh_verdict_for_level(level: ZetaLevel) -> RHVerdict:
    """The exact criterion at genus 1, the numeric verdict at genus 2, the Sturm count from genus 3 on."""
    if level.genus == 1:
        return rh_exact_genus1(level)
    if level.genus == 2:
        return rh_numeric(level.P, level.Q)
    return rh_sturm(level.P, level.Q)


# --------------------------------------------------------------------------
# Sweep harness
# --------------------------------------------------------------------------

ALL_CHECKS = ("positivity", "rh", "miracle", "interlacing", "ratio_bounds", "beta_routes")


@dataclass(frozen=True)
class SweepConfig:
    curves: tuple  # CurveSpec
    tuples: tuple  # tuple[int, ...]
    checks: tuple = ALL_CHECKS
    product_cap: int = DEFAULT_PRODUCT_CAP

    def to_dict(self) -> dict:
        return {
            "curves": [c.to_dict() for c in self.curves],
            "tuples": [list(t) for t in self.tuples],
            "checks": list(self.checks),
            # neither is a setting; the pinned config_hash payload keeps both until the benchmark changes
            "precision_bits": DEFAULT_PRECISION_BITS,
            "series_order": 12,
            "product_cap": self.product_cap,
        }


def builtin_elliptic_grid(qs: Sequence[int] = (2, 3, 4, 5)) -> list:
    """One CurveSpec per Hasse-admissible integer trace over each q; ValueError unless each q is a prime power."""
    out = []
    for q in qs:
        prime_power_split(q)  # before the traces, whose number grows like sqrt(q)
        for a in hasse_traces(q):
            out.append(CurveSpec(label=f"elliptic_q{q}_a{a}", q=q, genus=1, trace=a))
    return out


def _status(name: str, results, cell_checks: dict):
    failed = [r for r in results if not r.passed]
    cell_checks[name] = "fail" if failed else "pass"
    return failed


class Tower(NamedTuple):
    """One curve's levels and what the checks read off them, each computed once.

    Every field maps a tuple of steps to a result: ``level``, ``invariants``
    and ``rh`` belong to the level the steps reach; the others to the last
    step (prefix, n), the one that derives that level from its prefix.
    ``level`` is the prefix set's kept step, and each step field is one call
    into ``invariants`` or ``mult_struct`` on (prefix set, n), kept per tuple
    of steps.  ``invariants`` and ``rh`` are kept per ``ZetaLevel.numerator_key``
    ``(P, Q, genus)``: levels with one numerator, such as ``(..., 1)`` and its
    prefix, share one result, computed on the first of them that is read.
    """

    level: Callable[[tuple], ZetaLevel]
    invariants: Callable[[tuple], InvariantSet]
    rh: Callable[[tuple], RHVerdict]
    beta_route: Callable[[tuple], CheckResult]
    miracle: Callable[[tuple], CheckResult]
    interlacing: Callable[[tuple], tuple]  # (sign check, signs)
    ratio_bounds: Callable[[tuple], tuple]  # the residue link, then bound checks from n = 2 on; genus 1 only


def curve_tower(spec: CurveSpec) -> Tower:
    """A lazy tower over one curve: each entry is computed the first time it is read.

    Each prefix level has one set of special values, made the first time a
    step from it is read, and a level is its prefix set's ``step``; the base
    is the spec's ``level``, built once, with the spec.  The sets of a path
    are found, and made, from the longest prefix that has one, in a loop, so
    the depth of a path costs no recursion.  A step's derivation (the
    miracle's n+1 among them) and its checks all read (prefix set, n), in
    whatever order, and each grows the set, the table rows and the derived
    levels it keeps as far as it reads, so no value, row or level is built
    twice.  The memos are local to this tower, and one that raises stores
    nothing: it is tried again, and raises again, every time it is read.
    Callees are looked up by name at call time, so a patched module global
    is the one that runs.
    """
    sets = {}

    def prefix_values(prefix: tuple) -> SpecialValues:
        """The prefix level's one set of special values, and those of the prefixes before it."""
        i = len(prefix)
        while i >= 0 and prefix[:i] not in sets:
            i -= 1
        for j in range(i + 1, len(prefix) + 1):
            sets[prefix[:j]] = special_values(sets[prefix[: j - 1]].step(prefix[j - 1]) if j else spec.level)
        return sets[prefix]

    def level(steps: tuple) -> ZetaLevel:
        return prefix_values(steps[:-1]).step(steps[-1]) if steps else spec.level

    def by_numerator(stage: Callable[[ZetaLevel], object]) -> Callable[[tuple], object]:
        """``stage`` of the level ``steps`` reach, computed once per distinct numerator."""
        memo = {}

        @cache  # the key (P, Q, genus) is built and hashed once per tuple of steps
        def read(steps: tuple):
            z = level(steps)
            key = z.numerator_key()
            if key not in memo:
                memo[key] = stage(z)  # the first level to reach the numerator; a raise stores nothing
            return memo[key]

        return read

    def by_step(check: Callable[[SpecialValues, int], object]) -> Callable[[tuple], object]:
        """``check`` of the last step of ``steps``, on its prefix set and n, computed once per tuple of steps."""
        return cache(lambda steps: check(prefix_values(steps[:-1]), steps[-1]))

    return Tower(
        level,
        by_numerator(lambda z: extract_invariants(z)),
        by_numerator(lambda z: rh_verdict_for_level(z)),
        by_step(lambda sv, n: beta_routes_check(sv, n)),
        by_step(lambda sv, n: counting_miracle_check(sv, n)),
        by_step(lambda sv, n: interlacing_sign_check(sv, n)),
        by_step(lambda sv, n: step_ratio_checks(sv, n)),
    )


def run_cell(spec: CurveSpec, steps: tuple, config: SweepConfig, tower: Tower) -> dict:
    """Run the configured battery on one (curve, tuple) cell; never raises.

    The cell only combines what ``tower`` (the curve's, from ``run_curve``)
    holds for the levels and steps of its path, so a level or step that
    several cells read is checked once.  Whatever raises there becomes the
    cell's error.
    """
    cell = {"curve": spec.label, "tuple": list(steps), "checks": {}, "data": {}}
    checks = cell["checks"]
    try:
        paths = [steps[:i] for i in range(len(steps) + 1)]  # the levels; paths[1:] also names the steps
        levels = [tower.level(path) for path in paths]

        if {"positivity", "interlacing"} & set(config.checks):
            invs = [tower.invariants(path) for path in paths]

        if "positivity" in config.checks:
            bad = [z.steps for z, i in zip(levels, invs) if not i.positivity()]
            checks["positivity"] = "pass" if not bad else "fail"
            alphas, beta = invariant_values(invs[-1], levels[-1].Q)
            cell["data"]["alphas"] = [rat_str(a) for a in alphas]
            cell["data"]["beta"] = rat_str(beta)

        if "rh" in config.checks:
            verdicts = [tower.rh(path) for path in paths]
            outcomes = [v.outcome() for v in verdicts]
            if "fail" in outcomes:
                checks["rh"] = "fail"
            elif "unknown" in outcomes:
                checks["rh"] = "unknown"
            else:
                checks["rh"] = "pass"
            cell["data"]["rh_methods"] = sorted(set(v.method for v in verdicts))

        if "beta_routes" in config.checks:
            _status("beta_routes", [tower.beta_route(path) for path in paths[1:]], checks)

        if "miracle" in config.checks:
            _status("miracle", [tower.miracle(path) for path in paths[1:]], checks)

        if "interlacing" in config.checks:
            results = []
            signs = {}
            for inv, path in zip(invs, paths[1:]):
                if not inv.positivity():
                    continue  # hypothesis of the interlacing statement
                result, step_signs = tower.interlacing(path)
                results.append(result)
                signs[str(path[-1])] = list(step_signs)
            if results:
                _status("interlacing", results, checks)
                cell["data"]["gamma_signs"] = signs
            else:
                checks["interlacing"] = "skipped"

        if "ratio_bounds" in config.checks:
            if spec.genus != 1:
                checks["ratio_bounds"] = "skipped"
            else:
                results = [r for path in paths[1:] for r in tower.ratio_bounds(path)]
                _status("ratio_bounds", results, checks)
    except Exception as exc:  # per-cell errors are recorded, never fatal
        cell["error"] = f"{type(exc).__name__}: {exc}"
    return cell


def run_curve(spec: CurveSpec, config: SweepConfig) -> list:
    """Run every configured tuple on one curve over a single tower; returns the cells in tuple order.

    Each level is derived, and each distinct level numerator and each step
    checked, at most once per curve, in the order a cell-by-cell run would
    first reach it; each prefix's special values grow as far as its cells
    read them.  The tower lives for this call only, so every sweep does all
    of its own work.
    """
    tower = curve_tower(spec)
    # the report strings of deep levels pass 4300 digits; lifted here, a --jobs worker lifts it too
    with unlimited_int_digits():
        return [run_cell(spec, tuple(steps), config, tower) for steps in config.tuples]


def sweep(config: SweepConfig, jobs: int = 1) -> dict:
    """Run the battery over the whole grid and assemble a deterministic report."""
    unknown = set(config.checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; available: {ALL_CHECKS}")
    repeated = [name for i, name in enumerate(config.checks) if name in config.checks[:i]]
    if repeated:  # the work is the same, but the report's config_hash is not
        raise ValueError(f"check {repeated[0]!r} is repeated; each check of a sweep is run once")
    labels = set()
    for spec in config.curves:  # a repeated label would report its cells twice
        if spec.label in labels:
            raise ValueError(f"curve label {spec.label!r} is repeated; each curve of a sweep needs its own label")
        labels.add(spec.label)
    seen = set()
    for steps in config.tuples:  # a repeated tuple would report its cells twice, too
        if not steps or min(steps) < 1:
            raise ValueError(f"tuple {steps} must be a nonempty list of positive integers")
        if tuple(steps) in seen:
            raise ValueError(f"tuple {steps} is repeated; each tuple of a sweep is run once")
        seen.add(tuple(steps))
        if math.prod(steps) > config.product_cap:
            raise ValueError(
                f"tuple {steps} exceeds the step-product cap {config.product_cap}; raise the cap explicitly"
            )
    if jobs > 1 and len(config.curves) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(config.curves))) as pool:  # each worker starts at once
            per_curve = list(pool.map(run_curve, config.curves, [config] * len(config.curves)))
    else:
        per_curve = [run_curve(spec, config) for spec in config.curves]
    cells = [cell for curve_cells in per_curve for cell in curve_cells]
    cells.sort(key=lambda c: (c["curve"], c["tuple"]))

    summary: dict = {"cells": len(cells), "errors": 0}
    per_check: dict = {}
    for cell in cells:
        if "error" in cell:
            summary["errors"] += 1
        for name, status in cell["checks"].items():
            bucket = per_check.setdefault(name, {"pass": 0, "fail": 0, "unknown": 0, "skipped": 0})
            bucket[status] += 1
    summary["per_check"] = {k: per_check[k] for k in sorted(per_check)}
    summary["failed"] = summary["errors"] > 0 or any(
        v["fail"] > 0 for v in per_check.values()
    )

    payload = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "config_hash": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "cells": cells,
        "summary": summary,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
