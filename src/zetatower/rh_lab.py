"""Riemann-hypothesis verification and the conjecture sweep harness.

Genus 1 is decided exactly: with P = alpha(0) (1 - A T + Q T^2), all roots lie
on |T| = Q^(-1/2) iff A^2 <= 4Q, a single rational comparison (the boundary
A^2 = 4Q is a repeated on-circle root and carries its own flag).  Higher genus
falls back to arbitrary-precision numerics on the degree-g R with
P(T) = T^g R(QT + 1/T) (``real_weil_poly``); the functional equation makes
every level's P self-inversive, and any other P fails.  R is split exactly
into primitive integer squarefree factors (Yun's algorithm), so a repeated
root is a simple root of its factor, counted by its multiplicity.  Each
factor is solved in v = u / sqrt(Q), where RH puts its roots in [-2, 2].  A
factor of degree 1 or 2 (every factor at genus 2) is solved in closed form at
the working precision, by the quadratic formula that does not cancel.  From
degree 3 on, all roots of a factor come at once from simultaneous
Weierstrass/Durand-Kerner iteration, so the convergence target and the stall
floor are relative to the size of the roots whatever the size of Q: first in
hardware floats, which only picks the starting points, then polished at the
working precision.  If the float stage overflows, meets a zero denominator
or does not settle, the polish starts on the circle |v| = 1 + 1/8 instead,
with a deterministic scattered restart if that stalls.  Each root u gives
the two roots (u +- w) / 2Q of Q T^2 - u T + 1, w = sqrt(u^2 - 4Q); for a
real u with w purely imaginary the second is the conjugate of the first, and
the pair has one deviation.  The precision is the only setting: the
tolerance is derived from it, 10^(-0.15 precision_bits), and for the default
precision formed once, at import.  A verdict is "holds" when the worst
|root| * sqrt(Q) deviation from 1 is below the tolerance, "fails" at 10x the
tolerance or beyond, and lands in the unknown band between (after one
automatic retry at doubled precision), as it does when the iteration does
not converge.

Sweeps run a configurable battery of checks over a curve x tuple grid and
emit a deterministic JSON-able report: no timestamps, fixed ordering, exact
rationals as strings.  Identical configs give byte-identical reports.  Each
curve has one tower (``curve_tower``), the only derivation path that sweeps
and the CLI use: sweeps read it, and so do the CLI's derive, invariants and
rh-check.
A level is derived from its prefix's level at most once, each distinct level
numerator (invariants, RH verdict) is checked at most once per curve, and so
is each step (special values, the beta routes, the counting miracle,
interlacing, the ratio bounds).  A step of index 1 gives back its prefix's
numerator, so a level ``(..., 1)`` reuses its prefix's results.  A cell only
combines the results of its path, and ``--jobs`` spreads the curves, not the
cells, over worker processes.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import mpmath as mp

from zetatower.curves import CheckResult, CurveSpec, ZetaLevel, artin_zeta, hasse_traces, prime_power_split
from zetatower.derived_engine import SpecialValues, derive_step, special_values
from zetatower.exact_arith import (
    BigRat,
    Poly,
    is_self_inversive,
    rat_str,
    real_weil_poly,
    squarefree_factors,
    unlimited_int_digits,
)
from zetatower.invariants import (
    InvariantSet,
    beta_closed_form,
    counting_miracle_check,
    extract_invariants,
    interlacing_poly,
    interlacing_sign_check,
    interlacing_signs,
)
from zetatower.mult_struct import elliptic_beta_recursion, ratio_bounds_check

DEFAULT_PRECISION_BITS = 256
DEFAULT_PRODUCT_CAP = 64  # largest step product a sweep or the CLI accepts by default
MIN_PRECISION_BITS = 32
UNKNOWN_BAND_FACTOR = 10
# Durand-Kerner starts on |v| = 1 + 1/8, across the conjectured locus [-2, 2] of v = u / sqrt(Q)
START_RADIUS = 1.125
# the float stage only picks starting points for the polish at full precision
FLOAT_SEED_ITER = 100
FLOAT_SEED_TARGET = 2.0**-40


@dataclass(frozen=True)
class RHVerdict:
    method: str  # "exact_g1" | "numeric"
    holds: Optional[bool]  # None = unknown
    boundary: bool = False
    discriminant: Optional[BigRat] = None
    max_deviation: Optional[str] = None  # decimal string, numeric only
    deviations: tuple = ()
    precision_bits: Optional[int] = None
    tolerance: Optional[str] = None
    detail: str = ""

    def outcome(self) -> str:
        if self.holds is None:
            return "unknown"
        return "pass" if self.holds else "fail"


def rh_exact_genus1(level: ZetaLevel) -> RHVerdict:
    """Exact rational decision for a quadratic numerator: A^2 <= 4Q."""
    if level.genus != 1:
        raise ValueError("exact criterion only applies to genus 1")
    a = level.trace()
    disc = a * a - 4 * level.Q
    # built only on failure: deep levels have more digits than Python converts to a string
    detail = "" if disc <= 0 else f"trace {rat_str(a)}, discriminant {rat_str(disc)}"
    return RHVerdict(method="exact_g1", holds=disc <= 0, boundary=disc == 0, discriminant=disc, detail=detail)


def _dk_sweep(coeffs, roots, zero_den):
    """One Weierstrass/Durand-Kerner sweep over ``roots`` in place; returns the largest correction.

    Works on builtin complex floats and on mpmath numbers alike.  A vanishing
    denominator is replaced by ``zero_den``; 0 lets ZeroDivisionError through.
    """
    worst = 0
    for i, x in enumerate(roots):
        val = coeffs[0]
        for c in coeffs[1:]:
            val = val * x + c
        den = 1
        for j, y in enumerate(roots):
            if j != i:
                den *= x - y
        if den == 0:
            den = zero_den
        delta = val / den
        roots[i] = x - delta
        worst = max(worst, abs(delta))
    return worst


def _durand_kerner(coeffs, initials, target, max_iter):
    """Simultaneous root iteration; returns (roots, final residual, converged)."""
    roots = list(initials)
    residual = mp.mpf("inf")
    stagnant = 0
    tiny = mp.mpc(mp.mpf(2) ** (-mp.mp.prec), 0)
    for _ in range(max_iter):
        worst = _dk_sweep(coeffs, roots, tiny)
        if worst < target:
            return roots, worst, True
        if worst >= residual * mp.mpf("0.999"):
            stagnant += 1
            # a cluster of nearly equal roots stalls the correction near its attainable floor
            if stagnant >= 8:
                return roots, worst, worst < mp.mpf(2) ** (-mp.mp.prec // 4)
        else:
            stagnant = 0
        residual = worst
    return roots, residual, False


def _circle(deg: int):
    """The angles of the starting points on |v| = START_RADIUS, as multiples of pi."""
    return [2 * mp.mpf(i) / deg + mp.mpf(1) / (2 * deg + 1) for i in range(deg)]


def _float_seed(coeffs):
    """Roots of a monic real polynomial (highest coefficient first) in hardware floats, or None.

    Durand-Kerner on builtin complex numbers from the same circle as the
    polishing stage.  None when a coefficient overflows a double, the constant
    term underflows to 0, a denominator vanishes, or the corrections do not
    fall below FLOAT_SEED_TARGET within FLOAT_SEED_ITER sweeps.
    """
    cs = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in cs) or cs[-1] == 0:
        return None
    roots = [START_RADIUS * cmath.exp(1j * math.pi * float(a)) for a in _circle(len(cs) - 1)]
    try:
        for _ in range(FLOAT_SEED_ITER):
            if _dk_sweep(cs, roots, 0) < FLOAT_SEED_TARGET:
                return roots if all(cmath.isfinite(r) for r in roots) else None
    except ZeroDivisionError:
        pass
    return None


def _quadratic_roots(b, c):
    """Both roots of v^2 + b v + c at the working precision, by the quadratic formula that does not cancel."""
    d = b * b - 4 * c
    if d < 0:
        re, im = -b / 2, mp.sqrt(-d) / 2
        return [mp.mpc(re, im), mp.mpc(re, -im)]
    big = -(b + mp.sqrt(d)) / 2 if b >= 0 else -(b - mp.sqrt(d)) / 2
    return [mp.mpc(big), mp.mpc(c / big)]


def _monic(F: Sequence[int], scale) -> list:
    """One primitive int factor in u (lowest coefficient first), made monic in scale * u; highest coefficient first."""
    deg, lead = len(F) - 1, F[-1]
    coeffs = []
    for i, c in enumerate(F):
        k = math.gcd(c, lead)  # reduce c / lead first: an unreduced quotient may round differently
        coeffs.append(mp.mpf(c // k) / (lead // k) * scale ** (deg - i))
    return coeffs[::-1]


def _factor_roots(F: Sequence[int], scale, target, precision_bits: int):
    """Roots scale * u of one primitive int squarefree factor in u.

    Degrees 1 and 2 are solved in closed form at the working precision; from
    degree 3 on, a float seed is polished by Durand-Kerner.
    """
    deg, coeffs = len(F) - 1, _monic(F, scale)
    if deg == 1:
        return [mp.mpc(-coeffs[1])], mp.mpf(0), True
    if deg == 2:
        return _quadratic_roots(coeffs[1], coeffs[2]), mp.mpf(0), True
    init = _float_seed(coeffs)
    if init is None:
        init = [START_RADIUS * mp.expjpi(a) for a in _circle(deg)]
    roots, residual, ok = _durand_kerner(coeffs, [mp.mpc(r) for r in init], target, max_iter=4000)
    if not ok:
        # deterministic scattered fallback: spread moduli geometrically
        init = [
            START_RADIUS * mp.mpf(2) ** ((i % 5) - 2) * mp.expjpi(2 * mp.mpf(i) / deg + mp.mpf(1) / 7)
            for i in range(deg)
        ]
        roots, residual, ok = _durand_kerner(coeffs, init, target, max_iter=4000)
    return roots, residual, ok or residual < mp.mpf(2) ** (-(precision_bits // 2))


def _real_weil_roots(ints: Sequence[int], Q: int, g: int, precision_bits: int):
    """The 2g roots of a self-inversive P = c * ints over Q, each repeated by its multiplicity, from the g of its R.

    A root u of R gives the two roots (u +- w) / 2Q of Q T^2 - u T + 1, with
    w = sqrt(u^2 - 4Q).  When u is real and w purely imaginary, the two share
    their real part and differ only in the sign of the imaginary one, so the
    second is formed as the conjugate of the first, bit for bit the same number.
    """
    wp = 2 * precision_bits + 64
    with mp.workprec(wp):
        q = mp.mpf(Q)
        sqrt_q, two_q, four_q = mp.sqrt(q), 2 * q, 4 * q
        scale, target = 1 / sqrt_q, mp.ldexp(1, -(precision_bits + 16))
        roots, residual, converged = [], mp.mpf(0), True
        for F, mult in squarefree_factors(real_weil_poly(ints, Q, g)):
            vs, res, ok = _factor_roots(F, scale, target, precision_bits)
            for v in vs:
                u = v * sqrt_q
                w = mp.sqrt(u * u - four_q)
                r = (u + w) / two_q
                roots += [r, mp.conj(r) if u.imag == 0 and w.real == 0 else (u - w) / two_q] * mult
            residual, converged = max(residual, res), converged and ok
        return roots, residual, converged


def check_numeric_settings(precision_bits: int) -> None:
    """Reject a precision under which a root off the circle could pass.

    The tolerance is 10^(-0.15 precision_bits): at precision_bits = 0 it would
    be 1, and a root at deviation 0.41 from the circle would pass.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {precision_bits}")


def _tolerance(precision_bits: int) -> tuple:
    """(tol, its 6-digit string, UNKNOWN_BAND_FACTOR * tol) at the working precision, with tol = 10^(-0.15 precision_bits)."""
    with mp.workprec(2 * precision_bits + 64):
        tol = mp.mpf(10) ** (-(mp.mpf(precision_bits) * 3 / 20))
        return tol, mp.nstr(tol, 6), UNKNOWN_BAND_FACTOR * tol


# formed once, at import; any other precision, a retry's included, forms its own per verdict
_DEFAULT_TOLERANCE = _tolerance(DEFAULT_PRECISION_BITS)


def _sorted_deviations(roots, sqrt_q) -> tuple:
    """(the sorted | |r| sqrt(Q) - 1 | over ``roots``, their 6-digit strings).

    A root that repeats the one before it, or is its conjugate, has its
    modulus bit for bit, so it takes that root's deviation and string: one
    per conjugate pair and per repeat.
    """
    devs, prev = [], None
    for r in roots:
        if prev is None or not (r is prev or r == mp.conj(prev)):
            dev = abs(abs(r) * sqrt_q - 1)
        devs.append(dev)
        prev = r
    devs.sort()
    texts = []
    for i, d in enumerate(devs):
        texts.append(texts[-1] if i and d is devs[i - 1] else mp.nstr(d, 6))
    return devs, texts


def rh_numeric(P: Poly, Q: int, precision_bits: int = DEFAULT_PRECISION_BITS, _escalated: bool = False) -> RHVerdict:
    """Numeric root-modulus verdict for a degree-2g numerator P over an integer Q, from the g roots of its R.

    A P that is not self-inversive fails with no root sought.  The tolerance
    is derived from the precision, 10^(-0.15 precision_bits).
    """
    check_numeric_settings(precision_bits)
    deg = P.degree
    if deg == float("-inf") or deg < 2 or deg % 2 != 0:
        raise ValueError(f"numerator degree must be even and >= 2, got {deg}")
    g, ints = int(deg) // 2, P.view[1]
    tol, tolerance, band = _DEFAULT_TOLERANCE if precision_bits == DEFAULT_PRECISION_BITS else _tolerance(precision_bits)

    with mp.workprec(2 * precision_bits + 64):
        if not is_self_inversive(ints, Q, g):
            return RHVerdict(
                method="numeric",
                holds=False,
                precision_bits=precision_bits,
                tolerance=tolerance,
                detail="not self-inversive",
            )
        roots, residual, converged = _real_weil_roots(ints, Q, g, precision_bits)
        devs, deviations = _sorted_deviations(roots, mp.sqrt(mp.mpf(Q)))

        if not converged:
            holds, detail = None, f"no convergence; residual {mp.nstr(residual, 6)}"
        elif devs[-1] < tol:
            holds, detail = True, ""
        elif not devs[-1] < band:  # a NaN deviation fails too
            holds, detail = False, "off-circle root"
        elif not _escalated:
            return rh_numeric(P, Q, precision_bits * 2, _escalated=True)
        else:
            holds, detail = None, "deviation inside the escalation band after retry"
        return RHVerdict(
            method="numeric",
            holds=holds,
            precision_bits=precision_bits,
            tolerance=tolerance,
            max_deviation=deviations[-1],
            deviations=tuple(deviations),
            detail=detail,
        )


def rh_verdict_for_level(level: ZetaLevel, precision_bits: int = DEFAULT_PRECISION_BITS) -> RHVerdict:
    """Exact criterion when genus 1, numeric otherwise."""
    if level.genus == 1:
        return rh_exact_genus1(level)
    return rh_numeric(level.P, level.Q, precision_bits=precision_bits)


# --------------------------------------------------------------------------
# Sweep harness
# --------------------------------------------------------------------------

ALL_CHECKS = ("positivity", "rh", "miracle", "interlacing", "ratio_bounds", "beta_routes")


@dataclass(frozen=True)
class SweepConfig:
    curves: tuple  # CurveSpec
    tuples: tuple  # tuple[int, ...]
    checks: tuple = ALL_CHECKS
    precision_bits: int = DEFAULT_PRECISION_BITS
    product_cap: int = DEFAULT_PRODUCT_CAP

    def to_dict(self) -> dict:
        return {
            "curves": [c.to_dict() for c in self.curves],
            "tuples": [list(t) for t in self.tuples],
            "checks": list(self.checks),
            "precision_bits": self.precision_bits,
            "series_order": 12,  # not a setting; the pinned config_hash payload keeps it until the benchmark changes
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
    ``level`` and the step fields are kept per tuple of steps, ``invariants``
    and ``rh`` per ``ZetaLevel.numerator_key`` ``(P, Q, genus)``: levels with
    one numerator, such as ``(..., 1)`` and its prefix, share one result,
    computed on the first of them that is read.
    """

    level: Callable[[tuple], ZetaLevel]
    invariants: Callable[[tuple], InvariantSet]
    rh: Callable[[tuple], RHVerdict]
    special_values: Callable[[tuple], SpecialValues]
    beta_route: Callable[[tuple], CheckResult]
    miracle: Callable[[tuple], CheckResult]
    interlacing: Callable[[tuple], tuple]  # (sign check, signs)
    ratio_bounds: Callable[[tuple], tuple]  # the residue link, then bound checks from n = 2 on; genus 1 only


def curve_tower(spec: CurveSpec, precision_bits: int = DEFAULT_PRECISION_BITS) -> Tower:
    """A lazy tower over one curve: each entry is computed the first time it is read.

    A level is derived, one step at a time, from the longest prefix already
    stored (the base comes from the curve), so the depth of a path costs no
    recursion.  The memos are local to this tower, and one that raises stores
    nothing: it is tried again, and raises again, every time it is read.
    Callees are looked up by name at call time, so a patched module global
    is the one that runs.
    """
    levels = {}

    def level(steps: tuple) -> ZetaLevel:
        i = len(steps)
        while i >= 0 and steps[:i] not in levels:
            i -= 1
        for j in range(i + 1, len(steps) + 1):  # i = -1: not even the base is stored
            levels[steps[:j]] = derive_step(levels[steps[: j - 1]], steps[j - 1]) if j else artin_zeta(spec)
        return levels[steps]

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

    invariants = by_numerator(lambda z: extract_invariants(z))
    rh = by_numerator(lambda z: rh_verdict_for_level(z, precision_bits))

    @cache
    def step_values(steps: tuple) -> SpecialValues:
        return special_values(level(steps[:-1]), steps[-1])

    @cache
    def beta_route(steps: tuple) -> CheckResult:
        prev, n = level(steps[:-1]), steps[-1]
        residue = level(steps).residue()
        return CheckResult("beta_routes", residue == beta_closed_form(step_values(steps), n, prev.genus))

    @cache
    def miracle(steps: tuple) -> CheckResult:
        prefix, n = steps[:-1], steps[-1]
        return counting_miracle_check(level(prefix), level(steps), level(prefix + (n + 1,)))

    @cache
    def interlacing(steps: tuple) -> tuple:
        ip = interlacing_poly(step_values(steps), steps[-1])
        signs = interlacing_signs(ip)
        return interlacing_sign_check(ip, signs), tuple(signs)

    recursions = {}  # prefix -> (betas, bounds): bounds[k - 2] checks beta(k) / beta(k-1)

    @cache
    def ratio_bounds(steps: tuple) -> tuple:
        prefix, n = steps[:-1], steps[-1]
        prev, depth = level(prefix), max(n, 2)  # bounds start at n = 2
        betas, bounds = recursions.get(prefix, ((), ()))
        if len(betas) <= depth:  # the recursion runs again only for a deeper n; each bound is checked once
            betas = elliptic_beta_recursion(prev.trace(), prev.Q, depth)
            bounds = (*bounds, *ratio_bounds_check(betas, prev.Q, start=len(bounds) + 2))
            recursions[prefix] = betas, bounds
        # the recursion's betas are the tower's: the residue of (prefix, n) is alpha_0(prefix)^n beta(n)
        link = CheckResult("ratio_bounds[residue]", level(steps).residue() == prev.P[0] ** n * betas[n])
        return (link, *bounds[: depth - 1])

    return Tower(level, invariants, rh, step_values, beta_route, miracle, interlacing, ratio_bounds)


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
        if {"beta_routes", "interlacing"} & set(config.checks):
            for path in paths[1:]:  # before any check, like the invariants: a failure here is the cell's error
                tower.special_values(path)

        if "positivity" in config.checks:
            bad = [z.steps for z, i in zip(levels, invs) if not i.positivity()]
            checks["positivity"] = "pass" if not bad else "fail"
            final = invs[-1]
            cell["data"]["alphas"] = [rat_str(a) for a in final.alphas]
            cell["data"]["beta"] = rat_str(final.beta)

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
    first reach it.  The tower lives for this call only, so every sweep does
    all of its own work.
    """
    tower = curve_tower(spec, config.precision_bits)
    # the report strings of deep levels pass 4300 digits; lifted here, a --jobs worker lifts it too
    with unlimited_int_digits():
        return [run_cell(spec, tuple(steps), config, tower) for steps in config.tuples]


def sweep(config: SweepConfig, jobs: int = 1) -> dict:
    """Run the battery over the whole grid and assemble a deterministic report."""
    unknown = set(config.checks) - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; available: {ALL_CHECKS}")
    check_numeric_settings(config.precision_bits)
    for steps in config.tuples:
        if not steps or min(steps) < 1:
            raise ValueError(f"tuple {steps} must be a nonempty list of positive integers")
        if math.prod(steps) > config.product_cap:
            raise ValueError(
                f"tuple {steps} exceeds the step-product cap {config.product_cap}; raise the cap explicitly"
            )
    if jobs > 1 and len(config.curves) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
