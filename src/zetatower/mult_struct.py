"""The residue-generating series and the elliptic recursions.

N_k = Q^k + 1 - p_k, where p_k is the k-th power sum of the reciprocal roots
of the (constant-term-1) numerator, obtained from its coefficients by
Newton's identities (``curves.point_counts_from_numerator``); no root
extraction anywhere.  The generating series

    B(x) = exp( sum_m  N_m / (Q^m - 1) * x^m / m )

is computed two independent ways: directly by the exact series exponential,
and by the three-term recursion obtained from clearing denominators in
(1-x)(1-Qx) B(Qx) = B(x) * P(x),

    (Q^k - 1) b_k = (Q+1) Q^(k-1) b_{k-1} - Q^(k-1) b_{k-2}
                    + sum_{l=1..min(k,2g)} A_l b_{k-l},      b_0 = 1.

(The recursion's middle coefficient is (Q+1), matching the denominator
clearing; a displayed (Q-1) variant is a typo that the exp route would
immediately contradict.)  For genus 1 under the constant-term-1 convention,
b_n equals the residue of the n-th derived level, which yields the elliptic
three-term recursion and the ratio bounds checked here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from zetatower.curves import CheckResult, ZetaLevel, artin_elliptic, hasse_traces, point_counts_from_numerator
from zetatower.derived_engine import derive_step
from zetatower.exact_arith import BigRat, rat_str, series_exp


@dataclass(frozen=True)
class ResidueSeries:
    """Coefficients b_0..b_K of B(x), tagged with the route that produced them."""

    Q: BigRat
    b: tuple
    route: str

    def __getitem__(self, k: int) -> Fraction:
        return self.b[k]


def residue_series_exp(level: ZetaLevel, k_max: int) -> ResidueSeries:
    """b_0..b_K by the exp route, from the counts N_1..N_K the constant-term-1 numerator implies."""
    Q = level.Q
    if Q == 1:
        raise ValueError("Q = 1 makes the series undefined")
    N = point_counts_from_numerator(level.P, Q, k_max)
    log_b = [Fraction(0)] + [N[m - 1] / ((Q**m - 1) * m) for m in range(1, k_max + 1)]
    return ResidueSeries(Q=Q, b=tuple(series_exp(log_b)), route="exp")


def residue_series_recursion(level: ZetaLevel, k_max: int) -> ResidueSeries:
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
    return ResidueSeries(Q=Q, b=tuple(b), route="recursion")


def elliptic_beta_recursion(a: BigRat, Q_prev: BigRat, n_max: int) -> list:
    """beta(0)..beta(n_max) for a genus-1 level with trace a over Q_prev.

    (Q^n - 1) beta(n) = (Q^n + Q^(n-1) - a) beta(n-1) - (Q^(n-1) - Q) beta(n-2),
    with beta(0) = 1 and beta(-1) = 0 under the constant-term-1 convention.
    """
    a = Fraction(a)
    Q = Fraction(Q_prev)
    betas = [Fraction(1)]
    prev2 = Fraction(0)
    for n in range(1, n_max + 1):
        value = ((Q**n + Q ** (n - 1) - a) * betas[-1] - (Q ** (n - 1) - Q) * prev2) / (Q**n - 1)
        prev2 = betas[-1]
        betas.append(value)
    return betas


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


def ratio_bounds_check(betas: Sequence[Fraction], Q_prev: BigRat) -> list:
    """Per-step bound checks 1 < beta(n)/beta(n-1) < (Q^(n/2)+1)/(Q^(n/2)-1).

    The upper bound is tested in the squared form Q^n (r-1)^2 < (r+1)^2 so odd
    n never needs an irrational square root.  Entry n = 1 is reported but the
    bounds genuinely start at n = 2 (the base ratio N_1/(Q-1) may drop below 1
    for admissible traces); callers asserting the theorem should look at n >= 2.
    """
    Q = Fraction(Q_prev)
    out = []
    for n in range(1, len(betas)):
        r = Fraction(betas[n]) / Fraction(betas[n - 1])
        lower = r > 1
        upper = Q**n * (r - 1) ** 2 < (r + 1) ** 2 if r > 1 else False
        ok = lower and upper
        # built only on failure: deep ratios have more digits than Python converts to a string
        detail = "" if ok else f"r = {rat_str(r)}; lower {'ok' if lower else 'FAIL'}, upper {'ok' if upper else 'FAIL'}"
        out.append(CheckResult(f"ratio_bounds[n={n}]", ok, detail))
    return out


def export_elliptic_grid_csv(path, qs: Sequence[int], n_max: int = 8) -> int:
    """Write (q, a, n, beta, b_n, ratio, bounds) rows for the full Hasse grid.

    Returns the number of rows written.  Row order and formatting are fixed,
    so identical inputs produce byte-identical files.
    """
    rows = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "a", "n", "beta", "b_n", "ratio", "lower_ok", "upper_ok"])
        for q in qs:
            for a in hasse_traces(q):
                level = artin_elliptic(q, a)
                series = residue_series_exp(level, n_max)
                betas = elliptic_beta_recursion(level.trace(), level.Q, n_max)
                checks = ratio_bounds_check(betas, level.Q)
                for n in range(1, n_max + 1):
                    r = betas[n] / betas[n - 1]
                    ok = checks[n - 1].passed
                    writer.writerow(
                        [
                            q,
                            a,
                            n,
                            rat_str(betas[n]),
                            rat_str(series[n]),
                            rat_str(r),
                            int(betas[n] > betas[n - 1]),
                            int(ok),
                        ]
                    )
                    rows += 1
    return rows
