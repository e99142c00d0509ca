"""The residue-generating series and the elliptic recursions.

N_k = Q^k + 1 - p_k, where p_k is the k-th power sum of the reciprocal roots
of the (constant-term-1) numerator, obtained from its coefficients by
Newton's identities (``curves.point_counts_from_numerator``); no root
extraction anywhere.  The generating series

    B(x) = exp( sum_m  N_m / (Q^m - 1) * x^m / m )

is computed here by the exact series exponential; the second route, in
``tests/ratfunc_oracle.py``, is the three-term recursion obtained from
clearing denominators in (1-x)(1-Qx) B(Qx) = B(x) * P(x),

    (Q^k - 1) b_k = (Q+1) Q^(k-1) b_{k-1} - Q^(k-1) b_{k-2}
                    + sum_{l=1..min(k,2g)} A_l b_{k-l},      b_0 = 1.

(The recursion's middle coefficient is (Q+1), matching the denominator
clearing; a displayed (Q-1) variant is a typo that the exp route would
immediately contradict.)  For genus 1 under the constant-term-1 convention,
b_n equals the residue of the n-th derived level, which yields the elliptic
three-term recursion and the ratio bounds checked here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from zetatower.curves import CheckResult, ZetaLevel, point_counts_from_numerator
from zetatower.exact_arith import BigRat, rat_str, series_exp


def residue_series_exp(level: ZetaLevel, k_max: int) -> tuple:
    """b_0..b_K of B(x) by the exp route, from the counts N_1..N_K the constant-term-1 numerator implies."""
    Q = level.Q
    if Q == 1:
        raise ValueError("Q = 1 makes the series undefined")
    N = point_counts_from_numerator(level.P, Q, k_max)
    log_b = [Fraction(0)] + [N[m - 1] / ((Q**m - 1) * m) for m in range(1, k_max + 1)]
    return tuple(series_exp(log_b))


def elliptic_beta_recursion(a: BigRat, Q: int, n_max: int) -> list:
    """beta(0)..beta(n_max) for a genus-1 level with trace a over Q.

    (Q^n - 1) beta(n) = (Q^n + Q^(n-1) - a) beta(n-1) - (Q^(n-1) - Q) beta(n-2),
    with beta(0) = 1 and beta(-1) = 0 under the constant-term-1 convention.
    """
    a = Fraction(a)
    betas = [Fraction(1)]
    prev2 = Fraction(0)
    for n in range(1, n_max + 1):
        value = ((Q**n + Q ** (n - 1) - a) * betas[-1] - (Q ** (n - 1) - Q) * prev2) / (Q**n - 1)
        prev2 = betas[-1]
        betas.append(value)
    return betas


def ratio_bounds(r: Fraction, Q: int, n: int) -> tuple:
    """(lower, upper): 1 < r, and r < (Q^(n/2)+1)/(Q^(n/2)-1) as Q^n (r-1)^2 < (r+1)^2 when r > 1.

    For Q > 1 the right side exceeds 1, so every r <= 1 meets the upper bound.
    """
    return r > 1, r <= 1 or Q**n * (r - 1) ** 2 < (r + 1) ** 2


def ratio_bounds_check(betas: Sequence[Fraction], Q: int, start: int = 1) -> list:
    """Per-step bound checks 1 < beta(n)/beta(n-1) < (Q^(n/2)+1)/(Q^(n/2)-1), by ``ratio_bounds``, for n >= start.

    Entry n = 1 is reported but the bounds genuinely start at n = 2 (the base
    ratio N_1/(Q-1) may drop below 1 for admissible traces); callers asserting
    the theorem should look at n >= 2.
    """
    out = []
    for n in range(start, len(betas)):
        r = Fraction(betas[n]) / Fraction(betas[n - 1])
        lower, upper = ratio_bounds(r, Q, n)
        ok = lower and upper
        # built only on failure: deep ratios have more digits than Python converts to a string
        detail = "" if ok else f"r = {rat_str(r)}; lower {'ok' if lower else 'FAIL'}, upper {'ok' if upper else 'FAIL'}"
        out.append(CheckResult(f"ratio_bounds[n={n}]", ok, detail))
    return out
