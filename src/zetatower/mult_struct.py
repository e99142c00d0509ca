"""The elliptic residue recursion and the ratio bounds.

For genus 1 under the constant-term-1 convention, the residue beta(n) of the
n-th derived level obeys a three-term recursion in the level's trace, and
the ratios beta(n)/beta(n-1) obey the ratio bounds; both are checked here.
Both run on ints: the recursion reads the level's first two view ints and
gives each beta(n) as an int over the closed denominator |A0|^n prod (Q^k - 1),
and each bound is cross-multiplied on what the denominators leave once they
cancel, so no rational is formed unless a bound fails.
The residue-generating series behind the recursion, and its exp route, live
in ``tests/ratfunc_oracle.py``.
"""

from __future__ import annotations

import math
from typing import Sequence

from zetatower.curves import CheckResult
from zetatower.derived_engine import SpecialValues
from zetatower.exact_arith import pair_str


def elliptic_beta_recursion(A0: int, A1: int, Q: int, n_max: int) -> list:
    """The ints b(0)..b(n_max) of a genus-1 level over Q whose numerator begins A0 + A1 T.

    A0 and A1 are ints in the numerator's ratio, such as the first two ints of
    its view; the level's trace is a = -A1/A0 and beta(n) is its residue
    sequence under the constant-term-1 convention:

        (Q^n - 1) beta(n) = (Q^n + Q^(n-1) - a) beta(n-1) - (Q^(n-1) - Q) beta(n-2),

    beta(0) = 1, beta(-1) = 0.  With w = |A0| and u = sign(A0) A1, so that
    a = -u/w, beta(n) = b(n) / (|A0|^n prod_{k=1..n} (Q^k - 1)) with ints

        b(n) = (w (Q^n + Q^(n-1)) + u) b(n-1) - w^2 (Q^(n-1) - Q)(Q^(n-1) - 1) b(n-2).
    """
    if not A0:
        raise ValueError("the trace of a numerator with constant term 0 is undefined")
    w, u = (A0, A1) if A0 > 0 else (-A0, -A1)
    bs, prev2 = [1], 0
    for n in range(1, n_max + 1):
        Qn1 = Q ** (n - 1)
        value = (w * (Q * Qn1 + Qn1) + u) * bs[-1] - w * w * (Qn1 - Q) * (Qn1 - 1) * prev2
        prev2 = bs[-1]
        bs.append(value)
    return bs


def ratio_bounds(num: int, den: int, Q: int, n: int) -> tuple:
    """(lower, upper) for r = num/den, den > 0: 1 < r, and r < (Q^(n/2)+1)/(Q^(n/2)-1).

    Both are cross-multiplied: r > 1 is num > den, and for r > 1 the upper
    bound is Q^n (num - den)^2 < (num + den)^2.  For Q > 1 the right side
    exceeds 1, so every r <= 1 meets the upper bound.
    """
    return num > den, num <= den or Q**n * (num - den) ** 2 < (num + den) ** 2


def ratio_bounds_check(bs: Sequence[int], w: int, Q: int) -> list:
    """Per-step bound checks 1 < beta(n)/beta(n-1) < (Q^(n/2)+1)/(Q^(n/2)-1), by ``ratio_bounds``, for n >= 2.

    ``bs`` are the ints b(n) of ``elliptic_beta_recursion`` and w = |A0|, so
    each ratio is the pair b(n) / (w (Q^n - 1) b(n-1)), its denominator made
    positive.  The bounds start at n = 2: the base ratio N_1/(Q-1) may drop
    below 1 for admissible traces, and ``ratio_bounds`` reads it alone.
    """
    out = []
    for n in range(2, len(bs)):
        num, den = bs[n], w * (Q**n - 1) * bs[n - 1]
        if bs[n - 1] <= 0:
            num, den = -num, -den
        lower, upper = ratio_bounds(num, den, Q, n)
        ok = lower and upper
        # built only on failure: deep ratios have more digits than Python converts to a string
        detail = "" if ok else f"r = {pair_str(num, den)}; lower {'ok' if lower else 'FAIL'}, upper {'ok' if upper else 'FAIL'}"
        out.append(CheckResult(f"ratio_bounds[n={n}]", ok, detail))
    return out


def step_ratio_checks(sv: SpecialValues, n: int) -> tuple:
    """Residue link alpha_0(sv.level)^n beta(n) of ``sv.step(n)``, then the bounds; ValueError off genus 1."""
    prev = sv.level
    if prev.genus != 1:
        raise ValueError(f"level {prev.steps + (n,)} is not the genus-1 level {prev.steps} derived by n")
    num, den = sv.step(n).residue_pair()
    c, ints = prev.P.view
    w, Q = abs(ints[0]), prev.Q
    bs = elliptic_beta_recursion(ints[0], ints[1], Q, max(n, 2))  # the bounds start at n = 2
    D = w**n * math.prod(Q**k - 1 for k in range(1, n + 1))  # beta(n) = bs[n] / D, alpha_0(prev) = c * ints[0]
    link = CheckResult("ratio_bounds[residue]", num * c.denominator**n * D == den * (c.numerator * ints[0]) ** n * bs[n])
    return (link, *ratio_bounds_check(bs, w, Q))
