"""Exact-arithmetic lab for derived zeta functions of curves over finite fields."""

from zetatower.curves import (
    CATALOG,
    CurveSpec,
    ZetaLevel,
    artin_elliptic,
    artin_from_point_counts,
    artin_zeta,
    count_points_bruteforce,
    hasse_traces,
    validate_zeta_level,
)
from zetatower.derived_engine import (
    SpecialValues,
    compositions,
    derive_step,
    derive_tower,
    normalize_level,
    special_values,
)
from zetatower.exact_arith import BigRat, Poly, as_rat, poly_gcd, rat_str, series_exp
from zetatower.invariants import (
    InvariantSet,
    beta_closed_form,
    counting_miracle_check,
    extract_invariants,
    interlacing_poly,
    interlacing_sign_check,
)
from zetatower.mult_struct import (
    elliptic_beta_recursion,
    elliptic_beta_series_check,
    ratio_bounds_check,
    residue_series_exp,
    residue_series_recursion,
)
from zetatower.rh_lab import (
    RHVerdict,
    SweepConfig,
    builtin_elliptic_grid,
    rh_exact_genus1,
    rh_numeric,
    rh_verdict_for_level,
    sweep,
)

__version__ = "0.1.0"
