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
from zetatower.derived_engine import SpecialValues, derive_step, normalize_level, special_values
from zetatower.exact_arith import Poly, as_rat, rat_str
from zetatower.invariants import (
    InvariantSet,
    beta_closed_form,
    counting_miracle_check,
    extract_invariants,
    interlacing_poly,
    interlacing_sign_check,
)
from zetatower.mult_struct import elliptic_beta_recursion, ratio_bounds_check
from zetatower.rh_lab import (
    RHVerdict,
    SweepConfig,
    builtin_elliptic_grid,
    rh_exact_genus1,
    rh_verdict_for_level,
    sweep,
)

__version__ = "0.1.0"
