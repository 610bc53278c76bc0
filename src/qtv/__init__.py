"""Exact and certified arithmetic for the fractional-part increment series.

The object of study is Q(x), the sum over n >= 1 of the squared
difference between consecutive fractional parts {x/(n+1)} - {x/n}, for
rational x > 0.  The library evaluates Q(x) with certified enclosures,
re-sums it by gap class, verifies the closed forms behind the class
totals, encloses the constant zeta(3/2)/pi, and runs the grid
experiments behind the square-root growth law with its x^(3/7) error
exponent.  All arithmetic is integer and rational; every reported
interval is a true enclosure of the target quantity.
"""

from .asymptotics import (EVALUATORS, DecompositionReport, FastEstimate,
                          FitError, FitReport, ScanRecord, ScanResult,
                          decompose, decomposed_eval, default_fast_cut,
                          error_term, fast_estimate, fit_exponent,
                          geometric_grid, scan)
from .blocks import (RESIDUAL_NAMES, QdBlockReport, ResidualReport,
                     block_summand, cut_point, q0_block_cut, q0_blocks,
                     qd_blocks, residual_report)
from .coefficients import (CoeffPartialSum, coeff_sum_limit, gap_coeff,
                           gap_coeff_partial_sum, gap_coeff_sum,
                           gap_coeff_telescoped, limit_estimate,
                           main_constant, pi_enclosure, sqrt_sum, zeta_3_2)
from .interval import (DEFAULT_BUDGET, BudgetError, Enclosure,
                       PrecisionBudget, pow_enclosure, root_enclosure,
                       sqrt_enclosure)
from .oracle import (GapClass, QValue, frac_part, gap, gap_class, q0_direct,
                     q_d_direct, q_eval, q_head, q_values_by_gap, term)
from .rational import (floor_sqrt_rational, format_rational, iroot,
                       parse_rational)
from .tails import g2, g2_tail, trigamma_tail

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CoeffPartialSum",
    "DEFAULT_BUDGET",
    "DecompositionReport",
    "EVALUATORS",
    "Enclosure",
    "FastEstimate",
    "FitError",
    "FitReport",
    "GapClass",
    "PrecisionBudget",
    "QValue",
    "QdBlockReport",
    "RESIDUAL_NAMES",
    "ResidualReport",
    "ScanRecord",
    "ScanResult",
    "block_summand",
    "coeff_sum_limit",
    "cut_point",
    "decompose",
    "decomposed_eval",
    "default_fast_cut",
    "error_term",
    "fast_estimate",
    "fit_exponent",
    "floor_sqrt_rational",
    "format_rational",
    "frac_part",
    "g2",
    "g2_tail",
    "gap",
    "gap_class",
    "gap_coeff",
    "gap_coeff_partial_sum",
    "gap_coeff_sum",
    "gap_coeff_telescoped",
    "geometric_grid",
    "iroot",
    "limit_estimate",
    "main_constant",
    "parse_rational",
    "pi_enclosure",
    "pow_enclosure",
    "q0_block_cut",
    "q0_blocks",
    "q0_direct",
    "q_d_direct",
    "q_eval",
    "q_head",
    "q_values_by_gap",
    "qd_blocks",
    "residual_report",
    "root_enclosure",
    "scan",
    "sqrt_enclosure",
    "sqrt_sum",
    "term",
    "trigamma_tail",
    "zeta_3_2",
    "__version__",
]
