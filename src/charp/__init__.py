"""charp: exact computer algebra over prime fields.

Frobenius decompositions along p-bases, Cartier/trace operators, mixed test
ideals and their constancy regions, p-fractal operators, and the
change-of-basis identity xi = det^(p-1), all in exact arithmetic.
"""

from .rings import (ExponentOverflow, ParseError, Polynomial, PrimeModulus,
                    RingCtx, frob, parse_poly, partial_derivative, poly_str,
                    pow_poly)
from .ideals import (BudgetExceeded, Ideal, VerificationError, colon, exact_div,
                     frob_power, ideal_eq, intersect, power, product,
                     sum_ideal)
from .frobenius import FrobDecomposition, bracket_root, decompose, \
    relative_trace, trace
from .cartier import (CartierAlgebraSpec, MixedPair, RelativeChart, TraceTwist,
                      cplus, pullback_cartier, scale_test_ideal, sigma,
                      tau_mixed, theorem_b_check, theorem_b_sides)
from .thresholds import (ThresholdError, ThresholdResult, fpt_search,
                         jump_scaling_probe, jumping_numbers)
from .regions import (BoundaryLength, RasterGrid, RegionFunction, TOperator,
                      apply_T, boundary_length, chi_function, compose_T,
                      constancy_raster, hausdorff_distance, pfractal_span_rank,
                      raster_csv, raster_csv_pieces, rho_function,
                      staircase_partial_sum, three_lines_staircase,
                      transform_chi_symbolic)
from .basischange import (IdentityReport, PolyMatrix, admissible_matrices,
                          combinatorial_identity_check, det_mod_p,
                          dual_generator_ratio, dual_ratio_direct,
                          falling_factorial_claim_holds, frobenius_jacobian,
                          jacobian, validate_basis, verify_det_identity,
                          xi_operator, xi_operator_poly)

__all__ = [name for name in dir() if not name.startswith("_")]
