"""hardylab: numerical verification of 1-D Hardy/Rellich integral inequalities."""

from .config import DEFAULT_TOLERANCE, default_tolerance
from .errors import (DivergentIntegralError, DoubleRangeError, FitDegenerateError, HardyLabError,
                     InvalidParameterError, MalformedCSVError, ZeroDenominatorError)
from .generator import make_rng, random_step_function, random_step_function_away_from_zero
from .grid import (Grid, PiecewisePoly, PolyBatch, StepBatch, StepFunction, check_exponent,
                   make_graded_grid, p_norm, read_step_csv, step_function, write_step_csv)
from .inequalities import (RatioReport, corollary_avg_check, corollary_int_check,
                           hardy_ratio, hardy_rellich_int_ratio,
                           improved_hardy_rellich_ratio, new_hardy_ratio,
                           ratio_evaluator, rellich_chain, rellich_p_ratio,
                           sharp_constant, weighted_supmin_check)
from .quadrature import DEFAULT_QUAD_ORDER, integrate_weighted_power
from .operators import (cumulative, double_cumulative, inner_cumulative,
                        maxform_value, rellich_inner, supmin_candidates,
                        supmin_pointwise_identity_check, supmin_transform)
from .rearrange import (RearrangedFunction, check_norm_preservation,
                        check_partial_domination, decreasing_rearrangement)
from .sharpness import (CutoffSpec, SweepPoint, SweepResult, cutoff_value,
                        minimizing_function, ratio_maximize, sharpness_sweep)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
