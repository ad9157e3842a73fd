"""Time-consistent consumption-investment strategies for a Merton-type
market with general utility and non-constant discount rates.

The equilibrium strategy is characterized through a fixed point of a
utility-weighted discount-rate operator; this package provides the
fixed-point solver, the induced feedback controls and value surfaces,
Monte Carlo cross-checks and a verification suite.
"""

from .errors import (ConvergenceError, GridError, IntegrityError,
                     ModelError, SolverError, TCMertonError,
                     WealthRangeError)
from .model import (CRRAUtility, CallableDiscount, DiscountModel,
                    ExponentialDiscount, HyperbolicDiscount, MarketModel,
                    MixedPowerUtility, PseudoExponentialDiscount,
                    UtilityModel, elasticity_bounds)
from .grids import Grid, ScalarField2D, deriv_y, deriv_yy
from .pde import BackwardStepper, solve_backward
from .fixed_point import (OperatorWorkspace, RhoField, SolverSettings,
                          iterate)
from .strategy import (PBarField, StrategySurface, ValueSurface,
                       compute_pbar, controls_from_pbar, value_function)
from .montecarlo import (MCEstimate, PathEnsemble, estimate_F_mc,
                         estimate_J, estimate_pbar_mc, simulate_Y,
                         simulate_wealth)
from .verify import (CheckResult, MertonOracle, VerificationReport,
                     check_bounds_suite, check_first_order_conditions,
                     check_hjb_residual, check_merton_reduction,
                     check_operator_cross_validation,
                     check_subgame_perturbation, check_value_consistency,
                     check_wealth_identity, full_report, pbar_ratio_bounds)
from .pipeline import SolveResult, solve

__version__ = "0.1.0"
