"""Numerical toolkit for rotation-invariant convex domain geometry in two
complex variables: radial profiles and duals, exact rank-one projection
norms, the Laplace coefficient map, weighted Bergman norms, and diagnostic
verification of the associated inequalities and counterexamples."""

from .errors import (DomainError, ExponentOutOfRange, HypothesisNotMet,
                     IndexOutOfTable, NonEvaluableProfile, ParseError,
                     RlabError)
from .geometry import (DomainGeometry, ExponentProfile, curvatures_at,
                       domain_from_exponent, domain_from_spec, dual_complement,
                       egg_profile, expression_profile, tabulated_profile)
from .leray import (LerayNormGrid, MomentTable, boundedness_report,
                    leray_norm_grid, moment_table, ray_limit_predictor)
from .numerics import bessel_i0_log, extrapolate_limit, log_beta, log_gamma
from .transform import (CoefficientGrid, NormReport, bergman_nu_norm_sq,
                        bergman_omega_norm_sq, exp_norm_sq, hardy_norm_sq,
                        invert_laplace, laplace_image_nu_norm_sq,
                        laplace_map)
from .diagnostics import (ComparisonReport, CounterexampleReport, F_omega,
                          l1ball_counterexample, verify_comparison_lemma,
                          verify_weight_equivalence)

__version__ = "0.1.0"
