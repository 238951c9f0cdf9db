"""Equilibria of random non-gradient flows on the high-dimensional sphere.

The package samples explicit Gaussian random vector fields constrained to
|x|^2 = N, enumerates their equilibria by multi-start Newton, integrates the
constrained dynamics, and compares everything against the exact finite-N
mean-count prediction built on the real elliptic ensemble's real-eigenvalue
density, including its four large-N regimes around the topology
trivialization transition.
"""

from .dynamics import (RunResult, Trajectory, integrate, lambda_of_state,
                       run_to_equilibrium_batch)
from .elliptic import (EllipticParams, expected_real_count,
                       log_rho_real_exact, mean_real_count,
                       real_eigenvalue_histogram, real_eigenvalue_values,
                       real_eigenvalues, rho_real_bulk, rho_real_edge,
                       rho_real_exact, rho_real_outside,
                       rho_real_weak_nongradient, sample_elliptic_batch)
from .errors import DomainError, NumericalError, ParameterError
from .field_model import (CovariancePair, FieldInstance, JacobianCovariance,
                          ModelParams, covariance_pair, field_covariance,
                          sample_field)
from .predictor import (CountPrediction, DerivedParams, DetIdentityReport,
                        FixedAsymptote, asympt_fixed, crossover_gamma,
                        crossover_kappa, derived_params, mean_in_interval,
                        mean_in_intervals, mean_total_exact,
                        mean_totals_exact, predict_asymptotic,
                        validate_det_identity, weak_nongradient)
from .search import (CountReport, EquilibriumPoint, MCCountResult,
                     find_equilibria, mc_mean_count, tangent_spectrum_at)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # field model
    "ModelParams", "CovariancePair", "FieldInstance", "sample_field",
    "covariance_pair", "field_covariance", "JacobianCovariance",
    # elliptic ensemble
    "EllipticParams", "sample_elliptic_batch", "real_eigenvalues",
    "real_eigenvalue_values", "rho_real_exact", "log_rho_real_exact",
    "rho_real_bulk", "rho_real_outside", "rho_real_edge",
    "rho_real_weak_nongradient", "mean_real_count",
    "real_eigenvalue_histogram", "expected_real_count",
    # predictor
    "DerivedParams", "CountPrediction", "FixedAsymptote", "DetIdentityReport",
    "derived_params", "mean_total_exact", "mean_totals_exact",
    "mean_in_interval", "mean_in_intervals",
    "validate_det_identity", "asympt_fixed", "crossover_gamma",
    "crossover_kappa", "weak_nongradient", "predict_asymptotic",
    # search
    "EquilibriumPoint", "CountReport", "MCCountResult",
    "find_equilibria", "tangent_spectrum_at", "mc_mean_count",
    # dynamics
    "Trajectory", "RunResult", "lambda_of_state",
    "integrate", "run_to_equilibrium_batch",
    # errors
    "ParameterError", "DomainError", "NumericalError",
]
