"""Mean equilibrium counts: exact finite-N formulas and large-N regimes.

The mean number of equilibria of the constrained flow reduces to a weighted
integral of the real-eigenvalue density of the elliptic ensemble.  Everything
here is assembled in log space: the ``b**(1-N)`` amplification and the
Gaussian weight both leave double range long before N reaches the hundreds.

Two independent code paths compute the same quantity, each integrating one
closed-form Gaussian weight against ``rho_u(x) = exp(x^2/(2(1+tau))) rho(x)``,
so that no terms of size N b^2 cancel deep in the trivial phase:

* `mean_total_exact`, the closed total-count formula
  ``2 sqrt(N (1+tau)/(b^2+tau)) b^(1-N) Integral exp(-N lam^2 / (2 (b^2+tau)))
  rho_u(lam sqrt N) dlam``;
* `mean_in_interval`, the Lagrange-multiplier-resolved form, where the mean
  |det| of an (N-1)-size draw is replaced by ``2 (N-2)!! sqrt(1+tau) rho_u``.

Their agreement on the full line (twice the half line for the total route)
checks the separately assembled prefactors, at 1e-10 relative in the
acceptance suite.  Both need an even N and any tau in (-1, 1] (1: GOE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (EllipticParams, elliptic_batches, log_rho_real_exact,
                       rho_real_edge, support_lambda_max)
from .errors import DomainError, ParameterError
from .field_model import CovariancePair, admissible_phi2
from .quadrature import LogQuadResult, log_quad, log_quad_many

__all__ = [
    "DerivedParams",
    "CountPrediction",
    "FixedAsymptote",
    "DetIdentityReport",
    "derived_params",
    "mean_total_exact",
    "mean_totals_exact",
    "mean_in_interval",
    "mean_in_intervals",
    "validate_det_identity",
    "asympt_fixed",
    "crossover_gamma",
    "crossover_kappa",
    "weak_nongradient",
    "predict_asymptotic",
]

_EXCEPTIONAL_TOL = 1e-12
# relative accuracy of the exact-count quadratures and of the crossover limits
_QUAD_REL_TOL = 1e-12
_CROSSOVER_REL_TOL = 1e-10


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless parameters steering the random-matrix prediction.

    tau measures non-relaxationality (tau = 1 iff the flow is gradient), b^2
    the magnetic-field strength relative to the coupling stiffness; b = 1
    separates the exponentially abundant phase from the trivial one.
    sigma_c is the critical field amplitude and lambda_scale converts
    physical Lagrange multipliers into rescaled spectral units.
    """

    tau: float
    b2: float
    sigma_c: float
    lambda_scale: float

    @classmethod
    def from_values(cls, phi1: float, dphi1: float, phi2: float,
                    sigma: float) -> "DerivedParams":
        """Build from the covariance values (Phi1(1), Phi1'(1), Phi2(1)) and
        sigma; the values must pass `field_model.admissible_phi2`."""
        phi2 = admissible_phi2(phi1, dphi1, phi2)
        if sigma < 0:
            raise ParameterError(f"sigma must be nonnegative, got {sigma}")
        tau = phi2 / dphi1
        b2 = (sigma * sigma + phi1) / dphi1
        if not math.isfinite(b2):
            raise ParameterError(
                f"b^2 = (sigma^2 + Phi1(1)) / Phi1'(1) overflows "
                f"at sigma = {sigma}")
        if tau <= -1.0 + _EXCEPTIONAL_TOL:
            raise DomainError(
                "exceptional antisymmetric case tau = -1: purely antisymmetric "
                "linear fields are excluded from the prediction")
        if abs(b2 + tau) <= _EXCEPTIONAL_TOL:
            raise DomainError(
                f"exceptional case b^2 + tau = {b2 + tau:.3e}: the Gaussian "
                "weight parameter is undefined")
        return cls(tau=tau, b2=b2,
                   sigma_c=math.sqrt(dphi1 - phi1),
                   lambda_scale=math.sqrt(dphi1))


def derived_params(cov: CovariancePair, sigma: float) -> DerivedParams:
    """Random-matrix parameters of a covariance pair plus field amplitude."""
    return DerivedParams.from_values(cov.phi1(1.0), cov.dphi1(1.0),
                                     cov.phi2(1.0), sigma)


@dataclass(frozen=True)
class CountPrediction:
    """A mean-equilibria count with its log-stabilized value and provenance."""

    value: float
    log_value: float
    regime: str  # exact | fixed-asymptotic | gamma-crossover | kappa-crossover | weak-nongradient
    n: int

    @classmethod
    def from_log(cls, log_value: float, regime: str, n: int
                 ) -> "CountPrediction":
        try:
            value = math.exp(log_value)
        except OverflowError:
            value = math.inf
        return cls(value=value, log_value=log_value, regime=regime, n=n)


def _log_double_factorial_even(m: int) -> float:
    """log((m)!!) for even m >= 0."""
    half = m // 2
    return half * math.log(2.0) + math.lgamma(half + 1.0)


def _integration_cap(dp: DerivedParams, n: int) -> float:
    """Rescaled-lambda cutoff beyond which the integrand is negligible."""
    cap = support_lambda_max(n, dp.tau)
    if dp.b2 > 1.0:  # trivial phase: past the saddle point lambda*
        asym = asympt_fixed(dp)
        # sqrt(160 / (n |l''|)), rooted in two parts to stay finite with b^2
        width = math.sqrt(160.0 / n) / math.sqrt(-asym.l_second)
        cap = max(cap, asym.lambda_star + 3.0 * width, asym.lambda_star * 1.25)
    return cap


def _density_quads(p: EllipticParams, b2s: list[float],
                   intervals: list[tuple[float, float]]) -> list[LogQuadResult]:
    """log of int exp(-N lam^2 / (2 (b_j^2 + tau))) rho_u(lam sqrt N) dlam over
    each interval j, in one lockstep quadrature that evaluates the density
    once per distinct node of a round, so integrals with the same bounds
    (every sigma below sigma_c) evaluate the panels they have in common once."""
    sqrt_n = math.sqrt(p.n)
    # lam / sqrt(b^2 + tau) stays O(1) at the nodes, where lam^2 may overflow
    inv_widths = 1.0 / np.sqrt(np.array(b2s, dtype=float) + p.tau)

    def log_integrand(lams: np.ndarray, owner: np.ndarray) -> np.ndarray:
        nodes, where = np.unique(lams, return_inverse=True)
        return (-0.5 * p.n * (lams * inv_widths[owner]) ** 2
                + log_rho_real_exact(p, nodes * sqrt_n, weighted=False)[where])

    return log_quad_many(log_integrand, intervals, rel_tol=_QUAD_REL_TOL)


def mean_totals_exact(dps: list[DerivedParams], n: int
                      ) -> list[CountPrediction]:
    """`mean_total_exact` at each of `dps`, which share one tau (a sweep over
    sigma), from one lockstep quadrature."""
    if len({dp.tau for dp in dps}) > 1:
        raise ParameterError("a lockstep sweep needs one tau for all its points")
    if not dps:
        return []
    p = EllipticParams(n, dps[0].tau)
    quads = _density_quads(p, [dp.b2 for dp in dps],
                           [(0.0, _integration_cap(dp, n)) for dp in dps])
    out = []
    for dp, quad in zip(dps, quads):
        # the integrand is even in lambda
        log_integral = math.log(2.0) + quad.log_value
        log_pref = (math.log(2.0)
                    + 0.5 * (math.log(n) + math.log1p(dp.tau)
                             - math.log(dp.b2 + dp.tau))
                    + (1.0 - n) * 0.5 * math.log(dp.b2))
        out.append(CountPrediction.from_log(log_pref + log_integral, "exact", n))
    return out


def mean_total_exact(dp: DerivedParams, n: int) -> CountPrediction:
    """Exact mean number of equilibria at size N (N even, -1 < tau <= 1)."""
    return mean_totals_exact([dp], n)[0]


def mean_in_intervals(dp: DerivedParams, n: int,
                      intervals: list[tuple[float, float]]
                      ) -> list[CountPrediction]:
    """`mean_in_interval` over each (alpha, beta) of `intervals`, from one
    lockstep quadrature."""
    for alpha, beta in intervals:
        if not alpha <= beta:
            raise ParameterError(f"need alpha <= beta, got ({alpha}, {beta})")
    p = EllipticParams(n, dp.tau)
    p.require_exact_density()
    cap = _integration_cap(dp, n)
    bounds = [(max(alpha / dp.lambda_scale, -cap) if np.isfinite(alpha) else -cap,
               min(beta / dp.lambda_scale, cap) if np.isfinite(beta) else cap)
              for alpha, beta in intervals]
    quads = _density_quads(p, [dp.b2] * len(bounds), bounds)
    log_dfact = _log_double_factorial_even(n - 2)
    # interval-count prefactor sqrt(N)/(N-2)!! times the determinant-identity
    # constant 2 (N-2)!! sqrt(1+tau); an empty interval gives log 0
    log_pref = (0.5 * math.log(n) - log_dfact
                - 0.5 * math.log(dp.b2 + dp.tau)
                + (1.0 - n) * 0.5 * math.log(dp.b2)
                + math.log(2.0) + 0.5 * math.log1p(dp.tau) + log_dfact)
    return [CountPrediction.from_log(log_pref + quad.log_value, "exact", n)
            for quad in quads]


def mean_in_interval(dp: DerivedParams, n: int, alpha: float,
                     beta: float) -> CountPrediction:
    """Mean number of equilibria whose Lagrange multiplier lies in [alpha, beta].

    alpha, beta are in physical units and are mapped to rescaled spectral
    units by `dp.lambda_scale`; infinite endpoints are allowed.  Assembled
    through the determinant-identity route, independently of
    `mean_total_exact` (the Gaussian-weight exponents cancel symbolically,
    only the double factorials numerically).
    """
    return mean_in_intervals(dp, n, [(alpha, beta)])[0]


# ---------------------------------------------------------------------------
# determinant identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetIdentityReport:
    """Monte Carlo check of the |det| <-> real-eigenvalue-density identity."""

    n: int
    tau: float
    lam: float
    trials: int
    ratio: float
    stderr: float
    mc_log_mean: float
    rhs_log: float

    @property
    def z(self) -> float:
        return (self.ratio - 1.0) / self.stderr


def validate_det_identity(tau: float, n: int, lam: float, trials: int,
                          seed: int) -> DetIdentityReport:
    """Compare E|det(X - lam sqrt(N))| over (N-1)-size draws with the density.

    The reference value is ``2 (N-2)!! sqrt(1+tau) exp(N lam^2/(2(1+tau)))
    rho_N(lam sqrt N)``.  Everything is accumulated in log space, so the
    ratio is finite for every lam with a finite lam sqrt(N).  A lam so far
    out that all draws give the same |det| to rounding has no standard error
    and is rejected.  Draws follow `elliptic_batches` in batches of 8192.
    """
    p = EllipticParams(n, tau)
    p.require_exact_density()
    if trials < 2:
        raise ParameterError("trials must be >= 2 for a standard error")
    # the factor exp(N lam^2/(2(1+tau))) is folded into the density, whose
    # Gaussian weight it cancels exactly; a lam sqrt(N) that overflows is
    # rejected here, before any draw
    x = lam * math.sqrt(n)
    if not math.isfinite(x):
        raise ParameterError(f"lam sqrt(N) must be finite, got lam = {lam}")
    rhs_log = (math.log(2.0) + _log_double_factorial_even(n - 2)
               + 0.5 * math.log1p(tau)
               + float(log_rho_real_exact(p, x, weighted=False)))

    shift = x * np.eye(n - 1)
    logs = np.concatenate([
        np.linalg.slogdet(mats - shift)[1]
        for mats in elliptic_batches(EllipticParams(n - 1, tau), trials, seed,
                                     chunk=8192)])
    m = logs.max()
    scaled = np.exp(logs - m)
    mean_scaled = float(scaled.mean())
    se_scaled = float(scaled.std(ddof=1) / math.sqrt(trials))
    if se_scaled == 0.0:
        raise DomainError(
            f"at lam = {lam} every draw gives the same |det| to rounding, so "
            "the Monte Carlo has no spread and cannot test the identity")
    mc_log_mean = m + math.log(mean_scaled)
    ratio = math.exp(mc_log_mean - rhs_log)
    stderr = math.exp(m - rhs_log) * se_scaled
    return DetIdentityReport(n=n, tau=tau, lam=lam, trials=trials,
                             ratio=ratio, stderr=stderr,
                             mc_log_mean=mc_log_mean, rhs_log=rhs_log)


# ---------------------------------------------------------------------------
# large-N regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedAsymptote:
    """Leading large-N behaviour at fixed (tau, b).

    In the abundant phase (b < 1) the count grows like
    ``prefactor * exp(N log_rate)``; in the trivial phase it tends to the
    constant 2 and the saddle-point data of the outside-the-bulk analysis is
    exposed for testing.
    """

    regime: str  # "abundant" | "trivial"
    log_rate: float
    prefactor: float | None
    lambda_star: float | None = None
    l_at_star: float | None = None
    l_second: float | None = None


def asympt_fixed(dp: DerivedParams) -> FixedAsymptote:
    """Fixed-parameter large-N asymptote of the total count."""
    if dp.b2 == 1.0:
        raise DomainError("b = 1 sits on the transition line; "
                          "use the crossover regimes")
    b = math.sqrt(dp.b2)
    if dp.b2 < 1.0:
        if abs(dp.tau) >= 1.0:
            raise DomainError(
                "the fixed-(tau, b) exponential asymptote needs |tau| < 1; "
                "for tau -> 1 use the weak non-gradient regime")
        pref = (2.0 * math.sqrt((1.0 + dp.tau) / (1.0 - dp.tau))
                * b / math.sqrt(1.0 - dp.b2))
        return FixedAsymptote("abundant", math.log(1.0 / b), pref)
    return FixedAsymptote(
        "trivial", 0.0, 2.0, lambda_star=b + dp.tau / b, l_at_star=math.log(b),
        l_second=-2.0 / ((1.0 + dp.tau / dp.b2) * (dp.b2 - dp.tau)))


def crossover_gamma(tau: float, gamma: float) -> float:
    """Limit of (mean count)/sqrt(N) when b^2 = 1 - gamma/N.

    ``4 sqrt(1/(2 pi)) sqrt((1+tau)/(1-tau)) e^{gamma/2}
    int_0^1 exp(-gamma lam^2/2) dlam``, evaluated with the exponential factor
    folded into the integrand so both signs of gamma are stable.
    """
    if abs(tau) >= 1.0:
        raise DomainError(f"crossover requires |tau| < 1, got {tau}")

    def logf(lams: np.ndarray) -> np.ndarray:
        return 0.5 * gamma * (1.0 - lams * lams)

    quad = log_quad(logf, 0.0, 1.0, rel_tol=_CROSSOVER_REL_TOL)
    return (4.0 * math.sqrt(1.0 / (2.0 * math.pi))
            * math.sqrt((1.0 + tau) / (1.0 - tau)) * quad.value)


def _log_rho_edge(zeta: np.ndarray) -> np.ndarray:
    """log of the edge profile, with the Gaussian tail taken analytically."""
    zeta = np.asarray(zeta, dtype=float)
    out = np.empty_like(zeta)
    small = zeta < 25.0
    with np.errstate(divide="ignore"):
        out[small] = np.log(rho_real_edge(zeta[small]))
    big = ~small
    # erfc(sqrt(2) z) is sub-dominant by e^{-z^2}; (1 + erf z) -> 2
    out[big] = -zeta[big] ** 2 - math.log(2.0 * math.sqrt(math.pi))
    return out


def crossover_kappa(tau: float, kappa: float) -> float:
    """Limit of the mean count when b^2 = 1 + kappa/sqrt(N), kappa > 0.

    ``4 e^{-kt^2/4} int e^{kt zeta} rho_edge(zeta) dzeta`` with
    ``kt = kappa sqrt((1-tau)/(1+tau))``; tends to 2 for large kappa and
    matches the gamma-crossover as kappa -> 0.
    """
    if abs(tau) >= 1.0:
        raise DomainError(f"crossover requires |tau| < 1, got {tau}")
    if kappa <= 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    kt = kappa * math.sqrt((1.0 - tau) / (1.0 + tau))

    def logf(zeta: np.ndarray) -> np.ndarray:
        return kt * zeta - 0.25 * kt * kt + _log_rho_edge(zeta)

    lo = -(50.0 / kt + 4.0)
    hi = 0.5 * kt + 12.0
    quad = log_quad(logf, lo, hi, rel_tol=_CROSSOVER_REL_TOL)
    return 4.0 * quad.value


def _gauss_segment(u: float) -> float:
    """int_0^1 exp(-u^2 p^2) dp."""
    if u == 0.0:
        return 1.0
    return math.sqrt(math.pi) / (2.0 * u) * math.erf(u)


def _log_weak_nongradient(u: float, b2: float, n: int) -> float:
    """Log of `weak_nongradient`, finite where the count overflows."""
    if not 0.0 <= u < math.inf:
        raise DomainError(f"u must be finite and nonnegative, got {u}")
    if not (0.0 < b2 < 1.0):
        raise DomainError(f"weak non-gradient regime requires 0 < b^2 < 1, got {b2}")
    return (math.log(4.0) - 0.5 * n * math.log(b2)
            + 0.5 * math.log(2.0 * n * b2 / (math.pi * (1.0 - b2)))
            + math.log(_gauss_segment(u)))


def weak_nongradient(u: float, b2: float, n: int) -> float:
    """Mean count in the weakly non-gradient regime tau = 1 - u^2/N, b < 1.

    ``4 e^{N ln(1/b)} sqrt(2 N b^2 / (pi (1-b^2))) int_0^1 e^{-u^2 p^2} dp``,
    equivalent to the form in B = (1-b^2)/(1+b^2),
    ``4 e^{(N/2) ln((1+B)/(1-B))} sqrt(N (1-B)/(pi B)) int_0^1 e^{-u^2 p^2} dp``;
    inf where the count overflows a float.
    """
    return CountPrediction.from_log(_log_weak_nongradient(u, b2, n),
                                    "weak-nongradient", n).value


def predict_asymptotic(dp: DerivedParams, n: int) -> CountPrediction:
    """Route to the appropriate large-N regime for the given parameters.

    b = 1 exactly is dispatched to the gamma-crossover at gamma = 0 (the
    fixed-b formula diverges there); tau = 1 with b < 1 to the weak
    non-gradient expression at u = 0.  At b = 1 and tau = 1 that limit
    diverges, but the count is exactly 2N: twice the number of real
    eigenvalues of an N x N GOE draw, all of which are real.
    """
    if dp.b2 == 1.0 and dp.tau == 1.0:
        return CountPrediction(2.0 * n, math.log(2.0 * n), "gamma-crossover", n)
    if dp.b2 == 1.0:
        val = math.sqrt(n) * crossover_gamma(dp.tau, 0.0)
        return CountPrediction(val, math.log(val), "gamma-crossover", n)
    if dp.tau == 1.0 and dp.b2 < 1.0:
        return CountPrediction.from_log(_log_weak_nongradient(0.0, dp.b2, n),
                                        "weak-nongradient", n)
    asym = asympt_fixed(dp)
    if asym.regime == "trivial":
        return CountPrediction(2.0, math.log(2.0), "fixed-asymptotic", n)
    log_value = math.log(asym.prefactor) + n * asym.log_rate
    return CountPrediction.from_log(log_value, "fixed-asymptotic", n)
