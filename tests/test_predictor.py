"""Exact mean-count formulas, determinant identity, large-N regimes."""

import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

from sphere_equilibria import quadrature
from sphere_equilibria.elliptic import EllipticParams, expected_counts_in_bins
from sphere_equilibria.errors import DomainError, ParameterError
from sphere_equilibria.field_model import ModelParams, covariance_pair
from sphere_equilibria.predictor import (DerivedParams, asympt_fixed,
                                         crossover_gamma, crossover_kappa,
                                         derived_params, mean_in_interval,
                                         mean_in_intervals, mean_total_exact,
                                         mean_totals_exact, predict_asymptotic,
                                         validate_det_identity,
                                         weak_nongradient)
from test_elliptic import antiderivative_mpmath, rho_mp


def dp_for(tau, b2, dphi1=2.0):
    """DerivedParams with the requested (tau, b2), sigma absorbing the gap."""
    q = min(b2, 1.0)
    return DerivedParams.from_values(q * dphi1, dphi1, tau * dphi1,
                                     math.sqrt((b2 - q) * dphi1))


def mean_total_mpmath(n, tau, b2):
    """The total count at b^2 > 1 in mpmath, with the Gaussian weight in its
    original form: ``2 sqrt(N (1+tau)/(b^2+tau)) b^(1-N) int
    exp(-N B lam^2 / 4) rho(lam sqrt N) dlam``, B = 2 (1 - b^2) /
    ((1+tau)(b^2+tau)), at 40 digits, so the weight cancels the density's
    own Gaussian harmlessly.

    Four 40-point Gauss-Legendre panels cover the bulk [0, 4] and four more
    run out to 12 saddle widths b / sqrt(2N) past lam* = b + tau/b.  The boundary
    integral of `rho_mp` is accumulated up to x0 = 40 + 2 (1+tau) sqrt(N),
    past which psi_{N-2} is below e^-500 of its bulk size.
    """
    nodes, weights = np.polynomial.legendre.leggauss(40)
    with mp.workdps(40):
        tau, b2 = mp.mpf(tau), mp.mpf(b2)
        big_b = 2 * (1 - b2) / ((1 + tau) * (b2 + tau))
        b = mp.sqrt(b2)
        hi = float(b + tau / b + 12 * b / mp.sqrt(2 * n))
        edges = np.concatenate([np.linspace(0.0, 4.0, 5),
                                np.linspace(4.0, hi, 5)[1:]])
        mids, halves = (edges[1:] + edges[:-1]) / 2, np.diff(edges) / 2
        lams = (mids[:, None] + halves[:, None] * nodes).ravel()
        wts = (halves[:, None] * weights).ravel()
        x0 = 40.0 + 2.0 * (1.0 + float(tau)) * math.sqrt(n)
        # antiderivative_mpmath integrates psi_{N-2} / sqrt((N-2)!)
        ints = antiderivative_mpmath(n, float(tau),
                                     np.minimum(lams * math.sqrt(n), x0))
        norm = mp.sqrt(mp.factorial(n - 2))
        integral = mp.fsum(
            mp.mpf(w) * mp.e ** (-n * big_b * mp.mpf(lam) ** 2 / 4)
            * rho_mp(n, tau, mp.mpf(lam) * mp.sqrt(n), mp.mpf(i) * norm)
            for w, lam, i in zip(wts, lams, ints))
        pref = 2 * mp.sqrt(n * (1 + tau) / (b2 + tau)) * b ** (1 - n)
        # the integrand is even in lambda
        return float(pref * 2 * integral)


class TestDerivedParams:
    def test_symmetric_quadratic_example(self):
        # j1 = j2 = 1, alpha1 = alpha2 = 1, sigma = 0:
        # Phi1'(1) = 8, Phi2(1) = 8 -> tau = 1; Phi1(1) = 5 -> b^2 = 5/8
        cov = covariance_pair(ModelParams(n=4, j1=1, j2=1, alpha1=1, alpha2=1))
        dp = derived_params(cov, 0.0)
        assert dp.tau == 1.0
        assert_allclose(dp.b2, 5.0 / 8.0, rtol=1e-15)
        assert_allclose(dp.sigma_c, math.sqrt(3.0), rtol=1e-15)

    @pytest.mark.parametrize("j1,j2", [(1.0, 0.5), (0.3, 2.0), (2.0, 0.0)])
    def test_gradient_family_always_tau_one(self, j1, j2):
        if j1 == 0 and j2 == 0:
            return
        cov = covariance_pair(ModelParams(n=4, j1=j1, j2=j2,
                                          alpha1=1.0, alpha2=1.0))
        assert derived_params(cov, 0.7).tau == 1.0

    def test_plain_linear_family(self):
        cov = covariance_pair(ModelParams(n=4, j1=1.0, j2=0.0, alpha1=0.0))
        dp = derived_params(cov, 0.0)
        assert dp.tau == 0.0 and dp.b2 == 1.0

    def test_exceptional_antisymmetric_rejected(self):
        cov = covariance_pair(ModelParams(n=4, j1=1.0, j2=0.0, alpha1=-1.0))
        with pytest.raises(DomainError, match="antisymmetric"):
            derived_params(cov, 0.0)

    def test_exceptional_b2_plus_tau_rejected(self):
        with pytest.raises(DomainError, match="b\\^2 \\+ tau"):
            DerivedParams.from_values(1.0, 2.0, -1.0, 0.0)

    def test_overflowing_b2_rejected(self):
        # sigma is finite but sigma^2 is not
        with pytest.raises(ParameterError, match="b\\^2"):
            DerivedParams.from_values(1.0, 2.0, 0.0, 1e200)

    def test_far_trivial_b2_accepted(self):
        # b^2 ~ 5e199 is finite while b^4 is not; nothing needs b^4
        dp = DerivedParams.from_values(1.0, 2.0, 0.0, 1e100)
        assert dp.b2 == 5e199
        assert_allclose(mean_total_exact(dp, 4).value, 2.0, rtol=1e-12)

    @pytest.mark.parametrize("alpha2,edge,j2", [(-0.499999999, -0.5, 1.0),
                                                (-0.499999999, -0.5, 1e3),
                                                (1.000000000226551, 1.0, 1.0)])
    def test_band_edge_models_derive(self, alpha2, edge, j2):
        # Phi2(1) meets each band edge quadratically in alpha2, so these
        # models round just outside it; they are snapped onto the edge, and
        # tau stays in [-1, 1] exactly
        model = ModelParams(n=4, j1=0.0, j2=j2, alpha2=alpha2, sigma=0.5 * j2)
        dp = derived_params(covariance_pair(model), model.sigma)
        assert -1.0 < dp.tau <= 1.0
        on_edge = ModelParams(n=4, j1=0.0, j2=j2, alpha2=edge,
                              sigma=model.sigma)
        want = mean_total_exact(derived_params(covariance_pair(on_edge),
                                               on_edge.sigma), 4).value
        assert math.isfinite(want)
        assert_allclose(mean_total_exact(dp, 4).value, want, rtol=1e-8)

    def test_band_validation(self):
        with pytest.raises(ParameterError):
            DerivedParams.from_values(1.0, 2.0, 2.5, 0.0)
        with pytest.raises(ParameterError):
            DerivedParams.from_values(1.0, 0.5, 0.0, 0.0)

    @pytest.mark.parametrize("c", [0.25, 4096.0])
    def test_scale_invariance_exact(self, c):
        # covariance scales are dimensionful; the dimensionless trio and all
        # count predictions are exactly unchanged
        a = DerivedParams.from_values(1.4, 2.0, 1.0, 0.3)
        b = DerivedParams.from_values(c * 1.4, c * 2.0, c * 1.0,
                                      math.sqrt(c) * 0.3)
        assert (a.tau, a.b2) == (b.tau, b.b2)
        assert b.sigma_c == math.sqrt(c) * a.sigma_c
        assert b.lambda_scale == math.sqrt(c) * a.lambda_scale
        pa, pb = mean_total_exact(a, 6), mean_total_exact(b, 6)
        assert pa.value == pb.value and pa.log_value == pb.log_value

    def test_scale_invariance_generic_factor(self):
        a = DerivedParams.from_values(1.4, 2.0, 1.0, 0.3)
        b = DerivedParams.from_values(3 * 1.4, 3 * 2.0, 3 * 1.0,
                                      math.sqrt(3) * 0.3)
        assert_allclose([a.tau, a.b2], [b.tau, b.b2],
                        rtol=1e-14)


class TestExactCounts:
    def test_total_equals_full_interval(self):
        dp = dp_for(0.5, 0.8)
        t = mean_total_exact(dp, 6)
        i = mean_in_interval(dp, 6, -math.inf, math.inf)
        assert_allclose(t.value, i.value, rtol=1e-10)

    @pytest.mark.parametrize("b2", [0.8, 1.5])
    def test_total_equals_full_interval_at_n2000(self, b2):
        # both routes evaluate the density far past where the raw Hermite
        # polynomials overflow
        dp = dp_for(0.455, b2)
        t = mean_total_exact(dp, 2000)
        i = mean_in_interval(dp, 2000, -math.inf, math.inf)
        assert abs(t.log_value - i.log_value) < 1e-10

    @pytest.mark.parametrize("n", [4, 100, 400])
    def test_far_trivial_phase_counts_two(self, n):
        # both routes give 2 up to the largest sigma whose b^2 is finite, on
        # the benchmark covariance, at tau < 0 and for a gradient field
        for phi2 in (1.48, -1.0, 3.25):
            for sigma in (1e4, 1e8, 1e50, 1e100, 1.34e154):
                dp = DerivedParams.from_values(2.17, 3.25, phi2, sigma)
                t = mean_total_exact(dp, n)
                i = mean_in_interval(dp, n, -math.inf, math.inf)
                assert_allclose([t.value, i.value], 2.0, rtol=1e-10)

    @pytest.mark.parametrize("n,sigma", [(4, 10.0), (4, 1e3), (100, 10.0),
                                         (100, 1e3)])
    def test_mpmath_reference(self, n, sigma):
        # the benchmark covariance, Phi1(1) = 2.17, Phi1'(1) = 3.25,
        # Phi2(1) = 1.48, in the trivial phase (sigma_c ~ 1.04)
        dp = DerivedParams.from_values(2.17, 3.25, 1.48, sigma)
        want = mean_total_mpmath(n, 1.48 / 3.25, (sigma * sigma + 2.17) / 3.25)
        assert_allclose(mean_total_exact(dp, n).value, want, rtol=1e-12)

    def test_half_line_is_half_total(self):
        dp = dp_for(0.3, 0.7)
        t = mean_total_exact(dp, 4)
        h = mean_in_interval(dp, 4, 0.0, math.inf)
        assert_allclose(h.value, 0.5 * t.value, rtol=1e-10)

    def test_empty_interval(self):
        dp = dp_for(0.3, 0.7)
        r = mean_in_interval(dp, 4, 1.0, 1.0)
        assert r.value == 0.0 and r.log_value == -math.inf

    def test_interval_ordering_enforced(self):
        with pytest.raises(ParameterError):
            mean_in_interval(dp_for(0.0, 0.8), 4, 1.0, 0.0)

    def test_odd_n_rejected(self):
        with pytest.raises(DomainError, match="even"):
            mean_total_exact(dp_for(0.0, 0.8), 5)
        with pytest.raises(DomainError, match="even"):
            mean_in_interval(dp_for(0.0, 0.8), 5, 0.0, 1.0)
        with pytest.raises(DomainError, match="even"):
            validate_det_identity(0.5, 5, 0.0, 100, seed=0)

    def test_b1_identity_at_tau_one(self):
        # at b = 1 the count is twice the mean number of real eigenvalues of
        # an N x N draw, and every GOE eigenvalue is real: 2N exactly
        dp = dp_for(1.0, 1.0)
        for n in (2, 4, 100, 400):
            assert_allclose(mean_total_exact(dp, n).value, 2.0 * n, rtol=1e-13)

    @pytest.mark.parametrize("n", [2, 10, 100, 400])
    def test_b1_identity_at_tau_zero(self, n):
        """At b = 1 and tau = 0 the count is 2 E_N, with E_N the real Ginibre
        count of Edelman, Kostlan & Shub (J. AMS 7, 1994),
        1/2 + sqrt(2) 2F1(1, -1/2; N; 1/2) / B(N, 1/2).  An oracle outside
        both routes.  E_N = sqrt(2N/pi) + 1/2 + O(N^-1/2), so count/sqrt(N)
        exceeds the gamma = 0 crossover limit 4/sqrt(2 pi) by about
        1/sqrt(N): criterion 08's gamma = 0 gap (3.04% at N = 400) in
        closed form."""
        with mp.workdps(40):
            e_n = 0.5 + (mp.sqrt(2) * mp.hyp2f1(1, -0.5, n, 0.5)
                         / mp.beta(n, 0.5))
        assert_allclose(mean_total_exact(dp_for(0.0, 1.0), n).value,
                        2.0 * float(e_n), rtol=1e-13)

    @pytest.mark.parametrize("n", [400, 1600])
    @pytest.mark.parametrize("u", [0.0, 1.0, 3.0])
    def test_weak_nongradient_limit(self, u, n):
        # tau = 1 - u^2/N at b^2 = 0.8: the exact count approaches the weak
        # non-gradient asymptote like c/N, with N (1 - ratio) in 1.3-2.6
        dp = DerivedParams.from_values(0.8, 1.0, 1.0 - u * u / n, 0.0)
        ratio = mean_total_exact(dp, n).value / weak_nongradient(u, 0.8, n)
        assert abs(1.0 - ratio) <= 4.0 / n

    @pytest.mark.parametrize("n", [4, 100])
    def test_gradient_total_equals_full_interval(self, n):
        cov = covariance_pair(ModelParams(n=n, j1=1, j2=1, alpha1=1, alpha2=1))
        sigma_c = derived_params(cov, 0.0).sigma_c
        for sigma in (0.0, sigma_c, 2.0 * sigma_c):
            dp = derived_params(cov, sigma)
            t = mean_total_exact(dp, n)
            i = mean_in_interval(dp, n, -math.inf, math.inf)
            assert abs(t.log_value - i.log_value) < 1e-10

    def test_linear_field_value(self):
        # j2 = 0, sigma = 0, alpha1 = 0.3: count = 2 E#real of the coupling
        # matrix; frozen from a 2e5-draw Monte Carlo study (5.7358 +- 0.005)
        a1 = 0.3
        dphi1 = 1 + a1 * a1
        dp = DerivedParams.from_values(dphi1, dphi1, 2 * a1, 0.0)
        val = mean_total_exact(dp, 4).value
        assert abs(val - 5.7358) < 0.015

    def test_monotone_trivialization_in_sigma(self):
        cov = covariance_pair(ModelParams(n=4, j1=1, j2=1,
                                          alpha1=0.3, alpha2=0.2))
        sc = derived_params(cov, 0.0).sigma_c
        vals = [mean_total_exact(derived_params(cov, s), 8).value
                for s in np.linspace(0.0, 2.0 * sc, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [2, 100, 400])
    def test_sigma_sweep_bit_for_bit(self, n):
        # one lockstep quadrature over sigma (shared nodes below sigma_c,
        # b^2 = 1 at sigma_c, its own cap above) gives each sigma's bits
        dps = [DerivedParams.from_values(2.0, 3.0, 1.0, s)
               for s in (0.3, 0.7, 1.0, 1.6, 0.3)]
        assert dps[2].b2 == 1.0
        assert mean_totals_exact(dps, n) == [mean_total_exact(dp, n)
                                             for dp in dps]
        assert mean_totals_exact([], n) == []

    def test_interval_sweep_bit_for_bit(self):
        dp = dp_for(0.455, 1.3)
        edges = [-math.inf, -3.0, -0.5, 0.0, 0.0, 0.7, 40.0, math.inf]
        bins = list(zip(edges[:-1], edges[1:]))
        got = mean_in_intervals(dp, 100, bins)
        assert got == [mean_in_interval(dp, 100, a, b) for a, b in bins]
        assert got[3].value == 0.0 and got[3].log_value == -math.inf
        assert_allclose(sum(r.value for r in got),
                        mean_total_exact(dp, 100).value, rtol=1e-10)

    @pytest.mark.parametrize("tau", [-0.9, 0.0, 0.455, 1.0])
    def test_first_round_size_does_not_move_counts(self, tau, monkeypatch):
        # sigma_c = 1/4, where b^2 = 1 exactly; at tau = 1 (GOE) the density
        # oscillates
        dps = [DerivedParams.from_values(0.9375, 1.0, tau, s)
               for s in (0.0, 0.25, 0.5, 2500.0)]
        assert dps[1].b2 == 1.0
        intervals = [(-math.inf, 0.0), (-1.0, 1.0), (0.5, math.inf),
                     (-math.inf, math.inf)]

        def counts():
            return [([c.log_value for c in mean_totals_exact(dps, n)],
                     [c.log_value for dp in dps
                      for c in mean_in_intervals(dp, n, intervals)],
                     expected_counts_in_bins(
                         EllipticParams(n, tau),
                         np.linspace(-3.0, 3.0, 13) * math.sqrt(n)))
                    for n in (4, 100, 400)]

        at16 = counts()
        monkeypatch.setattr(quadrature, "_FIRST_PANELS", 96)
        for (tot16, int16, bins16), (tot96, int96, bins96) in zip(at16, counts()):
            assert_allclose(tot96, tot16, rtol=0, atol=1e-12)
            assert_allclose(int96, int16, rtol=0, atol=1e-12)
            assert_allclose(bins96, bins16, rtol=1e-10)

    def test_sweep_needs_one_tau(self):
        with pytest.raises(ParameterError, match="one tau"):
            mean_totals_exact([dp_for(0.3, 0.8), dp_for(0.5, 0.8)], 4)
        with pytest.raises(ParameterError):
            mean_in_intervals(dp_for(0.0, 0.8), 4, [(0.0, 1.0), (1.0, 0.0)])

    def test_log_value_finite_up_to_n500(self):
        pred = mean_total_exact(dp_for(0.0, 0.5), 500)
        assert np.isfinite(pred.log_value)
        assert_allclose(pred.value, math.exp(pred.log_value), rtol=1e-15)
        deep = mean_total_exact(dp_for(0.0, 0.04), 500)
        assert np.isfinite(deep.log_value)
        assert deep.value == math.inf  # e^{N ln(1/b)} overflows, log does not
        small = mean_total_exact(dp_for(0.0, 1.5), 500)
        assert np.isfinite(small.log_value)
        assert_allclose(small.value, math.exp(small.log_value), rtol=1e-15)


class TestDetIdentity:
    def test_ratio_one_small(self):
        rep = validate_det_identity(0.0, 4, 0.0, 30_000, seed=3)
        assert abs(rep.ratio - 1.0) < 3 * rep.stderr
        rep = validate_det_identity(0.5, 4, 1.0, 30_000, seed=4)
        assert abs(rep.ratio - 1.0) < 3 * rep.stderr

    def test_ratio_one_at_tau_one(self):
        # Fyodorov's GOE identity, at the centre, in the bulk and at the edge
        for n in (4, 8):
            for lam in (0.0, 0.7, 1.5):
                rep = validate_det_identity(1.0, n, lam, 50_000, seed=6)
                assert abs(rep.z) < 3.0

    @pytest.mark.parametrize("lam", [1e8, 1e12, -1e12])
    def test_large_lambda_gives_a_finite_ratio(self, lam):
        # far outside the bulk |det(X - lam sqrt N)| ~ |lam sqrt N|^(N-1) for
        # every draw, so the ratio tends to 1 while the Gaussian factors of
        # the reference value, exp(+-N lam^2/(2(1+tau))), must cancel exactly
        rep = validate_det_identity(0.999999, 2, lam, 100, seed=0)
        assert math.isfinite(rep.rhs_log) and math.isfinite(rep.z)
        assert abs(rep.ratio - 1.0) < 1e-6

    @pytest.mark.parametrize("lam", [1e150, 1e300, -1e300])
    def test_spreadless_lambda_rejected(self, lam):
        # every draw gives the same |det| to rounding: no standard error, so
        # no z
        with pytest.raises(DomainError, match="no spread"):
            validate_det_identity(0.999999, 2, lam, 100, seed=0)

    def test_single_trial_rejected(self):
        with pytest.raises(ParameterError, match="trials"):
            validate_det_identity(0.5, 4, 0.0, 1, seed=0)

    def test_overflowing_lambda_rejected(self):
        with pytest.raises(ParameterError, match="finite"):
            validate_det_identity(0.5, 4, 1.7e308, 100, seed=0)


class TestFixedAsymptote:
    def test_trivial_phase_saddle_data(self):
        dp = dp_for(0.5, 2.25)  # b = 1.5
        asym = asympt_fixed(dp)
        assert asym.regime == "trivial"
        assert_allclose(asym.lambda_star, 1.5 + 0.5 / 1.5, rtol=1e-14)
        assert asym.lambda_star > 1.5
        assert_allclose(asym.l_at_star, math.log(1.5), rtol=1e-14)
        want = -2 * 2.25 / ((2.25 + 0.5) * (2.25 - 0.5))
        assert_allclose(asym.l_second, want, rtol=1e-14)

    def test_abundant_phase_prefactor(self):
        dp = dp_for(0.0, 0.25)  # b = 0.5
        asym = asympt_fixed(dp)
        assert asym.regime == "abundant"
        assert_allclose(asym.log_rate, math.log(2.0), rtol=1e-14)
        assert_allclose(asym.prefactor, 2 * 0.5 / math.sqrt(0.75), rtol=1e-14)

    def test_transition_line_rejected(self):
        with pytest.raises(DomainError, match="crossover"):
            asympt_fixed(dp_for(0.3, 1.0))


def crossover_gamma_closed_form(tau, gamma):
    pref = 4 * math.sqrt(1 / (2 * math.pi)) * math.sqrt((1 + tau) / (1 - tau))
    if gamma == 0.0:
        return pref
    if gamma > 0:
        seg = math.sqrt(math.pi / (2 * gamma)) * math.erf(math.sqrt(gamma / 2))
    else:
        g = -gamma
        seg = math.sqrt(math.pi / (2 * g)) * scipy.special.erfi(math.sqrt(g / 2))
    return pref * math.exp(gamma / 2) * seg


class TestCrossovers:
    def test_gamma_zero_constant(self):
        assert_allclose(crossover_gamma(0.0, 0.0), 4 / math.sqrt(2 * math.pi),
                        rtol=1e-10)

    @pytest.mark.parametrize("tau,gamma", [(0.0, 3.0), (0.5, -4.0),
                                           (-0.3, 10.0), (0.2, -25.0)])
    def test_gamma_closed_form_oracle(self, tau, gamma):
        assert_allclose(crossover_gamma(tau, gamma),
                        crossover_gamma_closed_form(tau, gamma), rtol=1e-9)

    def test_gamma_negative_tail(self):
        # value * |gamma| tends to 4 sqrt(1/2pi) sqrt((1+tau)/(1-tau))
        tau = 0.4
        lim = 4 * math.sqrt(1 / (2 * math.pi)) * math.sqrt((1 + tau) / (1 - tau))
        got = crossover_gamma(tau, -80.0) * 80.0
        assert_allclose(got, lim, rtol=0.03)

    def test_gamma_large_positive_matches_fixed_b(self):
        # substituting b^2 = 1 - gamma/N into the abundant-phase formula
        # reproduces the crossover for large gamma
        tau, gamma, n = 0.3, 50.0, 10 ** 7
        b2 = 1.0 - gamma / n
        asym = asympt_fixed(dp_for(tau, b2))
        fixed = asym.prefactor * math.exp(n * asym.log_rate) / math.sqrt(n)
        assert_allclose(crossover_gamma(tau, gamma), fixed, rtol=2e-3)

    def test_kappa_large_tends_to_two(self):
        assert_allclose(crossover_kappa(0.0, 25.0), 2.0, rtol=1e-6)

    def test_kappa_small_matches_gamma_tail(self):
        # kappa -> 0 with |gamma| = kappa sqrt(N): value * kappa -> constant
        tau = 0.0
        lim = 4 * math.sqrt(1 / (2 * math.pi))
        got = crossover_kappa(tau, 1e-3) * 1e-3
        assert_allclose(got, lim, rtol=0.01)

    def test_kappa_quadrature_oracle(self):
        from sphere_equilibria.elliptic import rho_real_edge
        tau, kappa = 0.3, 1.0
        kt = kappa * math.sqrt((1 - tau) / (1 + tau))
        want = 4 * scipy.integrate.quad(
            lambda z: math.exp(kt * z - kt * kt / 4) * rho_real_edge(z),
            -60, 20, limit=400)[0]
        assert_allclose(crossover_kappa(tau, kappa), want, rtol=1e-8)

    def test_kappa_domain(self):
        with pytest.raises(DomainError):
            crossover_kappa(0.0, 0.0)
        with pytest.raises(DomainError):
            crossover_kappa(1.0, 1.0)


def weak_nongradient_big_b_form(u, b2, n):
    """The weak non-gradient count written in B = (1 - b^2)/(1 + b^2)."""
    big_b = (1 - b2) / (1 + b2)
    seg = 1.0 if u == 0 else math.sqrt(math.pi) / (2 * u) * math.erf(u)
    return (4 * math.exp(0.5 * n * math.log((1 + big_b) / (1 - big_b)))
            * math.sqrt(n * (1 - big_b) / (math.pi * big_b)) * seg)


class TestWeakNongradient:
    def test_gradient_limit_equals_big_b_form(self):
        # u = 0: both equivalent forms reduce to the pure-gradient expression
        assert_allclose(weak_nongradient(0.0, 0.5, 40),
                        weak_nongradient_big_b_form(0.0, 0.5, 40), rtol=1e-12)

    def test_forms_agree_at_u2(self):
        assert_allclose(weak_nongradient(2.0, 0.5, 40),
                        weak_nongradient_big_b_form(2.0, 0.5, 40), rtol=1e-12)

    def test_forms_agree_on_grid(self):
        for u in (0.0, 0.3, 5.0):
            for b2 in (0.1, 0.5, 0.9):
                for n in (2, 20, 200):
                    assert_allclose(weak_nongradient(u, b2, n),
                                    weak_nongradient_big_b_form(u, b2, n),
                                    rtol=1e-12)

    def test_large_u_scaling(self):
        # integral -> sqrt(pi)/(2u): value scales as 1/u
        a = weak_nongradient(50.0, 0.8, 20)
        b = weak_nongradient(100.0, 0.8, 20)
        assert_allclose(a / b, 2.0, rtol=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            weak_nongradient(1.0, 1.2, 20)
        for u in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                weak_nongradient(u, 0.5, 20)

    def test_overflows_to_inf(self):
        # 4 b^-N ... at b^2 = 1/2, N = 3000 exceeds the float range
        assert weak_nongradient(0.0, 0.5, 3000) == math.inf


class TestRegimeRouting:
    def test_transition_line_routes_to_gamma_crossover(self):
        dp = dp_for(0.0, 1.0)
        pred = predict_asymptotic(dp, 100)
        assert pred.regime == "gamma-crossover"
        assert_allclose(pred.value, 10.0 * 4 / math.sqrt(2 * math.pi),
                        rtol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 100])
    def test_gradient_transition_line_is_2n(self, n):
        # the crossover limit diverges at tau = 1, but the count is 2N exactly
        pred = predict_asymptotic(dp_for(1.0, 1.0), n)
        assert pred.regime == "gamma-crossover"
        assert pred.value == 2.0 * n and pred.log_value == math.log(2.0 * n)

    def test_gradient_routes_to_weak_nongradient(self):
        cov = covariance_pair(ModelParams(n=4, j1=1, j2=1, alpha1=1, alpha2=1))
        dp = derived_params(cov, 0.0)
        pred = predict_asymptotic(dp, 20)
        assert pred.regime == "weak-nongradient"
        assert_allclose(pred.value, weak_nongradient(0.0, dp.b2, 20), rtol=1e-14)

    @staticmethod
    def admissible_grid():
        """Every DerivedParams that from_values accepts on a grid of band
        edges and the slack past them, b^2 = 1 (sigma = sigma_c), tau = 1
        and sigma up to 1e100."""
        for dphi1 in (1.0, 1.0 + 1e-12, 2.0, 5.0, 1e4 + 1.0):
            sigma_c = math.sqrt(dphi1 - 1.0)
            for phi2 in (-1.0 - 0.5e-12 * dphi1, -1.0, -1.0 + 1e-9, 0.0,
                         0.5 * dphi1, dphi1 * (1.0 - 1e-9), dphi1,
                         dphi1 * (1.0 + 0.5e-12)):
                for sigma in (0.0, 1e-3, sigma_c, 1.0, 1e50, 1e100):
                    try:
                        yield DerivedParams.from_values(1.0, dphi1, phi2,
                                                        sigma)
                    except (ParameterError, DomainError):
                        continue

    def test_every_admissible_model_has_an_asymptote(self):
        # the start budget falls back on this route at odd N with no further
        # fallback, so at its sizes it must return for every admissible model
        for dp in self.admissible_grid():
            for n in (2, 3, 5, 7, 11):
                pred = predict_asymptotic(dp, n)
                assert math.isfinite(pred.log_value) and pred.value > 0

    def test_every_regime_has_a_finite_log_at_large_n(self):
        # a count past the float range reads inf, with a finite log; the
        # gradient models (tau = 1, b^2 < 1) overflow from N ln(1/b^2)/2 > 709
        regimes = set()
        for dp in self.admissible_grid():
            for n in (3100, 10**4, 10**6):
                pred = predict_asymptotic(dp, n)
                assert math.isfinite(pred.log_value) and pred.value > 0
                regimes.add(pred.regime)
        assert regimes == {"gamma-crossover", "weak-nongradient",
                           "fixed-asymptotic"}

    def test_phases(self):
        assert predict_asymptotic(dp_for(0.2, 1.8), 50).value == 2.0
        pred = predict_asymptotic(dp_for(0.2, 0.5), 50)
        assert pred.regime == "fixed-asymptotic" and pred.value > 100
