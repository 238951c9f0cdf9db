"""Elliptic ensemble sampling and real-eigenvalue density checks.

The exact density engine is validated against three independent routes:
hand-derived closed forms at N = 2, a naive factorial/quad implementation at
small N, and high-precision mpmath evaluation at N in the hundreds.
"""

import csv
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

from sphere_equilibria import cli
from sphere_equilibria.elliptic import (EllipticParams, _erf, _erfc,
                                        _psi_hat_scan, elliptic_batches,
                                        expected_counts_in_bins,
                                        expected_real_count,
                                        log_rho_real_exact, mean_real_count,
                                        real_eigenvalue_histogram,
                                        real_eigenvalue_values,
                                        real_eigenvalues, rho_real_bulk,
                                        rho_real_edge, rho_real_exact,
                                        rho_real_outside,
                                        rho_real_weak_nongradient,
                                        sample_elliptic_batch,
                                        support_lambda_max)
from sphere_equilibria.errors import DomainError, ParameterError


def hermite_tau(k, tau, x):
    """Rescaled Hermite polynomial h_k by the three-term recurrence.

    ``h_{k+1} = x h_k - tau k h_{k-1}`` with h_0 = 1, h_1 = x.  For tau = 1
    these are the probabilists' Hermite polynomials, for tau = 0 plain powers
    x**k.  Unnormalized, so it overflows for large k |x|: a reference for the
    package's scaled scan, not a replacement.
    """
    x = np.asarray(x, dtype=float)
    h_prev = np.zeros_like(x)
    h_cur = np.ones_like(x)
    for j in range(k):
        h_prev, h_cur = h_cur, x * h_cur - tau * j * h_prev
    return h_cur if h_cur.ndim else float(h_cur)


def psi_hat_scan_reference(n, tau, xs, weighted=True):
    """`_psi_hat_scan` written with a fresh array per operation: the same
    operations on the same operands in the same order as the in-place scan,
    so the two must agree bit for bit."""
    c = 1.0 + tau
    with np.errstate(over="ignore"):
        gauss_log = -xs * xs / (2.0 * c)
    kept_log = gauss_log if weighted else np.zeros_like(xs)
    a_prev, a_cur = np.zeros_like(xs), np.ones_like(xs)
    scale_log, part = np.zeros_like(xs), np.zeros_like(xs)
    log_done = np.full_like(xs, -np.inf)
    anti = math.sqrt(0.5 * math.pi * c) * _erf(xs / math.sqrt(2.0 * c))
    for k in range(n - 1):
        part += a_cur * a_cur
        if k % 2:
            psi_k = a_cur * np.exp(scale_log + gauss_log)
            anti = math.sqrt(k / (k + 1.0)) * anti - c / math.sqrt(k + 1.0) * psi_k
        a_prev, a_cur = a_cur, ((xs * a_cur - tau * math.sqrt(k) * a_prev)
                                / math.sqrt(k + 1.0))
        m = np.maximum(np.abs(a_prev), np.abs(a_cur))
        i = np.flatnonzero((m > 1e100) | ((m > 0.0) & (m < 1e-100)))
        if i.size:
            fac = m[i]
            with np.errstate(divide="ignore"):
                log_done[i] = np.logaddexp(
                    log_done[i], np.log(part[i]) + (2.0 * scale_log[i]
                                                     + (gauss_log[i] + kept_log[i])))
            part[i] = 0.0
            a_prev[i] /= fac
            a_cur[i] /= fac
            scale_log[i] += np.log(fac)
    with np.errstate(divide="ignore"):
        rho1_log = np.logaddexp(
            log_done, np.log(part) + (2.0 * scale_log + (gauss_log + kept_log)))
        log_top = np.log(np.abs(a_cur)) + scale_log + kept_log
    return rho1_log, np.sign(a_cur), log_top, anti


def one_draw(p, seed):
    return sample_elliptic_batch(p, 1, seed)[0]


def exact_profile(tmp_path, n, tau):
    """(lambda grid, density, methods) of a spectra-validate run's
    profile_exact.csv."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "spectra-validate", "n": n,
                                "tau": tau, "trials": 200, "bins": 5}))
    cli.run(cli.parse_config(str(path)), out_dir=str(tmp_path / "out"))
    with open(tmp_path / "out" / "profile_exact.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "rho", "method"]
    return (np.array([float(r[0]) for r in rows[1:]]),
            np.array([float(r[1]) for r in rows[1:]]),
            {r[2] for r in rows[1:]})


def rho_n2_closed_form(tau, x):
    """Hand-derived N = 2 density: Gaussian series term plus boundary term."""
    c = 1.0 + tau
    rho1 = np.exp(-x * x / c) / math.sqrt(2 * math.pi)
    rho2 = (x * np.exp(-x * x / (2 * c)) * math.sqrt(math.pi * c / 2)
            * scipy.special.erf(x / math.sqrt(2 * c))
            / (math.sqrt(2 * math.pi) * c))
    return rho1 + rho2


def rho_naive(n, tau, x):
    """Small-N reference: unnormalized recurrences plus scipy quadrature."""
    def psi(k, u):
        return math.exp(-u * u / (2 * (1 + tau))) * hermite_tau(k, tau, u)

    rho1 = sum(psi(k, x) ** 2 / math.factorial(k) for k in range(n - 1))
    rho1 /= math.sqrt(2 * math.pi)
    integral = scipy.integrate.quad(lambda u: psi(n - 2, u), 0, x, limit=400)[0]
    rho2 = (psi(n - 1, x) * integral
            / (math.sqrt(2 * math.pi) * (1 + tau) * math.factorial(n - 2)))
    return rho1 + rho2


def rho_mp(n, tau, x, integral=None):
    """rho(x) as an mpf at the caller's working precision.

    `integral` is the boundary term's int_0^x psi_{n-2}; it is computed by
    quadrature unless given.
    """
    c = mp.mpf(1) + tau
    xm = mp.mpf(x)

    def psi(k, y):
        hm, hk = mp.mpf(0), mp.mpf(1)
        for j in range(k):
            hm, hk = hk, y * hk - tau * j * hm
        return mp.e ** (-y * y / (2 * c)) * hk

    # h_0 .. h_{n-1} at x in one pass of the recurrence
    hs = [mp.mpf(1), xm]
    for j in range(1, n - 1):
        hs.append(xm * hs[j] - tau * j * hs[j - 1])
    gauss = mp.e ** (-xm * xm / (2 * c))
    rho1 = mp.fsum((gauss * hs[k]) ** 2 / mp.factorial(k) for k in range(n - 1))
    rho1 /= mp.sqrt(2 * mp.pi)
    if integral is None:
        integral = mp.quad(lambda u: psi(n - 2, u), [0, xm / 2, xm])
    rho2 = (gauss * hs[n - 1] * integral
            / (mp.sqrt(2 * mp.pi) * c * mp.factorial(n - 2)))
    return rho1 + rho2


def rho_mpmath(n, tau, x, dps=40):
    """High-precision reference for moderate N."""
    with mp.workdps(dps):
        return float(rho_mp(n, tau, x))


def antiderivative_mpmath(n, tau, xs, dps=30, width=4.0):
    """High-precision int_0^x psi_hat_{n-2}, integrated panel by panel.

    One cumulative pass over the sorted |x|; the integral is odd in x.
    """
    k = n - 2
    with mp.workdps(dps):
        c = mp.mpf(1) + tau
        log_norm = mp.log(mp.factorial(k)) / 2

        def psi_hat(y):
            hm, hk = mp.mpf(0), mp.mpf(1)
            for j in range(k):
                hm, hk = hk, y * hk - tau * j * hm
            return hk * mp.e ** (-y * y / (2 * c) - log_norm)

        cum, acc, lo = {0.0: mp.mpf(0)}, mp.mpf(0), 0.0
        for hi in sorted({abs(float(x)) for x in xs}):
            if hi > lo:
                panels = max(int(math.ceil((hi - lo) / width)), 1)
                acc += mp.quad(psi_hat, mp.linspace(lo, hi, panels + 1),
                               method="gauss-legendre")
            cum[hi], lo = acc, hi
        return np.array([float(cum[abs(float(x))]) * (1.0 if x >= 0 else -1.0)
                         for x in xs])


class TestSampling:
    def test_tau_one_is_symmetric(self):
        for seed in range(3):
            x = one_draw(EllipticParams(5, 1.0), seed)
            assert_allclose(x, x.T, rtol=0, atol=0)

    def test_deterministic(self):
        p = EllipticParams(4, 0.3)
        assert_allclose(one_draw(p, 9), one_draw(p, 9))

    @pytest.mark.parametrize("tau,want_cross", [(0.0, 0.0), (0.5, 0.5)])
    def test_entry_covariances(self, tau, want_cross):
        mats = sample_elliptic_batch(EllipticParams(4, tau), 100_000, 11)
        x12, x21, x11 = mats[:, 0, 1], mats[:, 1, 0], mats[:, 0, 0]
        m = len(mats)
        se2 = math.sqrt(2.0 / (m - 1))
        assert abs(x12.var(ddof=1) - 1.0) < 3 * se2
        assert abs(x11.var(ddof=1) - (1.0 + tau)) < 3 * se2 * (1 + tau)
        cross = (x12 * x21).mean()
        se = (x12 * x21).std(ddof=1) / math.sqrt(m)
        assert abs(cross - want_cross) < 3 * se

    def test_batches_are_drawn_in_pieces(self):
        # each batch of `chunk` draws (the last one shorter) is drawn in
        # pieces of at most 2^15 entries, one matrix at least; the pieces
        # of a batch are its one draw from its stream, bit for bit
        for p, trials, chunk in ((EllipticParams(8, 0.3), 3000, 1200),
                                 (EllipticParams(200, -0.4), 5, 2)):
            pieces = list(elliptic_batches(p, trials, 7, chunk))
            assert max(map(len, pieces)) == max(1, 2 ** 15 // p.n ** 2)
            batches = [sample_elliptic_batch(p, min(chunk, trials - start), 7, k)
                       for k, start in enumerate(range(0, trials, chunk))]
            assert np.array_equal(np.concatenate(pieces),
                                  np.concatenate(batches))

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            EllipticParams(4, -1.0)
        with pytest.raises(ParameterError):
            EllipticParams(0, 0.5)


class TestRealEigenvalues:
    def test_diagonal(self):
        assert_allclose(real_eigenvalues(np.diag([2.0, 1.0])), [1.0, 2.0])

    def test_symmetric_all_real(self):
        x = one_draw(EllipticParams(6, 1.0), 4)
        assert len(real_eigenvalues(x)) == 6

    def test_antisymmetric_none(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 6))
        assert len(real_eigenvalues(g - g.T)) == 0

    def test_schur_and_batch_paths_agree(self):
        mats = sample_elliptic_batch(EllipticParams(7, 0.4), 200, 3)
        counts, _ = real_eigenvalue_values(mats)
        for i in range(len(mats)):
            assert counts[i] == len(real_eigenvalues(mats[i]))

    def test_values_match_counts(self):
        mats = sample_elliptic_batch(EllipticParams(5, 0.0), 100, 8)
        counts, vals = real_eigenvalue_values(mats)
        assert counts.sum() == len(vals)


class TestHermite:
    def test_base_cases(self):
        assert hermite_tau(0, 0.7, 3.1) == 1.0
        assert hermite_tau(1, 0.7, 3.1) == 3.1

    def test_quadratic(self):
        # h_2 = x^2 - tau
        assert_allclose(hermite_tau(2, 0.5, 1.0), 0.5, rtol=1e-15)

    def test_tau_zero_powers(self):
        assert_allclose(hermite_tau(3, 0.0, 2.0), 8.0, rtol=0)

    @pytest.mark.parametrize("tau", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_integral_representation(self, tau):
        # h_k(x) = (1/sqrt(pi)) int e^{-t^2} (x + i t sqrt(2 tau))^k dt,
        # exact under Gauss-Hermite quadrature of sufficient order
        nodes, weights = scipy.special.roots_hermite(40)
        root = complex(2.0 * tau) ** 0.5
        xs = np.linspace(-10, 10, 11)
        for k in (0, 1, 2, 5, 13, 30):
            want = np.array([
                (weights * ((x + 1j * root * nodes) ** k).real).sum() / math.sqrt(math.pi)
                for x in xs])
            got = hermite_tau(k, tau, xs)
            assert_allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max())


class TestExactDensity:
    def test_n2_tau0_at_origin(self):
        # only the k = 0 series term survives at x = 0
        val = rho_real_exact(EllipticParams(2, 0.0), 0.0)
        assert_allclose(val, 1.0 / math.sqrt(2 * math.pi), rtol=1e-14)

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.5, 0.9])
    def test_n2_closed_form(self, tau):
        p = EllipticParams(2, tau)
        xs = np.linspace(-4, 4, 21)
        assert_allclose(rho_real_exact(p, xs), rho_n2_closed_form(tau, xs),
                        rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("n,tau", [(4, 0.5), (4, -0.5), (8, 0.3), (6, -0.7),
                                       (8, 1.0)])
    def test_small_n_naive_reference(self, n, tau):
        p = EllipticParams(n, tau)
        for x in [0.0, 0.7, -1.3, 2.0, 3.5]:
            assert_allclose(rho_real_exact(p, x), rho_naive(n, tau, x),
                            rtol=1e-8)

    @pytest.mark.parametrize("n,tau,x", [
        (100, 0.5, 3.0), (100, 0.5, 12.0), (100, -0.5, 4.0),
        (200, 0.0, 10.0), (200, 0.0, 40.0), (100, 1.0, 5.0), (100, 1.0, 25.0),
    ])
    def test_high_precision_reference(self, n, tau, x):
        # |x| up to ~3 sqrt(N), relative accuracy 1e-8
        got = rho_real_exact(EllipticParams(n, tau), x)
        want = rho_mpmath(n, tau, x)
        assert_allclose(got, want, rtol=1e-8)

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.455, 0.9])
    @pytest.mark.parametrize("n", [100, 400])
    def test_antiderivative_recurrence_mpmath(self, n, tau):
        # origin, bulk, beyond the edge (1+tau) sqrt(N), and negative x
        edge = (1.0 + tau) * math.sqrt(n)
        xs = np.array([0.0, 0.37 * edge, -0.81 * edge, 1.2 * edge, -1.2 * edge])
        got = _psi_hat_scan(n, tau, xs)[3]
        want = antiderivative_mpmath(n, tau, xs)
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert got[0] == 0.0 and got[3] == -got[4]

    def test_symmetry(self):
        p = EllipticParams(8, 0.4)
        xs = np.linspace(0.1, 7.9, 9)
        assert_allclose(rho_real_exact(p, xs), rho_real_exact(p, -xs),
                        rtol=1e-11)

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.5])
    def test_n2_normalization(self, tau):
        # integral of the N = 2 density = sqrt(2 (1 + tau))
        val = expected_real_count(EllipticParams(2, tau))
        assert_allclose(val, math.sqrt(2 * (1 + tau)), rtol=1e-9)

    def test_n4_tau0_normalization(self):
        # known expected number of real eigenvalues: sqrt(2) * 11/8
        val = expected_real_count(EllipticParams(4, 0.0))
        assert_allclose(val, math.sqrt(2) * 11 / 8, rtol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8, 20, 100, 400])
    def test_gradient_normalization(self, n):
        # tau = 1 is the GOE, all of whose N eigenvalues are real
        assert_allclose(expected_real_count(EllipticParams(n, 1.0)), n,
                        rtol=1e-13)

    def test_domain_gates(self):
        with pytest.raises(DomainError, match="even"):
            rho_real_exact(EllipticParams(3, 0.0), 0.0)
        with pytest.raises(DomainError, match="even"):
            rho_real_exact(EllipticParams(3, 1.0), 0.0)

    def test_log_form_far_outside(self):
        # representable in log space far beyond the spectral edge
        p = EllipticParams(80, 0.2)
        lv = log_rho_real_exact(p, 3.0 * math.sqrt(80))
        assert np.isfinite(lv)
        assert lv < -100

    def test_log_form_at_huge_x_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lv = log_rho_real_exact(EllipticParams(8, 0.3), 1e6)
        assert np.isfinite(lv)

    @pytest.mark.parametrize("n, tau", [(2, 0.999999), (8, -0.5), (20, 0.3)])
    def test_unweighted_form(self, n, tau):
        # log rho + x^2/(2(1+tau)), formed without the Gaussian factor: it
        # agrees with the weighted form where that is accurate, and stays
        # finite where x^2 overflows
        p = EllipticParams(n, tau)
        xs = np.array([0.0, 0.7, -2.5, 6.0])
        assert_allclose(log_rho_real_exact(p, xs, weighted=False),
                        log_rho_real_exact(p, xs) + xs * xs / (2 * (1 + tau)),
                        rtol=1e-13, atol=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = log_rho_real_exact(p, np.array([1e200, -1e300]),
                                     weighted=False)
        # psi_hat_{N-1} keeps only its polynomial, ~ x^(N-1) / sqrt((N-1)!)
        assert np.all(np.isfinite(big))
        assert_allclose(big[1] - big[0], (n - 1) * math.log(1e100), rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_non_finite_x_rejected(self, bad, shape):
        # a NaN must not read as a zero density
        x = bad if shape == "scalar" else np.array([0.5, bad])
        p = EllipticParams(8, 0.3)
        with pytest.raises(ParameterError, match="finite"):
            log_rho_real_exact(p, x)
        with pytest.raises(ParameterError, match="finite"):
            rho_real_exact(p, x)

    @pytest.mark.parametrize("n,tau", [(2, 0.3), (8, -0.5), (100, 0.455),
                                       (400, 0.9)])
    def test_in_place_scan_matches_reference(self, n, tau):
        xs = np.concatenate([np.linspace(-4.0, 4.0, 301) * math.sqrt(n),
                             [0.0, 1e-120, 20.0 * math.sqrt(n), -1e6, 1e150]])
        for weighted in (True, False):
            got = _psi_hat_scan(n, tau, xs, weighted)
            want = psi_hat_scan_reference(n, tau, xs, weighted)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("tau", [-0.5, 0.0, 0.455, 0.9])
    @pytest.mark.parametrize("n", [2, 8, 100, 400])
    def test_pointwise_bit_for_bit(self, n, tau):
        # the lockstep quadratures evaluate many integrals' nodes in one call
        # and in chunks: a point's value must not depend on the other points,
        # also where the scan rescales (far tails) or the chunks split
        p = EllipticParams(n, tau)
        sqrt_n = math.sqrt(n)
        bulk = np.linspace(-3.0, 3.0, 7001) * sqrt_n
        tails = np.array([20.0, -45.0, 1e3, -1e6, 1e150]) * sqrt_n
        # |psi_hat_{N-1}| / weight above 1e100 means the scan rescaled
        assert _psi_hat_scan(n, tau, tails, False)[2].max() > math.log(1e100)
        for weighted in (True, False):
            parts = [log_rho_real_exact(p, pts, weighted=weighted)
                     for pts in (bulk, tails, bulk[::-3])]
            joined = log_rho_real_exact(
                p, np.concatenate([bulk, tails, bulk[::-3]]), weighted=weighted)
            assert np.array_equal(joined, np.concatenate(parts))
            # one point at a time gives the same bits as in a batch
            single = [log_rho_real_exact(p, x, weighted=weighted)
                      for x in tails]
            assert np.array_equal(parts[1], np.array(single))


class TestAsymptoticProfiles:
    def test_bulk_values(self):
        assert_allclose(rho_real_bulk(0.0), 1.0 / math.sqrt(2 * math.pi),
                        rtol=1e-12)
        assert_allclose(rho_real_bulk(0.6), 0.4986778, rtol=1e-6)
        assert rho_real_bulk(0.3) == rho_real_bulk(-0.3)
        with pytest.raises(DomainError):
            rho_real_bulk(1.0)

    def test_outside_rate_vanishes_at_edge(self):
        for tau in (-0.5, 0.0, 0.5):
            rate, _ = rho_real_outside(tau, (1.0 + tau) * (1 + 1e-13))
            assert abs(rate) < 1e-11

    def test_outside_saddle_identity(self):
        # lam = b + tau/b maps to (lam + sqrt(lam^2 - 4 tau))/2 = b
        b, tau = 1.5, 0.5
        lam = b + tau / b
        s = math.sqrt(lam * lam - 4 * tau)
        assert_allclose((lam + s) / 2, b, rtol=1e-14)
        assert lam > 1 + tau

    def test_outside_positive_rate(self):
        rate, pref = rho_real_outside(0.5, 2.0)
        assert rate > 0 and pref > 0

    def test_outside_inside_bulk_rejected(self):
        with pytest.raises(DomainError):
            rho_real_outside(0.5, 1.0)

    def test_outside_matches_exact_decay(self):
        # rho(lam sqrt N) ~ sqrt(N) q exp(-N rate) to leading order
        n, tau, lam = 400, 0.3, 1.9
        rate, pref = rho_real_outside(tau, lam, n=n)
        got = float(log_rho_real_exact(EllipticParams(n, tau), lam * math.sqrt(n)))
        want = math.log(pref) - n * rate
        assert abs(got - want) < 0.05 * abs(want)

    def test_edge_profile_values(self):
        assert_allclose(rho_real_edge(-30.0), 1.0 / math.sqrt(2 * math.pi),
                        rtol=1e-12)
        want0 = (1 + 1 / math.sqrt(2)) / (2 * math.sqrt(2 * math.pi))
        assert_allclose(rho_real_edge(0.0), want0, rtol=1e-12)
        assert_allclose(want0, 0.34052, rtol=1e-4)

    def test_edge_profile_edge_inputs(self):
        assert type(rho_real_edge(0.5)) is float
        assert rho_real_edge(np.array([])).shape == (0,)
        got = rho_real_edge(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(got[0])
        assert got[1] == 0.0
        assert_allclose(got[2], 1.0 / math.sqrt(2 * math.pi), rtol=1e-15)

    def test_edge_gaussian_tail(self):
        z = 3.0
        assert_allclose(rho_real_edge(z),
                        math.exp(-z * z) / (2 * math.sqrt(math.pi)), rtol=0.05)

    def test_weak_nongradient_semicircle_limit(self):
        # u = 0 reduces to the GOE semicircle sqrt(N) sqrt(1 - lam^2/4)/pi
        n = 64
        assert_allclose(rho_real_weak_nongradient(0.0, 0.0, n),
                        math.sqrt(n) / math.pi, rtol=1e-14)
        lam = 1.2
        assert_allclose(rho_real_weak_nongradient(0.0, lam, n),
                        math.sqrt(n) * math.sqrt(1 - lam * lam / 4) / math.pi,
                        rtol=1e-14)

    def test_weak_nongradient_vanishes_at_support_edge(self):
        assert rho_real_weak_nongradient(1.0, 2.0 - 1e-12, 64) < 1e-5

    def test_weak_nongradient_quadrature_oracle(self):
        n, u, lam = 100, 1.7, 0.8
        upper = math.sqrt(1 - lam * lam / 4)
        want = (math.sqrt(n) / math.pi
                * scipy.integrate.quad(lambda t: math.exp(-u * u * t * t),
                                       0, upper)[0])
        assert_allclose(rho_real_weak_nongradient(u, lam, n), want, rtol=1e-10)

    def test_weak_nongradient_domain(self):
        with pytest.raises(DomainError):
            rho_real_weak_nongradient(1.0, 2.0, 64)
        with pytest.raises(DomainError):
            rho_real_weak_nongradient(-0.1, 0.0, 64)


class TestErf:
    """The elementwise erf/erfc that the density scan and the edge law use."""

    def test_accuracy_against_mpmath(self):
        # up to x = 26, where erfc is ~1e-296 and still a normal double
        xs = np.linspace(-6.0, 26.0, 3201)
        with mp.workdps(40):
            want_erf = np.array([float(mp.erf(x)) for x in xs])
            want_erfc = np.array([float(mp.erfc(x)) for x in xs])
        assert np.all(np.abs(_erf(xs) - want_erf) <= 1e-15 * np.abs(want_erf))
        assert np.all(np.abs(_erfc(xs) - want_erfc)
                      <= 1e-15 * np.abs(want_erfc))

    def test_edge_inputs(self):
        for f in (_erf, _erfc):
            assert f(np.array([])).shape == (0,)
            assert f(np.array([])).dtype == float
            assert f(np.asarray(0.5)).shape == ()
        assert _erf(0.5) == math.erf(0.5)
        assert np.isnan(_erf(np.nan)) and np.isnan(_erfc(np.nan))
        assert list(_erf(np.array([np.inf, -np.inf]))) == [1.0, -1.0]
        assert list(_erfc(np.array([np.inf, -np.inf]))) == [0.0, 2.0]


class TestMonteCarloCounting:
    def test_tau_one_count_is_exact(self):
        mean, stderr = mean_real_count(EllipticParams(6, 1.0), 500, 1)
        assert mean == 6.0 and stderr == 0.0

    def test_n2_tau0_matches_sqrt2(self):
        mean, stderr = mean_real_count(EllipticParams(2, 0.0), 100_000, 2)
        assert abs(mean - math.sqrt(2)) < 3 * stderr

    def test_matches_density_integral(self):
        p = EllipticParams(4, 0.5)
        mean, stderr = mean_real_count(p, 100_000, 3)
        assert abs(mean - expected_real_count(p)) < 3 * stderr

    def test_schedule_and_exact_statistic(self):
        # 5000 trials span one batch boundary: 4096 draws from stream 0 of
        # the seed, then 904 from stream 1; the statistic is that of the
        # concatenated integer counts, correctly rounded
        p = EllipticParams(4, 0.2)
        counts = np.concatenate([
            real_eigenvalue_values(sample_elliptic_batch(p, 4096, 5, 0))[0],
            real_eigenvalue_values(sample_elliptic_batch(p, 904, 5, 1))[0]])
        n, total = 5000, int(counts.sum())
        m2 = n * int(counts @ counts) - total * total
        mean, stderr = mean_real_count(p, n, 5)
        assert mean == total / n
        assert stderr == math.sqrt(m2 / (n * n * (n - 1)))
        assert stderr == pytest.approx(counts.std(ddof=1) / math.sqrt(n),
                                       rel=1e-12)


class TestDensityProfile:
    def test_exact_profile_properties(self, tmp_path):
        grid, values, methods = exact_profile(tmp_path, 8, 0.5)
        assert np.all(np.diff(grid) > 0)
        assert np.all(values >= 0)
        # even grid, even values
        assert_allclose(values, values[::-1], rtol=1e-9, atol=1e-300)
        assert methods == {"exact-hermite"}

    def test_exports(self, tmp_path):
        # the experiment runner writes the exact density at full precision on
        # the 201 Chebyshev nodes of the support
        p = EllipticParams(4, 0.0)
        grid, values, methods = exact_profile(tmp_path, p.n, p.tau)
        nodes = np.sort(support_lambda_max(p.n, p.tau)
                        * np.cos(np.pi * np.arange(201) / 200))
        assert methods == {"exact-hermite"}
        assert np.array_equal(grid, nodes)
        assert np.array_equal(values, rho_real_exact(p, nodes * math.sqrt(p.n)))

    def test_support_cutoff_certifies_negligible_tail(self):
        n, tau = 8, 0.5
        lam_max = support_lambda_max(n, tau)
        tail = rho_real_exact(EllipticParams(n, tau), lam_max * math.sqrt(n))
        assert tail < 1e-12 * rho_real_bulk(tau)

    @pytest.mark.parametrize("tau", [-2.0, -1.0, 1.5])
    def test_support_cutoff_rejects_invalid_tau(self, tau):
        with pytest.raises(ParameterError, match="tau"):
            support_lambda_max(8, tau)

    def test_monte_carlo_profile_matches_exact(self):
        self.check_profile(EllipticParams(4, -0.5))

    @pytest.mark.parametrize("n", [4, 8])
    def test_gradient_profile_matches_exact(self, n):
        # tau = 1: the exact density is the GOE one
        self.check_profile(EllipticParams(n, 1.0))

    @staticmethod
    def check_profile(p):
        lam_max = (1.0 + p.tau) + 6.0 / math.sqrt(p.n)
        lam_edges = np.linspace(-lam_max, lam_max, 12)
        mean, stderr = real_eigenvalue_histogram(p, 30_000, 17, lam_edges)
        expected = expected_counts_in_bins(p, lam_edges * math.sqrt(p.n))
        z = np.abs(mean - expected) / np.where(stderr > 0, stderr, np.inf)
        assert z.max() < 4.0

    def test_histogram_sums_to_count(self):
        # same draws as mean_real_count; bins wide enough to hold every
        # eigenvalue, so the bin means add up to the mean count
        p = EllipticParams(6, 0.3)
        mean, stderr = real_eigenvalue_histogram(p, 5000, 4,
                                                 np.array([-50.0, 0.0, 50.0]))
        assert mean.sum() == pytest.approx(mean_real_count(p, 5000, 4)[0],
                                           rel=1e-14)
        assert np.all(stderr > 0)
