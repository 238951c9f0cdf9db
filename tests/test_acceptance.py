"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not computed.  Criteria that sweep several
points print one line per point and then assert on the full set.
"""

import math

import numpy as np
import pytest

from sphere_equilibria.dynamics import integrate, run_to_equilibrium_batch
from sphere_equilibria.elliptic import (EllipticParams,
                                        expected_counts_in_bins,
                                        expected_real_count, mean_real_count,
                                        real_eigenvalue_histogram,
                                        real_eigenvalues, rho_real_edge,
                                        rho_real_exact)
from sphere_equilibria.errors import DomainError
from sphere_equilibria.field_model import ModelParams, covariance_pair, \
    sample_field
from sphere_equilibria.predictor import (DerivedParams, asympt_fixed,
                                         crossover_gamma, crossover_kappa,
                                         derived_params, mean_in_interval,
                                         mean_total_exact,
                                         validate_det_identity,
                                         weak_nongradient)
from sphere_equilibria.search import find_equilibria, mc_mean_count

QUADRATIC_MODEL = dict(j1=1.0, j2=1.0, alpha1=0.3, alpha2=0.2)


def dp_for(tau, b2, dphi1=2.0):
    q = min(b2, 1.0)
    return DerivedParams.from_values(q * dphi1, dphi1, tau * dphi1,
                                     math.sqrt((b2 - q) * dphi1))


def report(num, ok, detail):
    print(f"[ACCEPT-{num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_prefactor_consistency():
    """Total-count and interval-count routes agree to 1e-10 relative."""
    worst = 0.0
    excluded = []
    for n in (2, 4, 6, 8):
        for tau in (-0.5, 0.0, 0.5):
            for b2 in (0.5, 0.8, 1.5):
                if abs(b2 + tau) <= 1e-12:
                    # the spec grid contains the excluded exceptional case
                    # b^2 + tau = 0; the domain gate must fire instead
                    with pytest.raises(DomainError):
                        dp_for(tau, b2)
                    excluded.append((n, tau, b2))
                    continue
                dp = dp_for(tau, b2)
                r1 = mean_total_exact(dp, n)
                r2 = mean_in_interval(dp, n, -math.inf, math.inf)
                worst = max(worst, abs(r1.value / r2.value - 1.0))
    ok = worst <= 1e-10
    report(1, ok, f"worst relative gap {worst:.3e} <= 1e-10 "
                  f"({len(excluded)} exceptional grid points gated)")
    assert ok


def test_criterion_02_det_identity():
    """Monte Carlo |det| ratio compatible with 1 at 3 stderr, 1e5 trials."""
    rows = []
    for tau in (0.0, 0.5):
        for lam in (0.0, 1.0):
            rep = validate_det_identity(tau, 4, lam, 100_000, seed=414)
            rows.append((tau, lam, rep))
    ok = all(abs(r.ratio - 1.0) <= 3.0 * r.stderr for _, _, r in rows)
    detail = "; ".join(f"tau={t} lam={l}: ratio={r.ratio:.4f}+-{r.stderr:.4f}"
                       for t, l, r in rows)
    report(2, ok, detail)
    assert ok


def test_criterion_03_density_validation():
    """Real-eigenvalue histograms and total counts match the exact density."""
    bad = []
    details = []
    for n in (4, 8):
        for tau in (-0.5, 0.0, 0.5):
            p = EllipticParams(n, tau)
            seed = 700 + n * 10 + int((tau + 1) * 4)
            lam_max = (1.0 + tau) + 6.0 / math.sqrt(n)
            lam_edges = np.linspace(-lam_max, lam_max, 13)
            mean, stderr = real_eigenvalue_histogram(p, 100_000, seed,
                                                     lam_edges)
            expected = expected_counts_in_bins(p, lam_edges * math.sqrt(n))
            z = np.abs(mean - expected) / np.where(stderr > 0, stderr, np.inf)
            mc_mean, mc_se = mean_real_count(p, 100_000, seed + 1)
            zc = abs(mc_mean - expected_real_count(p)) / mc_se
            details.append(f"N={n} tau={tau:+.1f}: max bin |z|={z.max():.2f}, "
                           f"count |z|={zc:.2f}")
            if z.max() > 3.0 or zc > 3.0:
                bad.append((n, tau, float(z.max()), float(zc)))
    ok = not bad
    report(3, ok, "; ".join(details))
    assert ok, bad


def test_criterion_04_brute_force_vs_theory():
    """N=4 quadratic-field counts match the exact prediction across sigma_c."""
    params0 = ModelParams(n=4, **QUADRATIC_MODEL)
    cov = covariance_pair(params0)
    sigma_c = derived_params(cov, 0.0).sigma_c
    sigmas = np.linspace(0.0, 2.0 * sigma_c, 5)
    bad = []
    details = []
    for i, sigma in enumerate(sigmas):
        params = ModelParams(n=4, sigma=float(sigma), **QUADRATIC_MODEL)
        dp = derived_params(cov, float(sigma))
        pred = mean_total_exact(dp, 4)
        edges = dp.lambda_scale * np.linspace(-3.0, 3.0, 7)
        res = mc_mean_count(params, 500, seed=900 + i, lambda_edges=edges)
        z_mean = (res.mean - pred.value) / res.stderr
        z_bins = []
        for j in range(len(edges) - 1):
            want = mean_in_interval(dp, 4, float(edges[j]),
                                    float(edges[j + 1])).value
            se = res.histogram_stderr[j]
            z_bins.append((res.histogram_mean[j] - want) / se if se > 0
                          else 0.0)
        worst_bin = float(np.abs(z_bins).max())
        details.append(f"sigma={sigma:.2f}: mean z={z_mean:+.2f}, "
                       f"worst bin |z|={worst_bin:.2f}, "
                       f"unsat={res.n_unsaturated}")
        if abs(z_mean) > 3.0 or worst_bin > 3.0:
            bad.append((float(sigma), float(z_mean), worst_bin))
    ok = not bad
    report(4, ok, "; ".join(details))
    assert ok, bad


def test_criterion_05_linear_field_oracle():
    """Exact integer match: count = 2 x (#real eigenvalues of the coupling)."""
    mismatches = 0
    total = 0
    for n, alpha1 in [(2, 0.0), (4, 0.5), (6, -0.3), (8, 0.7), (4, 0.0),
                      (6, 0.9), (8, 0.0)]:
        p = ModelParams(n=n, j1=1.0, j2=0.0, alpha1=alpha1, sigma=0.0)
        for s in range(16):
            inst = sample_field(p, 10_000 + 100 * total + s)
            rep = find_equilibria(inst, n_starts=2500, seed=total)
            want = 2 * len(real_eigenvalues(inst.j1_matrix))
            mismatches += rep.n_found != want
            total += 1
    ok = mismatches == 0 and total >= 100
    report(5, ok, f"{total - mismatches}/{total} instances matched exactly")
    assert ok


def test_criterion_06_trivialization_limit():
    """Trivial phase: counts decrease to 2, within 0.05 by N = 80."""
    dp = dp_for(0.0, 1.5)
    vals = [mean_total_exact(dp, n).value for n in (20, 40, 80)]
    ok = vals[0] > vals[1] > vals[2] and abs(vals[2] - 2.0) < 0.05
    report(6, ok, f"values at N=20,40,80: {vals[0]:.4f} > {vals[1]:.4f} > "
                  f"{vals[2]:.4f}, |v(80) - 2| = {abs(vals[2] - 2):.4f}")
    assert ok


def test_criterion_07_exponential_regime():
    """Abundant phase: growth rate ln(1/b) within 1%, prefactor within 5%."""
    dp = dp_for(0.0, 0.5)
    ns = np.array([50, 76, 100, 126, 150, 176, 200])
    logs = np.array([mean_total_exact(dp, int(n)).log_value for n in ns])
    slope = float(np.polyfit(ns, logs, 1)[0])
    rate = math.log(1.0 / math.sqrt(0.5))
    asym = asympt_fixed(dp)
    pref = math.exp(logs[-1] - 200 * asym.log_rate)
    ok = (abs(slope / rate - 1.0) < 0.01
          and abs(pref / asym.prefactor - 1.0) < 0.05)
    report(7, ok, f"slope {slope:.6f} vs ln(1/b) {rate:.6f} "
                  f"(rel {abs(slope / rate - 1):.2e}); prefactor {pref:.4f} "
                  f"vs {asym.prefactor:.4f}")
    assert ok


def test_criterion_08_crossovers():
    """Exact N=400 counts against both crossover limits, 5% each."""
    failures = []
    n = 400
    for gamma in (-5.0, 0.0, 5.0):
        dp = dp_for(0.0, 1.0 - gamma / n)
        got = mean_total_exact(dp, n).value / math.sqrt(n)
        want = crossover_gamma(0.0, gamma)
        rel = abs(got / want - 1.0)
        report(8, rel <= 0.05,
               f"gamma={gamma:+.0f}: exact/sqrt(N)={got:.5f} "
               f"limit={want:.5f} rel={rel * 100:.2f}% (tol 5%)")
        if rel > 0.05:
            failures.append(("gamma", gamma, rel))
    for kappa in (0.5, 1.0, 2.0):
        dp = dp_for(0.0, 1.0 + kappa / math.sqrt(n))
        got = mean_total_exact(dp, n).value
        want = crossover_kappa(0.0, kappa)
        rel = abs(got / want - 1.0)
        report(8, rel <= 0.05,
               f"kappa={kappa}: exact={got:.5f} limit={want:.5f} "
               f"rel={rel * 100:.2f}% (tol 5%)")
        if rel > 0.05:
            failures.append(("kappa", kappa, rel))
    const = crossover_gamma(0.0, 0.0)
    const_ok = abs(const - 1.59577) <= 1e-4
    report(8, const_ok, f"gamma-limit constant {const:.6f} = 1.59577 +- 1e-4")
    if not const_ok:
        failures.append(("constant", 0.0, const))
    assert not failures, failures


def test_criterion_09_edge_law():
    """Exact N=100 density against the universal edge profile, 5%."""
    n, tau = 100, 0.0
    p = EllipticParams(n, tau)
    failures = []
    for zeta in np.linspace(-2.0, 2.0, 9):
        x = (1.0 + tau) * math.sqrt(n) + zeta * math.sqrt(1.0 - tau * tau)
        got = float(rho_real_exact(p, x))
        want = float(rho_real_edge(zeta))
        rel = abs(got / want - 1.0)
        report(9, rel <= 0.05, f"zeta={zeta:+.1f}: exact={got:.6f} "
                               f"edge={want:.6f} rel={rel * 100:.2f}% (tol 5%)")
        if rel > 0.05:
            failures.append((float(zeta), rel))
    left = float(rho_real_edge(-40.0))
    lim_ok = abs(left / (1.0 / math.sqrt(2 * math.pi)) - 1.0) <= 0.05
    report(9, lim_ok, f"left limit {left:.6f} vs 1/sqrt(2 pi)")
    tail = float(rho_real_edge(3.0))
    gauss = math.exp(-9.0) / (2.0 * math.sqrt(math.pi))
    tail_ok = abs(tail / gauss - 1.0) <= 0.05
    report(9, tail_ok, f"zeta=3 tail {tail:.3e} vs Gaussian {gauss:.3e}")
    assert lim_ok and tail_ok
    assert not failures, failures


def test_criterion_10_weak_nongradient():
    """Gradient limit exact; u = 2 against the exact count at 10%."""
    n, b2, u = 200, 0.8, 2.0
    v0 = weak_nongradient(0.0, b2, n)
    big_b = (1.0 - b2) / (1.0 + b2)
    grad = (4.0 * math.exp(0.5 * n * math.log((1 + big_b) / (1 - big_b)))
            * math.sqrt(n * (1 - big_b) / (math.pi * big_b)))
    eq_ok = abs(v0 / grad - 1.0) <= 1e-12
    tau = 1.0 - u * u / n
    got = weak_nongradient(u, b2, n)
    want = mean_total_exact(dp_for(tau, b2), n).value
    rel = abs(got / want - 1.0)
    asym_ok = rel <= 0.10
    ok = eq_ok and asym_ok
    report(10, ok, f"u=0 gradient-form gap {abs(v0 / grad - 1):.2e} <= 1e-12; "
                   f"u=2: asym={got:.4e} exact={want:.4e} "
                   f"rel={rel * 100:.2f}% (tol 10%)")
    assert ok


def test_criterion_11_dynamics():
    """Relaxation accuracy, constraint drift, basin coverage when trivial."""
    # pure-field relaxation
    inst0 = sample_field(ModelParams(n=4, j1=0.0, j2=0.0, sigma=1.5), 7)
    hnorm = float(np.linalg.norm(inst0.h))
    rate = hnorm / 2.0
    rng = np.random.default_rng(12)
    g = rng.standard_normal(4)
    x0 = 2.0 * g / np.linalg.norm(g)
    traj = integrate(inst0, x0, dt=0.005, t_end=20.0 / rate)
    xstar = 2.0 * inst0.h / hnorm
    dist = float(np.linalg.norm(traj.states[-1] - xstar))
    relax_ok = dist < 1e-6
    drift_ok = traj.constraint_drift <= 1e-8

    # deep trivial regime: random starts land on the two counted equilibria.
    # Fixed representative draw: the criterion presumes the typical two-point
    # phase portrait; rare small-|h| realizations keep extra equilibria and
    # cycling dynamics even at sigma = 3 sigma_c (see test_dynamics for one).
    cov = covariance_pair(ModelParams(n=4, **QUADRATIC_MODEL))
    sigma_c = derived_params(cov, 0.0).sigma_c
    params = ModelParams(n=4, sigma=3.0 * sigma_c, **QUADRATIC_MODEL)
    inst = sample_field(params, 6)
    rep = find_equilibria(inst, seed=2)
    two_ok = rep.n_found == 2
    g = np.random.default_rng(77).standard_normal((1000, 4))
    starts = 2.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
    results = run_to_equilibrium_batch(inst, starts, rep)
    matched = sum(r.matched is not None for r in results)
    basin_ok = matched >= 990
    ok = relax_ok and drift_ok and two_ok and basin_ok
    report(11, ok, f"relaxation dist {dist:.2e} < 1e-6; drift "
                   f"{traj.constraint_drift:.2e} <= 1e-8; equilibria "
                   f"{rep.n_found} == 2; matched {matched}/1000 >= 990")
    assert ok
