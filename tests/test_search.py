"""Multi-start Newton enumeration against analytic and spectral oracles."""

import csv
import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_equilibria import cli, search
from sphere_equilibria._rng import derive_seed
from sphere_equilibria.elliptic import real_eigenvalues
from sphere_equilibria.errors import DomainError, NumericalError, ParameterError
from sphere_equilibria.field_model import (ModelParams, covariance_pair,
                                           sample_field)
from sphere_equilibria.predictor import derived_params, mean_total_exact
from sphere_equilibria.search import (default_n_starts, find_equilibria,
                                      mc_mean_count, tangent_spectrum_at)


def field_free_instance(n=4, sigma=1.5, seed=7):
    return sample_field(ModelParams(n=n, j1=0, j2=0, sigma=sigma), seed)


class TestFieldFree:
    def test_exactly_two_roots_on_the_field_axis(self):
        inst = field_free_instance()
        rep = find_equilibria(inst, n_starts=200, seed=1)
        assert rep.n_found == 2
        hnorm = np.linalg.norm(inst.h)
        xplus = 2.0 * inst.h / hnorm
        dists = sorted(min(np.linalg.norm(pt.x - s * xplus) for pt in rep.points)
                       for s in (1.0, -1.0))
        assert max(dists) < 1e-8
        lams = sorted(pt.lam for pt in rep.points)
        assert_allclose(lams, [-hnorm / 2.0, hnorm / 2.0], rtol=1e-10)

    def test_tangent_spectra_uniform_contraction(self):
        # +root: all tangent rates -|h|/sqrt(N); -root: all +|h|/sqrt(N)
        inst = field_free_instance()
        rep = find_equilibria(inst, n_starts=200, seed=1)
        rate = np.linalg.norm(inst.h) / 2.0
        by_lam = sorted(rep.points, key=lambda pt: pt.lam)
        assert_allclose(by_lam[0].tangent_spectrum,
                        np.full(3, rate), rtol=1e-9)
        assert_allclose(by_lam[1].tangent_spectrum,
                        np.full(3, -rate), rtol=1e-9)

    def test_couplings_alone_make_it_field_free(self):
        # no flag: j1 = j2 = 0 budgets 200 starts for each of the two roots
        # +-sqrt(N) h/|h|, and finds exactly those
        p = ModelParams(n=4, j1=0.0, sigma=1.5)
        inst = sample_field(p, 7)
        rep = find_equilibria(inst, seed=1)
        assert p.field_free and rep.n_starts == 400 and rep.n_found == 2
        xplus = 2.0 * inst.h / np.linalg.norm(inst.h)
        assert_allclose([pt.x for pt in rep.points], [-xplus, xplus],
                        atol=1e-8)

    def test_degenerate_sphere_rejected(self):
        inst = sample_field(ModelParams(n=4, j1=0, j2=0, sigma=0.0), 1)
        with pytest.raises(ParameterError):
            find_equilibria(inst)


class TestLinearFieldOracle:
    @pytest.mark.parametrize("n,alpha1,seed", [
        (4, 0.0, 0), (4, 0.5, 1), (6, -0.3, 2), (8, 0.7, 3), (6, 0.0, 4),
    ])
    def test_count_is_twice_real_spectrum(self, n, alpha1, seed):
        p = ModelParams(n=n, j1=1.0, j2=0.0, alpha1=alpha1, sigma=0.0)
        inst = sample_field(p, 100 + seed)
        rep = find_equilibria(inst, n_starts=2000, seed=seed)
        assert rep.n_found == 2 * len(real_eigenvalues(inst.j1_matrix))

    def test_symmetric_coupling_gives_2n(self):
        p = ModelParams(n=6, j1=1.0, j2=0.0, alpha1=1.0, sigma=0.0)
        inst = sample_field(p, 17)
        rep = find_equilibria(inst, n_starts=2000, seed=5)
        assert rep.n_found == 12

    def test_roots_are_eigenvectors(self):
        p = ModelParams(n=4, j1=1.0, j2=0.0, alpha1=0.4, sigma=0.0)
        inst = sample_field(p, 23)
        rep = find_equilibria(inst, n_starts=1000, seed=3)
        evals = real_eigenvalues(inst.j1_matrix)
        for pt in rep.points:
            assert min(abs(pt.lam - evals)) < 1e-9


class TestReportInvariants:
    def make_report(self, sigma=0.5, seed=11):
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=sigma)
        inst = sample_field(p, seed)
        return inst, find_equilibria(inst, seed=2)

    def test_residual_and_constraint_bounds(self):
        inst, rep = self.make_report()
        for pt in rep.points:
            assert pt.residual <= 1e-10
            assert abs(pt.x @ pt.x - 4.0) <= 1e-10

    def test_lambda_consistency(self):
        inst, rep = self.make_report()
        for pt in rep.points:
            lam = pt.x @ inst.drift(pt.x) / 4.0
            assert abs(lam - pt.lam) <= 1e-8

    def test_pairwise_separation(self):
        _, rep = self.make_report()
        for i, a in enumerate(rep.points):
            for b in rep.points[i + 1:]:
                assert np.linalg.norm(a.x - b.x) > rep.dedup_radius

    def test_points_sorted_by_lambda(self):
        _, rep = self.make_report()
        lams = [pt.lam for pt in rep.points]
        assert lams == sorted(lams)

    def test_basin_hits_account_for_converged_starts(self):
        _, rep = self.make_report()
        assert sum(pt.basin_hits for pt in rep.points) == rep.n_converged_starts

    def test_scaling_moves_lambda_not_roots(self):
        # scaling (j1, j2, sigma) by c keeps the root set, scales lambda by c
        inst, rep = self.make_report()
        scaled = sample_field(dataclasses.replace(inst.params, j1=2.0, j2=2.0,
                                                  sigma=1.0), inst.seed)
        rep2 = find_equilibria(scaled, seed=2)
        assert rep2.n_found == rep.n_found
        for a, b in zip(rep.points, rep2.points):
            assert np.linalg.norm(a.x - b.x) < 1e-8
            assert abs(2.0 * a.lam - b.lam) < 1e-8

    def test_start_count_robustness(self):
        # doubling the start budget almost never changes the count
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.3)
        changed = 0
        for s in range(30):
            inst = sample_field(p, 300 + s)
            a = find_equilibria(inst, n_starts=1500, seed=1)
            b = find_equilibria(inst, n_starts=3000, seed=2)
            changed += a.n_found != b.n_found
        assert changed <= 1

    def test_starved_budget_not_saturated(self):
        # 12 starts on an 8-root instance: discovery curve still rising
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.0)
        inst = sample_field(p, 5)
        rep = find_equilibria(inst, n_starts=12, seed=1)
        full = find_equilibria(inst, seed=1)
        assert not rep.saturated
        assert rep.n_found < full.n_found

    def test_dimension_guard(self):
        p = ModelParams(n=12, j1=1.0)
        inst = sample_field(p, 0)
        with pytest.raises(ParameterError, match="N <= 10"):
            find_equilibria(inst)

    def test_converged_point_carries_tangent_spectrum(self):
        inst, rep = self.make_report()
        for pt in rep.points:
            assert len(pt.tangent_spectrum) == 3
            assert (pt.tangent_spectrum.tobytes()
                    == tangent_spectrum_at(inst, pt.x, pt.lam).tobytes())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tangent_spectrum_at_rejects_non_finite_point(self, bad):
        inst = field_free_instance()
        with pytest.raises(ParameterError, match="finite"):
            tangent_spectrum_at(inst, np.array([1.0, bad, 0.0, 1.0]), 0.5)

    def test_tangent_spectrum_at_rejects_zero_point(self):
        # x = 0 has no tangent space; the SVD would still return N-1 values
        inst = field_free_instance()
        with pytest.raises(ParameterError, match="nonzero"):
            tangent_spectrum_at(inst, np.zeros(4), 0.5)

    def test_gradient_instance_real_spectrum(self):
        p = ModelParams(n=5, j1=1, j2=1, alpha1=1.0, alpha2=1.0, sigma=0.5)
        inst = sample_field(p, 3)
        rep = find_equilibria(inst, n_starts=3000, seed=4)
        assert rep.n_found >= 2
        for pt in rep.points:
            assert np.max(np.abs(pt.tangent_spectrum.imag)) < 1e-8


@functools.cache
def pinned_report(n, sigma, seed):
    p = ModelParams(n=n, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=sigma)
    return find_equilibria(sample_field(p, seed), seed=seed)


class TestPinnedOutputs:
    """Integer outputs of fixed instances, recorded before the lazy line
    search, the batch-innermost field contraction and the vectorized dedup
    replaced their predecessors; all three must keep them bit for bit.

    The halving caps moved some of them, and they were re-recorded at each:
    at 2^-14 the basin hits and converged starts of instances (4, 0.0, 11)
    and (8, 0.0, 13), and at 2^-6 those of all three instances and of both
    `test_halving_cap_drops_one_converging_start` cases, the tangent-spectrum
    digest and the `test_one_row_batches` digests.  A start that crawls to
    its root only through shorter steps now stalls out: it drops from the
    hits, it can no longer be the first start of its cluster (whose root is
    the representative whose bits the digests hash), and a row that stalls
    earlier leaves its partner a lone one-row batch.  No root count or
    saturation flag moved, and with `_MAX_HALVINGS` set back to 14 every
    value of the 2^-14 cap returns."""

    # sigma = 1.039... is sigma_c of this model
    INSTANCES = [(4, 0.0, 11), (4, 1.0392304845413265, 12), (8, 0.0, 13)]

    @pytest.mark.parametrize("n, sigma, seed, n_found, hits, n_conv", [
        (4, 0.0, 11, 8, [88, 83, 59, 67, 152, 122, 54, 100], 725),
        (4, 1.0392304845413265, 12, 4, [204, 74, 51, 80], 409),
        (8, 0.0, 13, 14, [59, 60, 147, 95, 138, 119, 80, 104, 78, 113, 76, 58,
                          90, 38], 1255),
    ], ids=["4-0.0-11", "4-sigma_c-12", "8-0.0-13"])
    def test_counts_hits_and_saturation(self, n, sigma, seed, n_found, hits,
                                        n_conv):
        rep = pinned_report(n, sigma, seed)
        assert rep.n_found == n_found
        assert [pt.basin_hits for pt in rep.points] == hits
        assert rep.n_converged_starts == n_conv
        assert rep.saturated

    def test_tangent_spectra(self):
        # recorded while the tangent basis still came from scipy's
        # null_space; the SVD basis must give the same bits
        h = hashlib.sha256()
        for case in self.INSTANCES:
            for pt in pinned_report(*case).points:
                h.update(pt.tangent_spectrum.tobytes())
        assert h.hexdigest() == ("3b3b0d5f62b8cee9af8c083b786b8850"
                                 "25cbca0ef340fe696befb3382cbaeda7")

    @pytest.mark.parametrize("mc_seed, i, sigma, budget, hits, n_conv", [
        (903, 7, 1.5588457268119897, 788, [105, 58, 76, 60], 299),
        (904, 458, 2.078460969082653, 623, [64, 20, 29, 45], 158),
    ], ids=["903-7", "904-458"])
    def test_halving_cap_drops_one_converging_start(self, mc_seed, i, sigma,
                                                    budget, hits, n_conv):
        # criterion 04's instances as `mc_mean_count` solves them: some starts
        # reach a root only through a step below the halving cap, so they
        # stall out; the roots stay.  Deeper caps let them through: 903-7
        # has hits [107, 62, 80, 61] and 310 converged starts at 2^-14 (its
        # last crawler needs 2^-35), 904-458 [64, 20, 31, 47] and 162 at
        # 2^-14 and [64, 20, 32, 47] and 163 at 2^-30
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=sigma)
        assert default_n_starts(p) == budget
        inst = sample_field(p, derive_seed(mc_seed, f"instance-{i}"))
        rep = find_equilibria(inst, n_starts=budget,
                              seed=derive_seed(mc_seed, f"starts-{i}"))
        assert rep.n_found == 4
        assert [pt.basin_hits for pt in rep.points] == hits
        assert rep.n_converged_starts == n_conv
        assert rep.saturated

    @pytest.mark.parametrize("sigma_index", range(5))
    def test_halving_cap_keeps_counts(self, monkeypatch, sigma_index):
        # ten criterion-04 instances at each sigma, solved at the shipped cap
        # and at 2^-14 and 2^-30: a shorter step may save a crawling start,
        # never a root or the saturation flag
        model = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2)
        sigma_c = derived_params(covariance_pair(model), 0.0).sigma_c
        p = dataclasses.replace(model, sigma=float(
            np.linspace(0.0, 2.0 * sigma_c, 5)[sigma_index]))
        mc_seed, budget = 900 + sigma_index, default_n_starts(p)

        def solve(i):
            inst = sample_field(p, derive_seed(mc_seed, f"instance-{i}"))
            return find_equilibria(inst, budget,
                                   derive_seed(mc_seed, f"starts-{i}"))

        shipped = [solve(i) for i in range(10)]
        for cap in (14, 30):
            monkeypatch.setattr(search, "_MAX_HALVINGS", cap)
            for rep, deep in zip(shipped, map(solve, range(10))):
                assert rep.n_found == deep.n_found
                assert rep.saturated == deep.saturated
                assert rep.n_converged_starts <= deep.n_converged_starts

    def test_three_halvings_small_budget(self, monkeypatch):
        # with _MAX_HALVINGS = 3 the last halving block is the single level
        # 3, so a row searching alone there is a one-row candidate batch,
        # evaluated by BLAS gemv like every lone full step
        one_row = []
        residual = search._system_residual

        def counting(inst, x, lam):
            one_row.append(len(x) == 1)
            return residual(inst, x, lam)

        monkeypatch.setattr(search, "_system_residual", counting)
        monkeypatch.setattr(search, "_MAX_HALVINGS", 3)
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.5)
        rep = find_equilibria(sample_field(p, 0), n_starts=40, seed=0)
        assert rep.n_found == 10
        assert [pt.basin_hits for pt in rep.points] == [1, 3, 3, 5, 1, 6, 3, 2,
                                                        1, 4]
        assert rep.n_converged_starts == 29
        assert rep.saturated
        # one one-row call per root reports its residual; the rest are
        # one-row candidate batches of the line search
        assert sum(one_row) > rep.n_found

    def test_one_row_batches(self):
        # one or two starts leave a lone active row most iterations: its full
        # step is a one-row batch, evaluated by BLAS gemv, while every batch
        # of two or more rows goes to gemm, which rounds differently; sending
        # a one-row batch to gemm (by padding it) or a larger one to gemv
        # moves these bits
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.5)
        roots, residuals = hashlib.sha256(), hashlib.sha256()
        for n_starts in (1, 2):
            for seed in range(40):
                rep = find_equilibria(sample_field(p, seed),
                                      n_starts=n_starts, seed=seed)
                for pt in rep.points:
                    roots.update(pt.x.tobytes())
                    roots.update(np.float64(pt.lam).tobytes())
                    residuals.update(np.float64(pt.residual).tobytes())
        assert roots.hexdigest() == ("26c665c6c14832856bab530a93db5f4a"
                                     "2afbd3fffc99587a4aec9ebf6c583dbd")
        assert residuals.hexdigest() == ("d9f520d464932d434fef62626db14bd6"
                                         "4fd195ac5410f49e1d3355a91bdd16d9")


def dedup_by_pairs(xs, radius):
    """Reference dedup: each point joins the first earlier representative
    within `radius`, or becomes a representative itself."""
    reps, hits = [], []
    for i, x in enumerate(xs):
        for j, r in enumerate(reps):
            if np.linalg.norm(x - xs[r]) <= radius:
                hits[j] += 1
                break
        else:
            reps.append(i)
            hits.append(1)
    return reps, hits


class TestDedup:
    R = 1e-3

    def test_chain_gives_two_clusters(self):
        # a-b and b-c are 0.8r apart, a-c 1.6r: b joins a, c founds a cluster
        xs = np.array([[0.0, 0.0], [0.8, 0.0], [1.6, 0.0]]) * self.R
        assert search._dedup(xs, self.R) == ([0, 2], [2, 1])

    def test_point_near_two_representatives_joins_the_earlier(self):
        xs = np.array([[0.0, 0.0], [1.5, 0.0], [0.75, 0.1]]) * self.R
        assert search._dedup(xs, self.R) == ([0, 1], [2, 1])

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(3)
        centres = rng.standard_normal((9, 4))
        labels = rng.integers(0, 9, 2000)
        xs = centres[labels] + 1e-2 * self.R * rng.standard_normal((2000, 4))
        reps, hits = search._dedup(xs, self.R)
        assert (reps, hits) == dedup_by_pairs(xs, self.R)
        # one cluster per centre, founded by its first point; the last
        # representative is the last discovery of a new cluster
        _, first, counts = np.unique(labels, return_index=True,
                                     return_counts=True)
        order = np.argsort(first)
        assert reps == first[order].tolist()
        assert hits == counts[order].tolist()
        assert sum(hits) == len(xs)

    def test_empty_and_zero_radius(self):
        assert search._dedup(np.empty((0, 3)), self.R) == ([], [])
        xs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert search._dedup(xs, 0.0) == ([0, 2], [2, 1])


class TestSystemResidual:
    @staticmethod
    def instance(n):
        p = ModelParams(n=n, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.7)
        return sample_field(p, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_running_max_bit_equal_to_row_max(self, n):
        inst = self.instance(n)
        rng = np.random.default_rng(n)
        x = 2.0 * rng.standard_normal((40, n))
        lam = rng.standard_normal(40)
        lam[3], lam[4], lam[5] = np.nan, np.inf, -np.inf
        x[6] *= 1e160  # |x|^2 and the quadratic term overflow
        x[7, 0], lam[7] = 0.0, np.inf  # inf * 0 = NaN in one column
        with np.errstate(over="ignore", invalid="ignore"):
            f, c, res = search._system_residual(inst, x, lam)
        want = np.maximum(np.abs(f).max(axis=-1), np.abs(c))
        assert np.isnan(res[[3, 7]]).all() and np.isinf(res[[4, 5]]).all()
        assert not np.isfinite(res[6])
        assert res.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_step_raises(self, monkeypatch, bad):
        # a non-finite candidate must reach the field's finiteness check and
        # raise, not fail the Armijo test as a merely bad step
        solve = search._solve_batch

        def poisoned(a_mat, rhs):
            delta = solve(a_mat, rhs)
            delta[-1] = bad
            return delta

        monkeypatch.setattr(search, "_solve_batch", poisoned)
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.5)
        with pytest.raises(ParameterError, match="finite"):
            find_equilibria(sample_field(p, 1), n_starts=20)


class TestSolveBatch:
    def test_singular_system_raises(self):
        # [[1, 2], [2, 4]] eliminates to an exact zero pivot
        a_mat = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], 3.0 * np.eye(2)])
        with pytest.raises(NumericalError, match="singular"):
            search._solve_batch(a_mat, np.ones((3, 2)))


class TestStartBudget:
    PARAMS = dict(j1=1.0, j2=1.0, alpha1=0.3, alpha2=0.2, sigma=1.0)

    def test_numerical_error_propagates(self, monkeypatch):
        def fail(dp, n):
            raise NumericalError("quadrature did not converge")

        monkeypatch.setattr(search, "mean_total_exact", fail)
        with pytest.raises(NumericalError):
            default_n_starts(ModelParams(n=4, **self.PARAMS))

    def test_gradient_budget_from_exact_count(self):
        # tau = 1 at even N: 200 starts per root of the exact count, 13.24
        p = ModelParams(n=4, j1=1, j2=1, alpha1=1.0, alpha2=1.0, sigma=0.5)
        exact = mean_total_exact(derived_params(covariance_pair(p), 0.5), 4)
        assert default_n_starts(p) == int(200.0 * exact.value) == 2647

    def test_odd_n_falls_back_to_asymptote(self):
        # the exact count needs even N; the DomainError routes to the asymptote
        assert 64 <= default_n_starts(ModelParams(n=5, **self.PARAMS)) <= 10_000

    def test_domain_error_in_derived_params_falls_back_to_2n(self, monkeypatch):
        def exceptional(cov, sigma):
            raise DomainError("exceptional case")

        monkeypatch.setattr(search, "derived_params", exceptional)
        # 200 starts per predicted root, 2N = 8 roots
        assert default_n_starts(ModelParams(n=4, **self.PARAMS)) == 1600

    def test_plain_value_error_propagates(self, monkeypatch):
        def broken(cov, sigma):
            raise ValueError("not a package error")

        monkeypatch.setattr(search, "derived_params", broken)
        with pytest.raises(ValueError, match="not a package error"):
            default_n_starts(ModelParams(n=4, **self.PARAMS))

    @pytest.mark.parametrize("n_starts", [0, -5])
    def test_nonpositive_budget_rejected(self, n_starts):
        # 0 used to report an unsaturated empty count, -5 a numpy ValueError
        inst = sample_field(ModelParams(n=4, j1=1.0, sigma=1.0), 3)
        with pytest.raises(ParameterError, match="n_starts"):
            find_equilibria(inst, n_starts=n_starts)

    @pytest.mark.parametrize("call, name", [
        (lambda inst, p: find_equilibria(inst, n_starts=2.5), "n_starts"),
        (lambda inst, p: mc_mean_count(p, 2, n_starts=2.5), "n_starts"),
        (lambda inst, p: mc_mean_count(p, 2.5, n_starts=10), "n_instances"),
    ], ids=["find-n-starts", "mc-n-starts", "mc-n-instances"])
    def test_non_integer_count_rejected(self, call, name):
        # each used to raise a bare TypeError from numpy
        p = ModelParams(n=4, j1=1.0, sigma=1.0)
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            call(sample_field(p, 3), p)

    def test_numpy_integer_counts_accepted(self):
        p = ModelParams(n=4, j1=1.0, sigma=1.0)
        inst = sample_field(p, 3)
        assert (find_equilibria(inst, n_starts=np.int64(10)).n_found
                == find_equilibria(inst, n_starts=10).n_found)
        a = mc_mean_count(p, np.int64(2), n_starts=np.int64(10))
        assert np.array_equal(a.counts, mc_mean_count(p, 2, n_starts=10).counts)


class TestMCCount:
    def test_deterministic(self):
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=1.5)
        a = mc_mean_count(p, 12, seed=5)
        b = mc_mean_count(p, 12, seed=5)
        assert a.mean == b.mean and a.stderr == b.stderr
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.saturated, b.saturated)

    @pytest.mark.parametrize("edges", [[0.0], [1.0, 0.0], [0.0, np.nan]],
                             ids=["one-edge", "decreasing", "nan"])
    def test_malformed_lambda_edges_rejected(self, edges):
        # one edge gave an empty histogram, decreasing edges a bare numpy
        # ValueError, and a NaN edge binned both roots
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=1.5)
        with pytest.raises(ParameterError, match="lambda_edges"):
            mc_mean_count(p, 2, n_starts=10, lambda_edges=edges)

    def test_histogram_half_line_symmetry(self):
        # prediction integrand is even: counts on [0, inf) are ~half
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.5)
        res = mc_mean_count(p, 60, seed=8,
                            lambda_edges=[-50.0, 0.0, 50.0])
        lo, hi = res.histogram_mean
        se = math.hypot(*res.histogram_stderr)
        assert abs(lo - hi) < 4 * se + 1e-9

    def test_deep_trivial_mean_is_two(self):
        # far past the transition the average count sits at the floor of 2
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=3.2)
        res = mc_mean_count(p, 40, seed=21)
        assert abs(res.mean - 2.0) <= 3 * res.stderr + 1e-12

    def test_gradient_field_matches_exact_count(self):
        # tau = 1 (the spherical mixed p-spin energy with a random field) at
        # 2 sigma_c, default start budget
        p = ModelParams(n=4, j1=1, j2=1, alpha1=1.0, alpha2=1.0,
                        sigma=2.0 * math.sqrt(3.0))
        res = mc_mean_count(p, 150, seed=11)
        exact = mean_total_exact(derived_params(covariance_pair(p), p.sigma), 4)
        assert exact.value == pytest.approx(3.89070, abs=1e-5)
        assert res.n_unsaturated == 0
        assert abs(res.mean - exact.value) <= 3 * res.stderr

    def test_linear_family_matches_elliptic_count(self):
        # j2 = 0, alpha1 = 0, sigma = 0: the coupling matrix is a scaled
        # real Ginibre draw, so mean count = 2 x mean #real eigenvalues
        from sphere_equilibria.elliptic import EllipticParams, mean_real_count
        p = ModelParams(n=4, j1=1.0, j2=0.0, alpha1=0.0, sigma=0.0)
        res = mc_mean_count(p, 60, n_starts=1500, seed=14)
        ref_mean, ref_se = mean_real_count(EllipticParams(4, 0.0), 50_000, 9)
        se = math.hypot(res.stderr, 2 * ref_se)
        assert abs(res.mean - 2 * ref_mean) <= 3 * se

    def test_strict_excludes_unsaturated(self):
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.0)
        res = mc_mean_count(p, 8, n_starts=6, seed=3,
                            strict=True)
        assert res.n_excluded == res.n_unsaturated > 0

    def test_exports(self, tmp_path):
        # the experiment runner writes the per-instance counts and one
        # instance's equilibria; both must carry what the search reported
        model = {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3, "alpha2": 0.2,
                 "sigma": 1.0}
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({"kind": "mc-count", "model": model,
                                    "instances": 5, "seed": 1}))
        cli.run(cli.parse_config(str(path)), out_dir=str(tmp_path / "mc"))
        with open(tmp_path / "mc" / "mc_counts.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["instance", "n_found", "saturated", "seed"]
        assert len(rows) == 6
        with open(tmp_path / "mc" / "summary.json") as fh:
            summary = json.load(fh)
        assert_allclose(np.mean([int(r[1]) for r in rows[1:]]),
                        summary["mean"], rtol=1e-12)

        path = tmp_path / "dyn.json"
        path.write_text(json.dumps({"kind": "dynamics", "model": model,
                                    "starts": 2, "t_max": 1.0,
                                    "instance_seed": 2, "seed": 1}))
        cli.run(cli.parse_config(str(path)), out_dir=str(tmp_path / "dyn"))
        with open(tmp_path / "dyn" / "equilibria.json") as fh:
            payload = json.load(fh)
        with open(tmp_path / "dyn" / "summary.json") as fh:
            summary = json.load(fh)
        assert payload["n_found"] == summary["n_equilibria"] > 0
        assert len(payload["points"]) == payload["n_found"]
