"""Field sampler, analytic covariances, Jacobians."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sphere_equilibria.errors import ParameterError
from sphere_equilibria.field_model import (CovariancePair,
                                           JacobianCovariance, ModelParams,
                                           covariance_pair, field_covariance,
                                           sample_field)


def sphere_point(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return math.sqrt(n) * x / np.linalg.norm(x)


class TestModelParams:
    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            ModelParams(n=1)

    def test_rejects_negative_scales(self):
        with pytest.raises(ParameterError):
            ModelParams(n=4, j1=-1.0)
        with pytest.raises(ParameterError):
            ModelParams(n=4, sigma=-0.1)

    def test_field_free_follows_the_couplings(self):
        # j1 = j2 = 0 is the field-free model; no flag can contradict it
        assert ModelParams(n=4, j1=0.0, j2=0.0).field_free
        assert ModelParams(n=4, j1=0.0, sigma=1.0).field_free
        assert not ModelParams(n=4, j1=0.0, j2=1.0).field_free
        assert not ModelParams(n=4).field_free
        with pytest.raises(TypeError, match="field_free"):
            ModelParams(n=4, j1=1.0, j2=1.0, field_free=True)

    def test_field_free_has_no_covariance(self):
        p = ModelParams(n=4, j1=0.0, j2=0.0, sigma=1.0)
        with pytest.raises(ParameterError):
            covariance_pair(p)


class TestSampling:
    def test_zero_scale_components_vanish(self):
        inst = sample_field(ModelParams(n=4, j1=1.0, j2=0.0), 7)
        assert np.all(inst.j2_tensor == 0.0)
        assert np.all(inst.h == 0.0)
        assert np.any(inst.j1_matrix != 0.0)

    def test_deterministic_in_seed(self):
        p = ModelParams(n=4, j1=1.0, j2=1.0, alpha1=0.2, alpha2=0.3, sigma=0.5)
        a, b, c = sample_field(p, 7), sample_field(p, 7), sample_field(p, 8)
        for name in ("h", "j1_matrix", "j2_tensor", "_j2_sym"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
            assert not np.array_equal(getattr(a, name), getattr(c, name))

    @pytest.mark.parametrize("model, seed, digests", [
        (dict(n=4, j2=0.0, alpha1=0.5, sigma=0.4), 3,
         ("f35696a419a894309c7ccf04960bd0e2", "c492fa38ede83abd68f10526fc0dbe47",
          "4e6b8cdf479b6d8407c6d3d4d306d10e", "a6c246e9ad585ada661c56049919d750")),
        (dict(n=10, j2=0.0, alpha1=-0.3, sigma=0.2), 5,
         ("fb403a0017295ac2f043bb7d4442931e", "2bb23f9839b8c9358ac73e5f7361d7c7",
          "bdd25a67fc4dbfb6dd5980e2cbd29679", "fc06abb95299e7be54798da4bbfae292")),
        (dict(n=4, j2=1.0, alpha1=0.3, alpha2=0.2, sigma=1.0), 7,
         ("f2c4d0003281f3c539d49343e16b23c1", "a1e232c1e450feed5e739d7b7ff3cd74",
          "be68cf277d62a49a58128f2a6050b48a", "37edf0fb378d72724d1f0b901b31dead")),
        (dict(n=10, j1=0.7, j2=1.3, alpha1=0.4, alpha2=-0.3, sigma=0.5), 11,
         ("bd126be6368c823dc220b70fbee9dc38", "8789f899b9763bb8c1cfaa46f15c0d43",
          "70f0ee463dcc272fa664935acc7b3d5e", "ba138dd607b73e535a189f36c786353e")),
    ])
    def test_pinned_field_bits(self, model, seed, digests):
        # every evaluation reads these arrays, bit for bit and in C order
        # (eval_field's contraction rounds by the tensor's layout); the
        # digests are sha256 prefixes of their bytes
        inst = sample_field(ModelParams(**model), seed)
        for name, want in zip(("h", "j1_matrix", "j2_tensor", "_j2_sym"),
                              digests):
            arr = getattr(inst, name)
            assert arr.flags.c_contiguous, name
            assert hashlib.sha256(arr.tobytes()).hexdigest()[:32] == want, name

    def test_v1_entry_variance(self):
        # entries ~ N(0, j1^2/n): j1=2, n=8 -> 0.5; alpha1 = 0 makes J1 = V1
        p = ModelParams(n=8, j1=2.0, j2=0.0)
        vals = np.concatenate([sample_field(p, s).j1_matrix.ravel()
                               for s in range(10_000 // 64 + 1)])
        var = vals.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(vals) - 1))
        assert abs(var - 0.5) < 3 * se

    def test_v2_entry_variance(self):
        # entries ~ N(0, j2^2/n^2): j2=3, n=4 -> 9/16; alpha2 = 0 makes J2 = V2
        p = ModelParams(n=4, j1=0.0, j2=3.0)
        vals = np.concatenate([sample_field(p, s).j2_tensor.ravel()
                               for s in range(200)])
        var = vals.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(vals) - 1))
        assert abs(var - 9.0 / 16.0) < 3 * se

    def test_h_entry_variance(self):
        p = ModelParams(n=6, j1=1.0, sigma=1.5)
        vals = np.concatenate([sample_field(p, s).h for s in range(3000)])
        var = vals.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(vals) - 1))
        assert abs(var - 2.25) < 3 * se


class TestEvalField:
    def test_zero_point_maps_to_zero(self):
        inst = sample_field(ModelParams(n=5, j1=1.0, j2=1.0), 3)
        assert_array_equal(inst.eval_field(np.zeros(5)), np.zeros(5))

    def test_linear_reduction(self):
        # j2=0, alpha1=0: f = V1 x exactly
        inst = sample_field(ModelParams(n=6, j1=1.3, j2=0.0, alpha1=0.0), 11)
        x = sphere_point(6, 0)
        assert_allclose(inst.eval_field(x), inst.j1_matrix @ x, rtol=0, atol=0)

    def test_batched_evaluation_matches_loop(self):
        inst = sample_field(ModelParams(n=4, j1=1.0, j2=1.0, alpha1=0.4,
                                        alpha2=-0.3, sigma=0.2), 5)
        xs = np.array([sphere_point(4, s) for s in range(7)])
        batched = inst.eval_field(xs)
        for i in range(7):
            # a one-row product goes through BLAS gemv, whose rounding of the
            # linear term can differ from a batch's gemm in the last bits;
            # batches of two or more rows agree bit for bit
            # (test_sub_batches_bit_equal)
            assert_allclose(batched[i], inst.eval_field(xs[i]), rtol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 10])
    def test_bit_equal_to_reference_contraction(self, n):
        inst = sample_field(ModelParams(n=n, j1=1.0, j2=1.0, alpha1=0.4,
                                        alpha2=-0.3), n)
        rng = np.random.default_rng(n)
        for shape in [(n,), (1, n), (7, n), (3000, n), (2, 5, n)]:
            x = 2.0 * rng.standard_normal(shape)
            want = (x @ inst.j1_matrix.T
                    + np.einsum("knm,...n,...m->...k", inst.j2_tensor, x, x))
            got = inst.eval_field(x)
            assert got.shape == shape and got.flags.c_contiguous
            assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 4, 8, 10])
    def test_sub_batches_bit_equal(self, n):
        # the Newton line search evaluates a row in batches of varying size
        inst = sample_field(ModelParams(n=n, j1=1.0, j2=1.0, alpha1=0.4,
                                        alpha2=-0.3), n)
        x = np.random.default_rng(n).standard_normal((3000, n))
        big = inst.eval_field(x)
        for size in (2, 3, 7, 64, 1000):
            for lo in (0, 1, 1234, 3000 - size):
                assert_array_equal(inst.eval_field(x[lo:lo + size]),
                                   big[lo:lo + size])
        # with no linear term a single row is bit-equal too
        quad = sample_field(ModelParams(n=n, j1=0.0, j2=1.0, alpha2=-0.3), n)
        big = quad.eval_field(x)
        for i in (0, 17, 2999):
            assert_array_equal(quad.eval_field(x[i]), big[i])
            assert_array_equal(quad.eval_field(x[i:i + 1]), big[i:i + 1])

    def test_dimension_mismatch(self):
        inst = sample_field(ModelParams(n=4, j1=1.0), 1)
        with pytest.raises(ParameterError):
            inst.eval_field(np.zeros(5))

    def test_covariance_against_analytic(self):
        # E f_k(x) f_p(x') from samples vs the two-function structure
        p = ModelParams(n=6, j1=1.0, j2=0.8, alpha1=0.5, alpha2=-0.4)
        cov = covariance_pair(p)
        x = sphere_point(6, 1)
        xp = sphere_point(6, 2)
        m = 20_000
        fx = np.empty((m, 6))
        fxp = np.empty((m, 6))
        for s in range(m):
            inst = sample_field(p, s)
            fx[s] = inst.eval_field(x)
            fxp[s] = inst.eval_field(xp)
        for (k, q) in [(0, 0), (1, 1), (0, 1), (2, 5), (4, 4)]:
            prods = fx[:, k] * fxp[:, q]
            se = prods.std(ddof=1) / math.sqrt(m)
            want = field_covariance(cov, x, xp, k, q)
            assert abs(prods.mean() - want) < 3.5 * se, (k, q)


class TestJacobian:
    def test_linear_field_constant_jacobian(self):
        inst = sample_field(ModelParams(n=5, j1=1.0, j2=0.0, alpha1=0.7), 2)
        for s in range(3):
            assert_allclose(inst.eval_jacobian(sphere_point(5, s)),
                            inst.j1_matrix, rtol=0, atol=0)

    def test_gradient_case_symmetric(self):
        inst = sample_field(ModelParams(n=6, j1=1.0, j2=1.0,
                                        alpha1=1.0, alpha2=1.0), 9)
        for s in range(4):
            k = inst.eval_jacobian(sphere_point(6, s))
            assert_allclose(k, k.T, rtol=0, atol=1e-14)

    def test_finite_difference_oracle(self):
        inst = sample_field(ModelParams(n=5, j1=1.0, j2=1.0, alpha1=0.3,
                                        alpha2=0.6, sigma=0.4), 21)
        x = sphere_point(5, 4)
        step = 1e-4
        fd = np.empty((5, 5))
        for l in range(5):
            e = np.zeros(5)
            e[l] = step
            fd[:, l] = (inst.eval_field(x + e) - inst.eval_field(x - e)) / (2 * step)
        assert np.max(np.abs(inst.eval_jacobian(x) - fd)) <= 1e-6


class TestCovariancePair:
    def test_symmetric_quadratic_example(self):
        cov = covariance_pair(ModelParams(n=4, j1=1.0, j2=1.0,
                                          alpha1=1.0, alpha2=1.0))
        # Phi1(u) = 2u + 3u^2, Phi2(u) = 2 + 6u
        assert cov.phi1_coeffs == (0.0, 2.0, 3.0)
        assert cov.phi2_coeffs == (2.0, 6.0)

    def test_plain_linear_example(self):
        cov = covariance_pair(ModelParams(n=4, j1=1.0, j2=0.0, alpha1=0.0))
        assert cov.phi1_coeffs == (0.0, 1.0, 0.0)
        assert cov.phi2_coeffs == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_admissibility_gap_identity(self, seed):
        # Phi1'(1) - Phi2(1) = (1-a1)^2 J1^2 + 2 (1-a2)^2 J2^2 >= 0
        rng = np.random.default_rng(seed)
        j1, j2 = rng.uniform(0.1, 2.0, 2)
        a1, a2 = rng.uniform(-1.5, 1.5, 2)
        cov = covariance_pair(ModelParams(n=4, j1=j1, j2=j2, alpha1=a1, alpha2=a2))
        gap = cov.dphi1(1.0) - cov.phi2(1.0)
        want = (1 - a1) ** 2 * j1 ** 2 + 2 * (1 - a2) ** 2 * j2 ** 2
        assert gap >= -1e-12
        assert_allclose(gap, want, rtol=1e-12)

    def test_invalid_band_rejected(self):
        with pytest.raises(ParameterError):
            CovariancePair((0.0, 1.0, 0.0), (2.5, 0.0))  # Phi2(1) > Phi1'(1)


class TestJacobianCovariance:
    def test_on_axis_gradient_variance(self):
        # at x = sqrt(N) e1: <(df_2/dx_2)^2> = (Phi2(1) + Phi1'(1))/N
        p = ModelParams(n=6, j1=1.0, j2=0.7, alpha1=0.4, alpha2=0.1)
        cov = covariance_pair(p)
        x = np.zeros(6)
        x[0] = math.sqrt(6)
        jc = JacobianCovariance(cov, x)
        want = (cov.phi2(1.0) + cov.dphi1(1.0)) / 6
        assert_allclose(jc.grad_grad(1, 1, 1, 1), want, rtol=1e-14)

    def test_disjoint_offaxis_indices_vanish(self):
        p = ModelParams(n=6, j1=1.0, j2=0.7, alpha1=0.4, alpha2=0.1)
        x = np.zeros(6)
        x[0] = math.sqrt(6)
        jc = JacobianCovariance(covariance_pair(p), x)
        # {k,l} and {p,n} disjoint, all off the special axis
        assert jc.grad_grad(1, 2, 3, 4) == 0.0

    def test_covariance_audit_monte_carlo(self):
        # sampled (f, df) covariances vs the analytic formulas: 20 random
        # index tuples at 2 sphere points, >= 10^4 instances
        p = ModelParams(n=6, j1=1.0, j2=0.8, alpha1=0.5, alpha2=-0.4)
        cov = covariance_pair(p)
        m = 10_000
        points = [sphere_point(6, 100), sphere_point(6, 200)]
        f_samp = {id(x): np.empty((m, 6)) for x in points}
        k_samp = {id(x): np.empty((m, 6, 6)) for x in points}
        for s in range(m):
            inst = sample_field(p, 5000 + s)
            for x in points:
                f_samp[id(x)][s] = inst.eval_field(x)
                k_samp[id(x)][s] = inst.eval_jacobian(x)
        rng = np.random.default_rng(0)
        tuples = rng.integers(0, 6, size=(20, 4))
        for x in points:
            jc = JacobianCovariance(cov, x)
            fs, ks = f_samp[id(x)], k_samp[id(x)]
            for k, n_idx, q, l in tuples:
                prods = ks[:, k, n_idx] * ks[:, q, l]
                se = prods.std(ddof=1) / math.sqrt(m)
                want = jc.grad_grad(k, n_idx, q, l)
                assert abs(prods.mean() - want) < 4 * se + 1e-12
                prods = fs[:, k] * ks[:, q, l]
                se = prods.std(ddof=1) / math.sqrt(m)
                want = jc.field_grad(k, q, l)
                assert abs(prods.mean() - want) < 4 * se + 1e-12


class TestScalingAndIsotropy:
    def test_exact_rescaling_with_shared_draws(self):
        p = ModelParams(n=5, j1=1.0, j2=0.5, alpha1=0.3, alpha2=0.2, sigma=0.7)
        inst = sample_field(p, 13)
        # each block has its own Philox stream: the same seed reuses the draws
        scaled = sample_field(replace(p, j1=2.0, j2=1.0, sigma=1.4), 13)
        x = sphere_point(5, 6)
        assert_array_equal(scaled.h, 2.0 * inst.h)
        # linear part doubles, quadratic part doubles: both scale by c
        assert_array_equal(scaled.eval_field(x), 2.0 * inst.eval_field(x))

    def test_isotropy_second_moments(self):
        # law of f(Ox) equals law of O f(x): compare moments of w . f(x0)
        p = ModelParams(n=5, j1=1.0, j2=0.8, alpha1=0.5, alpha2=-0.2)
        rng = np.random.default_rng(3)
        o, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        x0 = sphere_point(5, 8)
        w = rng.standard_normal(5)
        m = 6000
        a = np.empty(m)
        b = np.empty(m)
        for s in range(m):
            inst = sample_field(p, 40_000 + s)
            a[s] = w @ inst.eval_field(x0)
            b[s] = (o @ w) @ inst.eval_field(o @ x0)
        se = math.sqrt(a.var(ddof=1) / m + b.var(ddof=1) / m)
        assert abs(a.mean() - b.mean()) < 4 * se
        var_se = math.sqrt(2.0 / (m - 1)) * max(a.var(), b.var())
        assert abs(a.var(ddof=1) - b.var(ddof=1)) < 4 * var_se
