"""Constrained-flow integration: multiplier, relaxation, order, matching."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_equilibria.dynamics import (default_dt, integrate,
                                        lambda_of_state,
                                        run_to_equilibrium_batch, velocity)
from sphere_equilibria.errors import (DomainError, NumericalError,
                                      ParameterError)
from sphere_equilibria.field_model import ModelParams, sample_field
from sphere_equilibria.search import find_equilibria


def sphere_point(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    return math.sqrt(n) * x / np.linalg.norm(x)


def field_free_instance(n=4, sigma=1.5, seed=7):
    return sample_field(ModelParams(n=n, j1=0, j2=0, sigma=sigma), seed)


class TestLambdaOfState:
    def test_field_free_at_attractor(self):
        inst = field_free_instance()
        hnorm = np.linalg.norm(inst.h)
        x = 2.0 * inst.h / hnorm
        assert_allclose(lambda_of_state(inst, x), hnorm / 2.0, rtol=1e-12)

    def test_zero_everything(self):
        inst = sample_field(ModelParams(n=4, j1=0, j2=0, sigma=0.0), 1)
        assert lambda_of_state(inst, sphere_point(4, 0)) == 0.0

    def test_off_sphere_rejected(self):
        inst = field_free_instance()
        with pytest.raises(DomainError):
            lambda_of_state(inst, 1.5 * sphere_point(4, 1))

    def test_matches_solver_multiplier_at_roots(self):
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.8)
        inst = sample_field(p, 4)
        rep = find_equilibria(inst, seed=2)
        for pt in rep.points:
            assert abs(lambda_of_state(inst, pt.x) - pt.lam) < 1e-8


class TestIntegrate:
    def test_field_free_relaxation(self):
        # generic starts slide to sqrt(N) h/|h|; lambda rises monotonically
        # to |h|/sqrt(N)
        inst = field_free_instance()
        hnorm = np.linalg.norm(inst.h)
        rate = hnorm / 2.0
        x0 = sphere_point(4, 3)
        traj = integrate(inst, x0, dt=0.005, t_end=20.0 / rate)
        xstar = 2.0 * inst.h / hnorm
        assert np.linalg.norm(traj.states[-1] - xstar) < 1e-6
        assert traj.constraint_drift <= 1e-8
        lams = traj.lambdas
        assert np.all(np.diff(lams) > -1e-12)
        assert_allclose(lams[-1], rate, rtol=1e-9)

    def test_drift_without_renormalization_scales_as_dt4(self):
        inst = field_free_instance(sigma=0.8)
        x0 = sphere_point(4, 5)
        drifts = []
        for dt in (0.02, 0.01):
            traj = integrate(inst, x0, dt=dt, t_end=2.0, renormalize=False)
            drifts.append(traj.constraint_drift)
        ratio = drifts[0] / drifts[1]
        assert 8.0 < ratio < 40.0  # ~2^4 with step-count prefactor slack

    def test_step_halving_order(self):
        # fourth-order scheme: state error at fixed t shrinks ~16x per halving
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=0.5)
        inst = sample_field(p, 9)
        x0 = sphere_point(4, 11)
        t_end = 1.0
        ends = [integrate(inst, x0, dt=dt, t_end=t_end).states[-1]
                for dt in (0.04, 0.02, 0.01)]
        e1 = np.linalg.norm(ends[0] - ends[2])
        e2 = np.linalg.norm(ends[1] - ends[2])
        assert e1 / e2 > 8.0

    def test_divergence_detected_without_renormalization(self):
        inst = field_free_instance(sigma=3.0)
        with pytest.raises(NumericalError, match="diverged"):
            integrate(inst, sphere_point(4, 2), dt=1.5, t_end=60.0,
                      renormalize=False)

    def test_every_step_is_recorded(self):
        # 50 steps: the start and every step are recorded
        inst = field_free_instance()
        traj = integrate(inst, sphere_point(4, 1), dt=0.01, t_end=0.5)
        assert len(traj.times) == 51
        assert_allclose(traj.times, np.arange(51) * 0.01, rtol=1e-12)
        assert traj.states.shape == (51, 4)
        assert traj.lambdas.shape == (51,)


class TestRunToEquilibrium:
    def test_matches_counted_equilibria_in_trivial_regime(self):
        p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=3.2)
        inst = sample_field(p, 6)
        report = find_equilibria(inst, seed=1)
        assert report.n_found == 2
        rng = np.random.default_rng(0)
        g = rng.standard_normal((100, 4))
        x0 = 2.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
        results = run_to_equilibrium_batch(inst, x0, report)
        matched = sum(r.matched is not None for r in results)
        assert matched >= 99

    def test_gradient_flow_converges(self):
        p = ModelParams(n=4, j1=1, j2=1, alpha1=1.0, alpha2=1.0, sigma=0.3)
        inst = sample_field(p, 8)
        report = find_equilibria(inst, n_starts=4000, seed=2)
        for s in range(10):
            (res,) = run_to_equilibrium_batch(
                inst, sphere_point(4, 50 + s)[None], report)
            assert res.converged and res.matched is not None

    def test_pure_rotation_reports_no_convergence(self):
        # antisymmetric linear field: norm-preserving rotation, lambda = 0
        p = ModelParams(n=4, j1=1.0, j2=0.0, alpha1=-1.0, sigma=0.0)
        inst = sample_field(p, 3)
        (res,) = run_to_equilibrium_batch(inst, sphere_point(4, 1)[None],
                                          t_max=20.0)
        assert not res.converged
        assert abs(res.lam) < 1e-10
        assert res.v_norm > 1e-3

    def test_terminal_residual_small_when_converged(self):
        inst = field_free_instance()
        (res,) = run_to_equilibrium_batch(inst, sphere_point(4, 4)[None])
        assert res.converged
        assert np.linalg.norm(velocity(inst, res.x)) <= 1e-6

    def test_default_dt_requires_scale(self):
        # no field at all, and a Phi1'(1) that overflows
        for model in (dict(j1=0, j2=0, sigma=0.0),
                      dict(j1=1, alpha1=1e200, sigma=1.0)):
            inst = sample_field(ModelParams(n=4, **model), 1)
            with pytest.raises(ParameterError, match="field scale"):
                default_dt(inst)

    @pytest.mark.parametrize("opts", [dict(t_max=-2.0), dict(t_max=0.0),
                                      dict(t_max=-math.inf),
                                      dict(t_max=math.nan)])
    def test_nonpositive_time_inputs_rejected(self, opts):
        # a nonpositive t_max would take no step at all, and a NaN one has no
        # step count
        p = ModelParams(n=4, j1=1, j2=1, sigma=1.0)
        inst = sample_field(p, 1)
        x0 = np.array([[2.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ParameterError, match="positive"):
            run_to_equilibrium_batch(inst, x0, **opts)


# run_to_equilibrium_batch on 12 starts at sigma_c, recorded before the RK4
# loop was shared with `integrate`: (converged, t, lam, v_norm, matched).
# dt = 0.0048..., so t_max = 15 takes 3122 steps (not a multiple of the
# 8-step check); rows converge at different checks and four never do.
PINNED_BATCH = [
    (True, 10.687861928828411, 1.7815315432428145, 9.380076633496813e-09, 6),
    (True, 11.11076294040076, 1.7815315396877365, 9.76788290037868e-09, 6),
    (True, 10.07273318472318, 1.7815315396673572, 9.877644629050118e-09, 6),
    (True, 10.380297556775796, 1.7815315433208825, 9.800456736443604e-09, 6),
    (True, 10.149624277736333, 1.7815315432607524, 9.47659661054179e-09, 6),
    (True, 11.49521840546653, 1.7815315396854396, 9.780254290908501e-09, 6),
    (False, 15.003374524191683, 1.1570452838552736, 3.418313766704476e-07, None),
    (False, 15.003374524191683, 1.1570452747548665, 2.0381014237520874e-07, None),
    (False, 15.003374524191683, 1.1570452569180407, 6.671467841675029e-08, None),
    (True, 12.571693707650686, 1.9468648947737166, 9.620082292717964e-09, 7),
    (False, 15.003374524191683, 1.1570452538684615, 1.1296841922396484e-07, None),
    (True, 10.380297556775796, 1.7815315433004786, 9.690558163704285e-09, 6),
]


def test_batch_pinned_bit_for_bit():
    sigma_c = math.sqrt(3.25 - 2.17)  # Phi1'(1) - Phi1(1) of this model
    p = ModelParams(n=4, j1=1, j2=1, alpha1=0.3, alpha2=0.2, sigma=sigma_c)
    inst = sample_field(p, 2)
    report = find_equilibria(inst, seed=1)
    assert report.n_found == 8
    g = np.random.default_rng(11).standard_normal((12, 4))
    x0 = 2.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
    steps = math.ceil(15.0 / default_dt(inst))
    assert steps == 3122
    results = run_to_equilibrium_batch(inst, x0, report, t_max=15.0)
    got = [(r.converged, r.t, r.lam, r.v_norm, r.matched) for r in results]
    assert got == PINNED_BATCH
    # reference matcher: the first enumerated point within the dedup radius
    for r in results:
        first = next((i for i, pt in enumerate(report.points)
                      if np.linalg.norm(pt.x - r.x) <= report.dedup_radius),
                     None)
        assert r.matched == (first if r.converged else None)
    # a state within reach of two points matches the first of them
    twice = replace(report, points=[report.points[7], report.points[6],
                                    report.points[6]])
    ends = np.array([r.x for r in results if r.converged])
    again = run_to_equilibrium_batch(inst, ends, twice, t_max=15.0)
    assert [r.matched for r in again] == [
        {6: 1, 7: 0}[r.matched] for r in results if r.converged]
