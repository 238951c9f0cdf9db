"""Spherically constrained flow with the closed-form Lagrange multiplier.

The flow ``dx/dt = -lam(x) x + h + f(x)`` stays on the sphere |x|^2 = N when
``lam(x) = x . (h + f(x)) / N``; differentiating the constraint gives exactly
that multiplier, so no implicit solve is needed.  Integration is classical
RK4 with the multiplier recomputed at every stage, plus a renormalization of
|x| after each step that removes the residual O(dt^5)-per-step drift.  One
batched step serves both drivers: `integrate` runs it on a single row and
can switch the renormalization off, `run_to_equilibrium_batch` always
renormalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .field_model import FieldInstance, covariance_pair
from .search import CountReport

__all__ = [
    "Trajectory",
    "RunResult",
    "lambda_of_state",
    "velocity",
    "integrate",
    "run_to_equilibrium_batch",
    "default_dt",
]


def lambda_of_state(inst: FieldInstance, x: np.ndarray) -> float | np.ndarray:
    """Lagrange multiplier ``x . (h + f(x)) / N`` on the sphere (batched).

    Raises for points whose |x|^2/N is off 1 by more than 1e-6.
    """
    x = np.asarray(x, dtype=float)
    drift = (np.abs((x * x).sum(axis=-1) / inst.n - 1.0)).max()
    if drift > 1e-6:
        raise DomainError(f"state off the sphere: | |x|^2/N - 1 | = {drift:.3e}")
    lam = (x * inst.drift(x)).sum(axis=-1) / inst.n
    return float(lam) if np.ndim(lam) == 0 else lam


def velocity(inst: FieldInstance, x: np.ndarray) -> np.ndarray:
    """Constrained flow velocity -lam(x) x + h + f(x) (batched, no sphere check)."""
    x = np.asarray(x, dtype=float)
    d = inst.drift(x)
    lam = (x * d).sum(axis=-1, keepdims=True) / inst.n
    return d - lam * x


def default_dt(inst: FieldInstance) -> float:
    """Field-scale step 0.01/sqrt(Phi1'(1) + sigma^2)."""
    p = inst.params
    dphi1 = 0.0 if p.field_free else covariance_pair(p).dphi1(1.0)
    scale = math.sqrt(dphi1 + p.sigma ** 2)
    if not 0.0 < scale < math.inf:
        raise ParameterError(f"the field scale sqrt(Phi1'(1) + sigma^2) = "
                             f"{scale} sets no time step")
    return 0.01 / scale


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    lambdas: np.ndarray
    constraint_drift: float


def _check_start(inst: FieldInstance, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[-1] != inst.n:
        raise ParameterError(f"start has dimension {x0.shape[-1]}, field {inst.n}")
    off = np.abs((x0 * x0).sum(axis=-1) / inst.n - 1.0)
    if off.max() > 1e-12:
        raise DomainError(f"start off the sphere: | |x|^2/N - 1 | = {off.max():.3e}")
    return x0


def _rk4_step(inst: FieldInstance, x: np.ndarray, dt: float,
              renormalize: bool = True) -> np.ndarray:
    """One RK4 step of every row of `x`, projected back to |x| = sqrt(N)
    unless `renormalize` is off."""
    k1 = velocity(inst, x)
    k2 = velocity(inst, x + 0.5 * dt * k1)
    k3 = velocity(inst, x + 0.5 * dt * k2)
    k4 = velocity(inst, x + dt * k3)
    x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if renormalize:
        x = math.sqrt(inst.n) * x / np.linalg.norm(x, axis=1, keepdims=True)
    return x


def integrate(inst: FieldInstance, x0: np.ndarray, dt: float, t_end: float,
              renormalize: bool = True) -> Trajectory:
    """Integrate the constrained flow from a point on the sphere.

    With `renormalize` the state is projected back to radius sqrt(N) after
    every step; otherwise the norm drifts at the scheme's order and the run
    aborts if |x| leaves a 10% band.  The start and every step are recorded.
    """
    if dt <= 0 or t_end <= 0:
        raise ParameterError("dt and t_end must be positive")
    x = _check_start(inst, x0).reshape(1, inst.n)
    steps = int(math.ceil(t_end / dt))
    times, states, lambdas = [], [], []
    drift = 0.0

    def record(t, x):
        times.append(t)
        states.append(x[0].copy())
        lambdas.append((x * inst.drift(x)).sum() / inst.n)

    record(0.0, x)
    for i in range(1, steps + 1):
        x = _rk4_step(inst, x, dt, renormalize)
        r2 = (x * x).sum() / inst.n
        if not renormalize and abs(math.sqrt(r2) - 1.0) > 0.1:
            raise NumericalError(
                f"integration diverged at t={i * dt:.3g}: |x|/sqrt(N) = "
                f"{math.sqrt(r2):.3f} (renormalization is off)")
        drift = max(drift, abs(r2 - 1.0))
        record(i * dt, x)
    return Trajectory(times=np.array(times), states=np.array(states),
                      lambdas=np.array(lambdas), constraint_drift=float(drift))


# RK4 steps between velocity checks of `run_to_equilibrium_batch`, and the
# velocity norm at which a row has converged
_CHECK_EVERY = 8
_V_TOL = 1e-8


@dataclass
class RunResult:
    converged: bool
    x: np.ndarray
    lam: float
    v_norm: float
    t: float
    matched: int | None = None  # index into the report's `points`


def run_to_equilibrium_batch(inst: FieldInstance, x0s: np.ndarray,
                             report: CountReport | None = None,
                             t_max: float | None = None) -> list[RunResult]:
    """Integrate each row of x0s in RK4 steps of `default_dt` until its
    velocity norm falls to `_V_TOL` (1e-8) or `t_max` (None: 8000 steps) ends.

    Convergence is detected on the velocity, not on state differences, to
    avoid false positives on slowly drifting manifolds.  Non-relaxational
    flows may cycle forever; that outcome is reported, not raised.  The
    velocity is checked every `_CHECK_EVERY` steps and at the last one; rows
    that converged there leave the integrated batch.  With a `report`, a
    converged terminal state is matched against the enumerated equilibria by
    the report's dedup radius: `matched` is the index of the first point of
    `report.points` within that radius.
    """
    dt = default_dt(inst)
    # 8000 steps = 80 units of the slowest field scale
    t_max = 8000.0 * dt if t_max is None else t_max
    if not t_max > 0:  # a nonpositive t_max would take no step at all
        raise ParameterError(f"t_max must be positive, got {t_max}")
    x_end = _check_start(inst, x0s).copy()
    t_done = np.full(len(x_end), np.nan)
    act = np.arange(len(x_end))  # rows still integrating, in row order
    x = x_end
    steps = int(math.ceil(t_max / dt))
    for i in range(1, steps + 1):
        x = _rk4_step(inst, x, dt)
        if i % _CHECK_EVERY == 0 or i == steps:
            x_end[act] = x
            done = np.linalg.norm(velocity(inst, x), axis=1) <= _V_TOL
            t_done[act[done]] = i * dt
            act, x = act[~done], x[~done]
            if not act.size:
                break
    converged = ~np.isnan(t_done)
    v_end = np.linalg.norm(velocity(inst, x_end), axis=1)
    lam = (x_end * inst.drift(x_end)).sum(axis=1) / inst.n
    matched = np.full(len(x_end), -1)
    if report is not None and report.points:
        pts = np.array([pt.x for pt in report.points])
        near = np.linalg.norm(x_end[:, None, :] - pts[None, :, :],
                              axis=2) <= report.dedup_radius
        matched = np.where(converged & near.any(axis=1), near.argmax(axis=1), -1)
    return [RunResult(converged=bool(conv), x=x_end[j].copy(),
                      lam=float(lam[j]), v_norm=float(v_end[j]),
                      t=float(t_done[j]) if conv else float(steps * dt),
                      matched=int(matched[j]) if matched[j] >= 0 else None)
            for j, conv in enumerate(converged)]
