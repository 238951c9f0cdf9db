"""Explicit Gaussian random vector fields on the sphere of radius sqrt(N).

A field instance is built from three independent blocks of iid centred
Gaussians: an N x N matrix (linear couplings, entry variance J1^2/N), an
N x N x N tensor (quadratic couplings, entry variance J2^2/N^2) and an
N-vector magnetic field (entry variance sigma^2).  Asymmetry parameters
alpha1, alpha2 mix each block with its transposes; alpha1 = alpha2 = 1 makes
the field a gradient.

Each block is drawn from its own Philox stream keyed by (seed, block id), so
`sample_field` with the same seed and rescaled J1/J2/sigma reuses the same
unit draws: rescaling the coupling strengths is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .errors import ParameterError

__all__ = [
    "ModelParams",
    "CovariancePair",
    "admissible_phi2",
    "FieldInstance",
    "sample_field",
    "covariance_pair",
    "field_covariance",
    "JacobianCovariance",
]

_W1_STREAM, _W2_STREAM, _WH_STREAM = 0, 1, 2


@dataclass(frozen=True)
class ModelParams:
    """The six scalars defining the random ensemble."""

    n: int
    j1: float = 1.0
    j2: float = 0.0
    alpha1: float = 0.0
    alpha2: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n}")
        for name in ("j1", "j2", "sigma"):
            v = getattr(self, name)
            if not np.isfinite(v * v) or v < 0:  # the scales enter squared
                raise ParameterError(f"{name} must be >= 0 with a finite square, got {v}")
        for name in ("alpha1", "alpha2"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")

    @property
    def field_free(self) -> bool:
        """No coupling field (j1 = j2 = 0): the flow is the magnetic field's."""
        return self.j1 == 0.0 and self.j2 == 0.0


@dataclass(frozen=True)
class CovariancePair:
    """Polynomial covariance functions of the field.

    ``E f_k(x) f_p(x') = delta_kp Phi1(u) + (x_p x'_k / N) Phi2(u)`` with
    u = x.x'/N.  For the explicit quadratic construction Phi1 has degree 2
    with no constant term and Phi2 degree 1:

        Phi1(u) = (1 + alpha1^2) J1^2 u + (1 + 2 alpha2^2) J2^2 u^2
        Phi2(u) = 2 alpha1 J1^2 + 2 alpha2 (2 + alpha2) J2^2 u

    Its values at u = 1 must pass `admissible_phi2`.
    """

    phi1_coeffs: tuple[float, float, float]  # constant, u, u^2
    phi2_coeffs: tuple[float, float]         # constant, u

    def __post_init__(self):
        admissible_phi2(self.phi1(1.0), self.dphi1(1.0), self.phi2(1.0))

    def phi1(self, u):
        c0, c1, c2 = self.phi1_coeffs
        return c0 + u * (c1 + u * c2)

    def dphi1(self, u):
        _, c1, c2 = self.phi1_coeffs
        return c1 + 2.0 * c2 * u

    def d2phi1(self, u):
        return 2.0 * self.phi1_coeffs[2] + 0.0 * u

    def phi2(self, u):
        d0, d1 = self.phi2_coeffs
        return d0 + d1 * u

    def dphi2(self, u):
        return self.phi2_coeffs[1] + 0.0 * u

    def d2phi2(self, u):
        return 0.0 * u


def admissible_phi2(phi1: float, dphi1: float, phi2: float) -> float:
    """The package's one admissibility rule, for `CovariancePair` and
    `DerivedParams.from_values`: Phi1(1) > 0, Phi1'(1) >= Phi1(1) and Phi2(1)
    in [-Phi1(1), Phi1'(1)] up to 1e-12 Phi1'(1), else `ParameterError`.

    Models meet each band edge quadratically in their asymmetry, so one 1e-9
    from an edge can round past it.  Phi2(1) is returned snapped onto the
    band, so tau = Phi2(1) / Phi1'(1) lies in [-1, 1] exactly.
    """
    if not phi1 > 0:
        raise ParameterError(f"Phi1(1) must be positive, got {phi1}")
    if not dphi1 >= phi1:
        raise ParameterError(f"Phi1'(1) = {dphi1} < Phi1(1) = {phi1}")
    slack = 1e-12 * dphi1
    if not -phi1 - slack <= phi2 <= dphi1 + slack:
        raise ParameterError(
            f"Phi2(1) = {phi2} outside the admissible band [-Phi1(1), Phi1'(1)]")
    return min(max(phi2, -phi1), dphi1)


def covariance_pair(params: ModelParams) -> CovariancePair:
    """Analytic covariance functions of the sampled field."""
    if params.field_free:
        raise ParameterError("field-free params have no coupling covariance")
    a1, a2 = params.alpha1, params.alpha2
    j1sq, j2sq = params.j1 ** 2, params.j2 ** 2
    return CovariancePair(
        phi1_coeffs=(0.0, (1.0 + a1 * a1) * j1sq, (1.0 + 2.0 * a2 * a2) * j2sq),
        phi2_coeffs=(2.0 * a1 * j1sq, 2.0 * a2 * (2.0 + a2) * j2sq))


def field_covariance(cov: CovariancePair, x: np.ndarray, xp: np.ndarray,
                     k: int, p: int) -> float:
    """E f_k(x) f_p(x') from the covariance pair."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    n = len(x)
    u = float(x @ xp) / n
    return float((k == p) * cov.phi1(u) + x[p] * xp[k] / n * cov.phi2(u))


class JacobianCovariance:
    """Analytic covariances of (field, Jacobian) entries at a point x.

    Obtained by differentiating the two-function covariance structure and
    setting both arguments to x; valid on the sphere (u = 1) and, with
    u = |x|^2/N, anywhere else.
    """

    def __init__(self, cov: CovariancePair, x: np.ndarray):
        self.cov = cov
        self.x = np.asarray(x, dtype=float)
        self.n = len(self.x)
        self.u = float(self.x @ self.x) / self.n

    def field_grad(self, k: int, p: int, l: int) -> float:
        """<f_k * d f_p / d x_l>."""
        x, n, u, cov = self.x, self.n, self.u, self.cov
        val = 0.0
        if k == l:
            val += x[p] / n * cov.phi2(u)
        if k == p:
            val += x[l] / n * cov.dphi1(u)
        val += x[p] * x[l] * x[k] / n ** 2 * cov.dphi2(u)
        return float(val)

    def grad_grad(self, k: int, n_idx: int, p: int, l: int) -> float:
        """<(d f_k / d x_n) (d f_p / d x_l)>."""
        x, n, u, cov = self.x, self.n, self.u, self.cov
        val = 0.0
        if p == n_idx and k == l:
            val += cov.phi2(u) / n
        if k == p and l == n_idx:
            val += cov.dphi1(u) / n
        if k == p:
            val += x[l] * x[n_idx] / n ** 2 * cov.d2phi1(u)
        dphi2 = cov.dphi2(u)
        if k == l:
            val += x[p] * x[n_idx] / n ** 2 * dphi2
        if p == n_idx:
            val += x[l] * x[k] / n ** 2 * dphi2
        if l == n_idx:
            val += x[p] * x[k] / n ** 2 * dphi2
        val += x[p] * x[l] * x[k] * x[n_idx] / n ** 3 * cov.d2phi2(u)
        return float(val)


class FieldInstance:
    """One realization of the random field, immutable after construction.

    Attributes
    ----------
    params, seed : defining data; regenerating with the same pair reproduces
        the arrays bit-identically.
    h : the magnetic field, ``sigma`` times a unit draw.
    j1_matrix : N x N linear coupling ``V1 + alpha1 V1^T``, where V1 is a unit
        draw times ``J1/sqrt(N)``.
    j2_tensor : N x N x N quadratic coupling
        ``V2_knm + alpha2 (V2_nkm + V2_nmk)``, where V2 is a unit draw times
        ``J2/N``.
    """

    def __init__(self, params: ModelParams, seed: int):
        n = params.n
        self.params = params
        self.seed = int(seed)
        v1 = stream(seed, _W1_STREAM).standard_normal((n, n))
        v1 *= params.j1 / math.sqrt(n)
        self.j1_matrix = v1 + params.alpha1 * v1.T
        # J2[k, n, m] = V2[k, n, m] + alpha2 (V2[n, k, m] + V2[n, m, k]),
        # built in C order: eval_field's contraction rounds by the layout
        v2 = stream(seed, _W2_STREAM).standard_normal((n, n, n))
        v2 *= params.j2 / n
        j2 = np.add(np.transpose(v2, (1, 0, 2)), np.transpose(v2, (2, 0, 1)),
                    order="C")
        j2 *= params.alpha2
        j2 += v2
        del v2
        self.j2_tensor = j2
        self._j2_sym = j2 + np.transpose(j2, (0, 2, 1))
        self.h = params.sigma * stream(seed, _WH_STREAM).standard_normal(n)
        for arr in (self.h, self.j1_matrix, self.j2_tensor, self._j2_sym):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.params.n

    def eval_field(self, x: np.ndarray) -> np.ndarray:
        """Coupling field f(x); accepts a single point (N,) or a batch (..., N).

        ``f_k = sum_j J1_kj x_j + sum_{nm} J2_knm x_n x_m`` (no magnetic term).
        The quadratic term is contracted on a transposed (N, ...) copy of x, so
        the batch axis is numpy's inner loop; the (n, m) summation order, and
        with it every bit, is that of ``einsum("knm,...n,...m->...k", J2, x, x)``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ParameterError(f"expected last axis {self.n}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ParameterError("x must be finite")
        lin = x @ self.j1_matrix.T
        xt = np.ascontiguousarray(x.T)
        lin += np.einsum("knm,n...,m...->k...", self.j2_tensor, xt, xt).T
        return lin

    def eval_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Analytic Jacobian K_kl = d f_k / d x_l at x (batched like eval_field)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise ParameterError(f"expected last axis {self.n}, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ParameterError("x must be finite")
        quad = np.einsum("klm,...m->...kl", self._j2_sym, x)
        return self.j1_matrix + quad

    def drift(self, x: np.ndarray) -> np.ndarray:
        """h + f(x), the non-constraint part of the equation of motion."""
        return self.h + self.eval_field(x)


def sample_field(params: ModelParams, seed: int) -> FieldInstance:
    """Draw a field realization; deterministic in (params, seed).

    The three blocks use independent Philox streams keyed by (seed, block id),
    so each block is reproducible regardless of generation order.
    """
    return FieldInstance(params, seed)
