"""Adaptive Gauss-Legendre quadrature for log-space integrands.

The counting integrals combine factors like ``b**(1-N)`` and densities that
decay as ``exp(-N * rate)``; neither endpoint of that product is representable
in double precision for large N.  All integrands here are therefore supplied
as *log* integrands (of nonnegative functions) and panel sums are accumulated
relative to a running maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# 16-point Gauss-Legendre nodes and weights on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# bisection rounds before `log_quad` gives up
_MAX_ROUNDS = 24


def _panel_log_integrals(logf, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """log of the Gauss-Legendre integral of exp(logf) on each panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    lf = np.asarray(logf(nodes.ravel())).reshape(nodes.shape)
    m = lf.max(axis=1)
    out = np.full(len(lo), -np.inf)
    ok = np.isfinite(m)
    if np.any(ok):
        scaled = np.exp(lf[ok] - m[ok, None]) @ _WEIGHTS
        # weights are positive and exp >= 0, so scaled >= 0
        with np.errstate(divide="ignore"):
            out[ok] = m[ok] + np.log(scaled * half[ok])
    return out


def _logsumexp(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    if values.size == 0:
        return -np.inf
    m = values.max()
    return float(m + np.log(np.exp(values - m).sum()))


@dataclass
class LogQuadResult:
    log_value: float
    n_panels: int
    n_refinements: int
    max_rel_error: float

    @property
    def value(self) -> float:
        return float(np.exp(self.log_value))


def log_quad(logf, a: float, b: float, *, rel_tol: float = 1e-12,
             initial_panels: int = 64) -> LogQuadResult:
    """Integrate exp(logf) over [a, b], returning the log of the integral.

    Panels are bisected until each panel's two-half refinement changes the
    estimate by less than ``rel_tol`` of the current total, for at most
    `_MAX_ROUNDS` rounds of 16-point Gauss-Legendre panels.  `logf` must be
    vectorized and may return -inf.

    Parameters
    ----------
    logf : callable
        Log of a nonnegative integrand, mapping arrays to arrays.
    a, b : float
        Finite integration bounds, a <= b.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("log_quad requires finite bounds; truncate first")
    if b <= a:
        return LogQuadResult(-np.inf, 0, 0, 0.0)

    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    parent = _panel_log_integrals(logf, lo, hi)

    accepted_logs: list[float] = []
    n_refine = 0
    worst = 0.0
    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        left, right = np.split(_panel_log_integrals(
            logf, np.concatenate([lo, mid]), np.concatenate([mid, hi])), 2)
        children = np.logaddexp(left, right)

        total = _logsumexp(np.concatenate([np.array(accepted_logs), children]))
        if total == -np.inf:
            return LogQuadResult(-np.inf, len(lo) * 2, n_refine, 0.0)
        # panel discrepancy relative to the running total
        err = np.abs(np.exp(parent - total) - np.exp(children - total))
        done = err <= rel_tol
        worst = float(err[~done].max()) if np.any(~done) else float(err.max(initial=0.0))

        accepted_logs.extend(children[done].tolist())
        if np.all(done):
            return LogQuadResult(total, len(accepted_logs), n_refine,
                                 float(err.max(initial=0.0)))
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        parent = np.concatenate([left[keep], right[keep]])
        n_refine += int(keep.sum())

    # ran out of rounds: include the unfinished panels and report the error
    total = _logsumexp(np.concatenate([np.array(accepted_logs), parent]))
    if worst > 1e3 * rel_tol:
        raise NumericalError(
            f"quadrature did not converge: residual panel error {worst:.2e} "
            f"after {_MAX_ROUNDS} rounds")
    return LogQuadResult(total, len(accepted_logs) + len(lo), n_refine, worst)
