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

from .errors import NumericalError, ParameterError

# 16-point Gauss-Legendre nodes and weights on [-1, 1]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# most a panel's two-half refinement may move an integral, relative to it
_REL_TOL = 1e-12
# equal panels every integral starts from; bisection refines from there
_FIRST_PANELS = 16
# bisection rounds before an unresolved panel raises `NumericalError`
_MAX_ROUNDS = 24
# most panels one integral may evaluate in a round, so memory stays bounded
_MAX_PANELS = 2 ** 16


def _panel_log_integrals(lf: np.ndarray, half: np.ndarray) -> np.ndarray:
    """log of the Gauss-Legendre integral of exp(lf) on each panel, from the
    log integrand `lf` at the panel's nodes (one row per panel) and the
    panel's half-width.

    The node sum is one BLAS matrix-vector product, whose rounding depends on
    a row's position in the matrix.  `_group_log_integrals` therefore passes
    each integral's panels of a round here on their own, so an integral gets
    the same bits in lockstep as alone.
    """
    m = lf.max(axis=1)
    out = np.full(len(half), -np.inf)
    ok = np.isfinite(m)
    if np.any(ok):
        scaled = np.exp(lf[ok] - m[ok, None]) @ _WEIGHTS
        # weights are positive and exp >= 0, so scaled >= 0
        with np.errstate(divide="ignore"):
            out[ok] = m[ok] + np.log(scaled * half[ok])
    return out


def _group_log_integrals(logf, groups: list[tuple[int, np.ndarray, np.ndarray]]
                         ) -> list[np.ndarray]:
    """Panel log-integrals of each (owner, lo, hi) group, with the nodes of
    every group evaluated in one ``logf(xs, owner)`` call."""
    lo = np.concatenate([g[1] for g in groups])
    hi = np.concatenate([g[2] for g in groups])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    sizes = [len(g[1]) for g in groups]
    owner = np.repeat([g[0] for g in groups], [len(_NODES) * k for k in sizes])
    lf = np.asarray(logf(nodes.ravel(), owner)).reshape(nodes.shape)
    cuts = np.cumsum(sizes)[:-1]
    return [_panel_log_integrals(f, h)
            for f, h in zip(np.split(lf, cuts), np.split(half, cuts))]


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


class _Integral:
    """The panels of one integral between rounds of `log_quad_many`."""

    def __init__(self, a: float, b: float):
        edges = np.linspace(a, b, _FIRST_PANELS + 1)
        self.lo, self.hi = edges[:-1], edges[1:]
        self.mid = None  # panel midpoints, set by `groups` for `step`
        self.parent = None  # panel log-integrals, once the first round ran
        self.accepted: list[float] = []
        self.n_refine = 0

    def groups(self, j: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """This round's panels: the current ones in the first round, then
        their two halves together."""
        self.mid = 0.5 * (self.lo + self.hi)
        halves = (j, np.concatenate([self.lo, self.mid]),
                  np.concatenate([self.mid, self.hi]))
        return [(j, self.lo, self.hi), halves] if self.parent is None else [halves]

    def step(self, logs) -> LogQuadResult | None:
        """Accept the converged halves, split the rest; a result once done."""
        if self.parent is None:
            self.parent = next(logs)
        left, right = np.split(next(logs), 2)
        children = np.logaddexp(left, right)

        total = _logsumexp(np.concatenate([np.array(self.accepted), children]))
        if total == -np.inf:
            return LogQuadResult(-np.inf, len(self.lo) * 2, self.n_refine, 0.0)
        # panel discrepancy relative to the running total
        err = np.abs(np.exp(self.parent - total) - np.exp(children - total))
        done = err <= _REL_TOL
        self.accepted.extend(children[done].tolist())
        if np.all(done):
            return LogQuadResult(total, len(self.accepted), self.n_refine,
                                 float(err.max(initial=0.0)))
        keep = ~done
        self.lo = np.concatenate([self.lo[keep], self.mid[keep]])
        self.hi = np.concatenate([self.mid[keep], self.hi[keep]])
        self.parent = np.concatenate([left[keep], right[keep]])
        self.n_refine += int(keep.sum())
        if 2 * len(self.lo) > _MAX_PANELS:
            raise NumericalError(
                f"quadrature did not converge: its next round needs "
                f"{2 * len(self.lo)} panels, over the bound of {_MAX_PANELS}")
        return None


def log_quad_many(logf, intervals) -> list[LogQuadResult]:
    """`log_quad` of one integrand family over each (a, b) of `intervals`.

    Every integral is refined exactly as `log_quad` refines it alone, with
    the same result to the last bit, but the integrals advance in lockstep:
    each round evaluates the nodes of every unfinished integral in one call
    ``logf(xs, owner)``, where ``owner[i]`` is the index in `intervals` of the
    integral that node ``xs[i]`` belongs to.  The first round also evaluates
    the initial panels.  An empty interval (b <= a) gives log 0.  A result
    meets `_REL_TOL` on every panel: a panel unresolved after `_MAX_ROUNDS`
    rounds, or a next round over `_MAX_PANELS` panels, raises `NumericalError`.
    """
    for a, b in intervals:
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ParameterError("log_quad requires finite bounds; truncate first")
    results = [LogQuadResult(-np.inf, 0, 0, 0.0) if b <= a else None
               for a, b in intervals]
    live = {j: _Integral(a, b)
            for j, (a, b) in enumerate(intervals) if b > a}
    for _ in range(_MAX_ROUNDS):
        if not live:
            break
        logs = iter(_group_log_integrals(
            logf, [g for j, quad in live.items() for g in quad.groups(j)]))
        for j, quad in list(live.items()):
            res = quad.step(logs)
            if res is not None:
                results[j] = res
                del live[j]
    if live:
        raise NumericalError(
            f"quadrature did not converge: "
            f"{sum(len(q.lo) for q in live.values())} panel(s) unresolved "
            f"after {_MAX_ROUNDS} rounds")
    return results


def log_quad(logf, a: float, b: float) -> LogQuadResult:
    """Integrate exp(logf) over [a, b], returning the log of the integral.

    Starting from `_FIRST_PANELS` equal panels, panels are bisected until
    each panel's two-half refinement changes the estimate by less than
    `_REL_TOL` of the current total, in 16-point Gauss-Legendre panels.  A
    panel still unresolved after `_MAX_ROUNDS` rounds raises
    `NumericalError`.  `logf` must be vectorized and may return -inf.

    Parameters
    ----------
    logf : callable
        Log of a nonnegative integrand, mapping arrays to arrays.
    a, b : float
        Finite integration bounds; b <= a gives log 0.
    """
    (res,) = log_quad_many(lambda xs, owner: logf(xs), [(a, b)])
    return res
