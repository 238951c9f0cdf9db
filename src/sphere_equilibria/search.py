"""Brute-force equilibrium enumeration by multi-start damped Newton.

An equilibrium is a pair (x, lam) solving the bordered system

    -lam x_k + h_k + f_k(x) = 0   (k = 1..N),      |x|^2 = N.

All starts are advanced simultaneously: the batched (N+1)-dimensional Newton
step uses the analytic field Jacobian plus the bordering row/column, damped by
residual-monotone step halving.  Each row tries the step lengths t = 2^-k
lazily, in the blocks of levels 0 (the full step), 1-2 and 3-6
(`_MAX_HALVINGS`), and leaves at the first block that holds a level passing
the Armijo test; a row that passes none stalls out.  The cap trades about 5%
of the converging starts, which shorter steps would still carry to a root,
for a shorter search of the stalling ones.  Converged starts are
deduplicated in start order within Euclidean distance 1e-6 sqrt(N) in x (lam
is a function of x at a root), one vectorized pass per root, and a saturation
heuristic flags instances whose discovery curve was still rising.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._rng import derive_seed, sphere_points
from .errors import DomainError, NumericalError, ParameterError
from .field_model import FieldInstance, ModelParams, covariance_pair, sample_field
from .predictor import derived_params, mean_total_exact, predict_asymptotic

__all__ = [
    "EquilibriumPoint",
    "CountReport",
    "MCCountResult",
    "find_equilibria",
    "tangent_spectrum_at",
    "mc_mean_count",
]

# an instance is saturated when this trailing share of its starts found no
# new root
_SATURATION_FRACTION = 0.25
# Newton controls: max-norm residual of a converged start, iteration cap,
# deepest halving level 2^-k of the line search, and largest N enumerated.
# The halving cap ends the second doubling block (3-6) and trades converging
# starts for speed.  On the 2,500 instances of acceptance criterion 04 the
# levels 7-14 of a 2^-14 cap carried 69,170 of 1,350,510 converging starts
# (5.1%) to roots that other starts found too, changing no root count or
# saturation flag, while on N = 4 instances they took about half of the field
# rows evaluated (measured with a constraint screen, since deleted, that
# skipped the field of candidates whose |C| alone failed the Armijo test);
# levels 15-30 add 1,982 more starts
_TOL = 1e-10
_MAX_ITER = 80
_MAX_HALVINGS = 6
_MAX_DIM = 10


@dataclass
class EquilibriumPoint:
    x: np.ndarray
    lam: float
    residual: float
    tangent_spectrum: np.ndarray
    basin_hits: int


@dataclass
class CountReport:
    points: list[EquilibriumPoint]
    n_starts: int
    dedup_radius: float
    saturated: bool
    seed: int
    n_converged_starts: int = 0

    @property
    def n_found(self) -> int:
        """Number of distinct equilibria: one per point."""
        return len(self.points)


def _expected_count(params: ModelParams) -> float:
    """Predicted mean count used only to budget the number of starts."""
    if params.field_free:
        return 2.0
    try:
        dp = derived_params(covariance_pair(params), params.sigma)
    except (ParameterError, DomainError):
        return 2.0 * params.n
    try:
        return mean_total_exact(dp, params.n).value
    except DomainError:  # odd N has no exact density
        return predict_asymptotic(dp, params.n).value


def default_n_starts(params: ModelParams) -> int:
    """Start budget: 200 per predicted equilibrium, in [64, 10^4]."""
    budget = 200.0 * max(_expected_count(params), 1.0)
    return int(min(max(budget, 64), 10_000))


def _system_residual(inst: FieldInstance, x: np.ndarray, lam: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, C, max-norm residual) of the equilibrium system, batched.

    F = h + f(x) - lam x and C = |x|^2 - N.  The residual max(|F|_inf, |C|) is
    a running maximum of |F| over the N columns into |C|: it is exact, so it
    equals ``np.maximum(np.abs(F).max(-1), np.abs(C))`` bit for bit, NaN rows
    included, and takes less time.
    """
    c = (x * x).sum(axis=-1) - inst.n
    res = np.abs(c)
    f = inst.drift(x) - lam[..., None] * x
    abs_f = np.abs(f)
    for k in range(f.shape[-1]):
        np.maximum(res, abs_f[..., k], out=res)
    return f, c, res


def _positive_int(name: str, value) -> int:
    """`value` as an int of at least 1; numpy integers pass, floats do not."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def find_equilibria(inst: FieldInstance, n_starts: int | None = None,
                    seed: int = 0) -> CountReport:
    """Enumerate equilibria of one field instance.

    `n_starts` initial points (None: `default_n_starts`) are uniform on the
    sphere, drawn from the Philox stream keyed by `seed`, with the Lagrange
    multiplier seeded from its closed form; an instance is `saturated` when
    the last quarter of the starts discovered nothing new.  Non-saturation is
    reported in the flag, never raised.
    """
    n = inst.n
    if n > _MAX_DIM:
        raise ParameterError(
            f"direct enumeration is configured for N <= {_MAX_DIM}, got {n}")
    if inst.params.field_free and inst.params.sigma == 0.0:
        raise ParameterError("f = 0 and h = 0: every point of the sphere is "
                             "an equilibrium, enumeration is meaningless")
    n_starts = _positive_int("n_starts", default_n_starts(inst.params)
                             if n_starts is None else n_starts)
    radius = 1e-6 * math.sqrt(n)

    x = sphere_points(seed, n_starts, n)
    lam = (x * inst.drift(x)).sum(axis=1) / n

    eye = np.eye(n)
    active = np.ones(n_starts, dtype=bool)
    converged = np.zeros(n_starts, dtype=bool)
    f, c, res = _system_residual(inst, x, lam)
    checkpoint = res.copy()

    for it in range(_MAX_ITER):
        newly = active & (res <= _TOL)
        converged |= newly
        active &= ~newly
        if it and it % 10 == 0:
            # cull wanderers: a start must keep shrinking its residual
            # (convergent Newton runs end superlinearly, so this is loose)
            active &= res <= 0.7 * checkpoint
            checkpoint = res.copy()
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        xa, la, ra = x[idx], lam[idx], res[idx]
        k = inst.eval_jacobian(xa)
        m = len(idx)
        a_mat = np.zeros((m, n + 1, n + 1))
        a_mat[:, :n, :n] = k - la[:, None, None] * eye
        a_mat[:, :n, n] = -xa
        a_mat[:, n, :n] = 2.0 * xa
        rhs = np.concatenate([-f[idx], -c[idx, None]], axis=1)
        delta = _solve_batch(a_mat, rhs)

        # damped update: trial steps t = 2^-k in the level blocks 0 (the full
        # step), 1-2, 3-6, 7-14, ... up to _MAX_HALVINGS, which may cut the
        # last; a row takes the first passing level of the first block that
        # holds one.  Only block 0 and a cap-cut last block have one level,
        # so only they give one-row candidate batches (of a lone row): numpy
        # sends a one-row product to BLAS gemv, whose rounding differs from
        # the gemm of every larger batch.
        rem = np.arange(m)
        lo_level = hi_level = 0
        while rem.size and lo_level <= _MAX_HALVINGS:
            tgrid = 0.5 ** np.arange(lo_level,
                                     min(hi_level, _MAX_HALVINGS) + 1)
            cand_x = (xa[rem, None] + tgrid[:, None] * delta[rem, None, :n]
                      ).reshape(-1, n)
            cand_l = (la[rem, None] + tgrid * delta[rem, None, n]).ravel()
            armijo = ((1.0 - 1e-4 * tgrid) * ra[rem, None]).ravel()
            fc, cc, rc = _system_residual(inst, cand_x, cand_l)
            ok = (rc <= armijo).reshape(rem.size, -1)
            took = ok.any(axis=1)
            pick = np.flatnonzero(took) * len(tgrid) + ok[took].argmax(axis=1)
            rows = idx[rem[took]]
            x[rows], lam[rows], f[rows] = cand_x[pick], cand_l[pick], fc[pick]
            c[rows], res[rows] = cc[pick], rc[pick]
            rem = rem[~took]
            lo_level, hi_level = hi_level + 1, 2 * hi_level + 2
        # starts that cannot decrease the residual at any step size down to
        # 2^-_MAX_HALVINGS stall out: a shorter step would save some of
        # them, but not a root of their own (see `_MAX_HALVINGS`)
        active[idx[rem]] = False
    newly = active & (res <= _TOL)
    converged |= newly

    # deduplicate in start order (discovery order drives the saturation flag)
    conv_idx = np.flatnonzero(converged)
    reps, hits = _dedup(x[conv_idx], radius)
    reps = conv_idx[reps].tolist()
    saturated = (len(conv_idx) > 0
                 and reps[-1] < (1.0 - _SATURATION_FRACTION) * n_starts)

    points = []
    for r, hit in zip(reps, hits):
        _, _, rr = _system_residual(inst, x[r][None, :], lam[r][None])
        points.append(EquilibriumPoint(
            x=x[r].copy(), lam=float(lam[r]), residual=float(rr[0]),
            tangent_spectrum=tangent_spectrum_at(inst, x[r], float(lam[r])),
            basin_hits=hit))
    points.sort(key=lambda pt: (pt.lam, tuple(pt.x)))
    return CountReport(points=points, n_starts=n_starts, dedup_radius=radius,
                       saturated=bool(saturated), seed=seed,
                       n_converged_starts=int(converged.sum()))


def _dedup(xs: np.ndarray, radius: float) -> tuple[list[int], list[int]]:
    """Cluster points in order: (representative indices, hits per cluster).

    The earliest unassigned point founds a cluster and claims every later
    unassigned point within `radius` of it.  A point therefore joins the
    earliest representative within reach, and the last representative is the
    last point that matched none before it.
    """
    free = np.ones(len(xs), dtype=bool)
    reps: list[int] = []
    hits: list[int] = []
    while free.any():
        i = int(free.argmax())
        near = free & (np.linalg.norm(xs - xs[i], axis=1) <= radius)
        near[i] = True
        free &= ~near
        reps.append(i)
        hits.append(int(near.sum()))
    return reps, hits


def _solve_batch(a_mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched solve of the bordered Newton systems; a batch holding an
    exactly singular one raises `NumericalError`."""
    try:
        return np.linalg.solve(a_mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular bordered Newton system") from exc


def tangent_spectrum_at(inst: FieldInstance, x: np.ndarray, lam: float
                        ) -> np.ndarray:
    """Eigenvalues of the flow linearization restricted to the tangent space.

    Q is the orthonormal basis of the tangent space at x that the SVD of the
    1 x N row x gives: its last N-1 right singular vectors.  The N-1
    eigenvalues of ``Q^T (K - lam I) Q`` are returned sorted by (real, imag).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError("tangent spectrum needs a finite point x")
    if not np.any(x):
        raise ParameterError("tangent spectrum needs a nonzero point x")
    q = np.linalg.svd(x[None, :])[2][1:].T
    k = inst.eval_jacobian(x)
    a = q.T @ (k - lam * np.eye(inst.n)) @ q
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError("tangent eigenvalue computation failed") from exc
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


# ---------------------------------------------------------------------------
# Monte Carlo over instances
# ---------------------------------------------------------------------------

@dataclass
class MCCountResult:
    mean: float
    stderr: float
    counts: np.ndarray
    saturated: np.ndarray
    instance_seeds: list[int]
    n_excluded: int
    histogram_mean: np.ndarray | None = None
    histogram_stderr: np.ndarray | None = None

    @property
    def n_unsaturated(self) -> int:
        return int((~self.saturated).sum())


def mc_mean_count(params: ModelParams, n_instances: int,
                  n_starts: int | None = None, seed: int = 0,
                  lambda_edges=None, strict: bool = False) -> MCCountResult:
    """Average equilibrium count over independent field instances.

    Every instance gets `n_starts` Newton starts (None: one
    `default_n_starts` budget for the whole sweep, as all instances share
    `params`).  Instance and start seeds are derived from `seed` by a stable
    hash, so enlarging the study never changes earlier instances.  With
    `strict`, non-saturated instances are excluded from the statistics (they
    are always recorded).  When `lambda_edges` is given, counts are also
    binned by the Lagrange multiplier of each root; the edges must be at
    least two finite values, strictly increasing.
    """
    n_instances = _positive_int("n_instances", n_instances)
    edges = None if lambda_edges is None else np.asarray(lambda_edges, float)
    if edges is not None and not (edges.ndim == 1 and len(edges) >= 2
                                  and np.all(np.isfinite(edges))
                                  and np.all(np.diff(edges) > 0)):
        raise ParameterError("lambda_edges must be at least two finite "
                             f"values, strictly increasing: {edges.tolist()}")
    if n_starts is None:
        n_starts = default_n_starts(params)

    counts = np.empty(n_instances)
    saturated = np.empty(n_instances, dtype=bool)
    instance_seeds = [derive_seed(seed, f"instance-{i}")
                      for i in range(n_instances)]
    hist = None if edges is None else np.zeros((n_instances, len(edges) - 1))

    for i, inst_seed in enumerate(instance_seeds):
        rep = find_equilibria(sample_field(params, inst_seed), n_starts,
                              derive_seed(seed, f"starts-{i}"))
        counts[i] = rep.n_found
        saturated[i] = rep.saturated
        if hist is not None:
            lams = np.array([pt.lam for pt in rep.points])
            hist[i], _ = np.histogram(lams, bins=edges)

    keep = saturated if strict else np.ones(n_instances, dtype=bool)
    n_keep = int(keep.sum())
    if n_keep == 0:
        raise NumericalError("all instances were non-saturated under strict mode")
    mean = float(counts[keep].mean())
    stderr = (float(counts[keep].std(ddof=1) / math.sqrt(n_keep))
              if n_keep > 1 else 0.0)
    result = MCCountResult(mean=mean, stderr=stderr, counts=counts,
                           saturated=saturated, instance_seeds=instance_seeds,
                           n_excluded=int(n_instances - n_keep))
    if hist is not None:
        hk = hist[keep]
        result.histogram_mean = hk.mean(axis=0)
        result.histogram_stderr = (hk.std(ddof=1, axis=0) / math.sqrt(n_keep)
                                   if n_keep > 1 else np.zeros(hk.shape[1]))
    return result
