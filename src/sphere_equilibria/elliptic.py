"""Real Gaussian elliptic ensemble: sampling and real-eigenvalue densities.

The ensemble interpolates between GOE (``tau = 1``) and the real Ginibre
ensemble (``tau = 0``) through the entry correlation
``<X_ij X_nm> = delta_in delta_jm + tau delta_jn delta_im``.  The mean density
of *real* eigenvalues has a closed form in terms of rescaled Hermite
polynomials; evaluating it for matrix sizes in the hundreds requires the
normalized, scale-carrying recurrences implemented here, since the raw
polynomials and factorials overflow doubles near N ~ 150.

Density conventions: ``rho(x)`` is normalized so that its integral over the
real line equals the expected number of real eigenvalues of an N x N draw.
Asymptotic profiles are expressed in the rescaled variable ``lam = x/sqrt(N)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream
from .errors import DomainError, NumericalError, ParameterError
from .quadrature import log_quad, log_quad_many

__all__ = [
    "EllipticParams",
    "sample_elliptic_batch",
    "elliptic_batches",
    "real_eigenvalues",
    "real_eigenvalue_values",
    "rho_real_exact",
    "log_rho_real_exact",
    "rho_real_bulk",
    "rho_real_outside",
    "rho_real_edge",
    "rho_real_weak_nongradient",
    "mean_real_count",
    "real_eigenvalue_histogram",
    "expected_real_count",
    "expected_counts_in_bins",
    "support_lambda_max",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_DENSITY_REL_TOL = 1e-10
# points per `_psi_hat_scan` pass in `log_rho_real_exact`
_SCAN_CHUNK = 6144
# most matrix entries in one piece of `elliptic_batches` (512 matrices at n = 8)
_PIECE_ENTRIES = 2 ** 15
# elementwise erf/erfc from the C library; otypes lets them take empty arrays
_erf = np.vectorize(math.erf, otypes=[float])
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class EllipticParams:
    """Matrix size and symmetry correlation of the real elliptic ensemble."""

    n: int
    tau: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n}")
        if not (-1.0 < self.tau <= 1.0):
            raise ParameterError(f"tau must lie in (-1, 1], got {self.tau}")

    def require_exact_density(self) -> None:
        """Exact closed-form density needs even n; tau = 1 gives the GOE."""
        if self.n % 2 != 0:
            raise DomainError(
                f"exact real-eigenvalue density requires even n (got n={self.n}); "
                "use the Monte Carlo estimator instead")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_elliptic_batch(p: EllipticParams, trials: int, seed: int,
                          stream_id: int = 0) -> np.ndarray:
    """Draw `trials` matrices, shape (trials, n, n).

    Construction: ``X = sqrt((1+tau)/2) S + sqrt((1-tau)/2) A`` where S and A
    are the symmetric/antisymmetric parts of an iid standard Gaussian matrix
    scaled by sqrt(2) (so S has off-diagonal variance 1 and diagonal variance
    2, A off-diagonal variance 1).  The resulting entries satisfy
    Var(X_ij) = 1 off-diagonal, Var(X_ii) = 1 + tau, Cov(X_ij, X_ji) = tau.
    """
    return _elliptic_from_normals(
        p, stream(seed, stream_id).standard_normal((trials, p.n, p.n)))


def _elliptic_from_normals(p: EllipticParams, g: np.ndarray) -> np.ndarray:
    """The matrices of `sample_elliptic_batch` built from the iid standard
    Gaussian ones `g`."""
    gt = np.swapaxes(g, -1, -2)
    # in place, so at most three arrays of g's size are alive at once
    s = g + gt
    s /= np.sqrt(2.0)
    a = g - gt
    del g, gt
    a /= np.sqrt(2.0)
    s *= np.sqrt((1.0 + p.tau) / 2.0)
    a *= np.sqrt((1.0 - p.tau) / 2.0)
    s += a
    return s


def elliptic_batches(p: EllipticParams, trials: int, seed: int,
                     chunk: int = 4096):
    """The draw schedule of every Monte Carlo estimator in the package.

    Draws `trials` matrices in batches of `chunk` (the last one shorter);
    batch k comes from Philox stream k of `seed`, so an estimate is a pure
    function of (p, trials, seed, chunk).  Each batch is drawn and yielded
    in consecutive pieces of at most `_PIECE_ENTRIES` matrix entries (one
    matrix at least).  A stream's consecutive draws are its one draw of the
    whole batch, bit for bit, so the pieces only bound the memory in use.
    """
    piece = max(1, _PIECE_ENTRIES // (p.n * p.n))
    for k, start in enumerate(range(0, trials, chunk)):
        gen = stream(seed, k)
        size = min(chunk, trials - start)
        for done in range(0, size, piece):
            yield _elliptic_from_normals(
                p, gen.standard_normal((min(piece, size - done), p.n, p.n)))


# ---------------------------------------------------------------------------
# real eigenvalues
# ---------------------------------------------------------------------------

def real_eigenvalues(x: np.ndarray) -> np.ndarray:
    """Sorted real eigenvalues of a real square matrix.

    Real eigenvalues are read off as the 1x1 diagonal blocks of the real
    Schur form.  LAPACK standardizes 2x2 blocks to have complex-conjugate
    eigenvalues, so the subdiagonal test is structural: no imaginary-part
    threshold is involved.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("matrix entries must be finite")
    # imported here: the CLI never calls this oracle and need not load scipy
    import scipy.linalg
    try:
        t, _ = scipy.linalg.schur(x, output="real")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(
            f"Schur decomposition failed (cond ~ {np.linalg.cond(x):.3e})") from exc
    n = x.shape[0]
    out = []
    i = 0
    while i < n:
        if i == n - 1 or t[i + 1, i] == 0.0:
            out.append(t[i, i])
            i += 1
        else:
            i += 2  # 2x2 block: complex-conjugate pair
    return np.sort(np.array(out))


def real_eigenvalue_values(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(counts per draw, flat array of all real eigenvalues) for a batch.

    Uses batched LAPACK eigenvalues; dgeev assigns an exactly-zero imaginary
    part to eigenvalues coming from 1x1 Schur blocks, so ``imag == 0`` is the
    same structural test as `real_eigenvalues`.
    """
    ev = np.linalg.eigvals(np.asarray(mats, dtype=float))
    mask = ev.imag == 0.0
    return mask.sum(axis=-1), ev.real[mask]


# ---------------------------------------------------------------------------
# rescaled Hermite polynomials
# ---------------------------------------------------------------------------

def _psi_hat_scan(n: int, tau: float, xs: np.ndarray, weighted: bool = True
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass over psi_hat_k = exp(-x^2/(2(1+tau))) h_k/sqrt(k!), k <= n-1.

    Runs the normalized recurrence
    ``hhat_{k+1} = (x hhat_k - tau sqrt(k) hhat_{k-1}) / sqrt(k+1)``, carrying
    a per-point scale exponent so intermediate values never leave the double
    range.  Along the way it accumulates the antiderivative
    ``Ihat_k(x) = int_0^x psi_hat_k`` by the closed three-term recurrence

        Ihat_0     = sqrt(pi (1+tau)/2) erf(x / sqrt(2 (1+tau)))
        Ihat_{k+1} = sqrt(k/(k+1)) Ihat_{k-1}
                     - (1+tau)/sqrt(k+1) (psi_hat_k(x) - psi_hat_k(0)),

    which follows from ``h_k' = k h_{k-1}`` by integrating against the
    Gaussian weight.  Only odd k are stepped (n is even), where h_k is odd and
    psi_hat_k(0) = 0; the coefficient sqrt(k/(k+1)) < 1 keeps the forward
    recurrence stable, and psi_hat_k is bounded by ~1 for every tau in
    (-1, 1], so Ihat is summed in linear scale.

    Returns (log sum_{k<=n-2} psi_hat_k^2, sign and log|psi_hat_{n-1}|,
    Ihat_{n-2}).  With `weighted` false both logs are returned times the
    inverse weight exp(x^2/(2(1+tau))), which is never formed: the sum keeps
    one factor exp(-x^2/(2(1+tau))) and psi_hat_{n-1} none, so both stay
    finite for every finite x, even where x^2 overflows.
    """
    xs = np.asarray(xs, dtype=float)
    c = 1.0 + tau
    with np.errstate(over="ignore"):  # x^2 = inf gives the limit -inf
        gauss_log = -xs * xs / (2.0 * c)
    # weight factors left in the returned logs besides one in each psi_hat_k^2
    kept_log = gauss_log if weighted else np.zeros_like(xs)
    a_prev = np.zeros_like(xs)
    a_cur = np.ones_like(xs)
    scale_log = np.zeros_like(xs)
    # sum_k psi_hat_k^2, times the inverse weight unless `weighted`, is
    # exp(log_done) + part * exp(2 scale_log + gauss_log + kept_log);
    # part is folded into log_done whenever a point is rescaled, so it holds
    # at most n terms below 1e200 each and cannot overflow
    part = np.zeros_like(xs)
    log_done = np.full_like(xs, -np.inf)
    anti = math.sqrt(0.5 * math.pi * c) * _erf(xs / math.sqrt(2.0 * c))
    # exp(scale_log + gauss_log), recomputed only where scale_log changes
    weight = np.exp(scale_log + gauss_log)
    # the loop works in these buffers and allocates only rescaled indices
    tmp = np.empty_like(xs)
    m = np.empty_like(xs)
    out_band = np.empty(xs.shape, bool)
    tiny = np.empty(xs.shape, bool)

    for k in range(n - 1):
        np.multiply(a_cur, a_cur, out=tmp)
        part += tmp
        if k % 2:
            np.multiply(a_cur, weight, out=tmp)  # psi_hat_k
            anti *= math.sqrt(k / (k + 1.0))
            tmp *= c / math.sqrt(k + 1.0)
            anti -= tmp
        # (x a_cur - tau sqrt(k) a_prev) / sqrt(k+1) overwrites a_prev, and
        # the two names swap
        a_prev *= tau * math.sqrt(k)
        np.multiply(xs, a_cur, out=tmp)
        np.subtract(tmp, a_prev, out=a_prev)
        a_prev /= math.sqrt(k + 1.0)
        a_prev, a_cur = a_cur, a_prev
        # rescale both carried values when they leave a safe magnitude band
        np.abs(a_prev, out=m)
        np.maximum(m, np.abs(a_cur, out=tmp), out=m)
        np.greater(m, 0.0, out=tiny)
        tiny &= np.less(m, 1e-100, out=out_band)
        np.greater(m, 1e100, out=out_band)
        out_band |= tiny
        i = np.flatnonzero(out_band)
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
            weight[i] = np.exp(scale_log[i] + gauss_log[i])

    with np.errstate(divide="ignore"):
        rho1_log = np.logaddexp(
            log_done, np.log(part) + (2.0 * scale_log + (gauss_log + kept_log)))
        log_top = np.log(np.abs(a_cur)) + scale_log + kept_log
    return rho1_log, np.sign(a_cur), log_top, anti


# ---------------------------------------------------------------------------
# exact finite-N density
# ---------------------------------------------------------------------------

def log_rho_real_exact(p: EllipticParams, x, *, weighted: bool = True
                       ) -> np.ndarray:
    """log of the exact mean density of real eigenvalues at x (vectorized).

    The density splits into a positive Hermite-series part
    ``(1/sqrt(2 pi)) sum_{k<=N-2} psi_hat_k^2`` and a boundary part
    ``sqrt(N-1)/(sqrt(2 pi)(1+tau)) psi_hat_{N-1}(x) int_0^x psi_hat_{N-2}``.
    One `_psi_hat_scan` pass yields all three pieces; the integral comes from
    the closed recurrence ``Ihat_{k+1} = sqrt(k/(k+1)) Ihat_{k-1}
    - (1+tau)/sqrt(k+1) psi_hat_k(x)`` over odd k, started at the erf form of
    Ihat_0.  Stateless, O(N) per point, and finite in log space for any
    finite x; a non-finite x is rejected.  With `weighted=False` it returns
    ``log rho(x) + x^2/(2(1+tau))`` without forming either term, so the
    Gaussian factor neither overflows nor cancels at large |x|.
    """
    p.require_exact_density()
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ParameterError("real-eigenvalue density needs a finite x")
    flat = xs.ravel()
    out = np.empty(flat.shape)
    # every point is independent: chunks bound the scan's working arrays
    for i in range(0, flat.size, _SCAN_CHUNK):
        out[i:i + _SCAN_CHUNK] = _log_rho(p.n, p.tau, flat[i:i + _SCAN_CHUNK],
                                          weighted)
    out = out.reshape(xs.shape)
    return out if np.ndim(x) else out[0]


def _log_rho(n: int, tau: float, xs: np.ndarray, weighted: bool) -> np.ndarray:
    """`log_rho_real_exact` at the finite points xs (1-d)."""
    rho1_log, sign_nm1, log_nm1, anti = _psi_hat_scan(n, tau, xs, weighted)
    rho1_log = rho1_log - math.log(_SQRT_2PI)
    coef_log = 0.5 * math.log(n - 1.0) - math.log(_SQRT_2PI) - math.log1p(tau)
    with np.errstate(divide="ignore"):
        rho2_log = coef_log + log_nm1 + np.log(np.abs(anti))
    rho2_sign = sign_nm1 * np.sign(anti)

    m = np.maximum(rho1_log, rho2_log)
    m = np.where(np.isfinite(m), m, -np.inf)
    with np.errstate(invalid="ignore"):
        combined = np.where(
            m == -np.inf, 0.0,
            np.exp(rho1_log - m) + rho2_sign * np.exp(rho2_log - m))
    # the exact density is nonnegative; clip values at the rounding floor
    combined = np.maximum(combined, 0.0)
    with np.errstate(divide="ignore"):
        return m + np.log(combined)


def rho_real_exact(p: EllipticParams, x):
    """Exact mean density of real eigenvalues at x (N even, -1 < tau <= 1)."""
    return np.exp(log_rho_real_exact(p, x))


def support_lambda_max(n: int, tau: float) -> float:
    """lam beyond which the density at lam*sqrt(N) is below 1e-16 of the bulk.

    Uses the outside-the-bulk exponential bound; bisection on the decay rate.
    (n, tau) must be valid `EllipticParams`.
    """
    EllipticParams(n, tau)
    target = -math.log(1e-16) / n
    lo = 1.0 + tau + 1e-9
    hi = lo + 1.0
    while _outside_rate(tau, hi) < target + math.log(10.0 * n) / n:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _outside_rate(tau, mid) < target + math.log(10.0 * n) / n:
            lo = mid
        else:
            hi = mid
    return hi * 1.05


def _outside_rate(tau: float, lam: float) -> float:
    """Decay exponent of the density outside the bulk, per unit N."""
    s = math.sqrt(max(lam * lam - 4.0 * tau, 0.0))
    # (lam - s)^2 / (8 tau) rewritten as 2 tau / (lam + s)^2: stable at tau -> 0
    return (-0.5 + lam * lam / (2.0 * (1.0 + tau))
            - 2.0 * tau / (lam + s) ** 2 - math.log((lam + s) / 2.0))


# ---------------------------------------------------------------------------
# asymptotic profiles
# ---------------------------------------------------------------------------

def rho_real_bulk(tau: float) -> float:
    """Large-N density value inside the bulk |lam| < 1 + tau."""
    if abs(tau) >= 1.0:
        raise DomainError(f"bulk density requires |tau| < 1, got {tau}")
    return 1.0 / math.sqrt(2.0 * math.pi * (1.0 - tau * tau))


def rho_real_outside(tau: float, lam: float, n: int | None = None
                     ) -> tuple[float, float]:
    """(decay rate, prefactor) of the density outside the bulk.

    ``rho(lam sqrt(N)) ~ prefactor * exp(-N * rate)`` for |lam| > 1 + tau.
    Without `n` the prefactor is returned per unit sqrt(N).  The tau -> 0
    limit is taken analytically by the stable form of the rate.
    """
    if abs(tau) >= 1.0:
        raise DomainError(f"outside asymptote requires |tau| < 1, got {tau}")
    al = abs(lam)
    if al <= 1.0 + tau:
        raise DomainError(
            f"|lam| = {al} is inside the bulk edge 1 + tau = {1.0 + tau}")
    rate = _outside_rate(tau, al)
    s = math.sqrt(al * al - 4.0 * tau)
    q = math.sqrt(1.0 / (2.0 * math.pi * (1.0 + tau) * s * (al + s)))
    if n is not None:
        q *= math.sqrt(n)
    return rate, q


def rho_real_edge(zeta) -> np.ndarray:
    """Universal edge profile of the real-eigenvalue density.

    ``(1/(2 sqrt(2 pi))) [erfc(sqrt(2) z) + e^{-z^2} (1 + erf z)/sqrt(2)]``;
    tends to 1/sqrt(2 pi) as z -> -inf and to e^{-z^2}/(2 sqrt(pi)) for large z.
    """
    z = np.asarray(zeta, dtype=float)
    out = (_erfc(np.sqrt(2.0) * z)
           + np.exp(-z * z) * (1.0 + _erf(z)) / np.sqrt(2.0))
    out = out / (2.0 * _SQRT_2PI)
    return out if out.ndim else float(out)


def rho_real_weak_nongradient(u: float, lam: float, n: int) -> float:
    """Density profile for nearly symmetric matrices, tau = 1 - u^2/N.

    ``sqrt(N)/pi * int_0^sqrt(1-lam^2/4) exp(-u^2 t^2) dt`` for |lam| < 2;
    u = 0 reduces to the GOE semicircle sqrt(N) sqrt(1 - lam^2/4) / pi.
    """
    if u < 0:
        raise DomainError(f"u must be nonnegative, got {u}")
    if abs(lam) >= 2.0:
        raise DomainError(f"weak non-gradient profile requires |lam| < 2, got {lam}")
    upper = math.sqrt(1.0 - 0.25 * lam * lam)
    if u == 0.0:
        integral = upper
    else:
        integral = math.sqrt(math.pi) / (2.0 * u) * math.erf(u * upper)
    return math.sqrt(n) / math.pi * integral


# ---------------------------------------------------------------------------
# Monte Carlo and integral cross-checks
# ---------------------------------------------------------------------------

def mean_real_count(p: EllipticParams, trials: int,
                    seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (mean, stderr) of the number of real eigenvalues.

    Draws follow `elliptic_batches`.  The mean and standard error come from
    the exact integer sum and sum of squares of the per-draw counts, so both
    are correctly rounded and independent of the batching.  No parity or tau
    restriction; for tau = 1 every eigenvalue is real and the standard error
    is exactly zero.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    total = squares = 0
    # map() releases each batch before the next one is drawn
    for counts, _ in map(real_eigenvalue_values,
                         elliptic_batches(p, trials, seed)):
        total += int(counts.sum())
        squares += int(counts @ counts)
    # trials times the sum of squared deviations from the mean, exactly
    m2 = trials * squares - total * total
    stderr = (math.sqrt(m2 / (trials * trials * (trials - 1)))
              if trials > 1 else 0.0)
    return total / trials, stderr


def real_eigenvalue_histogram(p: EllipticParams, trials: int, seed: int,
                              lam_edges: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Mean number of real eigenvalues per draw in each lam = x/sqrt(N) bin
    of `lam_edges`, and its standard error.  Draws follow `elliptic_batches`.
    """
    bins = len(lam_edges) - 1
    sums = np.zeros(bins)
    sqsums = np.zeros(bins)
    # map() releases each batch before the next one is drawn
    for counts, vals in map(real_eigenvalue_values,
                            elliptic_batches(p, trials, seed)):
        lam = vals / math.sqrt(p.n)
        idx = np.searchsorted(lam_edges, lam, side="right") - 1
        ok = (idx >= 0) & (idx < bins)
        per_draw = np.zeros((len(counts), bins))
        ev_draw = np.repeat(np.arange(len(counts)), counts)
        np.add.at(per_draw, (ev_draw[ok], idx[ok]), 1.0)
        sums += per_draw.sum(axis=0)
        sqsums += (per_draw ** 2).sum(axis=0)
    mean = sums / trials
    var = (sqsums / trials - mean ** 2) * trials / max(trials - 1, 1)
    return mean, np.sqrt(var / trials)


def expected_real_count(p: EllipticParams) -> float:
    """Integral of the exact density over the real line (even in x)."""
    lam_max = support_lambda_max(p.n, p.tau)
    xmax = lam_max * math.sqrt(p.n)
    res = log_quad(lambda xs: log_rho_real_exact(p, xs), 0.0, xmax,
                   rel_tol=_DENSITY_REL_TOL)
    return 2.0 * res.value


def expected_counts_in_bins(p: EllipticParams, edges: np.ndarray) -> np.ndarray:
    """Expected number of real eigenvalues in each [edges_i, edges_{i+1}) bin,
    all bins integrated in one lockstep quadrature."""
    p.require_exact_density()
    edges = np.asarray(edges, dtype=float).tolist()
    res = log_quad_many(lambda xs, owner: log_rho_real_exact(p, xs),
                        list(zip(edges[:-1], edges[1:])),
                        rel_tol=_DENSITY_REL_TOL)
    return np.array([r.value for r in res])
