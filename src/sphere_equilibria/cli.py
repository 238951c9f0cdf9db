"""Config-driven experiment runner.

Experiments are described by a JSON config with a ``kind`` field; a run is a
pure function of (config, master seed) and writes CSV/JSON artifacts plus a
manifest.  Each kind's keys, types, defaults and range checks are the fields
and ``__post_init__`` of one frozen dataclass below, read by `_from_fields`.
Per-task seeds are derived from the master seed by a stable hash, so
extending a study never perturbs completed tasks.  All file writes are
atomic (write to a temp name, then rename); timestamps and wall time live
only in the manifest so payload files are byte-reproducible.

Exit codes: 0 ok, 2 config error, 3 numerical error, 4 non-saturated Monte
Carlo counts under --strict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
import typing
from dataclasses import (MISSING, asdict, dataclass, fields, is_dataclass,
                         replace)

import numpy as np

from . import __version__
from ._rng import derive_seed, sha256, sphere_points
from .dynamics import run_to_equilibrium_batch
from .elliptic import (EllipticParams, expected_counts_in_bins,
                       expected_real_count, mean_real_count,
                       real_eigenvalue_histogram, rho_real_exact,
                       support_lambda_max)
from .errors import DomainError, NumericalError, ParameterError
from .field_model import ModelParams, covariance_pair, sample_field
from .predictor import (DerivedParams, derived_params, mean_in_intervals,
                        mean_total_exact, mean_totals_exact,
                        predict_asymptotic, validate_det_identity)
from .quadrature import _REL_TOL
from .search import find_equilibria, mc_mean_count


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _read(typ, value, where: str):
    """The JSON `value` as `typ`: a finite float (an int is accepted), an exact
    int, bool, str or dict, X for ``X | None``, a list or a dataclass schema."""
    if typing.get_origin(typ) is list:
        if type(value) is not list:
            raise ParameterError(f"field '{where}' must be a list")
        (item,) = typing.get_args(typ)
        return [_read(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    typ = next((t for t in typing.get_args(typ) if t is not type(None)), typ)
    if is_dataclass(typ):
        return _from_fields(typ, value, where)
    if typ is float and type(value) in (int, float):
        if abs(value) <= sys.float_info.max:
            return float(value)
        raise ParameterError(f"field '{where}' must be finite, got {value}")
    if type(value) is typ:
        return value
    raise ParameterError(f"field '{where}' must be {typ.__name__}, got {value!r}")


def _get(d: dict, key: str, typ, default, where: str):
    """`d[key]` as `typ`; absent or null gives `default` (MISSING: required)."""
    if d.get(key) is not None:
        return _read(typ, d[key], f"{where}.{key}")
    if default is MISSING:
        raise ParameterError(f"field '{where}.{key}' is required")
    return default


def _from_fields(cls, d, where: str):
    """Build the dataclass `cls` from the config object `d`, whose keys, types
    and defaults are the fields of `cls`.  A ``cls.prepare(d, where)`` first
    derives fields from inputs that are not fields.  Unknown keys raise."""
    if type(d) is not dict:
        raise ParameterError(f"field '{where}' must be an object")
    if hasattr(cls, "prepare"):
        d = cls.prepare(d, where)
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ParameterError(f"field '{where}': unknown keys {', '.join(unknown)}")
    kwargs = {f.name: _get(d, f.name, hints[f.name], f.default, where)
              for f in fields(cls)}
    try:
        return cls(**kwargs)
    except (ParameterError, DomainError) as exc:
        raise type(exc)(f"field '{where}': {exc}") from exc


def _set_elsewhere(d: dict, where: str, by: str, **allowed) -> None:
    """Raise naming the first key of `allowed` that `d` sets to other than
    `allowed[key]` (None: to anything), as `by` sets it instead."""
    for key, value in allowed.items():
        if d.get(key) not in (None, value):
            raise ParameterError(f"field '{where}.{key}': {by}, got {d[key]!r}")


def _at_least(spec, **bounds) -> None:
    """Raise naming the first field of `spec` that is below its bound."""
    for name, lo in bounds.items():
        if getattr(spec, name) < lo:
            raise ParameterError(f"{name} must be >= {lo}, got {getattr(spec, name)}")


def _finite_b2(model: ModelParams) -> None:
    """Raise if a coupled model's b^2 overflows (b^2 sets the start budget
    and the prediction); an exceptional model runs with no prediction."""
    if not model.field_free:
        try:
            derived_params(covariance_pair(model), model.sigma)
        except DomainError:
            pass


@dataclass(frozen=True)
class Solver:
    """A config's `solver` object; start seeds derive from the master seed."""

    n_starts: int | None = None

    def __post_init__(self):
        if self.n_starts is not None:
            _at_least(self, n_starts=1)


@dataclass(frozen=True)
class Covariance:
    """`predict-sweep`'s model: Phi1(1), Phi1'(1) and Phi2(1), or a
    quadratic-family model (`ModelParams` less `n` and `sigma`) read as them."""

    phi1_1: float
    dphi1_1: float
    phi2_1: float

    @staticmethod
    def prepare(d: dict, where: str) -> dict:
        if {"phi1_1", "dphi1_1", "phi2_1"} <= set(d):
            return d
        _set_elsewhere(d, where, "'n_list' and 'sigma_grid' set n and sigma",
                       n=None, sigma=None)
        cov = covariance_pair(_from_fields(ModelParams, {"n": 2, **d}, where))
        return {"phi1_1": cov.phi1(1.0), "dphi1_1": cov.dphi1(1.0),
                "phi2_1": cov.phi2(1.0)}

    def derived(self, sigma: float) -> DerivedParams:
        return DerivedParams.from_values(self.phi1_1, self.dphi1_1,
                                         self.phi2_1, sigma)


@dataclass(frozen=True)
class PredictSweep:
    """`predict-sweep`: exact and asymptotic mean counts on an N x sigma grid."""

    model: Covariance
    sigma_grid: list[float]
    n_list: list[int]

    def __post_init__(self):
        if any(s < 0 for s in self.sigma_grid):
            raise ParameterError("sigma_grid entries must be nonnegative")
        if any(n < 2 or n % 2 for n in self.n_list):
            raise ParameterError(f"n_list sizes must be even and >= 2, got {self.n_list}")
        for s in self.sigma_grid:  # domain gates propagate at validation time
            self.model.derived(s)


@dataclass(frozen=True)
class MCCount:
    """`mc-count`: brute-force counts over field instances vs the exact mean."""

    model: ModelParams
    instances: int
    solver: Solver = Solver()
    lambda_bins: int = 12

    def __post_init__(self):
        _at_least(self, instances=1, lambda_bins=1)
        _finite_b2(self.model)


@dataclass(frozen=True)
class SpectraValidate:
    """`spectra-validate`: real-eigenvalue histogram vs the exact density."""

    n: int
    tau: float
    trials: int
    bins: int = 25

    def __post_init__(self):
        EllipticParams(self.n, self.tau).require_exact_density()
        _at_least(self, trials=100, bins=3)


@dataclass(frozen=True)
class DetIdentity:
    """`det-identity`: the mean |det| identity at each of `lambdas`."""

    n: int
    tau: float
    lambdas: list[float]
    trials: int

    def __post_init__(self):
        EllipticParams(self.n, self.tau).require_exact_density()
        _at_least(self, trials=100)


@dataclass(frozen=True)
class Dynamics:
    """`dynamics`: one instance's equilibria, then `starts` RK4 runs."""

    model: ModelParams
    starts: int
    solver: Solver = Solver()
    instance_seed: int | None = None
    t_max: float | None = None

    def __post_init__(self):
        _at_least(self, starts=1)
        if self.t_max is not None and not self.t_max > 0:
            raise ParameterError(f"t_max must be positive, got {self.t_max}")
        _finite_b2(self.model)


@dataclass(frozen=True)
class TransitionCurve:
    """`transition-curve`: exact, asymptotic and Monte Carlo counts over sigma.

    The model takes `n` and sigma = 0 (its own may only repeat them); without
    `sigma_grid`, `prepare` makes `grid_points` (default 9) sigmas from 0 to
    `max_sigma_factor` (2) sigma_c, and with it both keys are rejected."""

    model: ModelParams
    n: int
    sigma_grid: list[float]
    mc_instances: int = 0
    solver: Solver = Solver()

    @staticmethod
    def prepare(raw: dict, where: str) -> dict:
        d = {k: v for k, v in raw.items()
             if k not in ("grid_points", "max_sigma_factor")}
        model = _get(d, "model", dict, MISSING, where)
        n = _get(d, "n", int, MISSING, where)
        _set_elsewhere(model, f"{where}.model", f"the curve takes n = {n} from "
                       "'n' and sigma from 'sigma_grid'", n=n, sigma=0.0)
        d["model"] = {**model, "n": n, "sigma": 0.0}
        if d.get("sigma_grid") is not None:
            _set_elsewhere(raw, where, "unused with a 'sigma_grid'",
                           grid_points=None, max_sigma_factor=None)
        else:
            model = _get(d, "model", ModelParams, MISSING, where)
            pts = _get(raw, "grid_points", int, 9, where)
            fac = _get(raw, "max_sigma_factor", float, 2.0, where)
            if pts < 0:
                raise ParameterError(f"field '{where}.grid_points' must be >= 0")
            sigma_c = derived_params(covariance_pair(model), 0.0).sigma_c
            if sigma_c == 0.0:  # a linear field
                raise ParameterError(
                    f"field '{where}.model': sigma_c = 0, give a 'sigma_grid'")
            d["sigma_grid"] = np.linspace(0.0, fac * sigma_c, pts).tolist()
        return d

    def __post_init__(self):
        if self.n % 2 or self.n < 2:
            raise ParameterError(f"n must be even and >= 2, got {self.n}")
        if any(s < 0 for s in self.sigma_grid):
            raise ParameterError("sigma_grid entries must be nonnegative")
        cov = covariance_pair(self.model)
        for s in self.sigma_grid:
            derived_params(cov, s)
        _at_least(self, mc_instances=0)


@dataclass
class ExperimentConfig:
    kind: str
    spec: typing.Any  # the kind's schema dataclass
    seed: int

    def canonical(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, **asdict(self.spec)}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return sha256(blob).hexdigest()


def parse_config(path) -> ExperimentConfig:
    """Load, validate and normalize an experiment config.

    Unknown keys and out-of-range values raise, naming the offending field.
    Defaults are filled in explicitly so the normalized payload round-trips.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ParameterError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParameterError("config root must be a JSON object")
    kind = raw.get("kind")
    if kind not in _EXPERIMENTS:
        raise ParameterError(
            f"field 'kind' must be one of {', '.join(_EXPERIMENTS)}; got {kind!r}")
    spec = _from_fields(_EXPERIMENTS[kind][0],
                        {k: v for k, v in raw.items()
                         if k not in ("kind", "seed")}, "config")
    return ExperimentConfig(kind=kind, spec=spec,
                            seed=_get(raw, "seed", int, 0, "config"))


# ---------------------------------------------------------------------------
# atomic artifact emission
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """CSV with a fixed, documented column order; floats at full precision."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    _atomic_write(path, sink.getvalue())


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# experiment bodies: (typed config, master seed, strict) -> artifacts
# {file name: (header, rows) for a CSV or a dict for a JSON file}
# ---------------------------------------------------------------------------

def _run_predict_sweep(c: PredictSweep, seed: int, strict: bool) -> dict:
    rows = []
    dps = [c.model.derived(sigma) for sigma in c.sigma_grid]
    for n in c.n_list:
        for sigma, dp, exact in zip(c.sigma_grid, dps,
                                    mean_totals_exact(dps, n)):
            for pr in (exact, predict_asymptotic(dp, n)):
                rows.append([n, dp.tau, dp.b2, sigma, pr.regime,
                             pr.value, pr.log_value])
    return {"predictions.csv": (["N", "tau", "b2", "sigma", "regime", "value",
                                 "log_value"], rows),
            "summary.json": {"rows": len(rows), "tolerances":
                             {"quadrature_rel_tol": _REL_TOL}}}


def _run_mc_count(c: MCCount, seed: int, strict: bool) -> dict:
    dp = pred = None
    if not c.model.field_free:
        try:
            dp = derived_params(covariance_pair(c.model), c.model.sigma)
            pred = mean_total_exact(dp, c.model.n)
        except DomainError:  # no exact prediction for this model
            pass
    scale = dp.lambda_scale if dp is not None else 1.0
    edges = np.linspace(-3.0 * scale, 3.0 * scale, c.lambda_bins + 1)
    result = mc_mean_count(c.model, c.instances, c.solver.n_starts,
                           seed=derive_seed(seed, "mc-count"),
                           lambda_edges=edges, strict=strict)

    bins = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    expected = None if pred is None else mean_in_intervals(dp, c.model.n, bins)
    hist_rows = []
    for i, (lo, hi) in enumerate(bins):
        mc_m = float(result.histogram_mean[i])
        mc_se = float(result.histogram_stderr[i])
        row = [lo, hi, mc_m, mc_se]
        if pred is None:
            row += ["", ""]
        else:
            exp = expected[i].value
            row += [exp, (mc_m - exp) / mc_se if mc_se > 0 else float("nan")]
        hist_rows.append(row)

    return {
        "mc_counts.csv": (["instance", "n_found", "saturated", "seed"],
                          [[i, int(n), bool(s), sd] for i, (n, s, sd) in enumerate(
                              zip(result.counts, result.saturated,
                                  result.instance_seeds))]),
        "histogram.csv": (["lambda_lo", "lambda_hi", "mc_mean", "mc_stderr",
                           "predicted", "z"], hist_rows),
        "summary.json": {
            "mean": result.mean, "stderr": result.stderr,
            "n_instances": c.instances,
            "n_unsaturated": result.n_unsaturated,
            "n_excluded": result.n_excluded,
            "predicted": None if pred is None else pred.value,
            "z": (None if pred is None or result.stderr == 0
                  else (result.mean - pred.value) / result.stderr),
        },
    }


def _run_spectra_validate(c: SpectraValidate, seed: int,
                          strict: bool) -> dict:
    p = EllipticParams(c.n, c.tau)
    sqrt_n = math.sqrt(p.n)
    lam_max = (1.0 + p.tau) + 6.0 / sqrt_n
    lam_edges = np.linspace(-lam_max, lam_max, c.bins + 1)
    mean, stderr = real_eigenvalue_histogram(
        p, c.trials, derive_seed(seed, "spectra-validate"), lam_edges)
    # the two bin widths round differently; each side keeps its own
    width_mc = np.diff(lam_edges) * sqrt_n
    x_edges = lam_edges * sqrt_n
    expected = expected_counts_in_bins(p, x_edges) / np.diff(x_edges)
    rows = []
    zmax = 0.0
    for lam, obs, se, exp_density in zip(
            (0.5 * (lam_edges[:-1] + lam_edges[1:])).tolist(),
            (mean / width_mc).tolist(), (stderr / width_mc).tolist(),
            expected.tolist()):
        z = (obs - exp_density) / se if se > 0 else 0.0
        zmax = max(zmax, abs(z))
        rows.append([lam, obs, se, exp_density, z])
    # the exact density on a 201-point Chebyshev grid over its support
    grid = np.sort(support_lambda_max(p.n, p.tau)
                   * np.cos(np.pi * np.arange(201) / 200))

    mc_mean, mc_se = mean_real_count(p, c.trials, derive_seed(seed, "count"))
    integral = expected_real_count(p)
    z_int = (mc_mean - integral) / mc_se if mc_se > 0 else 0.0
    return {
        "density_check.csv": (["lambda", "mc_rho", "mc_stderr", "exact_rho",
                               "z"], rows),
        "profile_exact.csv": (["lambda", "rho", "method"],
                              [[lam, rho, "exact-hermite"] for lam, rho in
                               zip(grid, rho_real_exact(p, grid * sqrt_n))]),
        "summary.json": {"n": p.n, "tau": p.tau, "trials": c.trials,
                         "max_abs_bin_z": zmax,
                         "mc_mean_count": mc_mean, "mc_stderr": mc_se,
                         "density_integral": integral, "count_z": z_int},
    }


def _run_det_identity(c: DetIdentity, seed: int, strict: bool) -> dict:
    seed = derive_seed(seed, "det-identity")
    reps = [validate_det_identity(c.tau, c.n, lam, c.trials, seed)
            for lam in c.lambdas]
    rows = [[lam, r.ratio, r.stderr, r.z, r.mc_log_mean, r.rhs_log]
            for lam, r in zip(c.lambdas, reps)]
    return {"det_identity.csv": (["lambda", "ratio", "stderr", "z",
                                  "mc_log_mean", "rhs_log"], rows),
            "summary.json": {"n": c.n, "tau": c.tau, "trials": c.trials,
                             "max_abs_z": max([0.0] + [abs(r.z) for r in reps])}}


def _run_dynamics(c: Dynamics, seed: int, strict: bool) -> dict:
    inst = sample_field(c.model, derive_seed(seed, "dynamics-instance")
                        if c.instance_seed is None else c.instance_seed)
    report = find_equilibria(inst, c.solver.n_starts,
                             derive_seed(seed, "dynamics-solver"))
    equilibria = {
        "n_found": report.n_found,
        "n_starts": report.n_starts,
        "n_converged_starts": report.n_converged_starts,
        "dedup_radius": report.dedup_radius,
        "saturated": report.saturated,
        "seed": report.seed,
        "points": [{"x": pt.x.tolist(), "lambda": pt.lam,
                    "residual": pt.residual, "basin_hits": pt.basin_hits,
                    "tangent_spectrum": [[z.real, z.imag]
                                         for z in pt.tangent_spectrum]}
                   for pt in report.points],
    }

    x0 = sphere_points(derive_seed(seed, "dynamics-starts"), c.starts,
                       c.model.n)
    results = run_to_equilibrium_batch(inst, x0, report, c.t_max)
    rows = [[i, r.converged, r.t, r.lam, r.v_norm,
             "" if r.matched is None else r.matched]
            for i, r in enumerate(results)]
    n_conv = sum(r.converged for r in results)
    n_match = sum(r.matched is not None for r in results)
    return {
        "equilibria.json": equilibria,
        "dynamics.csv": (["start", "converged", "t_end", "lambda", "v_norm",
                          "matched_equilibrium"], rows),
        "summary.json": {"starts": c.starts,
                         "n_equilibria": report.n_found,
                         "saturated": report.saturated,
                         "fraction_converged": n_conv / len(results),
                         "fraction_matched": n_match / len(results)},
    }


def _run_transition_curve(c: TransitionCurve, seed: int,
                          strict: bool) -> dict:
    cov = covariance_pair(c.model)
    rows = []
    n_unsat = 0
    dps = [derived_params(cov, sigma) for sigma in c.sigma_grid]
    for i, (sigma, dp, exact) in enumerate(zip(c.sigma_grid, dps,
                                                mean_totals_exact(dps, c.n))):
        asym = predict_asymptotic(dp, c.n)
        row = [sigma, dp.b2, exact.value, exact.log_value, asym.regime,
               asym.value]
        if c.mc_instances > 0:
            res = mc_mean_count(replace(c.model, sigma=sigma), c.mc_instances,
                                c.solver.n_starts,
                                seed=derive_seed(seed, f"curve-{i}"),
                                strict=strict)
            n_unsat += res.n_unsaturated
            row += [res.mean, res.stderr]
        else:
            row += ["", ""]
        rows.append(row)
    return {"transition_curve.csv": (["sigma", "b2", "exact_value",
                                      "exact_log_value", "asympt_regime",
                                      "asympt_value", "mc_mean", "mc_stderr"],
                                     rows),
            "summary.json": {"n": c.n, "sigma_c": derived_params(cov, 0.0).sigma_c,
                             "grid_points": len(rows), "n_unsaturated": n_unsat}}


# kind -> (config schema, experiment body)
_EXPERIMENTS = {
    "predict-sweep": (PredictSweep, _run_predict_sweep),
    "mc-count": (MCCount, _run_mc_count),
    "spectra-validate": (SpectraValidate, _run_spectra_validate),
    "det-identity": (DetIdentity, _run_det_identity),
    "dynamics": (Dynamics, _run_dynamics),
    "transition-curve": (TransitionCurve, _run_transition_curve),
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run(cfg: ExperimentConfig, out_dir: str | None = None,
        strict: bool = False) -> tuple[int, dict]:
    """Execute a validated config; returns (exit code, manifest).  Artifacts
    are written once the body returns them all: a failed run writes none."""
    out = out_dir or f"{cfg.kind}-out"
    t0 = time.time()
    artifacts = _EXPERIMENTS[cfg.kind][1](cfg.spec, cfg.seed, strict)
    for name, data in artifacts.items():
        if isinstance(data, dict):
            write_json(os.path.join(out, name), data)
        else:
            write_csv(os.path.join(out, name), *data)
    manifest = {
        "kind": cfg.kind,
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.seed,
        "versions": {"sphere_equilibria": __version__,
                     "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "outputs": list(artifacts),
        "wall_time_s": time.time() - t0,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    unsaturated = strict and artifacts["summary.json"].get("n_unsaturated", 0)
    return (4 if unsaturated else 0), manifest


def _error_json(kind: str, exc: Exception) -> str:
    return json.dumps({"error": {"type": kind, "message": str(exc)}},
                      sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphere-equilibria",
        description="Equilibrium-counting experiments for random flows on the sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON experiment config")
    runp.add_argument("config", help="path to the config file")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the master seed")
    runp.add_argument("--threads", type=int, default=1,
                      help="accepted only as 1, since every run is "
                           "serial; kept until the benchmark runner stops "
                           "passing it (ROADMAP item 1)")
    runp.add_argument("--out-dir", default=None, help="artifact directory")
    runp.add_argument("--strict", action="store_true",
                      help="exclude non-saturated Monte Carlo instances "
                           "from the statistics and exit 4 if there are any")
    args = parser.parse_args(argv)

    try:
        if args.threads != 1:
            raise ParameterError("--threads accepts only 1 (every run is "
                                 f"serial), got {args.threads}")
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        code, _ = run(cfg, out_dir=args.out_dir, strict=args.strict)
    except (ParameterError, DomainError) as exc:
        print(_error_json("config", exc))
        return 2
    except NumericalError as exc:
        print(_error_json("numerical", exc))
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
