"""Config-driven experiment runner.

Experiments are described by a JSON config with a ``kind`` field; a run is a
pure function of (config, master seed) and writes CSV/JSON artifacts plus a
manifest.  Per-task seeds are derived from the master seed by a stable hash,
so extending a study never perturbs completed tasks.  All file writes are
atomic (write to a temp name, then rename); timestamps and wall time live
only in the manifest so payload files are byte-reproducible.

Exit codes: 0 ok, 2 config error, 3 numerical error, 4 non-saturated Monte
Carlo counts under --strict.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from ._rng import derive_seed, stream
from .dynamics import DynamicsOptions, run_to_equilibrium_batch
from .elliptic import (DensityProfile, EllipticParams, expected_counts_in_bins,
                       expected_real_count, mean_real_count)
from .errors import DomainError, NumericalError, ParameterError
from .field_model import ModelParams, covariance_pair, sample_field
from .predictor import (_QUAD_REL_TOL, DerivedParams, derived_params,
                        mean_in_interval, mean_total_exact,
                        predict_asymptotic, validate_det_identity)
from .search import SolverOptions, find_equilibria, mc_mean_count


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    kind: str
    payload: dict
    seed: int
    out_dir: str | None = None
    unknown_keys: list[str] = field(default_factory=list)

    def canonical(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, **self.payload}

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _need(d: dict, key: str, typ, where: str):
    if key not in d:
        raise ParameterError(f"field '{where}.{key}' is required")
    return _coerce(d[key], key, typ, where)


def _opt(d: dict, key: str, typ, default, where: str):
    if key not in d or d[key] is None:
        return default
    return _coerce(d[key], key, typ, where)


def _coerce(value, key, typ, where):
    if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"field '{where}.{key}' must be an integer")
        return value
    if not isinstance(value, typ):
        raise ParameterError(f"field '{where}.{key}' must be {typ.__name__}")
    return value


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ParameterError(
            f"field '{where}': unknown keys {', '.join(unknown)}")


def _from_fields(cls, d: dict, where: str, skip=()):
    """Build the dataclass `cls` from the config object `d`.

    The allowed keys, their types and their defaults are the fields of `cls`
    (``int | None`` reads as int); a field without a default is required.
    Fields named in `skip` are not read and keep their defaults.
    """
    hints = typing.get_type_hints(cls)
    read = [f for f in fields(cls) if f.name not in skip]
    _reject_unknown(d, {f.name for f in read}, where)
    kwargs = {}
    for f in read:
        typ = next((t for t in typing.get_args(hints[f.name])
                    if t is not type(None)), hints[f.name])
        kwargs[f.name] = (_need(d, f.name, typ, where) if f.default is MISSING
                          else _opt(d, f.name, typ, f.default, where))
    try:
        return cls(**kwargs)
    except ParameterError as exc:
        raise ParameterError(f"field '{where}': {exc}") from exc


def _covariance_values(d: dict, where: str) -> tuple[float, float, float]:
    """Either the three covariance scalars or a quadratic-family model."""
    if {"phi1_1", "dphi1_1", "phi2_1"} <= set(d):
        _reject_unknown(d, {"phi1_1", "dphi1_1", "phi2_1"}, where)
        return (_need(d, "phi1_1", float, where), _need(d, "dphi1_1", float, where),
                _need(d, "phi2_1", float, where))
    cov = covariance_pair(_from_fields(ModelParams, {**d, "n": d.get("n", 2)},
                                       where))
    return cov.phi1(1.0), cov.dphi1(1.0), cov.phi2(1.0)


def _solver_options(d: dict, seed: int, where: str = "solver") -> SolverOptions:
    return replace(_from_fields(SolverOptions, d, where, skip=("seed",)),
                   seed=seed)


def _solver_dict(opts: SolverOptions) -> dict:
    return {k: v for k, v in asdict(opts).items() if k != "seed"}


def parse_config(path, strict: bool = False) -> ExperimentConfig:
    """Load, validate and normalize an experiment config.

    Unknown keys are an error in strict mode and recorded in the manifest
    otherwise; out-of-range values always raise, naming the offending field.
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
    keys, normalize, _ = _EXPERIMENTS[kind]
    unknown = sorted(set(raw) - keys - {"kind", "seed", "out_dir"})
    if unknown and strict:
        raise ParameterError(f"unknown config keys for {kind}: {', '.join(unknown)}")
    seed = _opt(raw, "seed", int, 0, "config")
    out_dir = _opt(raw, "out_dir", str, None, "config")
    payload = normalize(raw)
    return ExperimentConfig(kind=kind, payload=payload, seed=seed,
                            out_dir=out_dir, unknown_keys=unknown)


def _norm_predict_sweep(raw: dict) -> dict:
    model = raw.get("model")
    if not isinstance(model, dict):
        raise ParameterError("field 'model' must be an object")
    phi1, dphi1, phi2 = _covariance_values(model, "model")
    sigma_grid = [float(s) for s in _need(raw, "sigma_grid", list, "config")]
    if any(s < 0 for s in sigma_grid):
        raise ParameterError("field 'sigma_grid': entries must be nonnegative")
    n_list = [_coerce(n, "n_list", int, "config") for n in
              _need(raw, "n_list", list, "config")]
    for n in n_list:
        if n < 2 or n % 2:
            raise ParameterError(f"field 'n_list': sizes must be even and >= 2, got {n}")
    for s in sigma_grid:  # domain gates propagate at validation time
        DerivedParams.from_values(phi1, dphi1, phi2, s)
    return {"model": {"phi1_1": phi1, "dphi1_1": dphi1, "phi2_1": phi2},
            "sigma_grid": sigma_grid, "n_list": n_list}


def _norm_mc_count(raw: dict) -> dict:
    params = _from_fields(ModelParams, _need(raw, "model", dict, "config"),
                          "model")
    instances = _need(raw, "instances", int, "config")
    if instances < 1:
        raise ParameterError("field 'instances' must be >= 1")
    solver = _solver_options(_opt(raw, "solver", dict, {}, "config"), 0)
    bins = _opt(raw, "lambda_bins", int, 12, "config")
    if bins < 1:
        raise ParameterError("field 'lambda_bins' must be >= 1")
    return {"model": params.to_dict(), "instances": instances,
            "solver": _solver_dict(solver), "lambda_bins": bins,
            "compare_exact": _opt(raw, "compare_exact", bool, True, "config")}


def _norm_spectra(raw: dict) -> dict:
    n = _need(raw, "n", int, "config")
    tau = _need(raw, "tau", float, "config")
    EllipticParams(n, tau)
    trials = _need(raw, "trials", int, "config")
    if trials < 100:
        raise ParameterError("field 'trials' must be >= 100")
    bins = _opt(raw, "bins", int, 25, "config")
    if bins < 3:
        raise ParameterError("field 'bins' must be >= 3")
    return {"n": n, "tau": tau, "trials": trials, "bins": bins}


def _norm_det_identity(raw: dict) -> dict:
    n = _need(raw, "n", int, "config")
    tau = _need(raw, "tau", float, "config")
    if not (-1.0 < tau < 1.0):
        raise ParameterError(f"field 'tau' must satisfy |tau| < 1, got {tau}")
    if n % 2 or n < 2:
        raise ParameterError(f"field 'n' must be even and >= 2, got {n}")
    lambdas = [float(v) for v in _need(raw, "lambdas", list, "config")]
    trials = _need(raw, "trials", int, "config")
    if trials < 100:
        raise ParameterError("field 'trials' must be >= 100")
    return {"n": n, "tau": tau, "lambdas": lambdas, "trials": trials}


def _norm_dynamics(raw: dict) -> dict:
    params = _from_fields(ModelParams, _need(raw, "model", dict, "config"),
                          "model")
    starts = _need(raw, "starts", int, "config")
    if starts < 1:
        raise ParameterError("field 'starts' must be >= 1")
    opts = _from_fields(DynamicsOptions,
                        {f.name: raw[f.name] for f in fields(DynamicsOptions)
                         if f.name in raw}, "config")
    solver = _solver_options(_opt(raw, "solver", dict, {}, "config"), 0)
    return {"model": params.to_dict(), "starts": starts, **asdict(opts),
            "solver": _solver_dict(solver),
            "instance_seed": _opt(raw, "instance_seed", int, None, "config")}


def _norm_transition(raw: dict) -> dict:
    model_raw = _need(raw, "model", dict, "config")
    n = _need(raw, "n", int, "config")
    if n % 2 or n < 2:
        raise ParameterError(f"field 'n' must be even and >= 2, got {n}")
    params = _from_fields(ModelParams, {**model_raw, "n": n, "sigma": 0.0},
                          "model")
    cov = covariance_pair(params)
    sigma_c = derived_params(cov, 0.0).sigma_c
    if "sigma_grid" in raw and raw["sigma_grid"] is not None:
        grid = [float(s) for s in raw["sigma_grid"]]
    else:
        pts = _opt(raw, "grid_points", int, 9, "config")
        fac = _opt(raw, "max_sigma_factor", float, 2.0, "config")
        if sigma_c == 0.0:
            raise ParameterError(
                "field 'model': sigma_c = 0 (linear field), provide 'sigma_grid'")
        grid = list(np.linspace(0.0, fac * sigma_c, pts))
    if any(s < 0 for s in grid):
        raise ParameterError("field 'sigma_grid': entries must be nonnegative")
    for s in grid:
        derived_params(cov, s)
    mc_instances = _opt(raw, "mc_instances", int, 0, "config")
    if mc_instances < 0:
        raise ParameterError("field 'mc_instances' must be >= 0")
    solver = _solver_options(_opt(raw, "solver", dict, {}, "config"), 0)
    return {"model": params.to_dict(), "n": n,
            "sigma_grid": [float(s) for s in grid],
            "mc_instances": mc_instances, "solver": _solver_dict(solver)}


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
# experiment bodies
# ---------------------------------------------------------------------------

def _run_predict_sweep(cfg: ExperimentConfig, out: str, threads: int,
                       strict: bool) -> dict:
    m = cfg.payload["model"]
    rows = []
    for n in cfg.payload["n_list"]:
        for sigma in cfg.payload["sigma_grid"]:
            dp = DerivedParams.from_values(m["phi1_1"], m["dphi1_1"],
                                           m["phi2_1"], sigma)
            preds = []
            try:
                preds.append(mean_total_exact(dp, n))
            except DomainError:
                pass
            preds.append(predict_asymptotic(dp, n))
            for pr in preds:
                rows.append([n, dp.tau, dp.b2, sigma, pr.regime,
                             pr.value, pr.log_value])
    write_csv(os.path.join(out, "predictions.csv"),
              ["N", "tau", "b2", "sigma", "regime", "value", "log_value"], rows)
    summary = {"rows": len(rows),
               "tolerances": {"quadrature_rel_tol": _QUAD_REL_TOL}}
    write_json(os.path.join(out, "summary.json"), summary)
    summary["outputs"] = ["predictions.csv", "summary.json"]
    return summary


def _run_mc_count(cfg: ExperimentConfig, out: str, threads: int,
                  strict: bool) -> dict:
    params = ModelParams(**cfg.payload["model"])
    solver = _solver_options(cfg.payload["solver"], 0)
    seed = derive_seed(cfg.seed, "mc-count")
    dp = None
    pred = None
    if cfg.payload["compare_exact"] and not params.field_free:
        try:
            dp = derived_params(covariance_pair(params), params.sigma)
            pred = mean_total_exact(dp, params.n)
        except (DomainError, ParameterError):
            pred = None
    scale = dp.lambda_scale if dp is not None else 1.0
    edges = np.linspace(-3.0 * scale, 3.0 * scale, cfg.payload["lambda_bins"] + 1)
    result = mc_mean_count(params, cfg.payload["instances"], solver,
                           seed=seed, lambda_edges=edges, strict=strict,
                           threads=threads)
    write_csv(os.path.join(out, "mc_counts.csv"),
              ["instance", "n_found", "saturated", "seed"],
              [[i, int(c), bool(s), sd] for i, (c, s, sd) in enumerate(
                  zip(result.counts, result.saturated, result.instance_seeds))])

    hist_rows = []
    expected = None
    if pred is not None and dp is not None:
        expected = [mean_in_interval(dp, params.n, float(lo), float(hi)).value
                    for lo, hi in zip(edges[:-1], edges[1:])]
    for i in range(len(edges) - 1):
        mc_m = float(result.histogram_mean[i])
        mc_se = float(result.histogram_stderr[i])
        row = [float(edges[i]), float(edges[i + 1]), mc_m, mc_se]
        if expected is not None:
            z = (mc_m - expected[i]) / mc_se if mc_se > 0 else float("nan")
            row += [expected[i], z]
        else:
            row += ["", ""]
        hist_rows.append(row)
    write_csv(os.path.join(out, "histogram.csv"),
              ["lambda_lo", "lambda_hi", "mc_mean", "mc_stderr",
               "predicted", "z"], hist_rows)

    summary = {
        "mean": result.mean, "stderr": result.stderr,
        "n_instances": cfg.payload["instances"],
        "n_unsaturated": result.n_unsaturated,
        "n_excluded": result.n_excluded,
        "predicted": None if pred is None else pred.value,
        "z": (None if pred is None or result.stderr == 0
              else (result.mean - pred.value) / result.stderr),
    }
    write_json(os.path.join(out, "summary.json"), summary)
    summary["outputs"] = ["mc_counts.csv", "histogram.csv", "summary.json"]
    return summary


def _run_spectra_validate(cfg: ExperimentConfig, out: str, threads: int,
                          strict: bool) -> dict:
    p = EllipticParams(cfg.payload["n"], cfg.payload["tau"])
    seed = derive_seed(cfg.seed, "spectra-validate")
    trials, bins = cfg.payload["trials"], cfg.payload["bins"]
    profile = DensityProfile.monte_carlo(p, trials, seed, bins=bins)
    edges = np.asarray(profile.metadata["bin_edges"]) * math.sqrt(p.n)
    expected = expected_counts_in_bins(p, edges)
    width_x = np.diff(edges)
    rows = []
    zmax = 0.0
    for i in range(bins):
        obs = float(profile.values[i])
        se = float(profile.stderr[i])
        exp_density = float(expected[i] / width_x[i])
        z = (obs - exp_density) / se if se > 0 else 0.0
        if se > 0:
            zmax = max(zmax, abs(z))
        rows.append([float(profile.grid[i]), obs, se, exp_density, z])
    write_csv(os.path.join(out, "density_check.csv"),
              ["lambda", "mc_rho", "mc_stderr", "exact_rho", "z"], rows)
    exact = DensityProfile.exact(p)
    write_csv(os.path.join(out, "profile_exact.csv"), ["lambda", "rho", "method"],
              [[lam, rho, exact.method]
               for lam, rho in zip(exact.grid, exact.values)])

    mc_mean, mc_se = mean_real_count(p, trials, derive_seed(cfg.seed, "count"))
    integral = expected_real_count(p)
    z_int = (mc_mean - integral) / mc_se if mc_se > 0 else 0.0
    summary = {"n": p.n, "tau": p.tau, "trials": trials,
               "max_abs_bin_z": zmax,
               "mc_mean_count": mc_mean, "mc_stderr": mc_se,
               "density_integral": integral, "count_z": z_int}
    write_json(os.path.join(out, "summary.json"), summary)
    summary["outputs"] = ["density_check.csv", "profile_exact.csv", "summary.json"]
    return summary


def _run_det_identity(cfg: ExperimentConfig, out: str, threads: int,
                      strict: bool) -> dict:
    seed = derive_seed(cfg.seed, "det-identity")
    rows = []
    zmax = 0.0
    for lam in cfg.payload["lambdas"]:
        rep = validate_det_identity(cfg.payload["tau"], cfg.payload["n"],
                                    lam, cfg.payload["trials"], seed)
        zmax = max(zmax, abs(rep.z))
        rows.append([lam, rep.ratio, rep.stderr, rep.z,
                     rep.mc_log_mean, rep.rhs_log])
    write_csv(os.path.join(out, "det_identity.csv"),
              ["lambda", "ratio", "stderr", "z", "mc_log_mean", "rhs_log"], rows)
    summary = {"n": cfg.payload["n"], "tau": cfg.payload["tau"],
               "trials": cfg.payload["trials"], "max_abs_z": zmax}
    write_json(os.path.join(out, "summary.json"), summary)
    summary["outputs"] = ["det_identity.csv", "summary.json"]
    return summary


def _run_dynamics(cfg: ExperimentConfig, out: str, threads: int,
                  strict: bool) -> dict:
    params = ModelParams(**cfg.payload["model"])
    iseed = cfg.payload["instance_seed"]
    if iseed is None:
        iseed = derive_seed(cfg.seed, "dynamics-instance")
    inst = sample_field(params, iseed)
    solver = _solver_options(cfg.payload["solver"],
                             derive_seed(cfg.seed, "dynamics-solver"))
    report = find_equilibria(inst, solver)
    write_json(os.path.join(out, "equilibria.json"), {
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
    })

    rng = stream(derive_seed(cfg.seed, "dynamics-starts"), 0)
    g = rng.standard_normal((cfg.payload["starts"], params.n))
    x0 = math.sqrt(params.n) * g / np.linalg.norm(g, axis=1, keepdims=True)
    opts = DynamicsOptions(dt=cfg.payload["dt"], t_max=cfg.payload["t_max"],
                           v_tol=cfg.payload["v_tol"])
    results = run_to_equilibrium_batch(inst, x0, opts, report)
    rows = [[i, r.converged, r.t, r.lam, r.v_norm,
             "" if r.matched is None else r.matched]
            for i, r in enumerate(results)]
    write_csv(os.path.join(out, "dynamics.csv"),
              ["start", "converged", "t_end", "lambda", "v_norm",
               "matched_equilibrium"], rows)
    n_conv = sum(r.converged for r in results)
    n_match = sum(r.matched is not None for r in results)
    summary = {"starts": cfg.payload["starts"],
               "n_equilibria": report.n_found,
               "saturated": report.saturated,
               "fraction_converged": n_conv / len(results),
               "fraction_matched": n_match / len(results)}
    write_json(os.path.join(out, "summary.json"), summary)
    summary["outputs"] = ["equilibria.json", "dynamics.csv", "summary.json"]
    return summary


def _run_transition_curve(cfg: ExperimentConfig, out: str, threads: int,
                          strict: bool) -> dict:
    base = ModelParams(**cfg.payload["model"])
    n = cfg.payload["n"]
    cov = covariance_pair(base)
    solver = _solver_options(cfg.payload["solver"], 0)
    rows = []
    n_unsat = 0
    for i, sigma in enumerate(cfg.payload["sigma_grid"]):
        dp = derived_params(cov, sigma)
        exact = None
        try:
            exact = mean_total_exact(dp, n)
        except DomainError:
            pass
        asym = predict_asymptotic(dp, n)
        row = [sigma, dp.b2,
               "" if exact is None else exact.value,
               "" if exact is None else exact.log_value,
               asym.regime, asym.value]
        if cfg.payload["mc_instances"] > 0:
            res = mc_mean_count(replace(base, sigma=sigma),
                                cfg.payload["mc_instances"], solver,
                                seed=derive_seed(cfg.seed, f"curve-{i}"),
                                strict=strict, threads=threads)
            n_unsat += res.n_unsaturated
            row += [res.mean, res.stderr]
        else:
            row += ["", ""]
        rows.append(row)
    write_csv(os.path.join(out, "transition_curve.csv"),
              ["sigma", "b2", "exact_value", "exact_log_value",
               "asympt_regime", "asympt_value", "mc_mean", "mc_stderr"], rows)
    summary = {"n": n, "sigma_c": derived_params(cov, 0.0).sigma_c,
               "grid_points": len(rows), "n_unsaturated": n_unsat}
    write_json(os.path.join(out, "summary.json"), summary)
    summary["outputs"] = ["transition_curve.csv", "summary.json"]
    return summary


# kind -> (config keys besides kind/seed/out_dir, normalizer, experiment body)
_EXPERIMENTS = {
    "predict-sweep": ({"model", "sigma_grid", "n_list"},
                      _norm_predict_sweep, _run_predict_sweep),
    "mc-count": ({"model", "instances", "solver", "lambda_bins",
                  "compare_exact"}, _norm_mc_count, _run_mc_count),
    "spectra-validate": ({"n", "tau", "trials", "bins"},
                         _norm_spectra, _run_spectra_validate),
    "det-identity": ({"n", "tau", "lambdas", "trials"},
                     _norm_det_identity, _run_det_identity),
    "dynamics": ({"model", "starts", "dt", "t_max", "v_tol", "solver",
                  "instance_seed"}, _norm_dynamics, _run_dynamics),
    "transition-curve": ({"model", "n", "sigma_grid", "grid_points",
                          "max_sigma_factor", "mc_instances", "solver"},
                         _norm_transition, _run_transition_curve),
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run(cfg: ExperimentConfig, out_dir: str | None = None, threads: int = 1,
        strict: bool = False) -> tuple[int, dict]:
    """Execute a validated config; returns (exit code, manifest)."""
    out = out_dir or cfg.out_dir or f"{cfg.kind}-out"
    os.makedirs(out, exist_ok=True)
    t0 = time.time()
    summary = _EXPERIMENTS[cfg.kind][2](cfg, out, threads, strict)
    manifest = {
        "kind": cfg.kind,
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "master_seed": cfg.seed,
        "unknown_keys_ignored": cfg.unknown_keys,
        "versions": {"sphere_equilibria": __version__,
                     "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "outputs": summary.get("outputs", []),
        "wall_time_s": time.time() - t0,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    code = 0
    if strict and summary.get("n_unsaturated", 0):
        code = 4
    return code, manifest


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
                      help="worker threads for instance-parallel Monte Carlo")
    runp.add_argument("--out-dir", default=None, help="artifact directory")
    runp.add_argument("--strict", action="store_true",
                      help="reject unknown config keys; exclude and flag "
                           "non-saturated Monte Carlo instances (exit 4)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, strict=args.strict)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except (ParameterError, DomainError) as exc:
        print(_error_json("config", exc))
        return 2
    try:
        code, _ = run(cfg, out_dir=args.out_dir, threads=args.threads,
                      strict=args.strict)
    except (ParameterError, DomainError) as exc:
        print(_error_json("config", exc))
        return 2
    except NumericalError as exc:
        print(_error_json("numerical", exc))
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
