"""Workload configs, payload extraction and correctness checks.

A workload is a list of CLI experiments that one pass runs back to back,
each in its own fresh interpreter.  Its inputs are a pure function of the
workload seed: the seed becomes the CLI master seed (field instances, Newton
starts, Monte Carlo draws), and for `predict-large-n` it also jitters the
sigma grid.  Payloads are compared as numbers, never as file bytes, so extra
trailing CSV columns do not count as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import sys
from statistics import NormalDist

DEFAULT_SEED = 1

QUADRATIC = {"j1": 1.0, "j2": 1.0, "alpha1": 0.3, "alpha2": 0.2}
# Phi1(1), Phi1'(1), Phi2(1) of the quadratic model above
COVARIANCE = {"phi1_1": 2.17, "dphi1_1": 3.25, "phi2_1": 1.48}
SIGMA_C = math.sqrt(COVARIANCE["dphi1_1"] - COVARIANCE["phi1_1"])
TAU = round(COVARIANCE["phi2_1"] / COVARIANCE["dphi1_1"], 3)

# Probability that the Monte Carlo checks of one run reject a correct program.
# Every run of every seed draws fresh samples and a comparison of two commits
# makes a hundred or more runs, so the acceptance suite's 3-sigma tail
# (0.27% per test, on fixed seeds) would reject a correct program in a
# sizeable share of comparisons; this tail makes that practically never.
RUN_FALSE_ALARM = 1e-6
REL_TOL = 1e-10

SIZES = {
    "full": {"curve_points": 5, "curve_instances": 4, "curve_starts": None,
             "n_list": [100, 400], "dyn_starts": 1000, "dyn_t_max": 6.0,
             "spectra_trials": 100_000, "spectra_bins": 25},
    "tiny": {"curve_points": 3, "curve_instances": 2, "curve_starts": 100,
             "n_list": [400], "dyn_starts": 40, "dyn_t_max": 1.0,
             "spectra_trials": 1_000, "spectra_bins": 12},
}


def experiments(workload: str, seed: int, size: str) -> list[dict]:
    """The configs one pass of `workload` runs, in order."""
    z = SIZES[size]
    if workload == "count-n4":
        solver = {} if z["curve_starts"] is None else {"n_starts": z["curve_starts"]}
        return [{"kind": "transition-curve", "model": QUADRATIC, "n": 4,
                 "grid_points": z["curve_points"], "max_sigma_factor": 2.0,
                 "mc_instances": z["curve_instances"], "solver": solver}]
    if workload == "predict-large-n":
        rng = random.Random(f"predict-large-n:{seed}")
        # two sigma values on each side of sigma_c, jittered by +-5%
        grid = [round(f * SIGMA_C * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)), 6)
                for f in (0.3, 0.75, 1.35, 1.9)]
        return [{"kind": "predict-sweep", "model": COVARIANCE,
                 "sigma_grid": grid, "n_list": z["n_list"]}]
    if workload == "flow-spectra":
        return [{"kind": "dynamics", "model": {**QUADRATIC, "n": 4,
                                               "sigma": SIGMA_C},
                 "starts": z["dyn_starts"], "t_max": z["dyn_t_max"]},
                {"kind": "spectra-validate", "n": 8, "tau": TAU,
                 "trials": z["spectra_trials"], "bins": z["spectra_bins"]}]
    raise KeyError(workload)


WORKLOADS = ("count-n4", "predict-large-n", "flow-spectra")
# Workloads whose cost depends on the random instances cycle the untraced
# passes through ROTATION instance sets, so that a run's median rests on
# several instance sets instead of one.  The sets are fixed by the workload
# seed alone: however many passes fit in a run, both sides of a comparison
# measure the same inputs.
ROTATING = ("count-n4", "flow-spectra")
ROTATION = 3


def pass_seed(workload: str, seed: int, group: int) -> int:
    """CLI master seed of the `group`-th untraced pass of a run."""
    return seed * 1000 + group % ROTATION if workload in ROTATING else seed


# ---------------------------------------------------------------------------
# payloads: the numbers an experiment wrote
# ---------------------------------------------------------------------------

def _num(text: str):
    if text in ("True", "False"):
        return text == "True"
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def _csv_columns(path: str, columns: list[str]) -> dict[str, list]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {c: [_num(r[c]) for r in rows] for c in columns}


def _json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def payload(kind: str, out: str) -> dict:
    """The payload numbers of one experiment's artifact directory."""
    if kind == "transition-curve":
        p = _csv_columns(os.path.join(out, "transition_curve.csv"),
                         ["sigma", "exact_value", "mc_mean", "mc_stderr"])
        p["n_unsaturated"] = _json(os.path.join(out, "summary.json"))["n_unsaturated"]
        return p
    if kind == "predict-sweep":
        return _csv_columns(os.path.join(out, "predictions.csv"),
                            ["N", "sigma", "regime", "value"])
    if kind == "dynamics":
        s = _json(os.path.join(out, "summary.json"))
        eq = _json(os.path.join(out, "equilibria.json"))
        return {key: s[key] for key in ("n_equilibria", "saturated",
                                        "fraction_converged",
                                        "fraction_matched")} | {
            "residuals": [pt["residual"] for pt in eq["points"]],
            "lambdas": [pt["lambda"] for pt in eq["points"]]}
    if kind == "spectra-validate":
        s = _json(os.path.join(out, "summary.json"))
        p = {key: s[key] for key in ("mc_mean_count", "mc_stderr",
                                     "density_integral", "count_z",
                                     "max_abs_bin_z")}
        p["bins"] = _csv_columns(
            os.path.join(out, "density_check.csv"),
            ["lambda", "mc_rho", "mc_stderr", "exact_rho", "z"])
        return p
    raise KeyError(kind)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _close(a, b, rel=REL_TOL) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def _match(got, want, path: str) -> list[str]:
    """Numbers match `want`: integers and flags exactly, floats to 1e-10."""
    if isinstance(want, dict):
        errs = []
        for key, value in want.items():
            if key not in got:
                errs.append(f"{path}.{key}: missing")
            else:
                errs += _match(got[key], value, f"{path}.{key}")
        return errs
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else '-'}"
                    f" != {len(want)}"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in _match(g, w, f"{path}[{i}]")]
    return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]


def check_reference(payloads: list[dict], instances, reference: dict) -> list[str]:
    """Compare against the stored default-seed numbers of this workload.

    `instances` is the list of (roots, saturated) of each `find_equilibria`
    call from a traced pass, or None for an untraced one.
    """
    errs = []
    for i, (got, want) in enumerate(zip(payloads, reference["payloads"])):
        errs += _match(got, want, f"experiment[{i}]")
    if instances is not None and "instances" in reference:
        errs += _match(instances, reference["instances"], "instances")
    return errs


def _load_package(root: str):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from sphere_equilibria import field_model, predictor
    return field_model, predictor


def _routes_agree(predictor, dp, n: int, value: float, where: str) -> list[str]:
    other = predictor.mean_in_interval(dp, n, -math.inf, math.inf).value
    if _close(value, other):
        return []
    return [f"{where}: mean_total_exact {value!r} vs "
            f"mean_in_interval(-inf, inf) {other!r}"]


def check_invariants(workload: str, configs: list[dict],
                     payload_sets: list[list[dict]], root: str) -> list[str]:
    """Checks that hold for every seed, over the distinct payloads of a run.

    Monte Carlo deviations are pooled over the run, so each run makes one
    test per workload, with false-alarm rate `RUN_FALSE_ALARM`.
    """
    field_model, predictor = _load_package(root)
    errs = []
    if workload == "count-n4":
        from scipy.stats import t as student_t
        cfg = configs[0]
        cov = field_model.covariance_pair(
            field_model.ModelParams(n=cfg["n"], **cfg["model"]))
        p = payload_sets[0][0]
        for sigma, exact in zip(p["sigma"], p["exact_value"]):
            errs += _routes_agree(predictor, predictor.derived_params(cov, sigma),
                                  cfg["n"], exact, f"sigma={sigma}")
        if any(q["exact_value"] != p["exact_value"] for (q,) in payload_sets):
            errs.append("exact values differ between passes")
        # per sigma, the sample variance of all the run's instance counts,
        # rebuilt from each pass seed's mean and standard error; a few counts
        # are often all equal, so it is floored at the least variance an
        # integer count with the exact mean can have
        per = cfg["mc_instances"]
        total = per * len(payload_sets)
        dev, var, var_sq = 0.0, 0.0, 0.0
        for j, exact in enumerate(p["exact_value"]):
            means = [q["mc_mean"][j] for (q,) in payload_sets]
            grand = sum(means) / len(means)
            ss = sum((per - 1) * per * q["mc_stderr"][j] ** 2
                     + per * (m - grand) ** 2
                     for (q,), m in zip(payload_sets, means))
            frac = exact % 1.0
            v = max(ss / (total - 1), frac * (1.0 - frac)) / total
            dev += grand - exact
            var += v
            var_sq += v * v / (total - 1)
        # a variance from a few counts per sigma: Student t with the
        # Welch-Satterthwaite degrees of freedom
        z = dev / math.sqrt(var)
        band = float(student_t.ppf(1.0 - RUN_FALSE_ALARM / 2.0,
                                   var * var / var_sq))
        if abs(z) > band:
            errs.append(f"pooled Monte Carlo t = {z:.2f} outside "
                        f"+-{band:.2f}")
    elif workload == "predict-large-n":
        (p,) = payload_sets[0]
        for n, sigma, regime, value in zip(p["N"], p["sigma"], p["regime"],
                                           p["value"]):
            if regime == "exact":
                dp = predictor.DerivedParams.from_values(
                    COVARIANCE["phi1_1"], COVARIANCE["dphi1_1"],
                    COVARIANCE["phi2_1"], sigma)
                errs += _routes_agree(predictor, dp, n, value,
                                      f"N={n} sigma={sigma}")
        if "exact" not in p["regime"]:
            errs.append("no exact prediction rows")
    elif workload == "flow-spectra":
        for dyn, _ in payload_sets:
            if dyn["n_equilibria"] < 1 or max(dyn["residuals"]) > 1e-8:
                errs.append(f"dynamics: {dyn['n_equilibria']} equilibria, "
                            f"residuals {dyn['residuals']}")
            if not (0.0 <= dyn["fraction_matched"]
                    <= dyn["fraction_converged"] <= 1.0):
                errs.append("dynamics: matched fraction exceeds converged")
        specs = [spec for _, spec in payload_sets]
        trials = configs[1]["trials"]
        sqrt_n = math.sqrt(configs[1]["n"])
        # total-count deviations pooled over the run; that z and every bin z
        # share the run's tail (Bonferroni)
        dev = sum(sp["mc_mean_count"] - sp["density_integral"] for sp in specs)
        var = sum(sp["mc_stderr"] ** 2 for sp in specs)
        z = dev / math.sqrt(var) if var > 0 else 0.0
        bin_z = []
        for sp in specs:
            b = sp["bins"]
            width_x = (b["lambda"][1] - b["lambda"][0]) * sqrt_n
            for mc, se, exact in zip(b["mc_rho"], b["mc_stderr"],
                                     b["exact_rho"]):
                # an edge bin holds a handful of counts, and its observed
                # error understates the spread: take at least the Poisson
                # error of the expected count
                se = max(se, math.sqrt(exact / (width_x * trials)))
                bin_z.append(abs(mc - exact) / se if se > 0
                             else (0.0 if mc == exact else math.inf))
        band = NormalDist().inv_cdf(
            1.0 - RUN_FALSE_ALARM / (2.0 * (1 + len(bin_z))))
        if abs(z) > band or max(bin_z) > band:
            errs.append(f"spectra: count z = {z:.2f}, max bin |z| = "
                        f"{max(bin_z):.2f}, band +-{band:.2f}")
    return errs
