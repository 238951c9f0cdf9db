"""Config parsing, experiment runner, artifacts, exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import sphere_equilibria
from sphere_equilibria import quadrature
from sphere_equilibria._rng import derive_seed
from sphere_equilibria.cli import ExperimentConfig, main, parse_config, run
from sphere_equilibria.errors import ParameterError


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def package_env():
    """Environment for a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(sphere_equilibria.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


MINIMAL_SWEEP = {
    "kind": "predict-sweep",
    "model": {"j1": 1.0, "j2": 1.0, "alpha1": 0.3, "alpha2": 0.2},
    "sigma_grid": [0.0, 1.0],
    "n_list": [4],
}


MODEL4 = {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3, "alpha2": 0.2,
          "sigma": 1.0}

ONE_OF_EACH_KIND = {
    "predict-sweep": MINIMAL_SWEEP,
    "mc-count": {"kind": "mc-count", "model": MODEL4, "instances": 3,
                 "solver": {"n_starts": 50}},
    "spectra-validate": {"kind": "spectra-validate", "n": 4, "tau": 0.3,
                         "trials": 200},
    "det-identity": {"kind": "det-identity", "n": 4, "tau": 0.5,
                     "lambdas": [0.0, 1], "trials": 1000},
    "dynamics": {"kind": "dynamics", "model": MODEL4, "starts": 5,
                 "t_max": 1, "seed": 3},
    "transition-curve": {"kind": "transition-curve",
                         "model": {"j1": 1.0, "j2": 1.0, "alpha1": 0.3},
                         "n": 4, "grid_points": 3},
}

# one malformed value per case; each must be rejected at parse time
SWEEP = {"kind": "predict-sweep", "model": {"j1": 1.0}, "n_list": [4]}
CURVE = {"kind": "transition-curve", "model": {"j1": 1.0, "j2": 1.0}, "n": 4}
DET = {"kind": "det-identity", "n": 4, "tau": 0.5, "trials": 1000}
MC = {"kind": "mc-count", "model": MODEL4, "instances": 2}
DYN = {"kind": "dynamics", "model": MODEL4, "starts": 2}
MALFORMED = {
    "string-in-sigma-grid": ({**SWEEP, "sigma_grid": ["x"]}, "sigma_grid"),
    "string-sigma-grid": ({**CURVE, "sigma_grid": "abc"}, "sigma_grid"),
    "null-lambda": ({**DET, "lambdas": [None]}, "lambdas"),
    "negative-grid-points": ({**CURVE, "grid_points": -2}, "grid_points"),
    "negative-n-starts-mc": ({**MC, "solver": {"n_starts": -5}}, "n_starts"),
    "negative-n-starts-dyn": ({**DYN, "solver": {"n_starts": -5}}, "n_starts"),
    "infinite-t-max": ({**DYN, "t_max": math.inf}, "t_max"),
    "nan-sigma": ({**SWEEP, "sigma_grid": [math.nan]}, "sigma_grid"),
    "bool-sigma": ({**SWEEP, "sigma_grid": [True]}, "sigma_grid"),
    "zero-n-starts": ({**MC, "solver": {"n_starts": 0}}, "n_starts"),
    "infinite-max-sigma-factor": ({**CURVE, "max_sigma_factor": math.inf},
                                  "max_sigma_factor"),
    "infinite-sigma": ({**SWEEP, "sigma_grid": [0.5, math.inf]}, "sigma_grid"),
    "infinite-lambda": ({**DET, "lambdas": [math.inf]}, "lambdas"),
    "odd-spectra-n": ({"kind": "spectra-validate", "n": 5, "tau": 0.3,
                       "trials": 100_000}, "even n"),
    # keys that another key of the config sets or makes unused
    "curve-model-n": ({**CURVE, "model": {"j1": 1.0, "j2": 1.0, "n": 6}},
                      "config.model.n"),
    "curve-model-sigma": ({**CURVE, "model": {"j1": 1.0, "j2": 1.0,
                                              "sigma": 5.0}},
                          "config.model.sigma"),
    "grid-points-with-sigma-grid": ({**CURVE, "sigma_grid": [0.0, 1.0],
                                     "grid_points": 7}, "grid_points"),
    "max-sigma-factor-with-sigma-grid": ({**CURVE, "sigma_grid": [0.0, 1.0],
                                          "max_sigma_factor": -3},
                                         "max_sigma_factor"),
    "sweep-model-sigma": ({**SWEEP, "model": {"j1": 1.0, "sigma": 9.0},
                           "sigma_grid": [0.0]}, "config.model.sigma"),
    "sweep-model-n": ({**SWEEP, "model": {"j1": 1.0, "n": 50},
                       "sigma_grid": [0.0]}, "config.model.n"),
    # unknown keys, at the top level too; the couplings decide field_free
    "unknown-top-level-key": ({**SWEEP, "sigma_grid": [0.0], "extra_knob": 1},
                              "extra_knob"),
    "field-free-flag-mc": ({**MC, "model": {"n": 4, "j1": 1, "j2": 1,
                                            "field_free": True, "sigma": 0.5}},
                           "field_free"),
    "field-free-flag-sweep": ({**SWEEP, "model": {"j1": 1.0, "field_free": True},
                               "sigma_grid": [0.0]}, "field_free"),
    # the RK4 step and its stop rule are fixed; the CLI flag sets the
    # artifact directory
    "dynamics-dt": ({**DYN, "dt": 0.01}, "dt"),
    "dynamics-v-tol": ({**DYN, "v_tol": 1e-6}, "v_tol"),
    "top-level-out-dir": ({**DYN, "out_dir": "elsewhere"}, "out_dir"),
    # a field scale whose square, or b^2, overflows
    "dynamics-huge-sigma": ({**DYN, "model": {**MODEL4, "sigma": 1e200}},
                            "sigma"),
    "dynamics-field-free-huge-sigma": ({**DYN, "model": {"n": 4, "j1": 0.0,
                                                         "sigma": 1e200}},
                                       "sigma"),
    "mc-huge-sigma": ({**MC, "model": {**MODEL4, "sigma": 1e200}}, "sigma"),
    "mc-field-free-huge-sigma": ({**MC, "model": {"n": 4, "j1": 0.0,
                                                  "sigma": 1e200}}, "sigma"),
    "mc-overflowing-b2": ({**MC, "model": {"n": 4, "j1": 1e-100,
                                           "sigma": 1e60}}, "b^2"),
    "dynamics-overflowing-b2": ({**DYN, "model": {"n": 4, "j1": 1e-100,
                                                  "sigma": 1e60}}, "b^2"),
}


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_SWEEP))
        assert cfg.kind == "predict-sweep"
        assert cfg.seed == 0  # default recorded explicitly
        assert cfg.canonical()["n_list"] == [4]
        # model normalized to the covariance scalars
        assert set(cfg.canonical()["model"]) == {"phi1_1", "dphi1_1", "phi2_1"}

    @pytest.mark.parametrize("kind", list(ONE_OF_EACH_KIND))
    def test_round_trip(self, tmp_path, kind):
        cfg = parse_config(write_config(tmp_path, ONE_OF_EACH_KIND[kind]))
        again = parse_config(write_config(tmp_path, cfg.canonical(), "r.json"))
        assert again.canonical() == cfg.canonical()
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ParameterError, match="kind"):
            parse_config(write_config(tmp_path, {"kind": "nope"}))

    def test_exceptional_model_rejected(self, tmp_path):
        # b^2 + tau = 0 at sigma = 0: the derived-parameter gate propagates
        payload = {"kind": "predict-sweep",
                   "model": {"phi1_1": 1.0, "dphi1_1": 2.0, "phi2_1": -1.0},
                   "sigma_grid": [0.0], "n_list": [4]}
        with pytest.raises(Exception, match="exceptional"):
            parse_config(write_config(tmp_path, payload))

    def test_unknown_nested_model_key_rejected(self, tmp_path):
        payload = {"kind": "mc-count", "instances": 1,
                   "model": {"n": 4, "j1": 1.0, "alphaX": 2.0}}
        with pytest.raises(ParameterError, match="alphaX"):
            parse_config(write_config(tmp_path, payload))

    def test_out_of_range_names_field(self, tmp_path):
        payload = {**MINIMAL_SWEEP, "sigma_grid": [-1.0]}
        with pytest.raises(ParameterError, match="sigma_grid"):
            parse_config(write_config(tmp_path, payload))
        payload = {**MINIMAL_SWEEP, "n_list": [5]}
        with pytest.raises(ParameterError, match="n_list"):
            parse_config(write_config(tmp_path, payload))

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            parse_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ParameterError, match="JSON"):
            parse_config(bad)


class TestSeedFanout:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")


class TestRunner:
    def test_predict_sweep_artifacts(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_SWEEP))
        code, manifest = run(cfg, out_dir=str(tmp_path / "out"))
        assert code == 0
        with open(tmp_path / "out" / "predictions.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "tau", "b2", "sigma", "regime", "value",
                           "log_value"]
        assert len(rows) > 1
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["outputs"] == ["predictions.csv", "summary.json"]
        with open(tmp_path / "out" / "summary.json") as fh:
            assert "tolerances" in json.load(fh)
        with open(tmp_path / "out" / "manifest.json") as fh:
            stored = json.load(fh)
        assert stored["config"]["seed"] == 0

    def test_empty_grid_gives_header_only_csv(self, tmp_path):
        payload = {**MINIMAL_SWEEP, "n_list": []}
        cfg = parse_config(write_config(tmp_path, payload))
        code, _ = run(cfg, out_dir=str(tmp_path / "out"))
        assert code == 0
        text = (tmp_path / "out" / "predictions.csv").read_text()
        assert text == "N,tau,b2,sigma,regime,value,log_value\n"
        # zero grid points is an empty sigma grid, not the default nine
        payload = {**ONE_OF_EACH_KIND["transition-curve"], "grid_points": 0}
        cfg = parse_config(write_config(tmp_path, payload, "curve.json"))
        assert run(cfg, out_dir=str(tmp_path / "curve"))[0] == 0
        text = (tmp_path / "curve" / "transition_curve.csv").read_text()
        assert text == ("sigma,b2,exact_value,exact_log_value,asympt_regime,"
                        "asympt_value,mc_mean,mc_stderr\n")

    def test_row_bytes_independent_of_other_rows(self, tmp_path):
        # each sweep runs in a fresh interpreter, so no in-process state is
        # shared; the N=100, sigma=2 rows must not depend on what ran before
        env = package_env()

        def sigma2_rows(name, grid):
            payload = {**MINIMAL_SWEEP, "sigma_grid": grid, "n_list": [100]}
            path = write_config(tmp_path, payload, name + ".json")
            subprocess.run([sys.executable, "-m", "sphere_equilibria.cli", "run",
                            path, "--out-dir", str(tmp_path / name)],
                           env=env, check=True, capture_output=True, timeout=300)
            lines = (tmp_path / name / "predictions.csv").read_bytes().splitlines()
            return [ln for ln in lines if ln.split(b",")[3] == b"2.0"]

        alone = sigma2_rows("alone", [2.0])
        assert len(alone) == 2  # exact and asymptotic
        assert sigma2_rows("after", [6.0, 2.0]) == alone

    def test_byte_reproducibility(self, tmp_path):
        payload = {"kind": "det-identity", "n": 4, "tau": 0.5,
                   "lambdas": [0.0], "trials": 2000, "seed": 3}
        cfg = parse_config(write_config(tmp_path, payload))
        run(cfg, out_dir=str(tmp_path / "a"))
        run(cfg, out_dir=str(tmp_path / "b"))
        for name in ("det_identity.csv", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_master_seed_changes_results(self, tmp_path):
        payload = {"kind": "det-identity", "n": 4, "tau": 0.5,
                   "lambdas": [0.0], "trials": 2000}
        cfg = parse_config(write_config(tmp_path, payload))
        run(cfg, out_dir=str(tmp_path / "a"))
        cfg2 = ExperimentConfig(kind=cfg.kind, spec=cfg.spec, seed=1)
        run(cfg2, out_dir=str(tmp_path / "b"))
        assert ((tmp_path / "a" / "det_identity.csv").read_bytes()
                != (tmp_path / "b" / "det_identity.csv").read_bytes())

    def test_mc_count_run(self, tmp_path):
        payload = {"kind": "mc-count",
                   "model": {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3,
                             "alpha2": 0.2, "sigma": 1.8},
                   "instances": 8, "lambda_bins": 4, "seed": 2}
        cfg = parse_config(write_config(tmp_path, payload))
        code, _ = run(cfg, out_dir=str(tmp_path / "out"))
        assert code == 0
        with open(tmp_path / "out" / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["predicted"] is not None
        assert summary["n_instances"] == 8
        lines = (tmp_path / "out" / "mc_counts.csv").read_text().splitlines()
        assert lines[0] == "instance,n_found,saturated,seed"
        assert len(lines) == 9

    def test_artifacts_atomic_with_lf_line_ends(self, tmp_path):
        model = {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3, "alpha2": 0.2,
                 "sigma": 1.8}
        configs = {
            "mc": {"kind": "mc-count", "model": model, "instances": 3,
                   "lambda_bins": 4, "solver": {"n_starts": 200}},
            "dyn": {"kind": "dynamics", "model": model, "starts": 5,
                    "t_max": 1.0, "solver": {"n_starts": 200}},
            "spectra": {"kind": "spectra-validate", "n": 4, "tau": 0.3,
                        "trials": 200, "bins": 5},
        }
        for name, payload in configs.items():
            path = write_config(tmp_path, {**payload, "seed": 1}, name + ".json")
            assert main(["run", path, "--out-dir", str(tmp_path / name)]) == 0
            files = os.listdir(tmp_path / name)
            assert not [f for f in files if f.endswith(".tmp")]
            for f in files:
                data = (tmp_path / name / f).read_bytes()
                assert b"\r" not in data, f
                assert data.endswith(b"\n"), f

        lines = (tmp_path / "mc" / "mc_counts.csv").read_text().splitlines()
        assert lines[0] == "instance,n_found,saturated,seed"
        assert len(lines) == 4
        with open(tmp_path / "dyn" / "equilibria.json") as fh:
            eq = json.load(fh)
        assert eq["n_found"] == len(eq["points"]) > 0
        with open(tmp_path / "spectra" / "profile_exact.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda", "rho", "method"]
        assert len(rows) == 202  # header + the 201-point Chebyshev grid

    # SHA-256 over every artifact but the manifest.  All four were
    # re-recorded when every quadrature started from 16 panels, which moved
    # the exact and predicted values and the density integral (with
    # spectra-validate's count_z) in their last bits
    PINNED_PAYLOADS = {
        "spectra-validate": ({"kind": "spectra-validate", "n": 4, "tau": -0.5,
                              "trials": 3000, "bins": 5, "seed": 5},
                             "aa1863bb9e277421b21af50cf4ce96f0"
                             "a980046efe44a5ad335896892f240e42"),
        "predict-sweep": ({**MINIMAL_SWEEP, "sigma_grid": [0.5, 2.0],
                           "n_list": [100]},
                          "6e9547a9dc7cf32a89902085cbc127fa"
                          "7e9a8eeb960fad7027c6f1db496adb9f"),
        # exact counts on both sides of sigma_c ~ 1.04
        "transition-curve": ({"kind": "transition-curve",
                              "model": MINIMAL_SWEEP["model"], "n": 10,
                              "sigma_grid": [0.0, 0.6, 1.5, 2.5],
                              "mc_instances": 0, "seed": 3},
                             "e7505eeecba1072d908c6da764546d38"
                             "977c184c4e53a53e7aded1749cf39b2d"),
        "mc-count": ({"kind": "mc-count", "model": {**MODEL4, "sigma": 0.5},
                      "instances": 3, "lambda_bins": 5,
                      "solver": {"n_starts": 200}, "seed": 2},
                     "0c6ee0b83ad881ac265ee6332719eadd"
                     "86df4174e64cf572f065e6e2c5fa849b"),
    }

    @pytest.mark.parametrize("kind", PINNED_PAYLOADS)
    def test_pinned_payload_bytes(self, tmp_path, kind):
        payload, digest = self.PINNED_PAYLOADS[kind]
        cfg = parse_config(write_config(tmp_path, payload))
        assert run(cfg, out_dir=str(tmp_path / "out"))[0] == 0
        h = hashlib.sha256()
        for name in sorted(os.listdir(tmp_path / "out")):
            if name != "manifest.json":
                h.update(name.encode() + (tmp_path / "out" / name).read_bytes())
        assert h.hexdigest() == digest


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL_SWEEP)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0

    def test_config_error_is_machine_readable(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "predict-sweep"})
        assert main(["run", path]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "config"

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_value_rejected_at_parse_time(self, tmp_path, capsys,
                                                     case):
        payload, fragment = MALFORMED[case]
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "config"
        assert fragment in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_overflowing_b2_is_config_error(self, tmp_path, capsys):
        # sigma passes the schema (finite) but its square overflows
        path = write_config(tmp_path, {**SWEEP, "sigma_grid": [1e200]})
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert "b^2" in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_far_trivial_quadrature_is_numerical_error(self, tmp_path, capsys,
                                                       monkeypatch):
        # with no error tolerated, the panels keep failing until one
        # integral needs more than the panel bound
        monkeypatch.setattr(quadrature, "_REL_TOL", 0.0)
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
        path = write_config(tmp_path, {**MINIMAL_SWEEP, "sigma_grid": [1e5]})
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "numerical"
        assert "over the bound of 64" in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("payload", [
        {**MINIMAL_SWEEP, "sigma_grid": [1e5]},
        {**MINIMAL_SWEEP, "sigma_grid": [1e50], "n_list": [100]},
        {**SWEEP, "sigma_grid": [1e100]},
    ], ids=["sigma-1e5", "sigma-1e50-n100", "sigma-1e100"])
    def test_far_trivial_sweep_counts_two(self, tmp_path, payload):
        # deep in the trivial phase the exact count is 2, not a cancelled
        # quadrature or an overflow
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "predictions.csv") as fh:
            exact = [r for r in csv.DictReader(fh) if r["regime"] == "exact"]
        assert len(exact) == 1
        assert math.isclose(float(exact[0]["value"]), 2.0, rel_tol=1e-10)

    def test_far_trivial_dynamics_budget(self, tmp_path):
        # the default start budget takes the exact count, 2 at sigma = 1e5
        payload = {"kind": "dynamics", "model": {**MODEL4, "sigma": 1e5},
                   "starts": 5, "t_max": 1, "seed": 3}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0

    def test_far_trivial_newton_finds_no_roots(self, tmp_path, capsys):
        # pins a known limit: at sigma = 1e8 no start converges.  Starts reach
        # the h ray and stall there with |F|_inf about |C|, because the
        # line search's merit max(|F|_inf, |C|) weighs F (of size sigma)
        # against C (of size N) and no step passes its Armijo test; a
        # tolerance relative to the field finds no root either.  Every
        # rootless instance must count as unsaturated, never as a clean 0
        payload = {"kind": "mc-count", "model": {**MODEL4, "sigma": 1e8},
                   "instances": 3, "seed": 1}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "mc_counts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert ([(r["n_found"], r["saturated"]) for r in rows]
                == [("0", "False")] * 3)
        with open(tmp_path / "o" / "summary.json") as fh:
            assert json.load(fh)["n_unsaturated"] == 3
        # --strict keeps no instance, which is a numerical error
        capsys.readouterr()
        assert main(["run", path, "--out-dir", str(tmp_path / "s"),
                     "--strict"]) == 3
        err = json.loads(capsys.readouterr().out)
        assert "non-saturated" in err["error"]["message"]

    def test_band_edge_model_runs(self, tmp_path):
        # alpha2 = -0.499999999 rounds Phi2(1) just below -Phi1(1); it is
        # admissible, and its count runs like the one at alpha2 = -0.5
        payload = {"kind": "mc-count", "instances": 2, "seed": 1,
                   "model": {"n": 4, "j1": 0.0, "j2": 1.0,
                             "alpha2": -0.499999999, "sigma": 0.5},
                   "solver": {"n_starts": 50}}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "summary.json") as fh:
            assert math.isclose(json.load(fh)["predicted"], 3.889212828,
                                rel_tol=1e-9)

    def test_gradient_sweep_past_the_float_range(self, tmp_path):
        # b^2 = 5/8: the count 4 b^-N ... overflows a float at N = 3100; it
        # reads inf with a finite log in both the exact and the asymptotic row
        payload = {"kind": "predict-sweep",
                   "model": {"j1": 1.0, "j2": 1.0, "alpha1": 1.0,
                             "alpha2": 1.0},
                   "sigma_grid": [0.0], "n_list": [3100]}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["regime"] for r in rows] == ["exact", "weak-nongradient"]
        for r in rows:
            assert r["value"] == "inf"
            assert 733.9 < float(r["log_value"]) < 734.0

    def test_spreadless_det_identity_lambda_exit_code(self, tmp_path, capsys):
        # at lam = 1e300 every draw gives the same |det|: no standard error
        payload = {"kind": "det-identity", "n": 2, "tau": 0.999999,
                   "trials": 100, "lambdas": [1e300]}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert "no spread" in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_nonpositive_t_max_is_config_error(self, tmp_path, capsys):
        payload = {"kind": "dynamics", "starts": 2, "t_max": -2,
                   "model": {"n": 4, "j1": 1.0, "j2": 1.0, "sigma": 1.0}}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert "t_max" in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_nonpositive_v_tol_is_config_error(self, tmp_path, capsys):
        payload = {"kind": "dynamics", "starts": 3, "t_max": 1, "v_tol": -1,
                   "model": {"n": 4, "j1": 1.0, "j2": 1.0, "sigma": 3.0}}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert "v_tol" in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_solver_accepts_only_n_starts(self, tmp_path, capsys):
        payload = {"kind": "mc-count", "instances": 2,
                   "model": {"n": 4, "j1": 1.0, "sigma": 1.0},
                   "solver": {"tol": 1e-8}}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().out)
        assert "tol" in err["error"]["message"]

    def test_strict_unsaturated_exit_code(self, tmp_path):
        payload = {"kind": "mc-count",
                   "model": {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3,
                             "alpha2": 0.2, "sigma": 0.0},
                   "instances": 6, "solver": {"n_starts": 6}, "seed": 1}
        path = write_config(tmp_path, payload)
        code = main(["run", path, "--out-dir", str(tmp_path / "o"),
                     "--strict"])
        assert code == 4

    def test_zero_threads_exit_code(self, tmp_path, capsys):
        # every run is serial: --threads is kept only as the value 1 that
        # the benchmark runner passes, and any other value is a config error
        payload = {"kind": "mc-count", "instances": 2,
                   "model": {"n": 4, "j1": 1.0, "sigma": 1.0},
                   "solver": {"n_starts": 10}}
        path = write_config(tmp_path, payload)
        for threads in ("0", "2"):
            code = main(["run", path, "--out-dir", str(tmp_path / "o"),
                         "--threads", threads])
            assert code == 2
            err = json.loads(capsys.readouterr().out)
            assert err["error"]["type"] == "config"
            assert "threads" in err["error"]["message"]
        assert not os.path.exists(tmp_path / "o")

    def test_threads_one_is_the_benchmark_argv(self, tmp_path):
        # the argv the benchmark runner sends its CLI children
        payload = {"kind": "mc-count", "instances": 2,
                   "model": {"n": 4, "j1": 1.0, "j2": 1.0, "sigma": 1.0},
                   "solver": {"n_starts": 10}}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--seed", "3", "--threads", "1",
                     "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", path, "--seed", "3",
                     "--out-dir", str(tmp_path / "b")]) == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        names.remove("manifest.json")  # timestamps and wall time
        assert names
        for name in names:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_seed_override(self, tmp_path):
        payload = {"kind": "det-identity", "n": 4, "tau": 0.0,
                   "lambdas": [0.0], "trials": 1000, "seed": 3}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", path, "--out-dir", str(tmp_path / "b"),
                     "--seed", "4"]) == 0
        assert ((tmp_path / "a" / "det_identity.csv").read_bytes()
                != (tmp_path / "b" / "det_identity.csv").read_bytes())

    def test_transition_curve_smoke(self, tmp_path):
        payload = {"kind": "transition-curve",
                   "model": {"j1": 1.0, "j2": 1.0, "alpha1": 0.3,
                             "alpha2": 0.2},
                   "n": 4, "grid_points": 3, "mc_instances": 0, "seed": 5}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "transition_curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["sigma", "b2", "exact_value", "exact_log_value"]
        assert len(rows) == 4

    def test_default_gradient_curve(self, tmp_path):
        # the default grid's middle point is sigma_c, where b^2 = 1: the
        # count of a gradient field there is 2N
        payload = {"kind": "transition-curve", "n": 4,
                   "model": {"j1": 1, "j2": 1, "alpha1": 1, "alpha2": 1}}
        path = write_config(tmp_path, payload)
        assert main(["run", path, "--out-dir", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "transition_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert all(float(r["exact_value"]) > 0 for r in rows)
        mid = rows[4]
        assert float(mid["sigma"]) == math.sqrt(3.0) and float(mid["b2"]) == 1.0
        assert math.isclose(float(mid["exact_value"]), 8.0, rel_tol=1e-13)
        assert mid["asympt_regime"] == "gamma-crossover"
        assert float(mid["asympt_value"]) == 8.0


CHILD_RUN = """
import json, os, sys
from sphere_equilibria import cli
out = sys.argv[1]
for name, payload in json.loads(sys.argv[2]).items():
    path = os.path.join(out, name + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert cli.main(["run", path, "--out-dir", os.path.join(out, name)]) == 0
print(json.dumps([m for m in ("scipy.linalg", "scipy.special")
                  if m in sys.modules]))
"""


class TestImportGraph:
    def test_cli_kinds_do_not_load_scipy(self, tmp_path):
        # a fresh interpreter: this test process has scipy loaded already
        configs = {
            "sweep": MINIMAL_SWEEP,
            "dyn": {"kind": "dynamics", "seed": 1, "starts": 5, "t_max": 1.0,
                    "model": {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3,
                              "alpha2": 0.2, "sigma": 1.0},
                    "solver": {"n_starts": 200}},
        }
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_RUN, str(tmp_path),
             json.dumps(configs)],
            env=package_env(), check=True, capture_output=True, text=True,
            timeout=300)
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        assert (tmp_path / "dyn" / "equilibria.json").exists()

    def test_prediction_does_not_load_hashlib(self, tmp_path):
        # seeds and config hashes take the builtin SHA-256, so a run that
        # draws no random numbers never loads hashlib and OpenSSL with it
        child = CHILD_RUN.replace('("scipy.linalg", "scipy.special")',
                                  '("hashlib", "_hashlib")')
        assert child != CHILD_RUN
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path),
             json.dumps({"sweep": MINIMAL_SWEEP})],
            env=package_env(), check=True, capture_output=True, text=True,
            timeout=300)
        assert json.loads(proc.stdout.splitlines()[-1]) == []
