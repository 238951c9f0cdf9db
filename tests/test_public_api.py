"""Every exported name resolves, and deleted duplicates stay deleted.

A name left in an ``__all__`` after its definition was deleted would only
fail at ``from ... import *`` time; this test makes it fail here.
"""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import sphere_equilibria
from sphere_equilibria import (CountPrediction, CountReport, FixedAsymptote,
                               ModelParams, RunResult, Trajectory, cli,
                               elliptic, predictor, quadrature, search)

MODULES = [sphere_equilibria] + [
    importlib.import_module(f"sphere_equilibria.{info.name}")
    for info in pkgutil.iter_modules(sphere_equilibria.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def test_one_public_name_per_job():
    # the package exports the tangent spectrum under the name the benchmark
    # traces; the deleted duplicates and never-read fields stay deleted
    assert "tangent_spectrum_at" in sphere_equilibria.__all__
    assert not hasattr(search, "tangent_spectrum")
    assert not hasattr(ModelParams, "from_dict")
    assert not hasattr(FixedAsymptote, "value")
    assert "interval" not in {f.name for f in fields(CountPrediction)}
    assert "status" not in {f.name for f in fields(RunResult)}
    # the couplings decide field_free, and every unknown config key is an
    # error
    assert "field_free" not in {f.name for f in fields(ModelParams)}
    assert "unknown_keys" not in {f.name for f in fields(cli.ExperimentConfig)}
    # the count is the number of points, the CLI flag sets the artifact
    # directory, and the speed of a recorded step was never read
    assert "n_found" not in {f.name for f in fields(CountReport)}
    assert "out_dir" not in {f.name for f in fields(cli.ExperimentConfig)}
    assert "speeds" not in {f.name for f in fields(Trajectory)}
    # replaced by `real_eigenvalue_histogram`, batch calls, test helpers,
    # the `n_starts` and `seed` arguments of the solver and the fixed RK4
    # step and stop rule
    for name in ("DensityProfile", "sample_elliptic", "hermite_tau",
                 "run_to_equilibrium", "SolverOptions", "DynamicsOptions"):
        assert not any(hasattr(m, name) for m in MODULES), name
    # every count runs serially and the line search evaluates every
    # candidate: no thread pool and no constraint screen
    for fn in (search.mc_mean_count, cli.run):
        assert "threads" not in inspect.signature(fn).parameters, fn
    assert list(inspect.signature(search._system_residual).parameters) == [
        "inst", "x", "lam"]
    # one quadrature tolerance and one Monte Carlo batch size, owned by
    # their modules: no caller picks its own
    for fn in (quadrature.log_quad, quadrature.log_quad_many):
        assert "rel_tol" not in inspect.signature(fn).parameters, fn
    assert "chunk" not in inspect.signature(
        elliptic.elliptic_batches).parameters
    assert quadrature._REL_TOL == 1e-12
    for module, name in ((elliptic, "_DENSITY_REL_TOL"),
                         (predictor, "_QUAD_REL_TOL"),
                         (predictor, "_CROSSOVER_REL_TOL")):
        assert not hasattr(module, name), name
