"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/test_bench.py

Runs from any directory; the benchmark is always started at the repository
root.  Takes about 80 s on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def bench(workload, trace, seed=workloads.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(workload, trace, section):
    # seed 2 is not the default seed, so the invariant checks run
    result = bench(workload, trace, 2)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_default_seed_matches_reference():
    result = bench("count-n4", 1)
    assert result["correct"] and result["failed"] == 0


def _passes(workload, tmp_path, traced_flags, seed=2):
    configs = workloads.experiments(workload, seed, "tiny")
    paths = run.write_configs(str(tmp_path), configs)
    env = run._child_env(ROOT)
    cli_seed = workloads.pass_seed(workload, seed, 0)
    return [run.run_pass(ROOT, env, str(tmp_path), configs, paths, cli_seed, i,
                         traced)
            for i, traced in enumerate(traced_flags)]


def test_corrupted_reference_drives_fail_ratio_up(tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    reference["tiny"]["count-n4"]["payloads"][0]["exact_value"][0] *= 1.0 + 1e-8
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    seed = workloads.DEFAULT_SEED
    passes = _passes("count-n4", tmp_path, [False], seed)
    configs = workloads.experiments("count-n4", seed, "tiny")
    failed, _ = run.check_passes(passes, "count-n4", configs, seed, "tiny",
                                 str(path), ROOT)
    assert failed > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_payloads_identical(workload, tmp_path):
    plain, traced = _passes(workload, tmp_path, [False, True])
    assert not any(plain["errors"]) and not any(traced["errors"])
    assert plain["payloads"] == traced["payloads"]


def test_every_pass_pays_the_cold_antiderivative_build(tmp_path):
    # each pass is a fresh interpreter, so the process-global cache starts
    # empty every time; an in-process loop would make later passes warm
    for p in _passes("predict-large-n", tmp_path, [True, True]):
        layers = p["layers"]
        assert (layers["elliptic.log_rho_real_exact.first_call_s"]
                > 2.0 * layers["elliptic.log_rho_real_exact.warm_call_s"])
