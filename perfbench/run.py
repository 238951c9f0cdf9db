"""End-to-end and per-layer benchmark of the `sphere-equilibria` CLI.

    python3 perfbench/run.py --workload count-n4 --seed 3 --seconds 36 --trace 0

Run from the repository root.  Each pass runs the workload's experiments,
each in a fresh child interpreter on the real CLI entry point, so every pass
pays the imports and the cold per-process caches a CLI user pays.  Passes
repeat until `--seconds` is used up (at least `MIN_PASSES`).  `setup_s` is
the median over every untraced child; `wall_s` and `peak_rss_mb` are the
median, over the run's distinct inputs, of each input's median over its
passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(`setup_s`, `wall_s`, `peak_rss_mb`, `ok_ratio`).  With ``--trace 1`` untraced
and traced passes alternate; it holds the per-layer metrics of the traced
passes plus the tracing overhead (traced minus untraced `wall_s`).  A
human-readable table, including `fail_ratio`, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
# untraced runs measure every input set of the rotation at least once
MIN_PASSES = {0: workloads.ROTATION, 1: 4}
# no pass starts, and no child outlives, this many seconds into the run
RUN_LIMIT_S = 120.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}
PER_LAYER = {**tracer.LAYER_METRICS, "trace.overhead_s": "s"}


def _child_env(root: str) -> dict:
    env = dict(os.environ, **PIN)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_experiment(root: str, env: dict, cfg_path: str, seed: int, out: str,
                   traced: bool, deadline: float | None = None) -> dict:
    """One CLI run in a fresh interpreter: wall, set-up, peak RSS, exit code.

    The child is killed at `deadline` (`time.monotonic()`), by default
    `RUN_LIMIT_S` after it starts.
    """
    sidecar = out + ".sidecar.json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), sidecar,
           "1" if traced else "0", "--", "run", cfg_path, "--seed", str(seed),
           "--threads", "1", "--out-dir", out]
    with open(out + ".log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        limit = RUN_LIMIT_S if deadline is None else max(1.0, deadline - start)
        watchdog = threading.Timer(limit, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"wall_s": end - start, "setup_s": None,
              "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
              "spans": None}
    if proc.returncode == 0 and os.path.exists(sidecar):
        with open(sidecar) as fh:
            side = json.load(fh)
        if side["parsed_at"] is not None:
            result["setup_s"] = side["parsed_at"] - start
        result["spans"] = side["spans"]
    return result


def run_pass(root: str, env: dict, work: str, configs: list[dict],
             cfg_paths: list[str], seed: int, index: int, traced: bool,
             deadline: float | None = None) -> dict:
    """All experiments of one pass, back to back; returns per-pass numbers."""
    exps, payloads, errors = [], [], []
    for i, (cfg, path) in enumerate(zip(configs, cfg_paths)):
        out = os.path.join(work, f"pass{index}-exp{i}")
        r = run_experiment(root, env, path, seed, out, traced, deadline)
        exps.append(r)
        pl, err = None, None
        if r["code"] != 0 or r["setup_s"] is None:
            err = f"exit code {r['code']}"
        else:
            try:
                pl = workloads.payload(cfg["kind"], out)
            except (OSError, KeyError, ValueError) as exc:
                err = f"unreadable payload ({exc!r})"
        payloads.append(pl)
        errors.append(err)
        shutil.rmtree(out, ignore_errors=True)
    spans = [e["spans"] for e in exps if e["spans"] is not None]
    instances = None
    if traced:
        instances = [[s[4]["roots"], s[4]["saturated"]]
                     for sp in spans for s in sp
                     if s[0] == "search.find_equilibria"]
    return {"traced": traced, "seed": seed, "payloads": payloads,
            "errors": errors,
            "instances": instances,
            "wall_s": sum(e["wall_s"] for e in exps),
            "setup_s": [e["setup_s"] for e in exps if e["setup_s"] is not None],
            "rss_mb": max(e["rss_mb"] for e in exps),
            "layers": tracer.layer_metrics(spans) if traced else None}


def check_passes(passes: list[dict], workload: str, configs: list[dict],
                 seed: int, size: str, reference_path: str, root: str
                 ) -> tuple[int, list[str]]:
    """Count failed experiments; returns (failed, messages).

    Every pass must reproduce, exactly, the payload numbers of the first
    complete untraced pass with the same CLI seed; traced passes included.
    Those payloads are checked against the stored reference (the default
    seed's first pass seed) or against the invariants that hold for every
    seed.
    """
    bases = {}
    for p in passes:
        if not p["traced"] and not any(p["errors"]):
            bases.setdefault(p["seed"], p["payloads"])
    first = workloads.pass_seed(workload, seed, 0)
    reference = None
    if seed == workloads.DEFAULT_SEED and first in bases:
        with open(reference_path) as fh:
            reference = json.load(fh).get(size, {}).get(workload)
    bad_seeds, messages = set(), []
    try:
        if reference is not None:
            errs = workloads.check_reference(bases[first], None, reference)
            if errs:
                bad_seeds.add(first)
                messages += errs
        rest = {s: b for s, b in bases.items()
                if reference is None or s != first}
        if rest:
            errs = workloads.check_invariants(workload, configs,
                                              list(rest.values()), root)
            if errs:
                bad_seeds |= set(rest)
                messages += errs
    except Exception as exc:  # a broken package must count, not crash
        bad_seeds |= set(bases)
        messages.append(f"check raised {exc!r}")
    failed = 0
    for i, p in enumerate(passes):
        for j, (pl, err) in enumerate(zip(p["payloads"], p["errors"])):
            if err is None and p["seed"] not in bases:
                err = "no complete untraced pass with this seed"
            elif err is None and p["seed"] in bad_seeds:
                err = "payload fails the check"
            elif err is None and pl != bases[p["seed"]][j]:
                err = "payload differs from the untraced pass"
            elif (err is None and j == 0 and reference is not None
                  and p["seed"] == first and p["instances"] is not None):
                bad = workloads.check_reference([], p["instances"], reference)
                err = "; ".join(bad) if bad else None
            if err is not None:
                failed += 1
                messages.append(f"pass {i} experiment {j}: {err}")
    return failed, messages


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _median_over_inputs(passes: list[dict], key: str) -> float:
    """Median over CLI seeds of each seed's median `key` over its passes.

    Timing decides how often each seed repeats, not which seeds a run has.
    """
    by_seed = {}
    for p in passes:
        by_seed.setdefault(p["seed"], []).append(p[key])
    return _median([_median(v) for v in by_seed.values()])


def write_configs(work: str, configs: list[dict]) -> list[str]:
    """Write each experiment config to `work`; returns their paths."""
    paths = []
    for i, cfg in enumerate(configs):
        paths.append(os.path.join(work, f"config{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(cfg, fh, indent=1)
    return paths


def metadata(root: str, seed: int, workload: str, size: str) -> dict:
    src = os.path.join(root, "src", "sphere_equilibria")
    src_lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                src_lines += sum(1 for line in fh if line.strip())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"workload": workload, "seed": seed, "size": size, "git_sha": sha,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "thread_pin": PIN,
            "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sphere_equilibria", "cli.py")):
        print("perfbench: run from the repository root (no "
              "src/sphere_equilibria/cli.py here)", file=sys.stderr)
        return 2

    configs = workloads.experiments(args.workload, args.seed, args.size)
    work = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        cfg_paths = write_configs(work, configs)
        env = _child_env(root)
        passes = []
        start = time.monotonic()
        while True:
            # a traced run alternates untraced and traced passes on the same
            # inputs: their payloads must agree and their wall times give the
            # tracing overhead
            traced = args.trace == 1 and len(passes) % 2 == 1
            group = 0 if args.trace else len(passes)
            cli_seed = workloads.pass_seed(args.workload, args.seed, group)
            passes.append(run_pass(root, env, work, configs, cfg_paths,
                                   cli_seed, len(passes), traced,
                                   start + RUN_LIMIT_S))
            expected_end = time.monotonic() - start + _median(
                [p["wall_s"] for p in passes])
            if expected_end > RUN_LIMIT_S or (
                    len(passes) >= MIN_PASSES[args.trace]
                    and expected_end > args.seconds):
                break
        failed, messages = check_passes(passes, args.workload, configs,
                                        args.seed, args.size,
                                        os.path.join(HERE, "reference.json"),
                                        root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted = len(passes) * len(configs)
    untraced = [p for p in passes if not p["traced"]]
    # no setups at all only when every child failed, and the run is incorrect
    setups = [s for p in untraced for s in p["setup_s"]] or [0.0]
    e2e = {"setup_s": _median(setups),
           "wall_s": _median_over_inputs(untraced, "wall_s"),
           "peak_rss_mb": _median_over_inputs(untraced, "rss_mb"),
           "ok_ratio": (attempted - failed) / attempted}
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = {name: _median([p["layers"][name] for p in traced_passes])
                  for name in tracer.LAYER_METRICS}
        values["trace.overhead_s"] = (
            _median([p["wall_s"] for p in traced_passes]) - e2e["wall_s"])
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END

    meta = metadata(root, args.seed, args.workload, args.size)
    meta["pass_wall_s"] = [p["wall_s"] for p in passes]
    for msg in messages:
        print(f"perfbench: FAIL {msg}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}", file=sys.stderr)
    shown = {**e2e, **values, "fail_ratio": failed / attempted}
    shown_units = {**END_TO_END, **units, "fail_ratio": "ratio"}
    for name, value in shown.items():
        print(f"{name:52s} {value:14.6g} {shown_units[name]}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
