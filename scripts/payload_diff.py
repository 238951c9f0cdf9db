"""Compare the CLI payload bytes of two checkouts.

    python3 scripts/payload_diff.py PARENT_DIR CHANGE_DIR

Runs one small fixed config of each of the six experiment kinds, then the
configs of the three benchmark workloads as `perfbench/workloads.experiments`
builds them at the default workload seed (the CLI seed of the first untraced
pass), through each checkout's own `src/`.  Each config runs in a fresh child
with BLAS pinned to one thread, the two checkouts concurrently.

Every artifact but `manifest.json` (timings, versions) is compared byte for
byte.  The script prints each artifact that differs or exists on one side
only, and under it, for each CSV column or JSON key whose values differ, how
many values differ and the largest relative change among the numeric ones
(JSON list elements count under their key, written `key[]`).  A summary line
follows; the exit status is 0 when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}
MODEL4 = {"n": 4, "j1": 1.0, "j2": 1.0, "alpha1": 0.3, "alpha2": 0.2,
          "sigma": 1.0}
GRADIENT = {"j1": 1.0, "j2": 1.0, "alpha1": 1.0, "alpha2": 1.0}
# name -> (config, CLI master seed)
SMALL = {
    "predict-sweep": ({"kind": "predict-sweep",
                       "model": {"j1": 1.0, "j2": 1.0, "alpha1": 0.3,
                                 "alpha2": 0.2},
                       "sigma_grid": [0.0, 1.0, 2.0], "n_list": [4, 100]}, 7),
    # sigma_c = 1 exactly: two sigma below it, sigma_c itself (b^2 = 1, B = 0)
    # and one above, at the smallest and a large N
    "predict-sweep-sigma-c": ({"kind": "predict-sweep",
                               "model": {"phi1_1": 2.0, "dphi1_1": 3.0,
                                         "phi2_1": 1.0},
                               "sigma_grid": [0.3, 0.7, 1.0, 1.6],
                               "n_list": [2, 400]}, 7),
    # deep in the trivial phase, where the exact count tends to 2
    "predict-sweep-far-trivial": ({"kind": "predict-sweep",
                                   "model": {"j1": 1.0, "j2": 1.0,
                                             "alpha1": 0.3, "alpha2": 0.2},
                                   "sigma_grid": [10.0, 1e3, 1e4],
                                   "n_list": [4, 100]}, 7),
    "mc-count": ({"kind": "mc-count", "model": MODEL4, "instances": 4,
                  "lambda_bins": 6}, 7),
    # a linear field (j2 = 0): the quadratic couplings are all zero
    "mc-count-linear": ({"kind": "mc-count",
                         "model": {"n": 4, "j1": 1.0, "j2": 0.0,
                                   "alpha1": 0.5, "sigma": 0.4},
                         "instances": 4}, 7),
    "spectra-validate": ({"kind": "spectra-validate", "n": 6, "tau": 0.0,
                          "trials": 5000, "bins": 8}, 7),
    "det-identity": ({"kind": "det-identity", "n": 4, "tau": 0.5,
                      "lambdas": [0.0, 1.0], "trials": 2000}, 7),
    "dynamics": ({"kind": "dynamics", "model": MODEL4, "starts": 20,
                  "t_max": 3.0}, 7),
    # no couplings: `default_dt` takes its field-free branch, sigma alone
    "dynamics-field-free": ({"kind": "dynamics",
                             "model": {"n": 4, "j1": 0.0, "j2": 0.0,
                                       "sigma": 1.5},
                             "starts": 20}, 7),
    "transition-curve": ({"kind": "transition-curve",
                          "model": {"j1": 1.0, "j2": 1.0, "alpha1": 0.3,
                                    "alpha2": 0.2},
                          "n": 4, "grid_points": 3, "mc_instances": 2}, 7),
    # gradient fields (tau = 1); neither grid holds sigma_c, where b^2 = 1
    "predict-sweep-gradient": ({"kind": "predict-sweep", "model": GRADIENT,
                                "sigma_grid": [0.0, 1.0, 3.0],
                                "n_list": [4, 100]}, 7),
    "transition-curve-gradient": ({"kind": "transition-curve",
                                   "model": GRADIENT, "n": 4,
                                   "grid_points": 4, "mc_instances": 2}, 7),
}


def cases() -> dict:
    """Every config the comparison runs: the small ones, then the benchmark's."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    sys.dont_write_bytecode = True  # leave the benchmark directory as it is
    import workloads

    out = dict(SMALL)
    for name in workloads.WORKLOADS:
        seed = workloads.pass_seed(name, workloads.DEFAULT_SEED, 0)
        for i, cfg in enumerate(workloads.experiments(
                name, workloads.DEFAULT_SEED, "full")):
            out[f"{name}/{i}-{cfg['kind']}"] = (cfg, seed)
    return out


def start_child(root: str, cfg_path: str, seed: int, out: str
                ) -> subprocess.Popen:
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.path.join(os.path.abspath(root), "src")
    return subprocess.Popen(
        [sys.executable, "-m", "sphere_equilibria.cli", "run", cfg_path,
         "--seed", str(seed), "--out-dir", out], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def payload(out: str) -> dict[str, bytes]:
    """{artifact name: bytes} of a run directory, without the manifest."""
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    result = {}
    for name in names:
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                result[name] = fh.read()
    return result


def fields(name: str, data: bytes) -> dict[str, list]:
    """{CSV column or JSON key: its values in order} of one artifact."""
    text = data.decode()
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        return {col: [row[i] for row in rows[1:]]
                for i, col in enumerate(rows[0] if rows else [])}
    out: dict[str, list] = {}

    def walk(key: str, value) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list):
            for v in value:
                walk(key + "[]", v)
        else:
            out.setdefault(key, []).append(value)

    walk("", json.loads(text))
    return out


def relative_change(a, b) -> float | None:
    """|b - a| / |a| for two numbers (inf when a is 0), or None if either
    is not a number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) / abs(x) if x and math.isfinite(x) else math.inf


def describe(name: str, a: bytes, b: bytes) -> list[str]:
    """One line per column or key of artifact `name` whose values differ."""
    try:
        fa, fb = fields(name, a), fields(name, b)
    except ValueError:  # neither CSV nor JSON
        return []
    lines = []
    for key in list(fa) + [k for k in fb if k not in fa]:
        va, vb = fa.get(key, []), fb.get(key, [])
        changes = [relative_change(x, y) for x, y in zip(va, vb) if x != y]
        extra = abs(len(va) - len(vb))
        if not changes and not extra:
            continue
        line = f"    {key}: {len(changes) + extra} of {max(len(va), len(vb))} differ"
        numeric = [c for c in changes if c is not None]
        if numeric:
            line += f", largest relative change {max(numeric):.2e}"
        if extra:
            line += f" ({len(va)} values -> {len(vb)})"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)

    configs = cases()
    n_artifacts = n_differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, (cfg, seed)) in enumerate(configs.items()):
            cfg_path = os.path.join(tmp, f"{k}.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            outs = [os.path.join(tmp, side, str(k)) for side in "ab"]
            children = [start_child(root, cfg_path, seed, out)
                        for root, out in zip((args.parent, args.change), outs)]
            logs = [child.communicate()[0] for child in children]
            for child, log in zip(children, logs):
                if child.returncode:
                    print(f"{name}: a child exited {child.returncode}\n{log}",
                          file=sys.stderr)
                    return 2
            a, b = (payload(out) for out in outs)
            for art in sorted(set(a) | set(b)):
                n_artifacts += 1
                if a.get(art) != b.get(art):
                    n_differ += 1
                    side = ("" if art in a and art in b else
                            " (parent only)" if art in a else " (change only)")
                    print(f"{name}: {art} differs{side}")
                    for line in describe(art, a[art], b[art]) if not side else []:
                        print(line)
    print(f"{len(configs)} configs, {n_artifacts} artifacts compared, "
          f"{n_differ} differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main())
