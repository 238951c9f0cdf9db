"""Compare the brute-force counts of two checkouts on the criterion-04 corpus.

    python3 scripts/count_diff.py PARENT_DIR CHANGE_DIR [--sigma-index 0 ...]
        [--instances 500] [--out DIFF.json]

The corpus is acceptance criterion 04's: the N = 4 quadratic model
(j1 = j2 = 1, alpha1 = 0.3, alpha2 = 0.2) at the five sigma of
linspace(0, 2 sigma_c, 5), sigma index i solved with `mc_mean_count` seed
900 + i over 500 instances.  Each instance is rebuilt exactly as
`mc_mean_count` builds it (same instance and start seeds, same start budget)
and solved by `find_equilibria` from each checkout's own `src/`, the two
checkouts in two concurrent child processes with BLAS pinned to one thread.

Per instance the script prints every difference in `n_found`, `saturated`,
`basin_hits`, `n_converged_starts` and the bits of the representatives
(x, lam, residual and tangent spectrum, every per-root output that
`equilibria.json` carries), then a summary line per field.  The exit status is 0
when nothing differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

MODEL = dict(j1=1.0, j2=1.0, alpha1=0.3, alpha2=0.2)
FIELDS = ("n_found", "saturated", "basin_hits", "n_converged_starts",
          "root_bits")
PIN = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}


def solve_corpus(sigma_indices: list[int], n_instances: int) -> list[dict]:
    """Per-instance records of the corpus, from the importable package."""
    import numpy as np

    from sphere_equilibria._rng import derive_seed
    from sphere_equilibria.field_model import (ModelParams, covariance_pair,
                                               sample_field)
    from sphere_equilibria.predictor import derived_params
    from sphere_equilibria.search import default_n_starts, find_equilibria

    cov = covariance_pair(ModelParams(n=4, **MODEL))
    sigmas = np.linspace(0.0, 2.0 * derived_params(cov, 0.0).sigma_c, 5)
    records = []
    for s in sigma_indices:
        params = ModelParams(n=4, sigma=float(sigmas[s]), **MODEL)
        seed = 900 + s
        budget = default_n_starts(params)
        for i in range(n_instances):
            inst = sample_field(params, derive_seed(seed, f"instance-{i}"))
            rep = find_equilibria(inst, budget,
                                  derive_seed(seed, f"starts-{i}"))
            bits = hashlib.sha256()
            for pt in rep.points:
                bits.update(pt.x.tobytes())
                bits.update(np.float64(pt.lam).tobytes())
                bits.update(np.float64(pt.residual).tobytes())
                bits.update(pt.tangent_spectrum.tobytes())
            records.append({
                "seed": seed, "instance": i, "sigma": float(sigmas[s]),
                "n_found": rep.n_found, "saturated": rep.saturated,
                "basin_hits": [pt.basin_hits for pt in rep.points],
                "n_converged_starts": rep.n_converged_starts,
                "root_bits": bits.hexdigest()})
    return records


def start_child(root: str, sigma_indices: list[int], n_instances: int
                ) -> subprocess.Popen:
    """Solve the corpus in a child running `root`'s own copy of this script
    on `root`'s `src/`, so each side calls its own package's API."""
    root = os.path.abspath(root)
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [sys.executable, os.path.join(root, "scripts", "count_diff.py"),
           "--child", "--instances", str(n_instances)]
    for s in sigma_indices:
        cmd += ["--sigma-index", str(s)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def compare(parent: list[dict], change: list[dict]) -> tuple[list, dict]:
    diffs = []
    counts = dict.fromkeys(FIELDS, 0)
    for a, b in zip(parent, change):
        moved = {k: [a[k], b[k]] for k in FIELDS if a[k] != b[k]}
        for k in moved:
            counts[k] += 1
        if moved:
            diffs.append({"seed": a["seed"], "instance": a["instance"],
                          "sigma": a["sigma"], **moved})
    return diffs, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--sigma-index", type=int, action="append",
                    choices=range(5), help="repeatable; default all five")
    ap.add_argument("--instances", type=int, default=500)
    ap.add_argument("--out", help="write the differences as JSON")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sigma_indices = args.sigma_index or list(range(5))

    if args.child:
        json.dump(solve_corpus(sigma_indices, args.instances), sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT_DIR and CHANGE_DIR are required")

    children = [start_child(root, sigma_indices, args.instances)
                for root in (args.parent, args.change)]
    outs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("a child failed", file=sys.stderr)
        return 2
    parent, change = (json.loads(out) for out in outs)
    diffs, counts = compare(parent, change)

    for d in diffs:
        print(f"mc seed {d['seed']} instance {d['instance']} "
              f"(sigma = {d['sigma']!r}): "
              + "; ".join(f"{k} {d[k][0]} -> {d[k][1]}"
                          for k in FIELDS if k in d))
    print(f"{len(parent)} instances compared, {len(diffs)} differ: "
          + ", ".join(f"{k} {counts[k]}" for k in FIELDS))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"instances": len(parent), "differing": counts,
                       "diffs": diffs}, fh, indent=1)
            fh.write("\n")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
