"""Compare two checkouts with alternating pairs of `perfbench/run.py` runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload count-n4 \
        [--workload ...] [--pairs 10] [--seconds 36] [--seed 1] [--trace 0] \
        --out BENCH.json

The files git tracks in each checkout (`git -C DIR ls-files`, as they are in
its working tree) are first copied to a fresh temporary directory, and every
run starts there: build artifacts or caches left in a checkout, and where it
lies on disk, then weigh on neither side.  Pair i runs both copies on
workload seed `--seed + i`, each from its own root with its own
`perfbench/`.  The parent runs first in even pairs and the
change in odd pairs, so a drift of the machine during the comparison favours
neither side.  For every metric the output holds each run's value, each
side's median and quartiles, and how many pairs the change won (ties count
for neither side).  Metric directions are read from the change's
`BENCHMARK.json`.  An existing `--out` file is updated: its entry for the
same workload and `--trace` is replaced, the others are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np


def run_once(root: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "src_lines": meta["src_lines"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def export(root: str, dest: str) -> str:
    """Copy the files git tracks in `root` to `dest`; returns `dest`."""
    names = subprocess.run(["git", "-C", root, "ls-files", "-z"],
                           capture_output=True, check=True).stdout
    for name in filter(None, names.decode().split("\0")):
        target = os.path.join(dest, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(root, name), target)
    return dest


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(parent: list[dict], change: list[dict], better: dict) -> dict:
    out = {}
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        gaps = [sign * (b - a) for a, b in zip(p, c)]
        out[name] = {"better": better.get(name, "lower"),
                     "parent": quartiles(p), "change": quartiles(c),
                     "change_wins": sum(g > 0 for g in gaps),
                     "parent_wins": sum(g < 0 for g in gaps)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: export(getattr(args, side), os.path.join(tmp, side))
                 for side in ("parent", "change")}
        for workload in args.workload:
            run_workload(args, workload, roots, better, report)
    return 0


def run_workload(args, workload: str, roots: dict, better: dict,
                 report: dict) -> None:
    """Run `args.pairs` alternating pairs of `workload` from `roots`, store
    the summary in `report` and write `report` to `args.out`."""
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(roots[side], workload, args.seed + i, args.seconds,
                           args.trace)
            run.update(pair=i, first=side == order[0])
            runs[side].append(run)
            print(f"{workload} pair {i} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in
                             sorted(run["metrics"].items())
                             if k in ("wall_s", "setup_s")),
                  file=sys.stderr, flush=True)
    key = workload if args.trace == 0 else f"{workload} --trace 1"
    report[key] = {
        "workload": workload, "trace": args.trace, "pairs": args.pairs,
        "seconds": args.seconds, "seeds": [args.seed + i
                                           for i in range(args.pairs)],
        "all_correct": all(r["correct"] for side in runs.values()
                           for r in side),
        "src_lines": {side: runs[side][0]["src_lines"] for side in runs},
        "summary": summarize(runs["parent"], runs["change"], better),
        "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
