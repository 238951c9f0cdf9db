"""Rewrite perfbench/reference.json from the current code.

    python3 perfbench/record_reference.py

Runs, from the repository root, one untraced and one traced pass of every
workload at every size on the default seed, and stores the payload numbers
plus the per-instance outcomes (roots, saturated) of each `find_equilibria`
call.  Only re-record when a change is meant to alter those numbers.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    env = run._child_env(root)
    work = os.path.join(root, ".perfbench_work", "record")
    os.makedirs(work, exist_ok=True)
    reference = {"seed": workloads.DEFAULT_SEED}
    try:
        for size in workloads.SIZES:
            reference[size] = {}
            for name in workloads.WORKLOADS:
                configs = workloads.experiments(name, workloads.DEFAULT_SEED,
                                                size)
                paths = run.write_configs(work, configs)
                seed = workloads.pass_seed(name, workloads.DEFAULT_SEED, 0)
                plain, traced = (run.run_pass(root, env, work, configs, paths,
                                              seed, i, bool(i))
                                 for i in range(2))
                if any(plain["errors"]) or plain["payloads"] != traced["payloads"]:
                    print(f"{size}/{name}: passes failed or disagree",
                          file=sys.stderr)
                    return 1
                reference[size][name] = {"payloads": plain["payloads"],
                                         "instances": traced["instances"]}
                print(f"{size}/{name}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
