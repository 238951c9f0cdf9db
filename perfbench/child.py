"""One experiment in a fresh interpreter: the real `sphere-equilibria` CLI.

    python3 perfbench/child.py SIDECAR TRACE -- run CONFIG --seed S --out-dir D

Runs ``sphere_equilibria.cli.main`` on the arguments after ``--`` and writes
SIDECAR (JSON) when it returns: the `time.monotonic()` instant at which the
config had been parsed (the end of set-up, comparable with the parent's
clock because CLOCK_MONOTONIC is system-wide) and, with TRACE = 1, the spans
of every traced call.  The exit code is the CLI's.
"""

import json
import os
import sys
import time


def main() -> int:
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from sphere_equilibria import cli

    parsed_at = []
    parse_config = cli.parse_config

    def stamped_parse(*args, **kwargs):
        cfg = parse_config(*args, **kwargs)
        parsed_at.append(time.monotonic())
        return cfg

    cli.parse_config = stamped_parse
    code = cli.main(cli_args)
    with open(sidecar, "w") as fh:
        json.dump({"parsed_at": parsed_at[0] if parsed_at else None,
                   "spans": tracer.spans if tracer else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
