"""Run recurra's CLI with the benchmark's tracing wrappers installed.

    python3 perfbench/launch.py TRACE_FILE OP_ID [recurra arguments ...]

Behaves like `python -m recurra.cli`, and writes the spans and counts of
the call to TRACE_FILE when the CLI returns.
"""
import os
import sys

import tracing

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    trace_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    sys.path.insert(0, SRC)
    tracer = tracing.Tracer(op_id)
    tracing.install(tracer)
    from recurra import cli
    try:
        return tracing.wrap(tracer, "cli.main", cli.main)(argv)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
