"""Run one oscchain CLI command with the program's layers traced.

Usage: python3 perfbench/cli_child.py <oscchain arguments>

Installs the wrappers of tracing.py, calls `oscchain.cli.main(argv)` and
writes the spans and counters as JSON to the file named by the
PERFBENCH_TRACE_OUT environment variable.  Stdout, stderr and the exit code
are the command's own.
"""
import json
import os
import sys

import oscchain.cli
from tracing import Recorder, install


def main() -> int:
    rec = Recorder()
    install(rec)
    rec.on = True
    try:
        return oscchain.cli.main(sys.argv[1:])
    finally:
        rec.on = False
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts,
                       "maxima": rec.maxima}, fh)


if __name__ == "__main__":
    sys.exit(main())
