"""The trivertex command under the layer trace.

    BENCH_TRACE_OUT=FILE python3 bench/tracedcli.py ARGS...

Behaves as `python3 -m trivertex.cli ARGS...` and, on exit, writes the flat
per-layer figures of the call to FILE as JSON.
"""

import json
import os
import sys

import layertrace
import trivertex.cli


def main() -> int:
    tracer = layertrace.install()
    tracer.on = True
    try:
        return trivertex.cli.main(sys.argv[1:])
    finally:
        tracer.on = False
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.metrics(), fh)


if __name__ == "__main__":
    sys.exit(main())
