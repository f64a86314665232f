"""Run the mvdeg command line with its public functions traced.

Usage: python cli_traced.py SPANS_JSON WORKLOAD ALLOC CLI_ARGS...

Imports mvdeg.cli, traces every layer while main(CLI_ARGS) runs, writes the
spans to SPANS_JSON and exits with main's return code. ALLOC is 1 to record
peak allocations with tracemalloc, 0 not to.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main() -> int:
    spans, workload, alloc, *argv = sys.argv[1:]
    import mvdeg.cli

    tracer = Tracer(workload, measure_alloc=alloc == "1")
    with tracer.installed():
        code = mvdeg.cli.main(argv)
    tracer.write(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
