"""Gateway launcher for the service-bursty workload.

Runs ``repro.service.__main__.main`` unchanged.  With ``--trace-out PATH``
it first installs the benchmark's wrappers (``tracing.install(...,
service=True)``) in this process, and writes the span sums to ``PATH``
once the gateway has drained and ``main`` returns.  All other arguments are
passed to the gateway's own command line.
"""

from __future__ import annotations

import json
import sys

import tracing


def run(argv):
    from repro.service.__main__ import main

    trace_out = None
    if "--trace-out" in argv:
        at = argv.index("--trace-out")
        trace_out = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    if trace_out is None:
        return main(argv)
    tracer = tracing.Tracer()
    tracing.install(tracer, service=True)
    code = main(argv)
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
