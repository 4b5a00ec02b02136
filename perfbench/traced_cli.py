"""Entry point of one traced CLI process (``--trace 1`` on the cli workload).

Installs the linear-algebra counters, times the import of the CLI, wraps the
pipeline and the CLI's I/O functions, runs the command line given after
``-c`` and writes its spans and counts to $PERFBENCH_TRACE_OUT at exit.
"""

import json
import os
import sys
import time


def main() -> None:
    start = time.perf_counter()
    from instrument import LinalgCounter, Tracer

    counter = LinalgCounter()
    counter.install()
    import gauss_renyi.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.eval_id = 0
    tracer.wrap_pipeline()
    tracer.wrap_cli()
    counter.tracer = tracer
    counter.active = tracer.active = True
    try:
        code = cli.main(sys.argv[1:])
    finally:
        counter.active = tracer.active = False
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.spans,
                       "counts": dict(counter.counts), "busy_s": counter.busy_s}, handle)
    sys.exit(code)
