"""Traced stand-in for `python -m mgcp <args>`, used by the cli-cold workload.

It times `import mgcp`, runs `mgcp.cli.main` with the tracer installed,
and writes the per-layer totals, the table-cache statistics and the
spans to the JSON file named by MGCP_BENCH_TRACE_OUT.  Standard output
and the exit code are the CLI's own, so the traced output can be
compared with the untraced one byte for byte.
"""

import json
import os
import sys
from time import perf_counter

t0 = perf_counter()
import mgcp.cli  # noqa: E402
import_s = perf_counter() - t0

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    t1 = perf_counter()
    with tracer.installed():
        code = mgcp.cli.main(sys.argv[1:])
    main_s = perf_counter() - t1
    sys.stdout.flush()
    cache = mgcp.shock._tables.cache_info()
    doc = {
        "command": sys.argv[1],
        "exit": code,
        "import_s": import_s,
        "main_s": main_s,
        "layers": tracer.layer_totals(),
        "names": tracer.name_counts(),
        "counts": tracer.counts,
        "timers": tracer.timers,
        "table_hits": cache.hits,
        "table_misses": cache.misses,
        "spans": tracer.spans,
    }
    with open(os.environ["MGCP_BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
