"""Run one gramstab CLI invocation with spans around its public functions.

    python perfbench/traced_cli.py SPANS_OUT INVOCATION_ID SPAWN_TIME CLI_ARGS...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it
started this process; perf_counter is CLOCK_MONOTONIC on Linux, shared
by all processes, so the interpreter's own start-up becomes the span
``trace.startup``. Then ``import gramstab.cli`` is timed as
``cli.import``, the wrappers are installed (``trace.install``) and
``gramstab.cli.run_cli`` runs as the root span ``cli.run_cli``. The
spans are written to SPANS_OUT as JSON, with the time at which
writing started; the parent turns the rest of the process's life into
the span ``trace.exit``. The CLI's exit code is returned.
"""

import json
import sys
import time


def main() -> int:
    spans_out, invocation, spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    argv = sys.argv[4:]
    before_import = time.perf_counter()
    import gramstab.cli

    imported = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    installed = time.perf_counter()
    tracer.add("trace.startup", spawn, before_import)
    tracer.add("cli.import", before_import, imported)
    tracer.add("trace.install", imported, installed)
    code = gramstab.cli.run_cli(argv)
    sys.stdout.flush()
    document = tracer.document(invocation)
    document["finished"] = time.perf_counter()
    with open(spans_out, "w") as handle:
        json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
