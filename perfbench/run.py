"""Benchmark gramstab end to end, and layer by layer with --trace 1.

    python3 perfbench/run.py --workload ggi-ingest --seed 1 --seconds 12 --trace 0

Load model: a closed loop with one client. This process runs the real
command line, ``python -m gramstab.cli ...``, as a child process, one
invocation at a time; the next starts when the previous one has exited.
Children get ``PYTHONPATH=src`` and lose ``GGI_THREADS``; the BLAS
thread count is recorded, not overridden. Inputs are generated from
--seed and only the files and the arguments reach the program.

With --trace 0 a run makes SETUP_SAMPLES warm-up invocations, each on
freshly written inputs (their median wall is ``setup_s``), then repeats
the workload's commands for --seconds, timing a fixed probe program in
between so that end-to-end times can be scaled to a reference host
speed (see ``harness.PROBE_CODE``). With --trace 1 it makes one
warm-up and then alternates untraced invocations with traced ones
(``traced_cli.py``), and reports the per-layer metrics of ``spec``.
Every report is checked against the benchmark's own reference and
against the first report of the same command in that directory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric by name with its unit, the environment, and what
failed. ``--workload all`` runs every workload in turn, ``--scale toy``
shrinks the inputs for the self-tests, and ``--write-spec`` rewrites
BENCHMARK.json from ``spec``. Inputs and results (``BENCH_*.json``,
``SPANS_*.json``) go to ``.perfbench/`` at the repository root.
"""

import sys

from proc import Spawner

if __name__ == "__main__":
    # The helper that starts every child is started before this process
    # imports numpy or generates inputs, so that it stays small.
    with Spawner() as spawner:
        import harness

        sys.exit(harness.main(spawner))
