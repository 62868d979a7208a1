#!/usr/bin/env python
"""Core performance benchmark — thin wrapper over :mod:`repro.bench`.

Run either form; they are identical::

    PYTHONPATH=src python benchmarks/perf/bench_core.py --runs 8
    PYTHONPATH=src python -m repro.bench --runs 8

Times golden-run cycles/s and cold-vs-snapshot injection throughput per
suite benchmark and appends one entry to ``BENCH_core.json`` at the repo
root (see ``repro.bench`` for the schema and knobs). These are
single-trial, in-process passes; the end-to-end, CLI-driven
benchmark with repeated runs, bounds and an A/B rule is
``perfbench/run.py`` (see ``perfbench/README.md``).
"""

import sys

from repro.bench import main

if __name__ == "__main__":
    sys.exit(main())
