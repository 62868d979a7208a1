"""MiBench-analog workload suite (Section IV.A substitution).

The paper's bug-modeling study runs ten MiBench benchmarks end-to-end on
gem5. This package provides ten analogs for the mini ISA, chosen to span
the same behavioural axes that drive masking/persistence statistics:
branch-misprediction rate (flush recovery pressure), register reuse
distance (RAT eviction patterns), memory intensity and output density.

Each module exposes ``build(scale, seed) -> Program`` and a pure-Python
``expected(scale, seed)`` model used by the validation tests.
"""

from typing import Callable, Dict, List

from repro.isa.program import Program
from repro.workloads import (
    basicmath,
    bitcount,
    crc32,
    dijkstra,
    fft,
    patricia,
    qsort,
    sha,
    stringsearch,
    susan,
)
from repro.workloads.generator import random_program

#: name -> builder, in the paper's benchmark-suite spirit.
WORKLOADS: Dict[str, Callable[..., Program]] = {
    "basicmath": basicmath.build,
    "bitcount": bitcount.build,
    "crc32": crc32.build,
    "dijkstra": dijkstra.build,
    "fft": fft.build,
    "patricia": patricia.build,
    "qsort": qsort.build,
    "sha": sha.build,
    "stringsearch": stringsearch.build,
    "susan": susan.build,
}

#: name -> pure-Python expected-output model.
EXPECTED: Dict[str, Callable[..., list]] = {
    "basicmath": basicmath.expected,
    "bitcount": bitcount.expected,
    "crc32": crc32.expected,
    "dijkstra": dijkstra.expected,
    "fft": fft.expected,
    "patricia": patricia.expected,
    "qsort": qsort.expected,
    "sha": sha.expected,
    "stringsearch": stringsearch.expected,
    "susan": susan.expected,
}


def build_suite(scale: float = 1.0, seed: int = 7) -> Dict[str, Program]:
    """Build every workload at a common scale/seed."""
    return {name: build(scale=scale, seed=seed) for name, build in WORKLOADS.items()}


def parse_benchmarks(text: str) -> List[str]:
    """Benchmark names from a comma-separated list, or every one for
    ``all``; raises ValueError naming the unknown ones."""
    if text == "all":
        return list(WORKLOADS)
    names = [name.strip() for name in text.split(",")]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ValueError(f"unknown benchmarks: {', '.join(unknown)}")
    return names


__all__ = [
    "EXPECTED",
    "WORKLOADS",
    "build_suite",
    "parse_benchmarks",
    "random_program",
]
