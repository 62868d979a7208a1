"""Greedy structural minimizer for failing fuzz inputs.

Given a genome whose oracle verdict is a failure, repeatedly try the
cheapest structural reductions — drop whole blocks, collapse loop trip
counts to 1, delete single operations, shrink the data region — keeping a
candidate only when it reproduces the *exact same* failure tuple (so a
Duplication finding cannot silently morph into, say, a timeout while
shrinking). Purely deterministic: candidate order is fixed, so the same
input always minimizes to the same repro.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Tuple

from repro.fuzz.genome import ProgramGenome
from repro.fuzz.oracle import OracleReport

#: ``oracle(genome) -> OracleReport`` — the engine binds config/bug in.
GenomeOracle = Callable[[ProgramGenome], OracleReport]


@dataclass
class ShrinkResult:
    """The minimized genome, its verdict and the evaluations spent."""

    genome: ProgramGenome
    report: OracleReport
    evaluations: int


def _drop_block_candidates(genome: ProgramGenome) -> Iterator[ProgramGenome]:
    for index in range(len(genome.blocks)):
        blocks = genome.blocks[:index] + genome.blocks[index + 1:]
        if blocks:
            yield replace(genome, blocks=blocks)


def _iters_candidates(genome: ProgramGenome) -> Iterator[ProgramGenome]:
    for index, block in enumerate(genome.blocks):
        if block.iters > 1:
            blocks = list(genome.blocks)
            blocks[index] = replace(block, iters=1)
            yield replace(genome, blocks=tuple(blocks))


def _drop_op_candidates(genome: ProgramGenome) -> Iterator[ProgramGenome]:
    for bi, block in enumerate(genome.blocks):
        if len(block.ops) <= 1:
            continue
        for oi in range(len(block.ops)):
            blocks = list(genome.blocks)
            blocks[bi] = replace(
                block, ops=block.ops[:oi] + block.ops[oi + 1:]
            )
            yield replace(genome, blocks=tuple(blocks))


def _shrink_data_candidates(genome: ProgramGenome) -> Iterator[ProgramGenome]:
    length = len(genome.data)
    if length > 4:
        yield replace(genome, data=genome.data[: max(4, length // 2)])


_PASSES = (
    _drop_block_candidates,
    _iters_candidates,
    _drop_op_candidates,
    _shrink_data_candidates,
)


def shrink(
    genome: ProgramGenome,
    failures: Tuple[str, ...],
    oracle: GenomeOracle,
    budget: int = 300,
) -> ShrinkResult:
    """Minimize ``genome`` while preserving its exact failure tuple.

    Args:
        genome: The failing input.
        failures: The failure tuple the repro must keep producing.
        oracle: Evaluates a candidate genome.
        budget: Maximum oracle evaluations to spend.

    Returns:
        A :class:`ShrinkResult`; its report is the verdict of the final
        minimized genome (re-evaluated, never stale).
    """
    evaluations = 0
    current = genome
    report = oracle(current)
    evaluations += 1
    if report.failures != failures:
        # The caller's verdict does not reproduce (should not happen for
        # deterministic oracles); return the input untouched.
        return ShrinkResult(genome, report, evaluations)

    progress = True
    while progress and evaluations < budget:
        progress = False
        for candidates in _PASSES:
            restart = True
            while restart and evaluations < budget:
                restart = False
                for candidate in candidates(current):
                    if evaluations >= budget:
                        break
                    attempt = oracle(candidate)
                    evaluations += 1
                    if attempt.failures != failures:
                        continue
                    current = candidate
                    report = attempt
                    progress = True
                    restart = True
                    break
    return ShrinkResult(current, report, evaluations)
