"""Mutable program genomes for the differential fuzzer.

:func:`repro.workloads.generator.random_program` draws a halting program
directly from an RNG; that is perfect for uniform sweeps but opaque to a
mutational fuzzer, which needs to *edit* a program while preserving the
always-halts guarantee. A :class:`ProgramGenome` is the same program shape
— counted loop blocks over random ALU/memory operations with a
re-convergent data-dependent skip — held as data, so operators can splice
blocks between parents, replace/insert/delete single operations, or tweak
loop trip counts, and every offspring still terminates by construction
(loops are counted, never data-controlled).

Genomes serialize to plain JSON dicts (for repro artifacts) and build into
:class:`~repro.isa.program.Program` deterministically: the same genome
always yields the same instruction sequence.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Dict

from repro.isa.program import Program, ProgramBuilder

#: Register-register ALU builder methods the genome draws from.
ALU_OPS = ("add", "sub", "mul", "and_", "or_", "xor", "slt", "sltu")
#: Register-immediate ALU builder methods.
IMM_OPS = ("addi", "andi", "ori", "xori")

#: Hard bounds that keep every genome well-formed and quick to simulate.
MAX_BLOCKS = 12
MAX_OPS_PER_BLOCK = 24
MAX_LOOP_ITERS = 16
MIN_DATA_WORDS = 4
MAX_DATA_WORDS = 64

#: Registers the genome's dataflow lives in (r8/r20/r21/r31 are reserved
#: for the skip test, data pointer, loop counter and the zero anchor).
_GP_LO, _GP_HI = 1, 7


@dataclass(frozen=True)
class OpGene:
    """One loop-body operation.

    ``kind`` selects the template; unused fields are simply ignored (a
    mutation may flip the kind and reuse whatever operands are there).
    ``zero_li``/``zero_xor`` are the Section V.E zero idioms — eliminable
    when the core's zero-idiom optimization is on, ordinary instructions
    otherwise.
    """

    kind: str
    op: str = "add"
    rd: int = 1
    rs1: int = 1
    rs2: int = 1
    imm: int = 0
    offset: int = 0


@dataclass(frozen=True)
class BlockGene:
    """One counted loop block with its re-convergent skip."""

    iters: int
    ops: tuple  # of OpGene
    test_reg: int = 1
    taint_rd: int = 1
    taint_rs: int = 1
    out_reg: int = 1


@dataclass(frozen=True)
class ProgramGenome:
    """A full program: init values, a data region, and loop blocks."""

    init_regs: tuple  # 7 values seeding r1..r7
    data: tuple  # word values of the scratch region
    blocks: tuple  # of BlockGene
    label: str = "fuzz"


# -- construction -----------------------------------------------------------


def _random_op(rng: random.Random, data_words: int) -> OpGene:
    kind = rng.random()
    rd = rng.randint(_GP_LO, _GP_HI)
    rs1 = rng.randint(_GP_LO, _GP_HI)
    rs2 = rng.randint(_GP_LO, _GP_HI)
    if kind < 0.05:
        zkind = "zero_li" if rng.random() < 0.5 else "zero_xor"
        return OpGene(zkind, rd=rd, rs1=rs1)
    if kind < 0.55:
        return OpGene("alu", op=rng.choice(ALU_OPS), rd=rd, rs1=rs1, rs2=rs2)
    if kind < 0.70:
        return OpGene(
            "imm", op=rng.choice(IMM_OPS), rd=rd, rs1=rs1,
            imm=rng.getrandbits(10),
        )
    if kind < 0.85:
        return OpGene("load", rd=rd, offset=rng.randrange(data_words))
    return OpGene("store", rs2=rs2, offset=rng.randrange(data_words))


def _random_block(
    rng: random.Random, block_len: int, max_iters: int, data_words: int
) -> BlockGene:
    ops = tuple(
        _random_op(rng, data_words) for _ in range(rng.randint(1, block_len))
    )
    return BlockGene(
        iters=rng.randint(1, max_iters),
        ops=ops,
        test_reg=rng.randint(_GP_LO, _GP_HI),
        taint_rd=rng.randint(_GP_LO, _GP_HI),
        taint_rs=rng.randint(_GP_LO, _GP_HI),
        out_reg=rng.randint(_GP_LO, _GP_HI),
    )


def seed_genome(
    rng: random.Random,
    max_blocks: int = 6,
    block_len: int = 8,
    max_iters: int = 10,
    data_words: int = 32,
) -> ProgramGenome:
    """Draw a fresh genome (the fuzzer's non-mutational input source)."""
    data_words = max(MIN_DATA_WORDS, min(data_words, MAX_DATA_WORDS))
    blocks = tuple(
        _random_block(rng, block_len, max_iters, data_words)
        for _ in range(rng.randint(1, max_blocks))
    )
    return ProgramGenome(
        init_regs=tuple(rng.getrandbits(12) for _ in range(7)),
        data=tuple(rng.getrandbits(16) for _ in range(data_words)),
        blocks=blocks,
    )


# -- program emission -------------------------------------------------------


def build_program(genome: ProgramGenome, name: str = "") -> Program:
    """Deterministically assemble the genome into a halting Program."""
    b = ProgramBuilder(name or genome.label)
    base = 10_000
    data = genome.data or (0,) * MIN_DATA_WORDS
    b.data(base, list(data))
    b.li(31, 0)
    for i, value in enumerate(genome.init_regs[:7]):
        b.li(i + 1, value)
    b.li(20, base)  # data pointer
    for index, block in enumerate(genome.blocks):
        counter = 21
        iters = max(1, min(int(block.iters), MAX_LOOP_ITERS))
        b.li(counter, iters)
        b.label(f"blk{index}")
        for gene in block.ops:
            _emit_op(b, gene, len(data))
        # Data-dependent skip that re-converges immediately.
        skip = f"skip{index}"
        b.andi(8, block.test_reg, 1)
        b.beq(8, 31, skip)
        b.xor(block.taint_rd, block.taint_rs, block.test_reg)
        b.label(skip)
        b.addi(counter, counter, -1)
        b.bne(counter, 31, f"blk{index}")
        b.out(block.out_reg)
    b.halt()
    return b.build()


def _emit_op(b: ProgramBuilder, gene: OpGene, data_words: int) -> None:
    if gene.kind == "alu":
        op = gene.op if gene.op in ALU_OPS else "add"
        getattr(b, op)(gene.rd, gene.rs1, gene.rs2)
    elif gene.kind == "imm":
        op = gene.op if gene.op in IMM_OPS else "addi"
        getattr(b, op)(gene.rd, gene.rs1, gene.imm)
    elif gene.kind == "load":
        b.ld(gene.rd, 20, gene.offset % data_words)
    elif gene.kind == "store":
        b.st(20, gene.rs2, gene.offset % data_words)
    elif gene.kind == "zero_li":
        b.li(gene.rd, 0)
    elif gene.kind == "zero_xor":
        b.xor(gene.rd, gene.rs1, gene.rs1)
    else:
        raise ValueError(f"unknown op kind {gene.kind!r}")


# -- mutation / crossover ---------------------------------------------------


def _with_block(genome: ProgramGenome, index: int, block: BlockGene) -> ProgramGenome:
    blocks = list(genome.blocks)
    blocks[index] = block
    return replace(genome, blocks=tuple(blocks))


def _mutate_replace_op(rng, genome):
    bi = rng.randrange(len(genome.blocks))
    block = genome.blocks[bi]
    ops = list(block.ops)
    ops[rng.randrange(len(ops))] = _random_op(rng, max(1, len(genome.data)))
    return _with_block(genome, bi, replace(block, ops=tuple(ops)))


def _mutate_insert_op(rng, genome):
    bi = rng.randrange(len(genome.blocks))
    block = genome.blocks[bi]
    if len(block.ops) >= MAX_OPS_PER_BLOCK:
        return _mutate_replace_op(rng, genome)
    ops = list(block.ops)
    ops.insert(
        rng.randint(0, len(ops)), _random_op(rng, max(1, len(genome.data)))
    )
    return _with_block(genome, bi, replace(block, ops=tuple(ops)))


def _mutate_delete_op(rng, genome):
    bi = rng.randrange(len(genome.blocks))
    block = genome.blocks[bi]
    if len(block.ops) <= 1:
        return _mutate_replace_op(rng, genome)
    ops = list(block.ops)
    ops.pop(rng.randrange(len(ops)))
    return _with_block(genome, bi, replace(block, ops=tuple(ops)))


def _mutate_iters(rng, genome):
    bi = rng.randrange(len(genome.blocks))
    block = genome.blocks[bi]
    return _with_block(
        genome, bi, replace(block, iters=rng.randint(1, MAX_LOOP_ITERS))
    )


def _mutate_block_regs(rng, genome):
    bi = rng.randrange(len(genome.blocks))
    block = genome.blocks[bi]
    return _with_block(
        genome,
        bi,
        replace(
            block,
            test_reg=rng.randint(_GP_LO, _GP_HI),
            taint_rd=rng.randint(_GP_LO, _GP_HI),
            taint_rs=rng.randint(_GP_LO, _GP_HI),
            out_reg=rng.randint(_GP_LO, _GP_HI),
        ),
    )


def _mutate_dup_block(rng, genome):
    if len(genome.blocks) >= MAX_BLOCKS:
        return _mutate_iters(rng, genome)
    blocks = list(genome.blocks)
    blocks.insert(
        rng.randint(0, len(blocks)), blocks[rng.randrange(len(blocks))]
    )
    return replace(genome, blocks=tuple(blocks))


def _mutate_drop_block(rng, genome):
    if len(genome.blocks) <= 1:
        return _mutate_iters(rng, genome)
    blocks = list(genome.blocks)
    blocks.pop(rng.randrange(len(blocks)))
    return replace(genome, blocks=tuple(blocks))


def _mutate_data(rng, genome):
    if not genome.data:
        return _mutate_init(rng, genome)
    data = list(genome.data)
    data[rng.randrange(len(data))] = rng.getrandbits(16)
    return replace(genome, data=tuple(data))


def _mutate_init(rng, genome):
    init = list(genome.init_regs)
    init[rng.randrange(len(init))] = rng.getrandbits(12)
    return replace(genome, init_regs=tuple(init))


_MUTATORS = (
    _mutate_replace_op,
    _mutate_replace_op,  # weighted: op edits dominate
    _mutate_insert_op,
    _mutate_delete_op,
    _mutate_iters,
    _mutate_block_regs,
    _mutate_dup_block,
    _mutate_drop_block,
    _mutate_data,
    _mutate_init,
)


def mutate(
    rng: random.Random, genome: ProgramGenome, rounds: int = 1
) -> ProgramGenome:
    """Apply ``rounds`` randomly-chosen structural mutations."""
    for _ in range(max(1, rounds)):
        genome = rng.choice(_MUTATORS)(rng, genome)
    return genome


def splice(
    rng: random.Random, left: ProgramGenome, right: ProgramGenome
) -> ProgramGenome:
    """Crossover: a block prefix of ``left`` joined to a suffix of
    ``right``, with init/data inherited from either parent."""
    cut_l = rng.randint(0, len(left.blocks))
    cut_r = rng.randint(0, len(right.blocks))
    blocks = (left.blocks[:cut_l] + right.blocks[cut_r:])[:MAX_BLOCKS]
    if not blocks:
        blocks = (left.blocks + right.blocks)[:1]
    return ProgramGenome(
        init_regs=(left if rng.random() < 0.5 else right).init_regs,
        data=(left if rng.random() < 0.5 else right).data,
        blocks=blocks,
    )


# -- serialization ----------------------------------------------------------


def genome_to_dict(genome: ProgramGenome) -> Dict[str, object]:
    """Plain-JSON representation (lists instead of tuples)."""
    return {
        "label": genome.label,
        "init_regs": list(genome.init_regs),
        "data": list(genome.data),
        "blocks": [
            {
                "iters": block.iters,
                "test_reg": block.test_reg,
                "taint_rd": block.taint_rd,
                "taint_rs": block.taint_rs,
                "out_reg": block.out_reg,
                "ops": [asdict(op) for op in block.ops],
            }
            for block in genome.blocks
        ],
    }


def genome_from_dict(data: Dict[str, object]) -> ProgramGenome:
    blocks = tuple(
        BlockGene(
            iters=entry["iters"],
            ops=tuple(OpGene(**op) for op in entry["ops"]),
            test_reg=entry["test_reg"],
            taint_rd=entry["taint_rd"],
            taint_rs=entry["taint_rs"],
            out_reg=entry["out_reg"],
        )
        for entry in data["blocks"]
    )
    return ProgramGenome(
        init_regs=tuple(data["init_regs"]),
        data=tuple(data["data"]),
        blocks=blocks,
        label=data.get("label", "fuzz"),
    )
