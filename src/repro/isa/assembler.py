"""Two-pass text assembler for the mini ISA.

Syntax (one statement per line, ``;`` or ``#`` begin comments)::

    .name   crc32            ; program name
    .data   100  1 2 3 4     ; words 1 2 3 4 at addresses 100..103
    loop:                    ; label
        addi r1, r1, 1
        blt  r1, r2, loop
        out  r1
        halt

Register operands are ``rN``; immediates are decimal or 0x-hex; branch and
jump targets are labels.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program

_REGISTER_RE = re.compile(r"^r(\d+)$", re.IGNORECASE)

#: opcode -> operand signature. ``d``=dest reg, ``s``=src reg, ``i``=imm,
#: ``l``=label. Signature order matches assembly operand order.
_SIGNATURES: Dict[Opcode, str] = {
    Opcode.ADD: "dss",
    Opcode.SUB: "dss",
    Opcode.MUL: "dss",
    Opcode.DIV: "dss",
    Opcode.REM: "dss",
    Opcode.AND: "dss",
    Opcode.OR: "dss",
    Opcode.XOR: "dss",
    Opcode.SLL: "dss",
    Opcode.SRL: "dss",
    Opcode.SRA: "dss",
    Opcode.SLT: "dss",
    Opcode.SLTU: "dss",
    Opcode.ADDI: "dsi",
    Opcode.ANDI: "dsi",
    Opcode.ORI: "dsi",
    Opcode.XORI: "dsi",
    Opcode.SLLI: "dsi",
    Opcode.SRLI: "dsi",
    Opcode.SLTI: "dsi",
    Opcode.LI: "di",
    Opcode.LD: "dsi",
    Opcode.ST: "ssi",
    Opcode.BEQ: "ssl",
    Opcode.BNE: "ssl",
    Opcode.BLT: "ssl",
    Opcode.BGE: "ssl",
    Opcode.JMP: "l",
    Opcode.OUT: "s",
    Opcode.NOP: "",
    Opcode.HALT: "",
}

_MNEMONICS = {op.value: op for op in Opcode}


class AssemblerError(ValueError):
    """Raised on any malformed assembly input, with line context."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(line_no, f"invalid integer {token!r}") from None


def _parse_register(token: str, line_no: int) -> int:
    match = _REGISTER_RE.match(token)
    if not match:
        raise AssemblerError(line_no, f"expected register, got {token!r}")
    return int(match.group(1))


def _split_operands(rest: str) -> List[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def assemble(text: str, name: Optional[str] = None) -> Program:
    """Assemble source text into a :class:`Program`.

    Args:
        text: The assembly source.
        name: Optional program name; overrides any ``.name`` directive.

    Returns:
        The assembled program with labels resolved to instruction indices.

    Raises:
        AssemblerError: On syntax errors, unknown mnemonics, bad operand
            counts/kinds, or unresolved labels.
    """
    labels: Dict[str, int] = {}
    memory: Dict[int, int] = {}
    pending: List[Tuple[int, Opcode, List[str]]] = []
    program_name = name or "program"

    # Pass 1: collect labels, directives and raw statements.
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"[;#]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith(".name"):
            directive_name = line[len(".name"):].strip()
            if not directive_name:
                raise AssemblerError(line_no, ".name requires a value")
            if name is None:
                program_name = directive_name
            continue
        if line.startswith(".data"):
            tokens = line[len(".data"):].split()
            if len(tokens) < 2:
                raise AssemblerError(line_no, ".data requires addr + values")
            base = _parse_int(tokens[0], line_no)
            for offset, token in enumerate(tokens[1:]):
                memory[base + offset] = _parse_int(token, line_no)
            continue
        # Leading label(s) on the same line as an instruction.
        while True:
            match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$", line)
            if not match:
                break
            label = match.group(1)
            if label in labels:
                raise AssemblerError(line_no, f"duplicate label {label!r}")
            labels[label] = len(pending)
            line = match.group(2).strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        if mnemonic not in _MNEMONICS:
            raise AssemblerError(line_no, f"unknown mnemonic {mnemonic!r}")
        operands = _split_operands(parts[1] if len(parts) > 1 else "")
        pending.append((line_no, _MNEMONICS[mnemonic], operands))

    # Pass 2: resolve operands and labels.
    instructions: List[Instruction] = []
    for line_no, opcode, operands in pending:
        signature = _SIGNATURES[opcode]
        if len(operands) != len(signature):
            raise AssemblerError(
                line_no,
                f"{opcode.value} expects {len(signature)} operands, "
                f"got {len(operands)}",
            )
        rd = rs1 = rs2 = imm = target = None
        label_name = ""
        sources_seen = 0
        for kind, token in zip(signature, operands):
            if kind == "d":
                rd = _parse_register(token, line_no)
            elif kind == "s":
                reg = _parse_register(token, line_no)
                if sources_seen == 0:
                    rs1 = reg
                else:
                    rs2 = reg
                sources_seen += 1
            elif kind == "i":
                imm = _parse_int(token, line_no)
            elif kind == "l":
                if token not in labels:
                    raise AssemblerError(
                        line_no, f"undefined label {token!r}"
                    )
                target = labels[token]
                label_name = token
        try:
            instructions.append(
                Instruction(
                    opcode,
                    rd=rd,
                    rs1=rs1,
                    rs2=rs2,
                    imm=imm,
                    target=target,
                    label=label_name,
                )
            )
        except ValueError as exc:
            raise AssemblerError(line_no, str(exc)) from exc

    return Program(
        instructions,
        initial_memory=memory,
        name=program_name,
        labels=labels,
    )
