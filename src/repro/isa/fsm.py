"""FSM controller generation from an assembled microprogram.

The paper's instruction sequencer is "a program ROM that stores the
control signals for the datapath and a finite state machine".  For a
straight-line scalar-multiplication program the FSM is a program
counter with IDLE/RUN/DONE superstates; the value of this module is the
generated artifact: a ROM image plus a human-readable controller
description that documents state encoding, ROM geometry, and the
control-word field layout (what an RTL engineer would hand to
synthesis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..trace.ops import OpKind, Unit
from .microcode import ControlWord, MicroProgram, OperandSource

#: Addsub-unit opcode encoding used in the control word.
ADDSUB_OPCODES: Dict[OpKind, int] = {
    OpKind.ADD: 0b000,
    OpKind.SUB: 0b001,
    OpKind.NEG: 0b010,
    OpKind.CONJ: 0b011,
}

#: Operand-source select encoding (2 bits per operand).
SOURCE_CODES: Dict[OperandSource, int] = {
    OperandSource.REGISTER: 0b00,
    OperandSource.FORWARD_MULT: 0b01,
    OperandSource.FORWARD_ADDSUB: 0b10,
}


@dataclass
class FSMController:
    """The generated controller: ROM image and geometry."""

    rom: List[int]
    word_bits: int
    addr_bits: int
    reg_addr_bits: int
    states: int

    @property
    def rom_kilobits(self) -> float:
        return len(self.rom) * self.word_bits / 1000.0

    def describe(self) -> str:
        return (
            f"FSM controller: {self.states} states "
            f"(IDLE, DONE + {self.states - 2} program steps), "
            f"ROM {len(self.rom)} x {self.word_bits} bits "
            f"({self.rom_kilobits:.1f} kbit), "
            f"register address width {self.reg_addr_bits} bits"
        )


def _encode_word(
    word: ControlWord, reg_bits: int
) -> int:
    """Pack one control word into an integer ROM entry.

    Layout (LSB first):
      [0]               mult enable
      [1]               addsub enable
      [2:5]             addsub opcode
      per operand slot (4 slots: mult a/b, addsub a/b):
        2-bit source select + reg_bits register address
      per write port (2 ports):
        1-bit enable + 1-bit unit select + reg_bits address

    Absent issues, operands and writebacks encode as zeros.  A register
    address that does not fit ``reg_bits`` raises ValueError.
    """
    limit = 1 << reg_bits
    field = 2 + reg_bits  # one operand slot, or one write port
    mult, addsub = word.mult, word.addsub
    val = 0
    if mult is not None:
        val |= 1
    if addsub is not None:
        val |= 0b10 | ADDSUB_OPCODES.get(addsub.kind, 0) << 2
    pos = 5
    for issue in (mult, addsub):
        if issue is not None:
            at = pos
            for op in issue.operands[:2]:
                reg = op.register if op.register >= 0 else 0
                if reg >= limit:
                    raise ValueError("field overflow in control word encoding")
                val |= (SOURCE_CODES[op.source] | reg << 2) << at
                at += field
        pos += 2 * field
    for wb in word.writebacks[:2]:
        if wb.register >= limit:
            raise ValueError("field overflow in control word encoding")
        val |= (1 | (wb.unit is Unit.MULTIPLIER) << 1 | wb.register << 2) << pos
        pos += field
    return val


_OPCODE_TO_KIND = {v: k for k, v in ADDSUB_OPCODES.items()}
_CODE_TO_SOURCE = {v: k for k, v in SOURCE_CODES.items()}


def decode_word(
    value: int, reg_bits: int, cycle: int, mult_kind: OpKind = OpKind.MUL
) -> ControlWord:
    """Unpack a ROM entry back into a :class:`ControlWord`.

    The inverse of :func:`_encode_word`; used to prove the ROM image is
    faithful (decode(encode(w)) == w up to the multiplier's MUL/SQR
    distinction, which the hardware does not need — a squaring is a
    multiplication with both operands wired to the same source, so the
    decoder reports ``mult_kind``).  ``dest_uid`` values are not stored
    in hardware and come back as -1.
    """
    from .microcode import Operand, UnitIssue, Writeback

    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        out = (value >> pos) & ((1 << width) - 1)
        pos += width
        return out

    mult_en = take(1)
    addsub_en = take(1)
    addsub_op = take(3)
    slots = []
    for _ in range(4):
        src = take(2)
        reg = take(reg_bits)
        slots.append(Operand(source=_CODE_TO_SOURCE[src], register=reg))
    wbs = []
    for _ in range(2):
        en = take(1)
        unit_sel = take(1)
        reg = take(reg_bits)
        if en:
            wbs.append(
                Writeback(
                    register=reg,
                    unit=Unit.MULTIPLIER if unit_sel else Unit.ADDSUB,
                    uid=-1,
                )
            )
    mult = (
        UnitIssue(kind=mult_kind, operands=tuple(slots[:2]), dest_uid=-1)
        if mult_en
        else None
    )
    addsub = (
        UnitIssue(
            kind=_OPCODE_TO_KIND.get(addsub_op, OpKind.ADD),
            operands=tuple(slots[2:4]),
            dest_uid=-1,
        )
        if addsub_en
        else None
    )
    return ControlWord(
        cycle=cycle, mult=mult, addsub=addsub, writebacks=tuple(wbs)
    )


def generate_fsm(program: MicroProgram) -> FSMController:
    """Generate the ROM image + FSM description for a microprogram."""
    reg_bits = max(1, math.ceil(math.log2(max(program.register_count, 2))))
    word_bits = 1 + 1 + 3 + 4 * (2 + reg_bits) + 2 * (2 + reg_bits)
    rom = [_encode_word(w, reg_bits) for w in program.words]
    addr_bits = max(1, math.ceil(math.log2(max(len(rom), 2))))
    return FSMController(
        rom=rom,
        word_bits=word_bits,
        addr_bits=addr_bits,
        reg_addr_bits=reg_bits,
        states=len(rom) + 2,
    )
