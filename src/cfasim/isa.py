"""TinyMCU instruction set: a 17-instruction, 16-bit ISA with fixed 4-byte encoding.

Every instruction occupies exactly 4 bytes:

    byte 0: (opcode class << 3) | addressing mode
    byte 1: (dst register << 4) | src register
    bytes 2-3: 16-bit immediate, little-endian

The fixed width makes disassembly trivially invertible, which the verifier
relies on when it rebuilds a control-flow graph from the expected binary.
Opcode class 0 is NOP so that zero-filled program memory decodes cleanly.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass

INSTR_SIZE = 4

# src-register nibble that selects the stack pointer in register-move mode.
SP_REG = 0x8


class Op(enum.IntEnum):
    NOP = 0
    MOV = 1
    ADD = 2
    SUB = 3
    CMP = 4
    JMP = 5
    JZ = 6
    JNZ = 7
    CALL = 8
    CALLI = 9
    RET = 10
    RETI = 11
    PUSH = 12
    POP = 13
    EINT = 14
    DINT = 15
    HALT = 16


# The members under module names, for the per-record code: reading
# ``Op.MOV`` goes through ``EnumType.__getattr__`` and costs several times
# a module global.
(NOP, MOV, ADD, SUB, CMP, JMP, JZ, JNZ, CALL, CALLI, RET, RETI, PUSH, POP,
 EINT, DINT, HALT) = Op


# MOV addressing modes (other classes use only IMM/REG).
M_IMM = 0        # rd := imm
M_REG = 1        # rd := rs        (rs == SP_REG reads the stack pointer)
M_ABS_LOAD = 2   # rd := mem16[imm]
M_ABS_STORE = 3  # mem16[imm] := rs
M_IND_LOAD = 4   # rd := mem16[rs]
M_IND_STORE = 5  # mem16[rd] := rs
M_IDX_LOAD = 6   # rd := mem16[rs + imm]
M_IDX_STORE = 7  # mem16[rd + imm] := rs

# Operand syntax of every valid (op, mode), the one definition that decode,
# format_instr and the assembler share.  In a form, "d" is the rd register,
# "s" the rs register, "S" the rs register or SP (the SP_REG nibble), and "i"
# the 16-bit immediate; every other character is literal, and blanks around
# the literals are optional.
SYNTAX: dict[tuple[Op, int], str] = {
    (Op.MOV, M_IMM): "d, #i", (Op.MOV, M_REG): "d, S",
    (Op.MOV, M_ABS_LOAD): "d, &i", (Op.MOV, M_ABS_STORE): "&i, s",
    (Op.MOV, M_IND_LOAD): "d, @s", (Op.MOV, M_IND_STORE): "@d, s",
    (Op.MOV, M_IDX_LOAD): "d, i(s)", (Op.MOV, M_IDX_STORE): "i(d), s",
    **{(op, mode): form for op in (Op.ADD, Op.SUB, Op.CMP)
       for mode, form in ((M_IMM, "d, #i"), (M_REG, "d, s"))},
    **{(op, 0): "i" for op in (Op.JMP, Op.JZ, Op.JNZ, Op.CALL)},
    (Op.CALLI, 0): "s", (Op.PUSH, 0): "s", (Op.POP, 0): "d",
    **{(op, 0): "" for op in (Op.NOP, Op.RET, Op.RETI, Op.EINT, Op.DINT, Op.HALT)},
}

# Byte 0 of every valid (op, mode) -> the op, and whether the rs nibble may
# name SP.
_BYTE0 = {(op << 3) | mode: (op, "S" in form) for (op, mode), form in SYNTAX.items()}
_FIELDS = struct.Struct("<BBH")
WORD = struct.Struct("<I")   # one instruction as the 32-bit word decode_word takes

# Instructions that transfer control when they retire.  Conditional jumps
# count only when taken; the monitor infers that from pc_next != pc + 4.
BRANCH_OPS = frozenset({Op.JMP, Op.JZ, Op.JNZ, Op.CALL, Op.CALLI, Op.RET, Op.RETI})

# Instructions execution can never fall through (used by the verifier when it
# walks straight-line code between logged transfers).
NO_FALLTHROUGH_OPS = frozenset({Op.JMP, Op.CALL, Op.CALLI, Op.RET, Op.RETI, Op.HALT})


class DecodeError(ValueError):
    """Raised when 4 bytes do not form a valid TinyMCU instruction."""


@dataclass(frozen=True, slots=True)
class Instr:
    op: Op
    mode: int = 0
    rd: int = 0
    rs: int = 0
    imm: int = 0

    def encode(self) -> bytes:
        return pack(self.op, self.mode, self.rd, self.rs, self.imm)


def pack(op: Op, mode: int, rd: int, rs: int, imm: int) -> bytes:
    """The 4-byte encoding of one instruction's fields."""
    return _FIELDS.pack((op << 3) | mode, (rd << 4) | rs, imm)


def _instr(b0: int, b1: int, imm: int) -> Instr:
    """The instruction whose encoded fields are ``b0``, ``b1`` and ``imm``."""
    try:
        op, sp_ok = _BYTE0[b0]
    except KeyError:
        cls = b0 >> 3
        if cls >= len(Op):
            raise DecodeError(f"unknown opcode class {cls}") from None
        raise DecodeError(f"invalid mode {b0 & 0x7} for {Op(cls).name}") from None
    rd, rs = b1 >> 4, b1 & 0xF
    if rd > 7 or (rs > 7 and not (rs == SP_REG and sp_ok)):
        raise DecodeError(f"invalid register nibble in {op.name}")
    return Instr(op, b0 & 0x7, rd, rs, imm)


def decode(raw: bytes | bytearray | memoryview, offset: int = 0) -> Instr:
    """Decode one instruction at ``offset``; raises DecodeError if invalid.
    The plain reference decoder: it caches nothing."""
    if offset < 0:
        raise DecodeError("negative offset")
    if offset + INSTR_SIZE > len(raw):
        raise DecodeError("truncated instruction")
    return _instr(*_FIELDS.unpack_from(raw, offset))


@functools.lru_cache(maxsize=4096)
def decode_word(word: int) -> Instr:
    """:func:`decode` of the 32-bit little-endian ``word``, memoised per
    word in a bounded table.  An invalid word raises on every call and is
    never cached.  The simulator decodes only through here; the golden
    interpreter keeps to :func:`decode`."""
    return _instr(word & 0xFF, (word >> 8) & 0xFF, word >> 16)


def format_instr(ins: Instr) -> str:
    """Canonical assembly text for one instruction (round-trips through the assembler)."""
    form = SYNTAX[ins.op, ins.mode]
    if not form:
        return ins.op.name
    fields = {"d": f"r{ins.rd}", "s": f"r{ins.rs}", "i": f"{ins.imm:#x}",
              "S": "SP" if ins.rs == SP_REG else f"r{ins.rs}"}
    return f"{ins.op.name} " + "".join(fields.get(c, c) for c in form)
