import pytest
from hypothesis import given, strategies as st

from cfasim.asm import assemble
from cfasim.isa import (INSTR_SIZE, DecodeError, Instr, Op, SP_REG, decode,
                        decode_word, format_instr, M_IMM, M_REG)
from cfasim.mcu import MemoryLayout
from helpers.golden import golden_region_trace

VALID_MODES = {
    Op.NOP: [0], Op.JMP: [0], Op.JZ: [0], Op.JNZ: [0], Op.CALL: [0],
    Op.CALLI: [0], Op.RET: [0], Op.RETI: [0], Op.PUSH: [0], Op.POP: [0],
    Op.EINT: [0], Op.DINT: [0], Op.HALT: [0],
    Op.MOV: list(range(8)), Op.ADD: [0, 1], Op.SUB: [0, 1], Op.CMP: [0, 1],
}


def _uses(op, mode):
    """(rd, rs, imm) significance per opcode/mode; unused fields stay zero in
    canonical encodings."""
    if op is Op.MOV:
        return {0: (1, 0, 1), 1: (1, 1, 0), 2: (1, 0, 1), 3: (0, 1, 1),
                4: (1, 1, 0), 5: (1, 1, 0), 6: (1, 1, 1), 7: (1, 1, 1)}[mode]
    if op in (Op.ADD, Op.SUB, Op.CMP):
        return (1, 0, 1) if mode == M_IMM else (1, 1, 0)
    if op in (Op.JMP, Op.JZ, Op.JNZ, Op.CALL):
        return (0, 0, 1)
    if op in (Op.CALLI, Op.PUSH):
        return (0, 1, 0)
    if op is Op.POP:
        return (1, 0, 0)
    return (0, 0, 0)


@st.composite
def instrs(draw):
    op = draw(st.sampled_from(sorted(VALID_MODES, key=int)))
    mode = draw(st.sampled_from(VALID_MODES[op]))
    use_rd, use_rs, use_imm = _uses(op, mode)
    rd = draw(st.integers(0, 7)) if use_rd else 0
    rs = draw(st.integers(0, 7)) if use_rs else 0
    if op is Op.MOV and mode == M_REG and draw(st.booleans()):
        rs = SP_REG
    imm = draw(st.integers(0, 0xFFFF)) if use_imm else 0
    return Instr(op, mode, rd, rs, imm)


@given(instrs())
def test_encode_decode_roundtrip(ins):
    raw = ins.encode()
    assert len(raw) == INSTR_SIZE
    assert decode(raw) == ins


@given(instrs())
def test_format_assemble_roundtrip(ins):
    text = format_instr(ins)
    src = f"        .org 0x9000\n        {text}\n"
    image = assemble(src).image
    assert image.segments[0].data == ins.encode()


VALID_PAIRS = [(op, mode) for op in sorted(VALID_MODES, key=int)
               for mode in VALID_MODES[op]]


def test_decode_accepts_exactly_the_valid_modes():
    valid = {(op << 3) | mode for op, mode in VALID_PAIRS}
    for b0 in range(256):
        raw = bytes([b0, 0, 0, 0])
        if b0 in valid:
            ins = decode(raw)
            assert (ins.op << 3) | ins.mode == b0
        else:
            with pytest.raises(DecodeError):
                decode(raw)


@pytest.mark.parametrize("op, mode", VALID_PAIRS,
                         ids=[f"{op.name}-{mode}" for op, mode in VALID_PAIRS])
def test_extreme_fields_format_and_reassemble(op, mode):
    use_rd, use_rs, use_imm = _uses(op, mode)
    rs_values = [7, SP_REG] if (op, mode) == (Op.MOV, M_REG) else [7]
    for rs in rs_values if use_rs else [0]:
        for imm in (0, 0xFFFF) if use_imm else (0,):
            ins = Instr(op, mode, 7 if use_rd else 0, rs, imm)
            src = f"        .org 0x9000\n        {format_instr(ins)}\n"
            assert assemble(src).image.segments[0].data == ins.encode()


def test_zero_bytes_decode_as_nop():
    assert decode(bytes(4)).op is Op.NOP


def test_unknown_opcode_class_rejected():
    raw = bytes([31 << 3, 0, 0, 0])
    with pytest.raises(DecodeError):
        decode(raw)


def test_invalid_mode_rejected():
    raw = bytes([(Op.JMP << 3) | 5, 0, 0, 0])
    with pytest.raises(DecodeError):
        decode(raw)


def test_bad_register_nibble_rejected():
    # rs=8 is only legal as the SP selector in MOV register mode
    with pytest.raises(DecodeError):
        decode(bytes([(Op.ADD << 3) | M_REG, 0x08, 0, 0]))
    ok = decode(bytes([(Op.MOV << 3) | M_REG, 0x08, 0, 0]))
    assert ok.rs == SP_REG


def test_truncated_instruction():
    with pytest.raises(DecodeError):
        decode(b"\x00\x00")


def test_negative_offset_rejected():
    # struct would read a negative offset from the end of the buffer
    raw = bytes(4) + bytes([(Op.JMP << 3), 0, 0x34, 0x12])
    with pytest.raises(DecodeError, match="negative offset"):
        decode(raw, -4)


# ---------------------------------------------------------------------------
# The word table: decode_word is decode, memoised per 32-bit word
# ---------------------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except DecodeError as e:
        return ("DecodeError", str(e))


def test_decode_word_matches_decode_on_every_first_half():
    for imm in (0, 0xFFFF):
        for half in range(0x10000):
            word = half | imm << 16
            assert _outcome(decode_word, word) == \
                _outcome(decode, word.to_bytes(4, "little")), hex(word)


def test_invalid_word_is_never_cached():
    word = 31 << 3                       # opcode class 31
    before = decode_word.cache_info()
    for _ in range(2):
        with pytest.raises(DecodeError, match="unknown opcode class 31"):
            decode_word(word)
    after = decode_word.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses + 2


def test_valid_word_is_decoded_once():
    word = (Op.MOV << 3 | M_IMM) | 0x30 << 8 | 0xA5A4 << 16
    first = decode_word(word)
    hits = decode_word.cache_info().hits
    assert decode_word(word) is first
    assert decode_word.cache_info().hits == hits + 1
    assert first == Instr(Op.MOV, M_IMM, 3, 0, 0xA5A4)


def test_reference_decoder_does_not_touch_the_word_table():
    # the golden interpreter decodes through decode and never shares the
    # simulator's table
    before = decode_word.cache_info()
    decode(bytes([(Op.ADD << 3) | M_REG, 0x12, 0, 0]))
    with pytest.raises(DecodeError):
        decode(bytes([31 << 3, 0, 0, 0]))
    lay = MemoryLayout()
    res = assemble("""
        .org 0x9000
main:   MOV r1, #2
loop:   SUB r1, #1
        JNZ loop
fin:    HALT
""", entry=lay.tcb_min)
    trace = golden_region_trace(res.image, lay, (res.symbols["main"], res.symbols["fin"]))
    assert trace == [(res.symbols["loop"] + 4, res.symbols["loop"])]
    assert decode_word.cache_info() == before


def test_word_table_is_bounded():
    maxsize = decode_word.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096
