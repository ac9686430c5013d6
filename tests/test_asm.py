import hashlib
import sys

import pytest
from hypothesis import given, strategies as st

from helpers.progen import generate

from cfasim.apps import FIXTURES, PASSWORD
from cfasim.asm import AsmError, assemble, disassemble, disassemble_image
from cfasim.isa import INSTR_SIZE, SP_REG, SYNTAX
from cfasim.mcu import Segment


def test_two_instruction_segment_is_eight_bytes():
    res = assemble("        .org 0x9000\n        NOP\n        HALT\n")
    assert len(res.image.segments) == 1
    assert len(res.image.segments[0].data) == 8


def test_forward_label_resolves():
    res = assemble("""
        .org 0x9000
        CALL target
        HALT
target: NOP
""")
    ins = res.image.segments[0].data[:4]
    assert res.symbols["target"] == 0x9008
    assert int.from_bytes(ins[2:4], "little") == 0x9008


def test_backward_label_and_expressions():
    res = assemble("""
        .org 0x9000
top:    NOP
        JMP top
        MOV r0, #top+4
""")
    data = res.image.segments[0].data
    assert int.from_bytes(data[6:8], "little") == 0x9000
    assert int.from_bytes(data[10:12], "little") == 0x9004


def test_word_directive_and_multiple_segments():
    res = assemble("""
        .org 0x9000
        NOP
        .org 0x0042
        .word isr, 0x1234
        .org 0x9100
isr:    RETI
""")
    bases = sorted(seg.base for seg in res.image.segments)
    assert bases == [0x0042, 0x9000, 0x9100]
    ivt = next(s for s in res.image.segments if s.base == 0x0042)
    assert ivt.data == (0x9100).to_bytes(2, "little") + (0x1234).to_bytes(2, "little")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AsmError, match="unknown mnemonic"):
        assemble("        .org 0x9000\n        FROB r1\n")


def test_duplicate_label_rejected():
    with pytest.raises(AsmError, match="duplicate"):
        assemble("        .org 0x9000\nx:      NOP\nx:      NOP\n")


def test_undefined_label_rejected():
    with pytest.raises(AsmError, match="undefined"):
        assemble("        .org 0x9000\n        JMP nowhere\n")


def test_out_of_range_value_rejected():
    with pytest.raises(AsmError, match="16-bit"):
        assemble("        .org 0x9000\n        MOV r0, #0x10000\n")


def test_code_before_org_rejected():
    with pytest.raises(AsmError, match="before any"):
        assemble("        NOP\n")


def test_label_before_org_rejected():
    with pytest.raises(AsmError, match="label before any .org"):
        assemble("lab:    NOP\n")


@pytest.mark.parametrize("stmt, encoding", [
    ("mov R1 , # 3", "08100300"),
    ("MOV r1, sp", "09180000"),
    ("MOV r6 , 0x4 ( r2 )", "0e620400"),
    ("MOV & 0x1000 , r4", "0b040010"),
    ("MOV @ r2, r5", "0d250000"),
    ("JMP lab - 4", "2800fc8f"),
    ("JMP lab -\t4", "2800fc8f"),
    ("calli R3", "48030000"),
    ("add r1,r2", "11120000"),
])
def test_accepted_spelling_encodes(stmt, encoding):
    res = assemble(f"        .org 0x9000\nlab:    {stmt}\n")
    assert res.image.segments[0].data.hex() == encoding


@pytest.mark.parametrize("stmt", [
    "ADD r1, SP", "MOV SP, r1", "MOV r1, 5", "NOP r1",
    "CALLI 0x9000", "PUSH #1", "POP SP", "MOV r1, r2, r3",
    "MOV r9, r1", "CMP #1, r1", "MOV @r1, #2", "JMP",
    "JMP lab+", ".org main",
])
def test_malformed_statement_rejected(stmt):
    with pytest.raises(AsmError):
        assemble(f"        .org 0x9000\n        {stmt}\n")


def test_disassemble_roundtrips_reassembly():
    source = """
        .org 0x9000
        MOV r1, #0x12
        MOV r2, r1
        MOV r3, SP
        MOV r4, &0x1000
        MOV &0x1002, r4
        MOV r5, @r2
        MOV @r2, r5
        MOV r6, 0x4(r2)
        MOV 0x6(r2), r6
        ADD r1, #1
        SUB r1, r2
        CMP r1, #0
        JZ 0x9000
        JNZ 0x9004
        JMP 0x9008
        CALL 0x9000
        CALLI r3
        PUSH r1
        POP r2
        RET
        RETI
        EINT
        DINT
        NOP
        HALT
"""
    first = assemble(source)
    listing = disassemble_image(first.image)
    rebuilt_src = "        .org 0x9000\n" + "".join(
        f"        {text}\n" for _, text in listing)
    second = assemble(rebuilt_src)
    assert second.image.segments[0].data == first.image.segments[0].data


def _relisted(seg):
    """Re-assemble the listing of one segment at its own base."""
    listing = disassemble(seg.data, seg.base)
    return assemble(f"        .org {seg.base:#x}\n" + "".join(
        f"        {text}\n" for _, text in listing)).image.segments


IVT_PROGRAM = """
        .org 0x9000
main:   EINT
        NOP
fin:    NOP
        HALT
h1:     RETI
h2:     RETI
        .org 0x0042
        .word h1, h2
"""


def test_password_app_roundtrips():
    for seg in assemble(PASSWORD).image.segments:
        assert _relisted(seg) == (seg,)


def test_listing_of_data_words_reassembles():
    image = assemble(IVT_PROGRAM).image
    assert (0x42, ".word 0x9010, 0x9014") in disassemble_image(image)
    for seg in image.segments:
        assert _relisted(seg) == (seg,)


def test_trailing_half_word_listed():
    assert disassemble(b"\x10\x90", 0x42) == [(0x42, ".word 0x9010")]


@given(st.binary(min_size=1, max_size=32).map(lambda b: b[:len(b) // 2 * 2]))
def test_any_listing_reassembles(data):
    if data:
        seg = Segment(0x9000, data)
        assert _relisted(seg) == (seg,)


def test_addresses_advance_by_instruction_size():
    res = assemble("        .org 0x9000\n        NOP\n        NOP\n        NOP\n")
    listing = disassemble_image(res.image)
    assert [a for a, _ in listing] == [0x9000 + i * INSTR_SIZE for i in range(3)]


@pytest.mark.parametrize("op, mode", list(SYNTAX),
                         ids=[f"{op.name}-{mode}" for op, mode in SYNTAX])
def test_every_form_assembles_to_its_fields(op, mode):
    # byte 0 = op << 3 | mode, byte 1 = rd << 4 | rs, then imm little-endian
    form = SYNTAX[op, mode]
    for rs_text, rs in (("r3", 3), ("SP", SP_REG)) if "S" in form else (("r3", 3),):
        text = "".join({"d": "r5", "s": "r3", "S": rs_text, "i": "0xBEEF"}.get(c, c)
                       for c in form)
        rd = 5 if "d" in form else 0
        rs = rs if "s" in form.lower() else 0
        imm = 0xBEEF if "i" in form else 0
        data = assemble(f"        .org 0x9000\n        {op.name} {text}\n").image.segments[0].data
        assert data == bytes([op << 3 | mode, rd << 4 | rs]) + imm.to_bytes(2, "little")


# SHA-256 (first 16 hex digits) of every fixture's assembled image file.
FIXTURE_IMAGES = {
    ("few_branch", "source"): "744572f3fbcfe068",
    ("moderate", "source"): "36d88a6770b922e1",
    ("loop_heavy", "source"): "e05fd4306958f1f8",
    ("password", "source"): "50f8950dd3a7b2dc",
    ("password", "patched_source"): "186246a97f8b8bc9",
}


@pytest.mark.parametrize("name, attr", list(FIXTURE_IMAGES))
def test_fixture_images_are_pinned(name, attr):
    image = assemble(getattr(FIXTURES[name], attr)).image
    assert hashlib.sha256(image.to_bytes()).hexdigest()[:16] == FIXTURE_IMAGES[name, attr]


# Errors the assembler finds while it places statements and collects labels
# (pass 1), and errors it finds only when it encodes them (pass 2): each
# statement and its message.  Every pass-1 error comes before any pass-2
# error, whatever their lines; within a pass the first line wins.
PASS1_ERRORS = {
    "duplicate-label": ("lab:    NOP", "duplicate label 'lab'"),
    "unknown-mnemonic": ("FROB r1", "unknown mnemonic 'FROB'"),
    "label-and-unknown-mnemonic": ("lab:    FROB", "duplicate label 'lab'"),
    "symbolic-org": (".org lab", ".org needs a numeric address"),
    "wide-org": (".org 0x10000", ".org needs a numeric address"),
}
PASS2_ERRORS = {
    "undefined-label": ("JMP nowhere", "undefined label 'nowhere'"),
    "bad-operands": ("MOV r1, 5", "bad operands for MOV: 'r1, 5'"),
    "bad-expression": ("JMP lab+", "bad expression 'lab+'"),
    "blank-address": ("MOV & , r4", "bad expression ''"),
    "wide-immediate": ("MOV r0, #0x10000", "value 0x10000 outside 16-bit range"),
    "negative-target": ("JMP lab - 36868", "value -0x4 outside 16-bit range"),
    "word-undefined": (".word 1, nowhere", "undefined label 'nowhere'"),
    "word-wide-then-undefined": (".word 0x10000, nowhere",
                                 "value 0x10000 outside 16-bit range"),
    "word-empty-item": (".word 1,", "bad expression ''"),
}


def _error(source: str) -> str:
    with pytest.raises(AsmError) as info:
        assemble(source)
    return str(info.value)


@pytest.mark.parametrize("late", PASS1_ERRORS)
@pytest.mark.parametrize("early", PASS2_ERRORS)
def test_pass1_error_on_a_later_line_wins(early, late):
    source = f".org 0x9000\nlab:    NOP\n        {PASS2_ERRORS[early][0]}\n" \
             f"        {PASS1_ERRORS[late][0]}\n"
    assert _error(source) == f"line 4: {PASS1_ERRORS[late][1]}"


@pytest.mark.parametrize("second", PASS2_ERRORS)
@pytest.mark.parametrize("first", PASS2_ERRORS)
def test_first_pass2_error_in_line_order_wins(first, second):
    source = f".org 0x9000\nlab:    NOP\n        {PASS2_ERRORS[first][0]}\n" \
             f"        {PASS2_ERRORS[second][0]}\n"
    assert _error(source) == f"line 3: {PASS2_ERRORS[first][1]}"


@pytest.mark.parametrize("first, message", [
    ("        NOP", "code before any .org"),
    ("lab:", "label before any .org"),
    ("lab:    JMP nowhere", "label before any .org"),
    ("        .word nowhere", "code before any .org"),
])
def test_statement_before_org_is_the_first_error(first, message):
    source = f"{first}\n.org 0x9000\n        FROB\nlab:    NOP\nlab:    NOP\n"
    assert _error(source) == f"line 1: {message}"


def test_assembly_call_budget():
    """Set-up's cost in Python calls, counted with ``sys.setprofile`` rather
    than timed: assembling ``progen`` seeds 0-19 (675 lines) makes at most
    18.4 calls (``call`` plus ``c_call`` events) per line, 0.85x the 21.7 of
    an assembler that tokenised every line in both passes and answered a
    label operand by catching ``int``'s ``ValueError``."""
    sources = [generate(seed).source for seed in range(20)]
    lines = sum(len(source.splitlines()) for source in sources)
    assemble(sources[0])
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        for source in sources:
            assemble(source)
    finally:
        sys.setprofile(None)
    assert lines == 675
    assert count / lines <= 18.4
