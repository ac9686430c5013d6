"""Fixture applications.

Three behavior-shaped sample workloads reproduce the qualitative trigger
patterns of increasingly branch-heavy firmware (a near-branchless sensor
read, a moderately loopy task, and a long loop-heavy task with several times
the log volume), plus a deliberately vulnerable password service: it copies
a word-counted input into an 8-word stack buffer without a bounds check, so
a 12-word (24-byte) input overwrites the return address of the copy routine.
"""

from __future__ import annotations

from dataclasses import dataclass

# password words: "SE", "CR", "ET", "!1"
PW_WORDS = (0x5345, 0x4352, 0x4554, 0x2131)

FEW_BRANCH = """
; near-branchless sensing pass
        .org 0x9000
main:   MOV r0, #3
        CALL ping
        CALL ping
        CALL ping
        JMP fin
ping:   MOV r1, #0x1000
        ADD r1, #7
        RET
fin:    NOP             ; end of the attested region
        HALT
"""

MODERATE = """
; moderately branchy workload: 100 calls in a counted loop
        .org 0x9000
main:   MOV r7, #100
mloop:  CALL work
        SUB r7, #1
        JNZ mloop
        JMP fin
work:   MOV r1, #5
        ADD r1, #1
        RET
fin:    NOP
        HALT
"""

LOOP_HEAVY = """
; long loop-heavy workload, several times the moderate log volume
        .org 0x9000
main:   MOV r7, #300
mloop:  CALL work
        CALL work
        CALL work
        SUB r7, #1
        JNZ mloop
        JMP fin
work:   MOV r1, #5
        ADD r1, #1
        RET
fin:    NOP
        HALT
"""

# The two stack pads keep a 12-word overflow inside data memory.
PASSWORD = """
; password-gated sensing service (vulnerable: unbounded copy in getpw)
        .org 0x9000
start:  PUSH r0
        PUSH r0
        CALL app_main
        HALT

        .org 0x9100
app_main:
        CALL getpw          ; r0 = 1 when the password matched
        CMP r0, #1
        JNZ badpw
        JMP sense
badpw:  JMP done

getpw:  PUSH r0
        PUSH r0
        PUSH r0
        PUSH r0
        PUSH r0
        PUSH r0
        PUSH r0
        PUSH r0             ; 8-word buffer
        MOV r2, SP
        MOV r3, &0x0060     ; input length in words
        MOV r1, #0x0062     ; input payload
cploop: CMP r3, #0
        JZ cpdone
        MOV r4, @r1
        MOV @r2, r4         ; no bounds check
        ADD r1, #2
        ADD r2, #2
        SUB r3, #1
        JMP cploop
cpdone: MOV r2, SP
        MOV r4, @r2
        CMP r4, #0x5345
        JNZ nope
        ADD r2, #2
        MOV r4, @r2
        CMP r4, #0x4352
        JNZ nope
        ADD r2, #2
        MOV r4, @r2
        CMP r4, #0x4554
        JNZ nope
        ADD r2, #2
        MOV r4, @r2
        CMP r4, #0x2131
        JNZ nope
        MOV r0, #1
        JMP gexit
nope:   MOV r0, #0
gexit:  POP r1
        POP r1
        POP r1
        POP r1
        POP r1
        POP r1
        POP r1
        POP r1
        RET

sense:  MOV r5, #6
        MOV r6, #0
        MOV r4, #0x1000     ; reading buffer, clear of protected regions
sloop:  ADD r6, #17
        MOV @r4, r6
        ADD r4, #2
        SUB r5, #1
        JNZ sloop
done:   NOP                 ; end of the attested region
        RET
"""

# Same service with the copy loop clamped to the buffer capacity.
PASSWORD_PATCHED = PASSWORD.replace(
    """cploop: CMP r3, #0
        JZ cpdone
        MOV r4, @r1
        MOV @r2, r4         ; no bounds check
        ADD r1, #2
        ADD r2, #2
        SUB r3, #1
        JMP cploop""",
    """        MOV r5, #8          ; remaining buffer capacity
cploop: CMP r3, #0
        JZ cpdone
        CMP r5, #0
        JZ cpdone
        MOV r4, @r1
        MOV @r2, r4
        ADD r1, #2
        ADD r2, #2
        SUB r3, #1
        SUB r5, #1
        JMP cploop""")


def delay_loop(n: int) -> str:
    """A program whose single backward jump executes exactly ``n`` times."""
    return f"""
        .org 0x9000
main:   MOV r0, #{n + 1}
dloop:  SUB r0, #1
        JNZ dloop
fin:    NOP
        HALT
"""


@dataclass
class Fixture:
    source: str
    ar_labels: tuple[str, str]
    input_words: tuple[int, ...] = ()
    patched_source: str | None = None


def overflow_input(symbols: dict[str, int]) -> tuple[int, ...]:
    """12 words (24 bytes): junk filling the buffer, then the address of the
    sensing block over the stored return address, then trailing junk."""
    gadget = symbols["sense"]
    return tuple([0x4141] * 8 + [gadget, 0x4242, 0x4242, 0x4242])


FIXTURES = {
    "few_branch": Fixture(FEW_BRANCH, ("main", "fin")),
    "moderate": Fixture(MODERATE, ("main", "fin")),
    "loop_heavy": Fixture(LOOP_HEAVY, ("main", "fin")),
    "password": Fixture(PASSWORD, ("app_main", "done"),
                        input_words=PW_WORDS, patched_source=PASSWORD_PATCHED),
}


def encode_input(words: tuple[int, ...]) -> bytes:
    out = bytearray(len(words).to_bytes(2, "little"))
    for w in words:
        out += (w & 0xFFFF).to_bytes(2, "little")
    return bytes(out)
