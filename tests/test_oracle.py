"""Sanity checks of the golden interpreter itself on hand-computable
programs, and of the monitor pipeline against it on deterministic fixtures."""

import hashlib

from helpers.golden import golden_region_trace
from helpers.progen import SMALL_LAYOUT

from cfasim.apps import delay_loop
from cfasim.asm import assemble
from cfasim.mcu import MemoryLayout
from cfasim.scenario import Outcome, decompress_entries, run_image

LAY = MemoryLayout()


def build(source, layout=LAY):
    return assemble(source, entry=layout.tcb_min)


def test_delay_loop_trace_is_n_identical_jumps():
    for n in (1, 2, 7):
        res = build(delay_loop(n))
        trace = golden_region_trace(res.image, LAY,
                                    (res.symbols["main"], res.symbols["fin"]))
        jnz = res.symbols["dloop"] + 4
        assert trace == [(jnz, res.symbols["dloop"])] * n


def test_nested_calls_depth_three_lifo():
    res = build("""
        .org 0x9000
main:   CALL a
fin:    NOP
        HALT
a:      CALL b
        RET
b:      CALL c
        RET
c:      RET
""")
    s = res.symbols
    trace = golden_region_trace(res.image, LAY, (s["main"], s["c"]))
    assert trace == [
        (s["main"], s["a"]),
        (s["a"], s["b"]),
        (s["b"], s["c"]),
        (s["c"], s["b"] + 4),
        (s["b"] + 4, s["a"] + 4),
        (s["a"] + 4, s["main"] + 4),
    ]


def test_interrupt_attribution_to_last_retired():
    res = build("""
        .org 0x9000
main:   EINT
        NOP
        NOP
fin:    NOP
        HALT
isr:    RETI
        .org 0x0042
        .word isr
""")
    s = res.symbols
    # raised after the 2nd retire; one in-flight retire; accepted before the 4th
    trace = golden_region_trace(res.image, LAY, (s["main"], s["fin"]),
                                irq_at_retire={2: (1,)})
    assert trace[0] == (0x9008, s["isr"])       # src is the NOP that retired
    assert trace[1] == (s["isr"], 0x900C)       # RETI back to the next address


PIPELINE_FIXTURES = {
    "call-loop": """
        .org 0x9000
main:   MOV r7, #5
loop:   CALL work
        SUB r7, #1
        JNZ loop
fin:    NOP
        HALT
work:   RET
""",
    # CALLI and indexed MOV loads and stores; the loop counter round-trips
    # through memory, and work is a known entry both as a direct CALL target
    # and as the address MOV r1, #work takes
    "calli-indexed": """
        .org 0x9000
main:   MOV r7, #3
        MOV r1, #work
        MOV r2, #0x1000
loop:   CALLI r1
        MOV 2(r2), r7
        MOV r3, 2(r2)
        SUB r3, #1
        MOV r7, r3
        JNZ loop
        CALL work
fin:    NOP
        HALT
work:   RET
""",
}


def test_monitor_pipeline_matches_oracle_on_fixture():
    for name, src in PIPELINE_FIXTURES.items():
        res = assemble(src, entry=SMALL_LAYOUT.tcb_min)
        ar = (res.symbols["main"], res.symbols["fin"])
        result = run_image(res.image, ar, SMALL_LAYOUT,
                           key_bytes=hashlib.sha256(b"fx").digest())
        assert all(" app=1 " in line for line in result.audit), name
        got = []
        for rep in result.reports:
            ents = decompress_entries(rep.entries)
            got.extend(e for e in ents
                       if not (SMALL_LAYOUT.in_tcb(e[0]) or SMALL_LAYOUT.in_tcb(e[1])))
        assert got == golden_region_trace(res.image, SMALL_LAYOUT, ar), name


def test_calli_to_address_taken_target_completes():
    # without CALL work, only MOV r1, #work names the CALLI target
    src = PIPELINE_FIXTURES["calli-indexed"].replace("        CALL work\n", "")
    res = assemble(src, entry=SMALL_LAYOUT.tcb_min)
    assert "CALL work" not in src
    ar = (res.symbols["main"], res.symbols["fin"])
    result = run_image(res.image, ar, SMALL_LAYOUT,
                       key_bytes=hashlib.sha256(b"fx").digest())
    assert result.outcome is Outcome.COMPLETED
    assert all(" app=1 " in line for line in result.audit)
