import copy

import pytest

from cfasim.asm import assemble
from cfasim.isa import M_IMM, Instr, Op
from cfasim.mcu import (METADATA, NMI_LINE, NUM_IRQ_LINES, TIMER, FaultError,
                        ImageError, LayoutError, MachineError, MemoryLayout, ProgramImage,
                        Segment, _fetch, load_image, raise_irq, render_pmem,
                        reset, step)


def boot(source, layout=None, entry=None):
    layout = layout or MemoryLayout()
    res = assemble(source, entry=entry if entry is not None else layout.tcb_min)
    return load_image(res.image, layout), res.symbols


def run_to_halt(st, limit=10_000):
    buses = []
    while not st.halted and limit:
        _, bus = step(st)
        buses.append(bus)
        limit -= 1
    assert limit, "ran away"
    return buses


# loads and stores that leave DMEM (0x0000-0x3FFF) and PMEM (0x8000-0xFFFF)
UNMAPPED_ACCESSES = {
    "load": "        MOV r1, &0x5000\n",
    "store": "        MOV &0x5000, r1\n",
    "load-straddling-dmem-end": "        MOV r1, &0x3FFF\n",
    "store-straddling-pmem-start": "        MOV &0x7FFF, r1\n",
    "indirect-load": "        MOV r1, #0x5000\n        MOV r2, @r1\n",
}


class TestLayout:
    def test_defaults_are_consistent(self):
        lay = MemoryLayout()
        assert lay.s_base == lay.tcb_max + 4
        assert lay.max_entries == lay.cflog_size // 4

    def test_fixed_regions_disjoint_inside_dmem(self):
        # the log at the largest size the layout accepts
        lay = MemoryLayout(cflog_size=MemoryLayout.dmem_end - MemoryLayout.cflog_base)
        regions = sorted([(lay.metadata_base, METADATA.size),
                          (lay.cflog_base, lay.cflog_size),
                          (lay.ivt_base, 2 * NUM_IRQ_LINES),
                          (lay.timer_reg, TIMER.size),
                          (lay.input_base, lay.input_size)])
        assert regions[0][0] >= lay.dmem_base
        assert regions[-1][0] + regions[-1][1] <= lay.dmem_end
        for (base, size), (next_base, _) in zip(regions, regions[1:]):
            assert base + size <= next_base

    def test_log_past_dmem_end_rejected(self):
        with pytest.raises(LayoutError, match="outside DMEM"):
            MemoryLayout(cflog_size=MemoryLayout.dmem_end - MemoryLayout.cflog_base + 4)

    def test_log_size_must_be_word_multiple(self):
        with pytest.raises(LayoutError):
            MemoryLayout(cflog_size=130)

    @pytest.mark.parametrize("size", [0, 4, 8])
    def test_log_without_room_below_its_reserve_rejected(self, size):
        # the flush fires FLUSH_RESERVE entries before the log is full: a
        # log of fewer slots has none for the slice itself
        with pytest.raises(LayoutError, match="at least 12 bytes"):
            MemoryLayout(cflog_size=size)

    def test_tcb_end_off_instruction_grid_rejected(self):
        # s_base would be 0x9002: every boot would resume mid-instruction
        with pytest.raises(LayoutError, match="instruction grid"):
            MemoryLayout(tcb_max=0x8FFE)

    @pytest.mark.parametrize("tcb_max", [0x7FFC, 0x10000])
    def test_tcb_outside_pmem_rejected(self, tcb_max):
        with pytest.raises(LayoutError, match="TCB outside PMEM"):
            MemoryLayout(tcb_max=tcb_max)

    def test_pmem_past_address_space_rejected(self):
        # pmem_end would be 0x11000, past what a 16-bit address can name
        with pytest.raises(LayoutError, match="16-bit"):
            MemoryLayout(pmem_size=0x9000)


class TestLoadImage:
    def test_minimal_image_boots_into_tcb(self):
        lay = MemoryLayout()
        st, _ = boot("        .org 0x9000\n        HALT\n")
        assert st.pc == lay.tcb_min
        assert not st.gie
        assert st.dma.remaining == 0
        assert st.cycle == 0

    def test_entry_outside_tcb_rejected(self):
        with pytest.raises(ImageError, match="entry"):
            boot("        .org 0x9000\n        HALT\n", entry=0x9000)

    def test_segment_overlapping_metadata_rejected(self):
        lay = MemoryLayout()
        img = ProgramImage(lay.tcb_min, (Segment(lay.metadata_base, b"\xff" * 4),))
        with pytest.raises(ImageError, match="too large"):
            load_image(img, lay)

    def test_segment_past_pmem_end_rejected(self):
        lay = MemoryLayout()
        img = ProgramImage(lay.tcb_min, (Segment(0xFFFE, b"\x00" * 8),))
        with pytest.raises(ImageError, match="too large"):
            load_image(img, lay)

    def test_segment_between_dmem_and_pmem_rejected(self):
        lay = MemoryLayout()
        img = ProgramImage(lay.tcb_min, (Segment(0x5000, b"\x00" * 4),))
        with pytest.raises(ImageError, match="segment base 0x5000 outside memory"):
            load_image(img, lay)

    def test_render_pmem_rejects_segment_past_pmem_end(self):
        lay = MemoryLayout()
        img = ProgramImage(lay.tcb_min, (Segment(0xFFFE, b"\x00" * 8),))
        with pytest.raises(ImageError, match="too large"):
            render_pmem(img, lay)

    def test_pmem_matches_assembled_bytes(self):
        from cfasim.apps import PASSWORD
        lay = MemoryLayout()
        res = assemble(PASSWORD, entry=lay.tcb_min)
        st = load_image(res.image, lay)
        for seg in res.image.segments:
            off = seg.base - lay.pmem_base
            assert bytes(st.pmem[off:off + len(seg.data)]) == seg.data

    def test_image_file_roundtrip(self):
        res = assemble("        .org 0x9000\n        NOP\n        HALT\n")
        raw = res.image.to_bytes()
        assert raw[:4] == b"TMCU"
        assert ProgramImage.from_bytes(raw) == res.image

    @pytest.mark.parametrize("keep, message", [
        (10, "truncated segment header"),   # 8-byte header, 2 of 4 segment-header bytes
        (-1, "truncated segment data"),
    ])
    def test_truncated_image_file_rejected(self, keep, message):
        raw = assemble("        .org 0x9000\n        NOP\n").image.to_bytes()
        with pytest.raises(ImageError, match=message):
            ProgramImage.from_bytes(raw[:keep])


class TestStep:
    def test_call_bus_record(self):
        st, _ = boot("""
        .org 0xA000
        CALL 0xB000
        .org 0xB000
        HALT
""")
        st.pc = 0xA000
        sp0 = st.sp
        _, bus = step(st)
        assert bus.inst is Op.CALL
        assert bus.pc == 0xA000
        assert bus.pc_next == 0xB000
        assert bus.w_en and bus.d_addr == sp0 - 2
        assert st.pc == 0xB000
        assert st.read16(st.sp) == 0xA004

    def test_nop_advances_without_write(self):
        st, _ = boot("        .org 0x9000\n        NOP\n        HALT\n")
        st.pc = 0x9000
        _, bus = step(st)
        assert bus.inst is Op.NOP and not bus.w_en
        assert st.pc == 0x9004

    def test_halt_freezes_pc(self):
        st, _ = boot("        .org 0x9000\n        HALT\n")
        st.pc = 0x9000
        _, bus = step(st)
        assert st.halted and bus.pc_next == 0x9000

    def test_conditional_taken_and_not_taken(self):
        st, sym = boot("""
        .org 0x9000
start:  MOV r0, #1
        CMP r0, #1
        JZ hit
        HALT
hit:    CMP r0, #2
        JZ start
        HALT
""")
        st.pc = 0x9000
        run_to_halt(st)
        assert st.pc == sym["hit"] + 8   # second JZ fell through

    def test_stack_roundtrip(self):
        st, _ = boot("""
        .org 0x9000
        MOV r1, #0x1234
        PUSH r1
        POP r2
        HALT
""")
        st.pc = 0x9000
        run_to_halt(st)
        assert st.regs[2] == 0x1234

    def test_ret_returns_to_call_site(self):
        st, sym = boot("""
        .org 0x9000
        CALL fn
        HALT
fn:     RET
""")
        st.pc = 0x9000
        run_to_halt(st)
        assert st.pc == 0x9004

    def test_illegal_opcode_faults(self):
        lay = MemoryLayout()
        img = ProgramImage(lay.tcb_min, (Segment(0x9000, bytes([0xFF, 0, 0, 0])),))
        st = load_image(img, lay)
        st.pc = 0x9000
        with pytest.raises(FaultError, match="illegal-opcode"):
            step(st)

    def test_misaligned_pc_faults(self):
        st, _ = boot("        .org 0x9000\n        HALT\n")
        st.pc = 0x9001
        with pytest.raises(FaultError, match="misaligned"):
            step(st)

    def test_pc_outside_pmem_faults(self):
        st, _ = boot("        .org 0x9000\n        HALT\n")
        st.pc = 0x1000          # aligned, but in DMEM
        with pytest.raises(FaultError, match="pc-outside-pmem"):
            step(st)

    def test_stepping_a_halted_core_raises(self):
        st, _ = boot("        .org 0x9000\n        HALT\n")
        st.pc = 0x9000
        run_to_halt(st)
        with pytest.raises(MachineError, match="halted"):
            step(st)

    def test_stack_underflow_faults(self):
        st, _ = boot("        .org 0x9000\n        RET\n")
        st.pc = 0x9000
        with pytest.raises(FaultError, match="underflow"):
            step(st)

    @pytest.mark.parametrize("line", ["PUSH r1", "CALL fn", "CALLI r1"])
    def test_stack_overflow_faults_before_the_push(self, line):
        st, _ = boot(f"        .org 0x9000\n        {line}\nfn:     HALT\n")
        st.pc, st.regs[1] = 0x9000, 0x9004
        st.sp = MemoryLayout().dmem_base
        dmem = bytes(st.dmem)
        with pytest.raises(FaultError, match="stack-overflow"):
            step(st)
        assert (st.pc, st.sp, st.retired) == (0x9000, MemoryLayout().dmem_base, 0)
        assert bytes(st.dmem) == dmem

    @pytest.mark.parametrize("name", sorted(UNMAPPED_ACCESSES))
    def test_unmapped_access_faults(self, name):
        source = UNMAPPED_ACCESSES[name]
        st, _ = boot(f"        .org 0x9000\n{source}        HALT\n")
        st.pc = 0x9000
        with pytest.raises(FaultError, match="unmapped-access"):
            run_to_halt(st)
        # the faulting instruction, the last of the source, did not retire
        assert st.pc == 0x9000 + 4 * (source.count("\n") - 1)

    def test_sp_read_mode(self):
        st, _ = boot("        .org 0x9000\n        MOV r3, SP\n        HALT\n")
        st.pc = 0x9000
        run_to_halt(st)
        assert st.regs[3] == MemoryLayout().dmem_end


class TestInterrupts:
    SRC = """
        .org 0x9000
main:   EINT
        NOP
        NOP
        NOP
        NOP
        HALT
isr:    MOV r5, #1
        RETI
        .org 0x0042
        .word isr
"""

    def test_masked_line_stays_pending(self):
        st, _ = boot(self.SRC)
        st.pc = 0x9004  # past EINT, gie still 0
        raise_irq(st, 1)
        _, bus = step(st)
        assert not bus.irq_acc
        assert 1 in st.pending_irq

    def test_acceptance_after_one_inflight_instruction(self):
        st, sym = boot(self.SRC)
        st.pc = 0x9000
        step(st)                      # EINT retires
        raise_irq(st, 1)
        _, bus = step(st)             # in-flight NOP retires with irq pending
        assert 1 in st.pending_irq and not bus.irq_acc
        _, bus = step(st)
        assert bus.irq_acc and bus.inst is None
        assert bus.pc_next == sym["isr"]
        assert bus.pc_prev == 0x9004  # the last retired instruction
        assert not st.gie

    def test_reti_resumes_interrupted_flow(self):
        st, sym = boot(self.SRC)
        st.pc = 0x9000
        step(st)
        raise_irq(st, 1)
        step(st)   # in-flight
        step(st)   # acceptance
        while st.pc != 0x9008 and not st.halted:
            step(st)
        assert st.regs[5] == 1        # handler ran
        assert st.gie                 # RETI re-enabled interrupts

    def test_priority_lowest_line_first(self):
        st, sym = boot(self.SRC)
        st.pc = 0x9000
        st.write16(MemoryLayout().ivt_base + 4, sym["isr"])  # line 2 -> isr too
        step(st)
        raise_irq(st, 2)
        raise_irq(st, 1)
        step(st)
        _, bus = step(st)
        assert bus.irq_acc and bus.irq_line == 1

    def test_nmi_ignores_gie(self):
        st, _ = boot(self.SRC)
        st.pc = 0x9004     # gie = 0
        raise_irq(st, NMI_LINE)
        _, bus = step(st)     # in-flight
        _, bus = step(st)
        assert bus.irq_acc and bus.irq_line == NMI_LINE
        assert bus.pc_next == MemoryLayout().tcb_min

    def test_dint_clears_gie(self):
        st, _ = boot("        .org 0x9000\n        EINT\n        DINT\n        HALT\n")
        st.pc = 0x9000
        step(st)
        assert st.gie
        step(st)
        assert not st.gie

    def test_maskable_acceptance_overflowing_the_stack_faults(self):
        st, _ = boot(self.SRC)
        st.pc = 0x9000
        step(st)                      # EINT retires
        raise_irq(st, 1)
        step(st)                      # in-flight NOP retires
        st.sp = MemoryLayout().dmem_base
        with pytest.raises(FaultError, match="stack-overflow"):
            step(st)                  # the acceptance would push pc
        assert st.pc == 0x9008 and st.gie and 1 in st.pending_irq

    def test_unknown_line_rejected(self):
        st, _ = boot(self.SRC)
        with pytest.raises(Exception, match="unknown"):
            raise_irq(st, 12)


class TestReset:
    def test_reset_restores_boot_window(self):
        st, _ = boot("        .org 0x9000\n        EINT\n        HALT\n")
        st.pc = 0x9000
        step(st)
        st.dma.remaining = 3
        raise_irq(st, 1)
        reset(st)
        lay = MemoryLayout()
        assert st.pc == lay.tcb_min
        assert not st.gie and st.dma.remaining == 0 and not st.pending_irq

    def test_reset_preserves_memories(self):
        st, _ = boot("        .org 0x9000\n        HALT\n")
        lay = MemoryLayout()
        st.dmem[lay.cflog_base - lay.dmem_base] = 0xAB
        st.write16(0x1000, 0x1234)
        pmem_before = bytes(st.pmem)
        reset(st)
        assert bytes(st.pmem) == pmem_before
        assert st.dmem[lay.cflog_base - lay.dmem_base] == 0xAB
        assert st.read16(0x1000) == 0x1234

    def test_reset_idempotent_modulo_cycles(self):
        st, _ = boot("        .org 0x9000\n        HALT\n")
        a = reset(copy.deepcopy(st))
        b = reset(reset(copy.deepcopy(st)))
        a.cycle = b.cycle = 0
        assert a.pc == b.pc and a.regs == b.regs and a.sp == b.sp
        assert bytes(a.dmem) == bytes(b.dmem)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        src = """
        .org 0x9000
main:   MOV r0, #5
loop:   SUB r0, #1
        JNZ loop
        CALL fn
        HALT
fn:     RET
"""
        def trace():
            st, _ = boot(src)
            st.pc = 0x9000
            return [(b.pc, b.pc_next, b.inst, b.w_en, b.d_addr)
                    for b in run_to_halt(st)]
        assert trace() == trace()


class TestDma:
    def test_dma_emits_one_byte_write_per_cycle(self):
        st, _ = boot("        .org 0x9000\n        NOP\n        NOP\n        HALT\n")
        st.pc = 0x9000
        st.dma.next_addr = 0x1000
        st.dma.remaining = 2
        st.dma.value = 0x7F
        _, bus = step(st)
        assert bus.dma_en and bus.dma_addr == 0x1000
        _, bus = step(st)
        assert bus.dma_en and bus.dma_addr == 0x1001
        _, bus = step(st)
        assert not bus.dma_en
        assert st.dmem[0x1000] == 0x7F and st.dmem[0x1001] == 0x7F

    def test_dma_byte_rides_an_acceptance(self):
        st, sym = boot(TestInterrupts.SRC)
        st.pc = 0x9000
        step(st)                      # EINT retires
        raise_irq(st, 1)
        step(st)                      # in-flight NOP retires
        st.dma.next_addr, st.dma.remaining, st.dma.value = 0x1000, 1, 0x5A
        _, bus = step(st)
        assert bus.irq_acc and bus.pc_next == sym["isr"]
        assert bus.dma_en and bus.dma_addr == 0x1000
        assert st.dmem[0x1000] == 0x5A and st.dma.remaining == 0


class TestDecodeCache:
    SRC = """
        .org 0x9000
main:   MOV r1, #1
        ADD r1, #2
        HALT
"""

    def test_pmem_store_invalidates(self):
        st, sym = boot(self.SRC)
        st.pc = sym["main"]
        assert _fetch(st).op is Op.MOV
        assert st.decoded
        st.store(sym["main"], Instr(Op.SUB, M_IMM, 1, 0, 7).encode())
        assert not st.decoded
        assert _fetch(st) == Instr(Op.SUB, M_IMM, 1, 0, 7)

    def test_dmem_store_keeps_cache(self):
        st, sym = boot(self.SRC)
        st.pc = sym["main"]
        ins = _fetch(st)
        st.store(0x1000, b"\xff\xff")
        st.write16(st.layout.cflog_base, 0xBEEF)
        assert st.decoded == {sym["main"]: ins}
        assert _fetch(st) is ins

    def test_illegal_opcode_faults_on_every_fetch(self):
        st, sym = boot(self.SRC)
        st.pc = sym["main"]
        st.store(sym["main"], bytes([31 << 3, 0, 0, 0]))   # opcode class 31
        for _ in range(3):
            with pytest.raises(FaultError, match="illegal-opcode"):
                _fetch(st)
            assert sym["main"] not in st.decoded

    def test_cached_run_matches_fresh_decode(self):
        # a program that rewrites nothing retires the same records with the
        # cache warm as with it emptied before every fetch
        src = """
        .org 0x9000
main:   MOV r1, #3
loop:   SUB r1, #1
        JNZ loop
        HALT
"""
        warm, _ = boot(src)
        cold = copy.deepcopy(warm)
        warm.pc = cold.pc = warm.layout.s_base
        cold_buses = []
        while not cold.halted:
            cold.decoded.clear()
            cold_buses.append(step(cold)[1])
        assert run_to_halt(warm) == cold_buses
        assert len(warm.decoded) == 4
