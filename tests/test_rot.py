import pytest

from cfasim.isa import Op
from cfasim.mcu import MemoryLayout, SignalBus, load_image
from cfasim.monitor import ResetReason
from cfasim.rot import Mode, RotState, on_reset, rot_check
from cfasim.asm import assemble

LAY = MemoryLayout()


def rec(pc=0x9000, pc_next=None, inst=Op.NOP, **kw):
    if pc_next is None:
        pc_next = (pc + 4) & 0xFFFF
    return SignalBus(pc=pc, pc_prev=kw.pop("pc_prev", pc - 4), pc_next=pc_next,
                     inst=inst, **kw)


def app_rot():
    return RotState(mode=Mode.APP)


def tcb_rot(heal=False):
    return RotState(mode=Mode.TCB, heal_latch=heal)


class TestPmemProtection:
    def test_write_to_tcb_region_resets(self):
        bus = rec(inst=Op.MOV, w_en=True, d_addr=LAY.tcb_min + 8)
        assert rot_check(bus, app_rot(), LAY) is ResetReason.TCB_PMEM_WRITE

    def test_write_to_app_pmem_resets(self):
        bus = rec(inst=Op.MOV, w_en=True, d_addr=0xA000)
        assert rot_check(bus, app_rot(), LAY) is ResetReason.S_PMEM_WRITE

    def test_heal_window_allows_app_pmem_writes(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, w_en=True, d_addr=0xA000)
        assert rot_check(bus, tcb_rot(heal=True), LAY) is None

    def test_heal_window_never_covers_tcb_region(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, w_en=True, d_addr=LAY.tcb_min)
        assert rot_check(bus, tcb_rot(heal=True), LAY) is ResetReason.TCB_PMEM_WRITE

    def test_dma_to_pmem_resets_even_in_heal_window(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, dma_en=True, dma_addr=0xA000)
        assert rot_check(bus, tcb_rot(heal=True), LAY) is ResetReason.S_PMEM_WRITE


class TestTcbAtomicity:
    def test_maskable_acceptance_during_tcb_resets(self):
        bus = rec(pc=LAY.tcb_min, inst=None, irq_acc=True, irq_line=2,
                  pc_next=0x9500)
        assert rot_check(bus, tcb_rot(), LAY) is ResetReason.IRQ_IN_TCB

    def test_nmi_acceptance_during_tcb_allowed(self):
        bus = rec(pc=0x9000, inst=None, irq_acc=True, irq_line=0,
                  pc_next=LAY.tcb_min)
        assert rot_check(bus, tcb_rot(), LAY) is None

    def test_dma_during_tcb_resets(self):
        bus = rec(pc=LAY.tcb_min, dma_en=True, dma_addr=0x1000)
        assert rot_check(bus, tcb_rot(), LAY) is ResetReason.DMA_IN_TCB

    def test_eint_during_tcb_resets(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.EINT)
        assert rot_check(bus, tcb_rot(), LAY) is ResetReason.GIE_IN_TCB

    def test_illegal_exit_resets(self):
        bus = rec(pc=LAY.tcb_min + 8, pc_next=0x9000, inst=Op.JMP)
        assert rot_check(bus, tcb_rot(), LAY) is ResetReason.ILLEGAL_TCB_EXIT

    def test_exit_from_fixed_point_allowed(self):
        bus = rec(pc=LAY.tcb_max, pc_next=0x9000, inst=Op.JMP)
        assert rot_check(bus, tcb_rot(), LAY) is None


class TestTcbEntry:
    def test_jump_into_tcb_interior_resets(self):
        bus = rec(pc=0x9000, pc_next=LAY.tcb_min + 8, inst=Op.JMP)
        assert rot_check(bus, app_rot(), LAY) is ResetReason.ILLEGAL_TCB_ENTRY

    def test_entry_at_fixed_point_allowed(self):
        bus = rec(pc=0x9000, pc_next=LAY.tcb_min, inst=Op.CALL)
        assert rot_check(bus, app_rot(), LAY) is None

    @pytest.mark.parametrize("pc", [LAY.tcb_min, LAY.tcb_min + 8, LAY.tcb_max])
    def test_executing_tcb_code_in_app_mode_resets(self, pc):
        # only a session the RoT opened may run there; the zero-filled region
        # would otherwise carry the application to the log-clearing exit
        bus = rec(pc=pc, pc_next=pc + 4, inst=Op.NOP)
        assert rot_check(bus, app_rot(), LAY) is ResetReason.ILLEGAL_TCB_ENTRY
        assert rot_check(bus, tcb_rot(), LAY) is None


class TestOnReset:
    def test_reset_lands_in_tcb_and_clears_heal_latch(self):
        res = assemble("        .org 0x9000\n        HALT\n", entry=LAY.tcb_min)
        st = load_image(res.image, LAY)
        st.pc = 0x9400
        rot = app_rot()
        rot.heal_latch = True
        on_reset(st, rot)
        assert st.pc == LAY.tcb_min
        assert rot.mode is Mode.TCB
        assert not rot.heal_latch
