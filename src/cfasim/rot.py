"""Active root of trust: converts any interference with trusted-software
execution, and any illegal program-memory write, into an immediate reset.
After every reset the trusted software is the first thing to run, so a
violation always ends in a report rather than in silence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .isa import EINT
from .mcu import MemoryLayout, NMI_LINE, McuState, SignalBus, reset as mcu_reset
from .monitor import ResetReason

# An undelivered trigger may outlive at most this many cycles before the
# watchdog treats it as suppressed and forces a reset.
NMI_ACCEPT_BOUND = 3


class Mode(enum.Enum):
    APP = "app"
    TCB = "tcb"


@dataclass
class RotState:
    mode: Mode = Mode.TCB          # boot starts inside the trusted software
    heal_latch: bool = False       # set only while the heal phase may patch S


_TCB = Mode.TCB     # read once; a member read resolves through EnumType


def rot_check(bus: SignalBus, rot: RotState, layout: MemoryLayout) -> ResetReason | None:
    """Evaluate one bus record against the RoT rules; a reason means veto."""
    tcb_min, tcb_max = layout.tcb_min, layout.tcb_max
    pc = bus.pc
    pc_in = tcb_min <= pc <= tcb_max
    # (a) program memory is immutable at runtime; the one exception is the
    # heal window, which may rewrite application code but never the TCB
    # (the TCB opens PMEM, so a PMEM address up to tcb_max is in it).
    w = bus.w_en
    if w and layout.pmem_base <= bus.d_addr < layout.pmem_end:
        if bus.d_addr <= tcb_max:
            return ResetReason.TCB_PMEM_WRITE
        if not (rot.heal_latch and pc_in):
            return ResetReason.S_PMEM_WRITE
    if bus.dma_en and layout.pmem_base <= bus.dma_addr < layout.pmem_end:
        if bus.dma_addr <= tcb_max:
            return ResetReason.TCB_PMEM_WRITE
        if not (rot.heal_latch and w and pc_in):
            return ResetReason.S_PMEM_WRITE

    nxt = bus.pc_next
    if rot.mode is _TCB:
        # (b) nothing may interleave with the trusted software
        if bus.irq_acc and bus.irq_line != NMI_LINE:
            return ResetReason.IRQ_IN_TCB
        if bus.dma_en:
            return ResetReason.DMA_IN_TCB
        if bus.inst is EINT:
            return ResetReason.GIE_IN_TCB
        if pc_in:
            # (d) fixed exit point; rule (c) needs pc outside the TCB
            if not tcb_min <= nxt <= tcb_max and pc != tcb_max:
                return ResetReason.ILLEGAL_TCB_EXIT
            return None
    elif pc_in:
        # (e) the trusted software runs only as a session the RoT opened; an
        # application that reaches the TCB on its own (a legal-entry jump or
        # a forced NMI without a trigger) would otherwise slide through it to
        # the exit point, where the log is cleared unreported
        return ResetReason.ILLEGAL_TCB_ENTRY

    # (c) fixed entry point, regardless of mode
    if not pc_in and tcb_min < nxt <= tcb_max:
        return ResetReason.ILLEGAL_TCB_ENTRY
    return None


def on_reset(state: McuState, rot: RotState) -> McuState:
    """Reset the core.  Guarantees the first post-reset activity is the
    trusted software (the core restarts at its entry point with interrupts
    and DMA disabled)."""
    rot.mode = Mode.TCB
    rot.heal_latch = False
    return mcu_reset(state)
