"""Control-flow attestation hardware model.

Five cooperating sub-monitors are evaluated against every bus record:

* boundary monitor  - vetoes illegal writes to the metadata / log regions
* branch monitor    - flags taken control-flow transfers; the jump into an
                      interrupt handler is the acceptance record itself,
                      which the core flags with ``irq_acc``
* log monitor       - tracks the log fill level, clears it on trusted-software
                      exit and asserts the flush trigger
* loop monitor      - compresses repeated backward jumps into one entry plus
                      an iteration counter; the counter is rewritten in the
                      slot at the fill level and committed when the loop is
                      left.  The counter saturates at ``(pmem_base << 16)
                      - 1`` so ``wire.decode_log`` still tells it from a
                      transfer; a further repeat commits it as a new pair
* logger            - appends (source, destination) pairs to the protected
                      log region in data memory

Everything here is a pure function of (bus record, monitor state, memory
view): replaying a recorded trace through a fresh monitor over the same
initial memory reproduces the identical log bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .isa import INSTR_SIZE, BRANCH_OPS, JNZ, JZ
from .mcu import (MD_AR_MIN, MD_CF_SIZE, METADATA, SLOT, TIMER, MemoryLayout,
                  SignalBus)

# The flush trigger fires this many entries before the log is physically
# full.  Two slots are always enough for everything that can still land
# between the flush assertion and the trusted-software entry (one possible
# loop-counter commit plus the acceptance jump itself), so no transfer in
# the attested region is ever dropped.
FLUSH_RESERVE = 2


class ResetReason(enum.Enum):
    CFLOG_WRITE = "cflog-write"
    METADATA_WRITE = "metadata-write"
    DMA_METADATA = "dma-metadata"
    TIMER_WRITE = "timer-write"
    TCB_PMEM_WRITE = "tcb-pmem-write"
    S_PMEM_WRITE = "s-pmem-write"
    IRQ_IN_TCB = "irq-in-tcb"
    DMA_IN_TCB = "dma-in-tcb"
    GIE_IN_TCB = "gie-in-tcb"
    ILLEGAL_TCB_ENTRY = "illegal-tcb-entry"
    ILLEGAL_TCB_EXIT = "illegal-tcb-exit"
    TRIGGER_SUPPRESSED = "trigger-suppressed"
    MACHINE_FAULT = "machine-fault"


class TriggerKind(enum.IntEnum):
    """Why the trusted software was invoked (wire annotation byte)."""
    BOOT = 1
    TIMER = 2
    LOG_FULL = 3
    REGION_END = 4
    VIOLATION = 5


@dataclass
class Metadata:
    """Decoded view of the protected metadata record."""
    chal: int = 0
    ar_min: int = 0
    ar_max: int = 0
    cf_size: int = 0

    def pack(self) -> bytes:
        return METADATA.pack(self.chal, self.ar_min, self.ar_max, self.cf_size)


def read_metadata(dmem: bytearray, layout: MemoryLayout) -> Metadata:
    off = layout.metadata_base - layout.dmem_base
    return Metadata(*METADATA.unpack_from(dmem, off))


def write_metadata(dmem: bytearray, layout: MemoryLayout, md: Metadata) -> None:
    off = layout.metadata_base - layout.dmem_base
    METADATA.pack_into(dmem, off, md.chal, md.ar_min, md.ar_max, md.cf_size)


def read_log_entries(dmem: bytearray, layout: MemoryLayout, count: int) -> list[tuple[int, int]]:
    off = layout.cflog_base - layout.dmem_base
    return list(SLOT.iter_unpack(dmem[off:off + SLOT.size * count]))


# ---------------------------------------------------------------------------
# Boundary monitor
# ---------------------------------------------------------------------------

def modify_mem(bus: SignalBus, member) -> bool:
    """CPU or DMA write into the region described by predicate ``member``."""
    return (bus.w_en and member(bus.d_addr)) or (bus.dma_en and member(bus.dma_addr))


def boundary_check(bus: SignalBus, layout: MemoryLayout) -> ResetReason | None:
    """Veto writes that would corrupt the log or, from untrusted code or DMA,
    the metadata record."""
    if modify_mem(bus, layout.in_cflog):
        return ResetReason.CFLOG_WRITE
    if modify_mem(bus, layout.in_metadata) and not layout.in_tcb(bus.pc):
        return ResetReason.METADATA_WRITE
    if bus.dma_en and layout.in_metadata(bus.dma_addr):
        return ResetReason.DMA_METADATA
    return None


def timer_write_check(bus: SignalBus, layout: MemoryLayout) -> ResetReason | None:
    """The periodic-report deadline is configurable only by trusted software;
    DMA may never touch it."""
    if bus.w_en and layout.in_timer(bus.d_addr) and not layout.in_tcb(bus.pc):
        return ResetReason.TIMER_WRITE
    if bus.dma_en and layout.in_timer(bus.dma_addr):
        return ResetReason.TIMER_WRITE
    return None


# ---------------------------------------------------------------------------
# Branch monitor
# ---------------------------------------------------------------------------

def is_branch_record(bus: SignalBus) -> bool:
    """Taken control-flow transfer on this record (instruction or interrupt)."""
    if bus.irq_acc:
        return True
    op = bus.inst
    if op not in BRANCH_OPS:
        return False
    if (op is JZ or op is JNZ) and bus.pc_next == (bus.pc + INSTR_SIZE) & 0xFFFF:
        return False      # not taken: no transfer occurs
    return True


def transfer_of(bus: SignalBus) -> tuple[int, int]:
    """(source, destination) pair of the transfer on this record.  For an
    interrupt acceptance the source is the last retired instruction."""
    src = bus.pc if bus.inst is not None else bus.pc_prev
    return src, bus.pc_next


# ---------------------------------------------------------------------------
# Loop monitor
# ---------------------------------------------------------------------------

@dataclass
class LoopState:
    src_loop: int | None = None
    dest_loop: int | None = None
    ctr: int = 1

    def reset(self) -> None:
        self.src_loop = None
        self.dest_loop = None
        self.ctr = 1


# ---------------------------------------------------------------------------
# The composite monitor
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MonitorEvent:
    """What one record did that a caller reads: the entry it appended and
    the trigger it raised."""
    entry: tuple[int, int] | None = None
    trigger: TriggerKind | None = None


# The event of every record that appends no entry and raises no trigger.
NO_EVENT = MonitorEvent()


class CfaMonitor:
    """Stateful composition of the sub-monitors over one device's memory."""

    def __init__(self, dmem: bytearray, layout: MemoryLayout):
        self.dmem = dmem
        self.layout = layout
        self.loop = LoopState()
        self.timer_count = 0     # cycles until the periodic trigger; 0 = disarmed
        md_off = layout.metadata_base - layout.dmem_base
        self._cf_off = md_off + MD_CF_SIZE
        self._ar_off = md_off + MD_AR_MIN
        self._log_off = layout.cflog_base - layout.dmem_base
        self._max_entries = layout.max_entries
        self._flush_level = layout.max_entries - FLUSH_RESERVE
        self._ctr_max = (layout.pmem_base << 16) - 1

    # metadata field helpers (big-endian in data memory, identical to the wire)

    @property
    def cf_size(self) -> int:
        o = self._cf_off
        return (self.dmem[o] << 8) | self.dmem[o + 1]

    def _set_cf_size(self, v: int) -> None:
        o = self._cf_off
        self.dmem[o] = (v >> 8) & 0xFF
        self.dmem[o + 1] = v & 0xFF

    def _ar_bounds(self) -> tuple[int, int]:
        return SLOT.unpack_from(self.dmem, self._ar_off)

    def _ar_max(self) -> int:
        o = self._ar_off + 2
        return (self.dmem[o] << 8) | self.dmem[o + 1]

    def arm_timer(self) -> None:
        off = self.layout.timer_reg - self.layout.dmem_base
        self.timer_count = TIMER.unpack_from(self.dmem, off)[0]

    def hw_reset(self) -> None:
        """Device reset: sequential monitor state clears; the log and its
        metadata-held size survive so the post-reset report still carries
        everything captured before the reset."""
        self.loop.reset()
        self.timer_count = 0

    # the per-record pipeline

    def observe(self, bus: SignalBus) -> MonitorEvent:
        """Digest one committed bus record: update the loop state, the log
        and its fill counter, and report any trigger that the record caused.
        Must be called after veto checks passed."""
        pc = bus.pc
        branch = is_branch_record(bus)
        if not branch and not self.timer_count and pc != self.layout.tcb_max \
                and pc != self._ar_max() and self.cf_size < self._flush_level:
            # nothing to log, no exit to clear the log at, and no trigger:
            # not region end (pc is not ar_max), not log full, timer disarmed
            return NO_EVENT

        # Trusted-software exit frees the log for the next slice.
        if pc == self.layout.tcb_max and bus.inst is not None:
            self._set_cf_size(0)
            self.loop.reset()

        entry = self._log_transfer(bus) if branch else None
        trigger = self._trigger_eval(bus)
        if entry is None and trigger is None:
            return NO_EVENT
        return MonitorEvent(entry, trigger)

    def _log_transfer(self, bus: SignalBus) -> tuple[int, int] | None:
        """Log the transfer on a branch record; the entry appended, if any."""
        src, dest = transfer_of(bus)
        loop = self.loop
        if src == loop.src_loop and dest == loop.dest_loop \
                and loop.ctr < self._ctr_max and self.cf_size < self._max_entries:
            # a repeat of the last logged jump: count it in the uncommitted
            # slot at the fill level.  The pair passed the region test when
            # it was logged, and the bounds change only inside a session,
            # whose exit (or reset) clears the loop state first.
            loop.ctr += 1
            self._write_counter(loop)
            return None

        ar_min, ar_max = self._ar_bounds()
        if self.cf_size >= self._max_entries \
                or not (ar_min <= src <= ar_max or ar_min <= dest <= ar_max):
            return None
        if loop.ctr > 1:
            # loop left, or its counter saturated: commit the counter slot,
            # then log this transfer
            self._set_cf_size(self.cf_size + 1)
            loop.ctr = 1
        loop.src_loop, loop.dest_loop = src, dest
        if self.cf_size < self._max_entries:
            return self._append(src, dest)
        return None

    def _append(self, src: int, dest: int) -> tuple[int, int]:
        slot = self.cf_size
        SLOT.pack_into(self.dmem, self._log_off + SLOT.size * slot, src, dest)
        self._set_cf_size(slot + 1)
        return src, dest

    def _write_counter(self, loop: LoopState) -> None:
        SLOT.pack_into(self.dmem, self._log_off + SLOT.size * self.cf_size,
                       loop.ctr >> 16, loop.ctr & 0xFFFF)

    def _trigger_eval(self, bus: SignalBus) -> TriggerKind | None:
        lay = self.layout
        ar_max = self._ar_max()
        region_end = bus.inst is not None and ar_max != 0 and bus.pc == ar_max
        flush = self.cf_size >= self._flush_level
        timer = False
        if self.timer_count > 0 and not lay.in_tcb(bus.pc):
            self.timer_count -= 1
            timer = self.timer_count == 0
        if region_end:
            return TriggerKind.REGION_END
        if flush:
            return TriggerKind.LOG_FULL
        if timer:
            return TriggerKind.TIMER
        return None
