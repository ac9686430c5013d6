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
import struct
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

# Region bounds the rules compare against: the fixed ones once here, the
# log's and the TCB's end from the layout.  The TCB opens PMEM.
MD_LO = MemoryLayout.metadata_base
MD_HI = MD_LO + METADATA.size
LOG_LO = MemoryLayout.cflog_base
TIMER_LO = MemoryLayout.timer_reg
TIMER_HI = TIMER_LO + TIMER.size
TCB_MIN = MemoryLayout.tcb_min


def boundary_check(bus: SignalBus, layout: MemoryLayout) -> ResetReason | None:
    """Veto writes that would corrupt the log or, from untrusted code or DMA,
    the metadata record."""
    w, dma = bus.w_en, bus.dma_en
    if not (w or dma):
        return None
    log_hi = LOG_LO + layout.cflog_size
    if (w and LOG_LO <= bus.d_addr < log_hi) or (dma and LOG_LO <= bus.dma_addr < log_hi):
        return ResetReason.CFLOG_WRITE
    dma_md = dma and MD_LO <= bus.dma_addr < MD_HI
    if dma_md or (w and MD_LO <= bus.d_addr < MD_HI):
        if not TCB_MIN <= bus.pc <= layout.tcb_max:
            return ResetReason.METADATA_WRITE
        if dma_md:
            return ResetReason.DMA_METADATA
    return None


def timer_write_check(bus: SignalBus, layout: MemoryLayout) -> ResetReason | None:
    """The periodic-report deadline is configurable only by trusted software;
    DMA may never touch it."""
    if bus.w_en and TIMER_LO <= bus.d_addr < TIMER_HI \
            and not TCB_MIN <= bus.pc <= layout.tcb_max:
        return ResetReason.TIMER_WRITE
    if bus.dma_en and TIMER_LO <= bus.dma_addr < TIMER_HI:
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


# Read once; a member read through the class resolves in EnumType.
_REGION_END, _LOG_FULL, _TIMER_EXPIRY = (TriggerKind.REGION_END,
                                         TriggerKind.LOG_FULL, TriggerKind.TIMER)
# The event of every record that appends no entry and raises no trigger,
# and the one event of each trigger raised without an entry.
NO_EVENT = MonitorEvent()
TIMER_EVENT = MonitorEvent(None, _TIMER_EXPIRY)
LOG_FULL_EVENT = MonitorEvent(None, _LOG_FULL)
_SHARED_EVENTS = {None: NO_EVENT, _TIMER_EXPIRY: TIMER_EVENT,
                  _REGION_END: MonitorEvent(None, _REGION_END),
                  _LOG_FULL: LOG_FULL_EVENT}

# The metadata fields the monitor reads on every record, from MD_AR_MIN on,
# and the one it writes.
_AR_CF = struct.Struct(">HHH")      # ar_min | ar_max | cf_size
_CF_SIZE = struct.Struct(">H")
assert MD_CF_SIZE == MD_AR_MIN + 4


class CfaMonitor:
    """Stateful composition of the sub-monitors over one device's memory."""

    __slots__ = ("dmem", "layout", "loop", "timer_count", "_cf_off", "_ar_off",
                 "_log_off", "_tcb_min", "_tcb_max", "_max_entries",
                 "_flush_level", "_ctr_max")

    def __init__(self, dmem: bytearray, layout: MemoryLayout):
        self.dmem = dmem
        self.layout = layout
        self.loop = LoopState()
        self.timer_count = 0     # cycles until the periodic trigger; 0 = disarmed
        md_off = layout.metadata_base - layout.dmem_base
        self._cf_off = md_off + MD_CF_SIZE
        self._ar_off = md_off + MD_AR_MIN
        self._log_off = layout.cflog_base - layout.dmem_base
        self._tcb_min, self._tcb_max = layout.tcb_min, layout.tcb_max
        self._max_entries = layout.max_entries
        self._flush_level = layout.max_entries - FLUSH_RESERVE
        self._ctr_max = (layout.pmem_base << 16) - 1

    # metadata field helpers (big-endian in data memory, identical to the wire)

    @property
    def cf_size(self) -> int:
        return _CF_SIZE.unpack_from(self.dmem, self._cf_off)[0]

    def _set_cf_size(self, v: int) -> None:
        _CF_SIZE.pack_into(self.dmem, self._cf_off, v)

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
        Must be called after veto checks passed.  The region bounds and the
        fill level are read from DMEM once, here."""
        pc = bus.pc
        ar_min, ar_max, cf_size = _AR_CF.unpack_from(self.dmem, self._ar_off)
        # most records are neither an acceptance nor a branch instruction
        branch = (bus.irq_acc or bus.inst in BRANCH_OPS) and is_branch_record(bus)
        if not branch and pc != self._tcb_max and pc != ar_max:
            # nothing to log, no exit to clear the log at, not region end
            # (pc is not ar_max): only log full or an armed timer can fire
            count = self.timer_count
            if count and not self._tcb_min <= pc <= self._tcb_max:
                self.timer_count = count - 1
                if cf_size < self._flush_level:
                    return TIMER_EVENT if count == 1 else NO_EVENT
            return LOG_FULL_EVENT if cf_size >= self._flush_level else NO_EVENT

        # Trusted-software exit frees the log for the next slice.
        if pc == self._tcb_max and bus.inst is not None:
            cf_size = 0
            self._set_cf_size(0)
            self.loop.reset()

        entry = None
        if branch:
            entry, cf_size = self._log_transfer(bus, ar_min, ar_max, cf_size)

        # triggers, by priority: region end, log full, timer expiry
        timer = False
        if self.timer_count > 0 and not self._tcb_min <= pc <= self._tcb_max:
            self.timer_count -= 1
            timer = self.timer_count == 0
        if bus.inst is not None and ar_max != 0 and pc == ar_max:
            trigger = _REGION_END
        elif cf_size >= self._flush_level:
            trigger = _LOG_FULL
        elif timer:
            trigger = _TIMER_EXPIRY
        else:
            trigger = None
        if entry is None:
            return _SHARED_EVENTS[trigger]
        return MonitorEvent(entry, trigger)

    def _log_transfer(self, bus: SignalBus, ar_min: int, ar_max: int,
                      cf_size: int) -> tuple[tuple[int, int] | None, int]:
        """Log the transfer on a branch record: the entry appended, if any,
        and the fill level after the record.  The source of an interrupt
        acceptance is the last retired instruction."""
        src = bus.pc if bus.inst is not None else bus.pc_prev
        dest = bus.pc_next
        loop = self.loop
        if src == loop.src_loop and dest == loop.dest_loop \
                and loop.ctr < self._ctr_max and cf_size < self._max_entries:
            # a repeat of the last logged jump: count it in the uncommitted
            # slot at the fill level.  The pair passed the region test when
            # it was logged, and the bounds change only inside a session,
            # whose exit (or reset) clears the loop state first.
            loop.ctr += 1
            SLOT.pack_into(self.dmem, self._log_off + SLOT.size * cf_size,
                           loop.ctr >> 16, loop.ctr & 0xFFFF)
            return None, cf_size

        if cf_size >= self._max_entries \
                or not (ar_min <= src <= ar_max or ar_min <= dest <= ar_max):
            return None, cf_size
        entry = None
        if loop.ctr > 1:
            # loop left, or its counter saturated: commit the counter slot,
            # then log this transfer
            cf_size += 1
            loop.ctr = 1
        loop.src_loop, loop.dest_loop = src, dest
        if cf_size < self._max_entries:
            SLOT.pack_into(self.dmem, self._log_off + SLOT.size * cf_size, src, dest)
            cf_size += 1
            entry = (src, dest)
        self._set_cf_size(cf_size)
        return entry, cf_size
