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
                      log region in data memory: each transfer with an end
                      in the attested region, and each acceptance whose
                      interrupted address lies in it, so an interrupt
                      accepted right after a call into the region still
                      tells the verifier where execution resumes

Every record takes one path through ``CfaMonitor.observe``, which reads and
writes the protected records at their fixed DMEM offsets (``mcu.MD_OFF``,
``LOG_OFF``, ``TIMER_OFF``).

Everything here is a pure function of (bus record, monitor state, memory
view): replaying a recorded trace through a fresh monitor over the same
initial memory reproduces the identical log bytes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .isa import INSTR_SIZE, BRANCH_OPS, JNZ, JZ
from .mcu import (FLUSH_RESERVE, LOG_OFF, MD_CF_SIZE, MD_OFF, METADATA, SLOT,
                  TIMER, TIMER_OFF, MemoryLayout, SignalBus)


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


@dataclass(slots=True)
class Metadata:
    """Decoded view of the protected metadata record."""
    chal: int = 0
    ar_min: int = 0
    ar_max: int = 0
    cf_size: int = 0

    def pack(self) -> bytes:
        return METADATA.pack(self.chal, self.ar_min, self.ar_max, self.cf_size)


def read_metadata(dmem: bytearray) -> Metadata:
    return Metadata(*METADATA.unpack_from(dmem, MD_OFF))


def write_metadata(dmem: bytearray, md: Metadata) -> None:
    METADATA.pack_into(dmem, MD_OFF, md.chal, md.ar_min, md.ar_max, md.cf_size)


def read_log_entries(dmem: bytearray, count: int) -> list[tuple[int, int]]:
    return list(SLOT.iter_unpack(dmem[LOG_OFF:LOG_OFF + SLOT.size * count]))


# ---------------------------------------------------------------------------
# Boundary monitor
# ---------------------------------------------------------------------------

def boundary_check(bus: SignalBus, layout: MemoryLayout) -> ResetReason | None:
    """Veto writes that would corrupt the log or, from untrusted code or DMA,
    the metadata record."""
    w, dma = bus.w_en, bus.dma_en
    if not (w or dma):
        return None
    log_lo = layout.cflog_base
    log_hi = log_lo + layout.cflog_size
    if (w and log_lo <= bus.d_addr < log_hi) or (dma and log_lo <= bus.dma_addr < log_hi):
        return ResetReason.CFLOG_WRITE
    md_lo = layout.metadata_base
    md_hi = md_lo + METADATA.size
    dma_md = dma and md_lo <= bus.dma_addr < md_hi
    if dma_md or (w and md_lo <= bus.d_addr < md_hi):
        if not layout.tcb_min <= bus.pc <= layout.tcb_max:
            return ResetReason.METADATA_WRITE
        if dma_md:
            return ResetReason.DMA_METADATA
    return None


def timer_write_check(bus: SignalBus, layout: MemoryLayout) -> ResetReason | None:
    """The periodic-report deadline is configurable only by trusted software;
    DMA may never touch it."""
    lo = layout.timer_reg
    hi = lo + TIMER.size
    if bus.w_en and lo <= bus.d_addr < hi \
            and not layout.tcb_min <= bus.pc <= layout.tcb_max:
        return ResetReason.TIMER_WRITE
    if bus.dma_en and lo <= bus.dma_addr < hi:
        return ResetReason.TIMER_WRITE
    return None


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
# The one event of each record that appends no entry, by the trigger it
# raises; NO_EVENT is the event of every record that raises none.
_SHARED_EVENTS = {t: MonitorEvent(None, t)
                  for t in (None, _REGION_END, _LOG_FULL, _TIMER_EXPIRY)}
NO_EVENT = _SHARED_EVENTS[None]
_CF_SIZE = struct.Struct(">H")      # the metadata field the monitor writes
_CF_SIZE_OFF = MD_OFF + MD_CF_SIZE


class CfaMonitor:
    """Stateful composition of the sub-monitors over one device's memory."""

    __slots__ = ("dmem", "loop", "timer_count", "_tcb_max", "_max_entries",
                 "_flush_level", "_ctr_max")

    def __init__(self, dmem: bytearray, layout: MemoryLayout):
        self.dmem = dmem
        self.loop = LoopState()
        self.timer_count = 0     # cycles until the periodic trigger; 0 = disarmed
        self._tcb_max = layout.tcb_max
        self._max_entries = layout.max_entries
        self._flush_level = layout.max_entries - FLUSH_RESERVE
        self._ctr_max = (layout.pmem_base << 16) - 1

    # metadata field helpers (big-endian in data memory, identical to the wire)

    @property
    def cf_size(self) -> int:
        return _CF_SIZE.unpack_from(self.dmem, _CF_SIZE_OFF)[0]

    def _set_cf_size(self, v: int) -> None:
        _CF_SIZE.pack_into(self.dmem, _CF_SIZE_OFF, v)

    def arm_timer(self) -> None:
        self.timer_count = TIMER.unpack_from(self.dmem, TIMER_OFF)[0]

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
        pc, op, tcb_max = bus.pc, bus.inst, self._tcb_max
        _, ar_min, ar_max, cf_size = METADATA.unpack_from(self.dmem, MD_OFF)

        # Trusted-software exit frees the log for the next slice.
        if pc == tcb_max and op is not None:
            cf_size = 0
            self._set_cf_size(0)
            self.loop.reset()

        # Branch monitor: the record is a taken transfer when it accepts an
        # interrupt or retires a branch instruction, except a conditional
        # that falls through.  Most records are neither.
        entry = None
        if bus.irq_acc or (op in BRANCH_OPS and not (
                (op is JZ or op is JNZ) and bus.pc_next == (pc + INSTR_SIZE) & 0xFFFF)):
            # the source of an acceptance is the last retired instruction
            src = pc if op is not None else bus.pc_prev
            dest = bus.pc_next
            loop = self.loop
            if src == loop.src_loop and dest == loop.dest_loop \
                    and loop.ctr < self._ctr_max and cf_size < self._max_entries:
                # a repeat of the last logged jump: count it in the
                # uncommitted slot at the fill level.  The pair passed the
                # region test when it was logged, and the bounds change only
                # inside a session, whose exit (or reset) clears the loop
                # state first.
                loop.ctr += 1
                SLOT.pack_into(self.dmem, LOG_OFF + SLOT.size * cf_size,
                               loop.ctr >> 16, loop.ctr & 0xFFFF)
            else:
                entry, cf_size = self._log_transfer(bus, src, dest, ar_min, ar_max,
                                                    cf_size)

        # the timer counts application cycles only
        expired = False
        count = self.timer_count
        if count and (pc > tcb_max or pc < MemoryLayout.tcb_min):
            self.timer_count = count - 1
            expired = count == 1

        # triggers, by priority: region end, log full, timer expiry
        if pc == ar_max and ar_max != 0 and op is not None:
            trigger = _REGION_END
        elif cf_size >= self._flush_level:
            trigger = _LOG_FULL
        else:
            trigger = _TIMER_EXPIRY if expired else None
        return _SHARED_EVENTS[trigger] if entry is None else MonitorEvent(entry, trigger)

    def _log_transfer(self, bus: SignalBus, src: int, dest: int, ar_min: int,
                      ar_max: int, cf_size: int) -> tuple[tuple[int, int] | None, int]:
        """Log the transfer ``(src, dest)`` of a branch record that does not
        repeat the last logged jump: the entry appended, if any, and the fill
        level after the record.  It is logged when ``src``, ``dest`` or
        ``bus.pc`` lies in the region: a branch's source, or an acceptance's
        interrupted address on any line."""
        loop = self.loop
        if cf_size >= self._max_entries \
                or not (ar_min <= src <= ar_max or ar_min <= dest <= ar_max
                        or ar_min <= bus.pc <= ar_max):
            return None, cf_size
        entry = None
        if loop.ctr > 1:
            # loop left, or its counter saturated: commit the counter slot,
            # then log this transfer
            cf_size += 1
            loop.ctr = 1
        loop.src_loop, loop.dest_loop = src, dest
        if cf_size < self._max_entries:
            SLOT.pack_into(self.dmem, LOG_OFF + SLOT.size * cf_size, src, dest)
            cf_size += 1
            entry = (src, dest)
        self._set_cf_size(cf_size)
        return entry, cf_size
