"""TinyMCU: a minimal deterministic 16-bit core that executes images in place
from program memory and exposes, for every cycle, the signals a hardware
security monitor observes (program counter, opcode tag, memory-write strobe,
DMA activity, interrupt acceptance).

Each call to :func:`step` retires exactly one instruction, or performs one
interrupt-acceptance cycle, and yields one :class:`SignalBus` record.  The
record is fully determined *before* state is mutated (``predict_bus``), so a
monitor can veto the cycle and convert it into a reset without any effect
ever landing in memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .isa import INSTR_SIZE, WORD, DecodeError, Instr, Op, SP_REG, decode_word
from .isa import (ADD, CALL, CALLI, CMP, DINT, EINT, HALT, JMP, JNZ, JZ, MOV, NOP,
                  POP, PUSH, RET, RETI, SUB)
from .isa import (M_ABS_LOAD, M_ABS_STORE, M_IDX_LOAD, M_IDX_STORE,
                  M_IMM, M_IND_LOAD, M_IND_STORE, M_REG)

MASK16 = 0xFFFF

NMI_LINE = 0          # hardwired to the trusted-software entry point
NUM_IRQ_LINES = 8     # lines 1..7 are maskable, vectored through the IVT


class MachineError(Exception):
    pass


class ImageError(MachineError, ValueError):
    """Image cannot be loaded (overlap, overflow, bad entry point): a bad
    argument, so also a ``ValueError``."""


class LayoutError(MachineError):
    pass


class FaultError(MachineError):
    """Execution fault (illegal opcode, misaligned pc, stack fault, unmapped
    access); the surrounding system routes it into a reset."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# Protected-record formats, each defined once: big-endian as the wire carries
# them, except the timer reload, a little-endian word like the rest of DMEM.
METADATA = struct.Struct(">IHHH")   # chal | ar_min | ar_max | cf_size
MD_AR_MIN, MD_CF_SIZE = 4, 8        # field offsets; ar_max follows ar_min
SLOT = struct.Struct(">HH")         # log slot: src | dest, or a counter's halves
# The flush trigger fires this many entries before the log is physically
# full.  Two slots are always enough for everything that can still land
# between the flush assertion and the trusted-software entry (one possible
# loop-counter commit plus the acceptance jump itself), so no transfer in
# the attested region is ever dropped.
FLUSH_RESERVE = 2
TIMER = struct.Struct("<I")         # timer reload


@dataclass(frozen=True)
class MemoryLayout:
    """Physical memory map.  Every region bound is fixed; only the PMEM size,
    the end of the trusted region (TCB) and the log size can be set.  The
    trusted region opens PMEM; metadata, control-flow log, IVT and the
    memory-mapped I/O words are pairwise disjoint regions of DMEM."""

    pmem_size: int = 0x8000
    tcb_max: int = 0x8FFC          # trusted-software exit instruction
    cflog_size: int = 256          # bytes; one SLOT per entry

    pmem_base = 0x8000
    dmem_base = 0x0000
    dmem_size = 0x4000
    dmem_end = dmem_base + dmem_size
    tcb_min = 0x8000               # trusted-software entry (boot target)
    metadata_base = 0x0100         # one METADATA record
    cflog_base = 0x0200
    ivt_base = 0x0040              # 8 little-endian vector words
    timer_reg = 0x0050             # TIMER reload, writable only from the TCB
    input_base = 0x0060            # u16 length + payload, the one I/O peripheral
    input_size = 0x80

    def __post_init__(self):
        if self.pmem_end > MASK16 + 1:
            raise LayoutError("PMEM past the 16-bit address space")
        if not (self.tcb_min <= self.tcb_max < self.pmem_end):
            raise LayoutError("TCB outside PMEM")
        if (self.tcb_max - self.tcb_min) % INSTR_SIZE:
            # s_base, where every boot resumes, would fall mid-instruction
            raise LayoutError("TCB end off the instruction grid")
        if self.cflog_base + self.cflog_size > self.dmem_end:
            raise LayoutError("cflog region outside DMEM")
        if self.cflog_size % SLOT.size:
            raise LayoutError(f"cflog size must be a multiple of {SLOT.size}")
        if self.cflog_size < SLOT.size * (FLUSH_RESERVE + 1):
            # the flush would fire with no slot below its reserve
            raise LayoutError(f"cflog size must be at least "
                              f"{SLOT.size * (FLUSH_RESERVE + 1)} bytes")

    @property
    def pmem_end(self) -> int:
        return self.pmem_base + self.pmem_size

    @property
    def s_base(self) -> int:
        """First address of untrusted application code (just past the TCB)."""
        return self.tcb_max + INSTR_SIZE

    @property
    def max_entries(self) -> int:
        return self.cflog_size // SLOT.size

    def in_pmem(self, a: int) -> bool:
        return self.pmem_base <= a < self.pmem_end

    def in_dmem(self, a: int) -> bool:
        return self.dmem_base <= a < self.dmem_end

    def in_tcb(self, a: int) -> bool:
        return self.tcb_min <= a <= self.tcb_max

    def fits_app_region(self, image: ProgramImage) -> bool:
        """Every segment of ``image`` lies in ``[s_base, pmem_end)``: the
        one region a heal may rewrite, so the one an update image may fill."""
        return all(self.s_base <= seg.base and seg.base + len(seg.data) <= self.pmem_end
                   for seg in image.segments)


# DMEM offsets of the METADATA record, the first log SLOT and the TIMER
# reload: fixed by the layout, so every reader indexes DMEM with these.
MD_OFF = MemoryLayout.metadata_base - MemoryLayout.dmem_base
LOG_OFF = MemoryLayout.cflog_base - MemoryLayout.dmem_base
TIMER_OFF = MemoryLayout.timer_reg - MemoryLayout.dmem_base
# The largest loop counter a SLOT holds: its high half stays below pmem_base,
# where no transfer source lies, so a counter is never read as a transfer.
CTR_MAX = (MemoryLayout.pmem_base << 16) - 1


@dataclass(frozen=True)
class Segment:
    base: int
    data: bytes


@dataclass(frozen=True)
class ProgramImage:
    """Loadable image: code/data segments plus the boot entry point.

    File format (little-endian): magic ``TMCU``, entry u16, n_segments u16,
    then per segment base u16, length u16, raw bytes.
    """

    entry: int
    segments: tuple[Segment, ...]

    MAGIC = b"TMCU"

    def to_bytes(self) -> bytes:
        out = bytearray(self.MAGIC)
        out += struct.pack("<HH", self.entry, len(self.segments))
        for seg in self.segments:
            out += struct.pack("<HH", seg.base, len(seg.data))
            out += seg.data
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ProgramImage":
        if raw[:4] != cls.MAGIC:
            raise ImageError("bad magic")
        if len(raw) < 8:
            raise ImageError("truncated header")
        entry, nseg = struct.unpack_from("<HH", raw, 4)
        off, segs = 8, []
        for _ in range(nseg):
            if off + 4 > len(raw):
                raise ImageError("truncated segment header")
            base, length = struct.unpack_from("<HH", raw, off)
            off += 4
            if off + length > len(raw):
                raise ImageError("truncated segment data")
            segs.append(Segment(base, bytes(raw[off:off + length])))
            off += length
        return cls(entry, tuple(segs))


@dataclass(slots=True)
class DmaConfig:
    """External DMA engine: while bytes remain it emits one byte write per
    cycle."""
    next_addr: int = 0
    remaining: int = 0
    value: int = 0


@dataclass(slots=True)
class SignalBus:
    """One cycle's worth of monitored signals.

    ``pc`` is the address of the retiring instruction; on an
    interrupt-acceptance cycle no instruction retires (``inst is None``) and
    ``pc`` holds the interrupted address.  ``pc_prev`` is the address of the
    most recently *retired* instruction, ``pc_next`` the address execution
    continues at.  Consecutive records chain: next.pc == this.pc_next.

    The record carries only what a rule reads.  ``d_addr`` is the store
    address when ``w_en`` is set (the monitors' write rules) and the load
    address of a ``MOV`` load (read back by :func:`apply_instr`).
    ``irq_acc`` flags the acceptance cycle itself; the branch monitor logs
    the jump into the handler on exactly that record.
    """
    pc: int
    pc_prev: int
    pc_next: int
    inst: Op | None
    w_en: bool = False
    d_addr: int = 0
    dma_en: bool = False
    dma_addr: int = 0
    irq_acc: bool = False
    irq_line: int | None = None   # line being accepted when irq_acc is set


@dataclass(slots=True)
class McuState:
    layout: MemoryLayout
    pmem: bytearray
    dmem: bytearray
    pc: int = 0
    pc_prev: int = 0
    regs: list[int] = field(default_factory=lambda: [0] * 8)
    sp: int = 0
    z: bool = False
    gie: bool = False
    halted: bool = False
    cycle: int = 0
    retired: int = 0
    pending_irq: dict[int, int] = field(default_factory=dict)  # line -> retired count at raise
    dma: DmaConfig = field(default_factory=DmaConfig)
    # pc -> instruction decoded from the current PMEM content; ``store``
    # empties it whenever a store lands in PMEM
    decoded: dict[int, Instr] = field(default_factory=dict, repr=False, compare=False)

    # -- memory helpers (little-endian words; the big-endian METADATA and
    #    SLOT records are accessed only through the monitor/wire helpers) --

    def _locate(self, addr: int, n: int) -> tuple[bytearray, int]:
        """The memory and offset holding the ``n`` bytes at ``addr``; an
        access that is not wholly inside DMEM or PMEM faults."""
        lay = self.layout
        if lay.dmem_base <= addr and addr + n <= lay.dmem_end:
            return self.dmem, addr - lay.dmem_base
        if lay.pmem_base <= addr and addr + n <= lay.pmem_end:
            return self.pmem, addr - lay.pmem_base
        raise FaultError("unmapped-access")

    def read16(self, addr: int) -> int:
        mem, off = self._locate(addr, 2)
        return mem[off] | (mem[off + 1] << 8)

    def write16(self, addr: int, value: int) -> None:
        self.store(addr, (value & MASK16).to_bytes(2, "little"))

    def store(self, addr: int, data: bytes) -> None:
        """Land ``data`` at ``addr``.  Every run-time store to PMEM lands
        here (DMA never reaches PMEM, see ``_dma_advance``), so this is the
        one place the decode cache goes stale."""
        mem, off = self._locate(addr, len(data))
        mem[off:off + len(data)] = data
        if mem is self.pmem:
            self.decoded.clear()

    def ivt_target(self, line: int) -> int:
        if line == NMI_LINE:
            return self.layout.tcb_min
        return self.read16(self.layout.ivt_base + 2 * line)


def _place(mem: bytearray, base: int, seg: Segment, name: str) -> None:
    """Copy ``seg`` into ``mem``, the memory that starts at address ``base``."""
    off = seg.base - base
    if off + len(seg.data) > len(mem):
        raise ImageError(f"image too large: segment past end of {name}")
    mem[off:off + len(seg.data)] = seg.data


def render_pmem(image: ProgramImage, layout: MemoryLayout) -> bytes:
    """Full PMEM byte content an image produces (zero-filled elsewhere);
    what a verifier expects the device to attest."""
    pmem = bytearray(layout.pmem_size)
    for seg in image.segments:
        if layout.in_pmem(seg.base):
            _place(pmem, layout.pmem_base, seg, "PMEM")
    return bytes(pmem)


def load_image(image: ProgramImage, layout: MemoryLayout) -> McuState:
    """Place an image in memory and return the boot state (pc at the TCB entry,
    interrupts and DMA disabled)."""
    if image.entry != layout.tcb_min:
        raise ImageError("entry point outside TCB")
    pmem = bytearray(render_pmem(image, layout))
    dmem = bytearray(layout.dmem_size)
    protected = [(layout.metadata_base, METADATA.size),
                 (layout.cflog_base, layout.cflog_size),
                 (layout.timer_reg, TIMER.size)]
    for seg in image.segments:
        if layout.in_pmem(seg.base):
            continue
        if not layout.in_dmem(seg.base):
            raise ImageError(f"segment base {seg.base:#06x} outside memory")
        _place(dmem, layout.dmem_base, seg, "DMEM")
        end = seg.base + len(seg.data)
        for base, size in protected:
            if seg.base < base + size and base < end:
                raise ImageError("image too large: segment overlaps protected region")
    return reset(McuState(layout, pmem, dmem))


def reset(state: McuState) -> McuState:
    """Hardware reset: execution restarts at the TCB entry with interrupts and
    DMA disabled.  PMEM and DMEM contents are preserved (in particular the
    metadata and control-flow log, so the post-reset report can carry them);
    the cycle counter keeps running."""
    state.pc = state.pc_prev = state.layout.tcb_min
    state.regs = [0] * 8
    state.sp = state.layout.dmem_end
    state.z = False
    state.gie = False
    state.halted = False
    state.pending_irq.clear()
    state.dma = DmaConfig()
    return state


def raise_irq(state: McuState, line: int) -> McuState:
    """Mark an interrupt line pending.  Maskable lines are accepted only while
    gie is set; the NMI line is accepted regardless."""
    if not (0 <= line < NUM_IRQ_LINES):
        raise MachineError(f"unknown irq line {line}")
    state.pending_irq.setdefault(line, state.retired)
    return state


def acceptable_line(state: McuState) -> int | None:
    """Lowest-numbered pending line that may be accepted this cycle: the line
    must have been pending while at least one instruction retired (the
    in-flight instruction), and maskable lines additionally require gie and
    a running core (only a trigger, on the NMI line, wakes a halted one)."""
    best = None
    for line, raised_at in state.pending_irq.items():
        if state.retired <= raised_at:
            continue
        if line != NMI_LINE and (not state.gie or state.halted):
            continue
        if best is None or line < best:
            best = line
    return best


def _fetch(state: McuState) -> Instr:
    """Decode the instruction at pc and cache it in ``state.decoded``, the
    table ``Device._run`` probes before calling this (``decode_word``
    decodes each word once).  Only a valid instruction is cached, so a
    faulting pc faults on every fetch."""
    pc = state.pc
    if pc % 2:
        raise FaultError("misaligned-pc")
    pmem = state.pmem
    off = pc - state.layout.pmem_base
    if not 0 <= off <= len(pmem) - INSTR_SIZE:
        raise FaultError("pc-outside-pmem")
    try:
        ins = decode_word(WORD.unpack_from(pmem, off)[0])
    except DecodeError:
        raise FaultError("illegal-opcode") from None
    state.decoded[pc] = ins
    return ins


def _dma_ride(state: McuState, bus: SignalBus) -> None:
    """Put the DMA engine's pending byte write on ``bus``; called only while
    bytes remain."""
    bus.dma_en = True
    bus.dma_addr = state.dma.next_addr


def predict_acceptance(state: McuState, line: int) -> SignalBus:
    """Bus record for the cycle that commits the jump to an interrupt target.
    A maskable acceptance pushes the interrupted pc; the NMI acceptance does
    not touch the stack (the trusted-software context is held by the RoT)."""
    target = state.ivt_target(line)
    bus = SignalBus(state.pc, state.pc_prev, target, None, False, 0, False, 0,
                    True, line)
    if line != NMI_LINE:
        if state.sp - 2 < state.layout.dmem_base:
            raise FaultError("stack-overflow")
        bus.w_en = True
        bus.d_addr = (state.sp - 2) & MASK16
    if state.dma.remaining > 0:
        _dma_ride(state, bus)
    return bus


def apply_acceptance(state: McuState, line: int) -> None:
    if line != NMI_LINE:
        state.sp -= 2
        state.write16(state.sp, state.pc)
    state.pending_irq.pop(line, None)
    state.pc = state.ivt_target(line)
    state.gie = False
    state.cycle += 1
    if state.dma.remaining > 0:
        _dma_advance(state)


# The op classes the two per-retirement functions test first: a record of
# _PLAIN_BUS needs no field beyond the first four, and _TAIL_ONLY has no
# effect beyond the common tail of ``apply_instr``.
_PLAIN_BUS = frozenset({ADD, SUB, CMP, NOP, EINT, DINT})
_TAIL_ONLY = frozenset({JMP, JZ, JNZ, NOP})


def predict_bus(state: McuState, ins: Instr) -> SignalBus:
    """Compute the full bus record for retiring ``ins`` without side effects."""
    pc = state.pc
    nxt = (pc + INSTR_SIZE) & MASK16
    op = ins.op
    bus = SignalBus(pc, state.pc_prev, nxt, op)
    if op in _PLAIN_BUS:
        pass
    elif op is MOV:
        m = ins.mode
        if m == M_ABS_LOAD:
            bus.d_addr = ins.imm
        elif m == M_ABS_STORE:
            bus.w_en, bus.d_addr = True, ins.imm
        elif m == M_IND_LOAD:
            bus.d_addr = state.regs[ins.rs]
        elif m == M_IND_STORE:
            bus.w_en, bus.d_addr = True, state.regs[ins.rd]
        elif m == M_IDX_LOAD:
            bus.d_addr = (state.regs[ins.rs] + ins.imm) & MASK16
        elif m == M_IDX_STORE:
            bus.w_en, bus.d_addr = True, (state.regs[ins.rd] + ins.imm) & MASK16
        if m != M_IMM and m != M_REG:
            state._locate(bus.d_addr, 2)    # faults an unmapped access uncommitted
    elif op is CALL or op is CALLI or op is PUSH:
        if state.sp - 2 < state.layout.dmem_base:
            raise FaultError("stack-overflow")
        bus.w_en, bus.d_addr = True, (state.sp - 2) & MASK16
        if op is CALL:
            bus.pc_next = ins.imm
        elif op is CALLI:
            bus.pc_next = state.regs[ins.rs]
    elif op is POP or op is RET or op is RETI:
        if not _sp_ok(state):
            raise FaultError("stack-underflow")
        if op is not POP:
            bus.pc_next = state.read16(state.sp)
    elif op is JMP:
        bus.pc_next = ins.imm
    elif op is JZ:
        bus.pc_next = ins.imm if state.z else nxt
    elif op is JNZ:
        bus.pc_next = ins.imm if not state.z else nxt
    elif op is HALT:
        bus.pc_next = pc
    if state.dma.remaining > 0:
        _dma_ride(state, bus)
    return bus


def _sp_ok(state: McuState) -> bool:
    return state.layout.dmem_base <= state.sp <= state.layout.dmem_end - 2


def _dma_advance(state: McuState) -> None:
    """Land the DMA engine's next byte; a byte outside DMEM is dropped.  RoT
    rule (a) vetoes every record whose DMA byte aims at PMEM, so on the
    device DMA never writes PMEM.  Called only while bytes remain."""
    d = state.dma
    off = d.next_addr - state.layout.dmem_base
    if 0 <= off < len(state.dmem):
        state.dmem[off] = d.value & 0xFF
    d.next_addr += 1
    d.remaining -= 1


def apply_instr(state: McuState, ins: Instr, bus: SignalBus) -> None:
    """Commit the effects of ``ins``; ``bus`` must come from predict_bus on the
    same state."""
    op = ins.op
    r = state.regs
    if op in _TAIL_ONLY:
        pass
    elif op is ADD or op is SUB or op is CMP:
        a = r[ins.rd]
        b = ins.imm if ins.mode == M_IMM else r[ins.rs]
        res = (a + b) & MASK16 if op is ADD else (a - b) & MASK16
        state.z = res == 0
        if op is not CMP:
            r[ins.rd] = res
    elif op is MOV:
        m = ins.mode
        if m == M_IMM:
            r[ins.rd] = ins.imm
        elif m == M_REG:
            r[ins.rd] = state.sp if ins.rs == SP_REG else r[ins.rs]
        elif m in (M_ABS_LOAD, M_IND_LOAD, M_IDX_LOAD):
            r[ins.rd] = state.read16(bus.d_addr)
        else:
            src = r[ins.rs]
            state.write16(bus.d_addr, src)
    elif op is CALL or op is CALLI:
        state.sp -= 2
        state.write16(state.sp, (bus.pc + INSTR_SIZE) & MASK16)
    elif op is PUSH:
        state.sp -= 2
        state.write16(state.sp, r[ins.rs])
    elif op is POP:
        r[ins.rd] = state.read16(state.sp)
        state.sp += 2
    elif op is RET or op is RETI:
        state.sp += 2
        if op is RETI:
            state.gie = True
    elif op is EINT:
        state.gie = True
    elif op is DINT:
        state.gie = False
    elif op is HALT:
        state.halted = True
    state.pc_prev = bus.pc
    state.pc = bus.pc_next
    state.retired += 1
    state.cycle += 1
    if state.dma.remaining > 0:
        _dma_advance(state)


def step(state: McuState) -> tuple[McuState, SignalBus]:
    """Execute one cycle with no monitor attached: accept the highest-priority
    eligible interrupt if any, otherwise retire one instruction.  Used by unit
    tests and as the reference path; the full system drives predict/apply
    itself so vetoes can precede commits."""
    if state.halted:
        raise MachineError("stepping a halted core")
    line = acceptable_line(state)
    if line is not None:
        bus = predict_acceptance(state, line)
        apply_acceptance(state, line)
        return state, bus
    ins = _fetch(state)
    bus = predict_bus(state, ins)
    apply_instr(state, ins, bus)
    return state, bus
