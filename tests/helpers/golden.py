"""Golden interpreter: an independent, monitor-free reimplementation of the
TinyMCU semantics used as the oracle for log completeness.

It shares only the instruction *definitions* (decode tables) with the
product; execution, interrupt handling and transfer recording are written
from scratch here.  It records every control-flow transfer as a (src, dest)
pair: taken branches as (branch address, target) and interrupt acceptances
as (last retired address, handler entry), and for each acceptance the
address it interrupted.  It knows nothing about triggers, logs, or the
trusted software.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfasim.isa import INSTR_SIZE, Op, SP_REG, decode
from cfasim.isa import (M_ABS_LOAD, M_ABS_STORE, M_IDX_LOAD, M_IDX_STORE,
                        M_IMM, M_IND_LOAD, M_IND_STORE, M_REG)
from cfasim.mcu import MemoryLayout, ProgramImage

MASK = 0xFFFF


@dataclass
class GoldenRun:
    transfers: list[tuple[int, int]]
    retired: int
    halted: bool
    interrupted: dict[int, int]     # transfer index -> interrupted address


class GoldenMcu:
    def __init__(self, image: ProgramImage, layout: MemoryLayout,
                 irq_at_retire: dict[int, tuple[int, ...]] | None = None):
        self.lay = layout
        self.pmem = bytearray(layout.pmem_size)
        self.dmem = bytearray(layout.dmem_size)
        for seg in image.segments:
            if layout.in_pmem(seg.base):
                off = seg.base - layout.pmem_base
                self.pmem[off:off + len(seg.data)] = seg.data
            else:
                off = seg.base - layout.dmem_base
                self.dmem[off:off + len(seg.data)] = seg.data
        self.pc = layout.s_base          # application starts where boot resumes
        self.last_retired = layout.tcb_max
        self.regs = [0] * 8
        self.sp = layout.dmem_end
        self.z = False
        self.gie = False
        self.halted = False
        self.retired = 0
        self.pending: dict[int, int] = {}
        self.schedule = irq_at_retire or {}
        self.transfers: list[tuple[int, int]] = []
        self.interrupted: dict[int, int] = {}

    # memory (little-endian words, same physical map)

    def _rd16(self, a):
        if self.lay.in_dmem(a):
            o = a - self.lay.dmem_base
            return self.dmem[o] | (self.dmem[o + 1] << 8)
        o = a - self.lay.pmem_base
        return self.pmem[o] | (self.pmem[o + 1] << 8)

    def _wr16(self, a, v):
        if not (self.lay.in_dmem(a) and self.lay.in_dmem(a + 1)):
            return   # stores outside data memory have no effect on the oracle
        o = a - self.lay.dmem_base
        self.dmem[o] = v & 0xFF
        self.dmem[o + 1] = (v >> 8) & 0xFF

    def _accept_line(self):
        ready = [l for l, at in self.pending.items()
                 if self.retired > at and (l == 0 or self.gie)]
        return min(ready) if ready else None

    def run(self, max_retires: int = 1_000_000) -> GoldenRun:
        lay = self.lay
        while not self.halted and self.retired < max_retires:
            line = self._accept_line()
            if line is not None:
                target = self._rd16(lay.ivt_base + 2 * line)
                self.interrupted[len(self.transfers)] = self.pc
                self.transfers.append((self.last_retired, target))
                self.sp -= 2
                self._wr16(self.sp, self.pc)
                del self.pending[line]
                self.pc = target
                self.gie = False
                continue
            self._step()
            for l in self.schedule.get(self.retired, ()):
                self.pending.setdefault(l, self.retired)
        return GoldenRun(self.transfers, self.retired, self.halted,
                         self.interrupted)

    def _step(self):
        pc = self.pc
        ins = decode(self.pmem, pc - self.lay.pmem_base)
        op, m, rd, rs, imm = ins.op, ins.mode, ins.rd, ins.rs, ins.imm
        r = self.regs
        nxt = (pc + INSTR_SIZE) & MASK

        if op == Op.MOV:
            if m == M_IMM:
                r[rd] = imm
            elif m == M_REG:
                r[rd] = self.sp if rs == SP_REG else r[rs]
            elif m == M_ABS_LOAD:
                r[rd] = self._rd16(imm)
            elif m == M_ABS_STORE:
                self._wr16(imm, r[rs])
            elif m == M_IND_LOAD:
                r[rd] = self._rd16(r[rs])
            elif m == M_IND_STORE:
                self._wr16(r[rd], r[rs])
            elif m == M_IDX_LOAD:
                r[rd] = self._rd16((r[rs] + imm) & MASK)
            elif m == M_IDX_STORE:
                self._wr16((r[rd] + imm) & MASK, r[rs])
        elif op in (Op.ADD, Op.SUB, Op.CMP):
            b = imm if m == M_IMM else r[rs]
            res = (r[rd] + b) & MASK if op == Op.ADD else (r[rd] - b) & MASK
            self.z = res == 0
            if op != Op.CMP:
                r[rd] = res
        elif op == Op.JMP:
            self.transfers.append((pc, imm))
            nxt = imm
        elif op in (Op.JZ, Op.JNZ):
            taken = self.z if op == Op.JZ else not self.z
            if taken and imm != nxt:
                self.transfers.append((pc, imm))
                nxt = imm
        elif op in (Op.CALL, Op.CALLI):
            target = imm if op == Op.CALL else r[rs]
            self.transfers.append((pc, target))
            self.sp -= 2
            self._wr16(self.sp, nxt)
            nxt = target
        elif op in (Op.RET, Op.RETI):
            target = self._rd16(self.sp)
            self.sp += 2
            self.transfers.append((pc, target))
            nxt = target
            if op == Op.RETI:
                self.gie = True
        elif op == Op.PUSH:
            self.sp -= 2
            self._wr16(self.sp, r[rs])
        elif op == Op.POP:
            r[rd] = self._rd16(self.sp)
            self.sp += 2
        elif op == Op.EINT:
            self.gie = True
        elif op == Op.DINT:
            self.gie = False
        elif op == Op.HALT:
            self.halted = True
            nxt = pc
        self.last_retired = pc
        self.pc = nxt
        self.retired += 1


def golden_region_trace(image: ProgramImage, layout: MemoryLayout,
                        ar: tuple[int, int],
                        irq_at_retire: dict[int, tuple[int, ...]] | None = None,
                        max_retires: int = 1_000_000) -> list[tuple[int, int]]:
    """All transfers whose source or destination lies inside ``ar``, and
    every acceptance whose interrupted address does."""
    run = GoldenMcu(image, layout, irq_at_retire).run(max_retires)
    lo, hi = ar
    return [(s, d) for i, (s, d) in enumerate(run.transfers)
            if lo <= s <= hi or lo <= d <= hi
            or lo <= run.interrupted.get(i, -1) <= hi]
