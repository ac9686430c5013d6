import pytest

from helpers.progen import SMALL_LAYOUT, generate

from cfasim.apps import FIXTURES, delay_loop
from cfasim.asm import assemble
from cfasim.device import Device, DeviceEvents, DeviceMode
from cfasim.isa import Op
from cfasim.mcu import NMI_LINE, MemoryLayout, SignalBus, render_pmem
from cfasim.monitor import (FLUSH_RESERVE, CfaMonitor, Metadata,
                            ResetReason, TriggerKind, boundary_check,
                            read_log_entries, read_metadata,
                            timer_write_check, write_metadata)
from cfasim.rot import Mode
from cfasim.tcb import DeviceKey
from cfasim.verifier import SliceKind, VerifySession, build_cfg, validate_slice
from cfasim.wire import decode_log

LAY = MemoryLayout()


def rec(pc=0x9000, pc_next=None, inst=Op.NOP, **kw):
    if pc_next is None:
        pc_next = (pc + 4) & 0xFFFF
    return SignalBus(pc=pc, pc_prev=kw.pop("pc_prev", pc - 4), pc_next=pc_next,
                     inst=inst, **kw)


def fresh_monitor(ar=(0x9000, 0x9FFC), cflog_size=None):
    lay = LAY if cflog_size is None else MemoryLayout(cflog_size=cflog_size)
    dmem = bytearray(lay.dmem_size)
    write_metadata(dmem, Metadata(0, ar[0], ar[1], 0))
    return CfaMonitor(dmem, lay), lay


class TestBoundary:
    def test_s_write_to_cflog_resets(self):
        bus = rec(pc=0x9000, inst=Op.MOV, w_en=True, d_addr=LAY.cflog_base)
        assert boundary_check(bus, LAY) is ResetReason.CFLOG_WRITE

    def test_tcb_write_to_cflog_still_resets(self):
        # the log is read-only to all software
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, w_en=True, d_addr=LAY.cflog_base)
        assert boundary_check(bus, LAY) is ResetReason.CFLOG_WRITE

    def test_tcb_may_write_metadata(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, w_en=True, d_addr=LAY.metadata_base)
        assert boundary_check(bus, LAY) is None

    def test_s_write_to_metadata_resets(self):
        bus = rec(pc=0x9100, inst=Op.MOV, w_en=True, d_addr=LAY.metadata_base + 4)
        assert boundary_check(bus, LAY) is ResetReason.METADATA_WRITE

    def test_dma_to_metadata_resets_even_during_tcb(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, dma_en=True,
                  dma_addr=LAY.metadata_base)
        assert boundary_check(bus, LAY) in (ResetReason.DMA_METADATA,
                                            ResetReason.METADATA_WRITE)

    def test_dma_to_cflog_resets(self):
        bus = rec(dma_en=True, dma_addr=LAY.cflog_base + 8)
        assert boundary_check(bus, LAY) is ResetReason.CFLOG_WRITE

    def test_benign_write_passes(self):
        bus = rec(inst=Op.MOV, w_en=True, d_addr=0x1000)
        assert boundary_check(bus, LAY) is None

    def test_timer_write_from_s_resets(self):
        bus = rec(pc=0x9000, inst=Op.MOV, w_en=True, d_addr=LAY.timer_reg)
        assert timer_write_check(bus, LAY) is ResetReason.TIMER_WRITE

    def test_timer_write_from_tcb_allowed(self):
        bus = rec(pc=LAY.tcb_min, inst=Op.MOV, w_en=True, d_addr=LAY.timer_reg)
        assert timer_write_check(bus, LAY) is None

    def test_dma_to_timer_register_resets(self):
        bus = rec(dma_en=True, dma_addr=LAY.timer_reg)
        assert timer_write_check(bus, LAY) is ResetReason.TIMER_WRITE


class TestBranchDetect:
    """``observe`` logs a record exactly when it is a taken transfer; every
    record here has an end in the attested region."""

    @staticmethod
    def logs(bus):
        mon, _ = fresh_monitor()
        return mon.observe(bus).entry is not None

    def test_jmp_detected(self):
        assert self.logs(rec(inst=Op.JMP, pc_next=0x9100))

    def test_mov_not_detected(self):
        assert not self.logs(rec(inst=Op.MOV))

    def test_not_taken_conditional_not_detected(self):
        assert not self.logs(rec(pc=0x9000, pc_next=0x9004, inst=Op.JZ))

    def test_taken_conditional_detected(self):
        assert self.logs(rec(pc=0x9000, pc_next=0x9100, inst=Op.JNZ))

    def test_call_irq_forces_detection(self):
        # the acceptance record (the core's irq_acc, the paper's call_irq)
        # is the jump into the handler; its source is the last retired pc
        assert self.logs(rec(pc=0x9004, pc_prev=0x9000, inst=None, pc_next=0x8000,
                             irq_acc=True))
        assert not self.logs(rec(pc=0x9004, pc_prev=0x9000, inst=None,
                                 pc_next=0x8000))


class TestLogMonitor:
    def test_entry_into_region_logged(self):
        mon, lay = fresh_monitor()
        ev = mon.observe(rec(pc=0x8FF0, pc_next=0x9000, inst=Op.CALL))
        assert ev.entry == (0x8FF0, 0x9000)
        assert mon.cf_size == 1

    def test_branch_inside_region_logged(self):
        mon, lay = fresh_monitor()
        ev = mon.observe(rec(pc=0x9100, pc_next=0x9200, inst=Op.JMP))
        assert ev.entry == (0x9100, 0x9200)

    def test_branch_outside_region_ignored(self):
        mon, lay = fresh_monitor(ar=(0x9800, 0x9FFC))
        ev = mon.observe(rec(pc=0x9000, pc_next=0x9100, inst=Op.JMP))
        assert ev.entry is None and mon.cf_size == 0

    def test_exit_from_region_logged(self):
        # a branch whose source lies inside the region is recorded even when
        # it escapes the region
        mon, lay = fresh_monitor(ar=(0x9000, 0x90FC))
        ev = mon.observe(rec(pc=0x9010, pc_next=0x9800, inst=Op.JMP))
        assert ev.entry == (0x9010, 0x9800)

    @pytest.mark.parametrize("line, dest, logged", [(NMI_LINE, 0x8000, True),
                                                    (3, 0x9800, True)],
                             ids=["trigger", "maskable"])
    def test_acceptance_at_region_entry(self, line, dest, logged):
        # the call into the region retires outside it, and an acceptance on
        # the next cycle interrupts the region's first instruction: its
        # source (the call) and destination both lie outside the region.
        # An acceptance on any line is logged all the same, so the verifier
        # learns where execution resumes.
        mon, lay = fresh_monitor(ar=(0x9100, 0x91FC))
        mon.observe(rec(pc=0x9008, pc_next=0x9100, inst=Op.CALL))
        ev = mon.observe(SignalBus(pc=0x9100, pc_prev=0x9008, pc_next=dest,
                                   inst=None, irq_acc=True, irq_line=line))
        assert ev.entry == ((0x9008, dest) if logged else None)
        assert mon.cf_size == 1 + logged

    def test_tcb_exit_clears_cf_size(self):
        mon, lay = fresh_monitor()
        mon.observe(rec(pc=0x9000, pc_next=0x9100, inst=Op.JMP))
        assert mon.cf_size == 1
        mon.observe(rec(pc=lay.tcb_max, pc_next=0x9000, inst=Op.JMP))
        # the exit jump itself lands in the fresh slice
        assert mon.cf_size == 1
        assert read_log_entries(mon.dmem, 1) == [(lay.tcb_max, 0x9000)]

    def test_flush_fires_with_reserve_margin(self):
        mon, lay = fresh_monitor(cflog_size=32)   # 8 entries
        trig = None
        for i in range(8):
            ev = mon.observe(rec(pc=0x9000 + 16 * i, pc_next=0x9008 + 16 * i,
                                 inst=Op.CALL))
            if ev.trigger:
                trig = (i, ev.trigger)
                break
        assert trig == (8 - FLUSH_RESERVE - 1, TriggerKind.LOG_FULL)

    def test_full_log_stops_accepting(self):
        mon, lay = fresh_monitor(cflog_size=16)   # 4 entries
        for i in range(6):
            mon.observe(rec(pc=0x9000 + 16 * i, pc_next=0x9008 + 16 * i,
                            inst=Op.CALL))
        assert mon.cf_size == 4   # fifth and sixth dropped at the brim

    def test_region_end_trigger(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0x9100))
        ev = mon.observe(rec(pc=0x9100, inst=Op.NOP))
        assert ev.trigger is TriggerKind.REGION_END

    def test_region_end_precedes_log_full(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0x9100), cflog_size=16)
        for i in range(3):
            mon.observe(rec(pc=0x9000 + 16 * i, pc_next=0x9008 + 16 * i,
                            inst=Op.CALL))
        ev = mon.observe(rec(pc=0x9100, pc_next=0x9104, inst=Op.CALL))
        assert ev.trigger is TriggerKind.REGION_END

    def test_timer_trigger_counts_app_cycles_only(self):
        mon, lay = fresh_monitor()
        off = lay.timer_reg - lay.dmem_base
        mon.dmem[off:off + 4] = (3).to_bytes(4, "little")
        mon.arm_timer()
        assert mon.observe(rec(pc=0x9000)).trigger is None
        assert mon.observe(rec(pc=lay.tcb_min)).trigger is None  # paused in TCB
        assert mon.observe(rec(pc=0x9004)).trigger is None
        assert mon.observe(rec(pc=0x9008)).trigger is TriggerKind.TIMER


def drive_loop(mon, src, dest, times, start=None):
    evs = []
    for _ in range(times):
        evs.append(mon.observe(rec(pc=src, pc_next=dest, inst=Op.JMP)))
    return evs


class TestLoopMonitor:
    def test_first_jump_latches_without_counter(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0xA0FC))
        ev = drive_loop(mon, 0xA010, 0xA004, 1)[0]
        assert ev.entry == (0xA010, 0xA004)
        assert mon.cf_size == 1 and mon.loop.ctr == 1
        assert mon.loop.src_loop == 0xA010

    def test_repeated_backward_jump_counts(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0xA0FC))
        evs = drive_loop(mon, 0xA010, 0xA004, 2)
        assert evs[0].entry == (0xA010, 0xA004)
        assert evs[1].entry is None and mon.loop.ctr == 2
        assert mon.cf_size == 1   # counter slot not yet committed
        # the counter is written in place in the slot after the jump
        assert read_log_entries(mon.dmem, 2) == [(0xA010, 0xA004),
                                                     (0x0000, 0x0002)]

    def test_loop_exit_commits_counter_and_resets(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0xA0FC))
        drive_loop(mon, 0xA010, 0xA004, 3)
        ev = mon.observe(rec(pc=0xA020, pc_next=0xA060, inst=Op.JMP))
        assert ev.entry == (0xA020, 0xA060)
        assert mon.loop.ctr == 1
        assert mon.cf_size == 3
        assert read_log_entries(mon.dmem, 3) == [
            (0xA010, 0xA004), (0x0000, 0x0003), (0xA020, 0xA060)]

    def test_five_iterations_produce_jump_plus_counter(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0xA0FC))
        drive_loop(mon, 0xA010, 0xA004, 5)
        mon.observe(rec(pc=0xA014, pc_next=0xA060, inst=Op.JMP))
        entries = read_log_entries(mon.dmem, mon.cf_size)
        assert entries[:2] == [(0xA010, 0xA004), (0x0000, 0x0005)]

    def test_counter_saturates_below_program_memory(self):
        # a counter whose high half reaches pmem_base would decode as a
        # transfer, so the repeat that would pass limit - 1 opens a new pair
        res = assemble(delay_loop(3), entry=LAY.tcb_min)
        sym = res.symbols
        ar = (sym["main"], sym["fin"])
        mon, lay = fresh_monitor(ar=ar)
        pair = (sym["dloop"] + 4, sym["dloop"])
        limit = lay.pmem_base << 16
        mon.observe(rec(pc=lay.tcb_max, pc_next=sym["main"], inst=Op.JMP))
        drive_loop(mon, *pair, 1)
        mon.loop.ctr = limit - 2
        drive_loop(mon, *pair, 3)
        mon.observe(rec(pc=sym["fin"] + 4, pc_prev=sym["fin"], pc_next=lay.tcb_min,
                        inst=None, irq_acc=True, irq_line=NMI_LINE))
        entries = read_log_entries(mon.dmem, mon.cf_size)
        assert [(s, d) if c is None else c for s, d, c in
                decode_log(entries[1:-1])] == [pair, limit - 1, pair, 2]

        s = VerifySession(lay)
        s.issued_ar = ar
        cfg = build_cfg(render_pmem(res.image, lay), ar)
        assert validate_slice(SliceKind.SINGLE, entries, cfg, s) is None


def drive_and_replay(image, lay, ar, start, cycles, events=None):
    """Run the application directly (no protocol) from ``start`` with the
    attested region set to ``ar``, until its first trigger session or for
    ``cycles`` cycles; then replay the recorded bus trace through a fresh
    monitor over the initial data memory.  Returns the device and the
    replayed data memory."""
    dev = Device(image, lay, DeviceKey(b"\x01" * 32), events=events,
                 keep_trace=True)
    md = read_metadata(dev.state.dmem)
    md.ar_min, md.ar_max = ar
    write_metadata(dev.state.dmem, md)
    dmem0 = bytearray(dev.state.dmem)

    dev._pending_session = None
    dev.rot.mode = Mode.APP
    dev.state.pc = start
    for _ in range(cycles):
        if dev.mode is not DeviceMode.RUN or dev._pending_session is not None:
            break
        dev._run(1)

    mon = CfaMonitor(dmem0, lay)
    for bus in dev.trace:
        mon.observe(bus)
    return dev, dmem0


def assert_same_log(a, b, lay):
    lo = lay.cflog_base - lay.dmem_base
    assert a[lo:lo + lay.cflog_size] == b[lo:lo + lay.cflog_size]
    assert read_metadata(a) == read_metadata(b)


class TestReplayPurity:
    def test_trace_replay_reproduces_log(self):
        lay = MemoryLayout()
        fx = FIXTURES["moderate"]
        built = assemble(fx.source, entry=lay.tcb_min)
        s = built.symbols
        dev, replayed = drive_and_replay(built.image, lay, (s["main"], s["fin"]),
                                         s["main"], 40)
        assert_same_log(dev.state.dmem, replayed, lay)

    @pytest.mark.parametrize("seed", [2, 4, 12, 13, 34])
    def test_replay_with_interrupt_acceptances(self, seed):
        # the acceptance records alone (irq_acc) drive the logging of jumps
        # into handlers, so the replay needs nothing but the trace
        prog = generate(seed)
        lay = SMALL_LAYOUT
        built = assemble(prog.source, entry=lay.tcb_min)
        s = built.symbols
        dev, replayed = drive_and_replay(
            built.image, lay, (s["main"], s["fin"]), s["main"], 5_000,
            events=DeviceEvents(irq_at_retire=prog.irq_at_retire))
        accepted = [b.irq_line for b in dev.trace if b.irq_acc]
        assert sum(line != NMI_LINE for line in accepted) >= 2
        assert accepted[-1] == NMI_LINE        # ended in the trigger session
        assert read_metadata(replayed).cf_size > 0
        assert_same_log(dev.state.dmem, replayed, lay)


class TestLoopRepeat:
    def test_not_taken_conditional_is_not_a_repeat(self):
        """An interrupt accepted right after the conditional at ``s`` with
        its vector at ``s + 4`` logs ``(s, s + 4)``; the same conditional
        later falls through, which is the same pair but no transfer.  The
        jump back to it leaves and enters no attested address, so nothing
        is logged in between: only the branch test keeps the fall-through
        from counting as a loop repeat."""
        from helpers.golden import golden_region_trace
        from cfasim.scenario import decompress_entries

        lay = MemoryLayout()
        built = assemble("""
        .org 0x9000
main:   MOV r1, #2
        EINT
again:  CMP r1, #0
s:      JZ done
after:  SUB r1, #1          ; line 1 vectors here
        JMP again
done:   HALT
        .org 0x0042
        .word after
""", entry=lay.tcb_min)
        sym = built.symbols
        s, after = sym["s"], sym["after"]
        assert after == s + 4
        ar = (after, after + 2)             # no retiring pc ends the region
        irqs = {3: (1,)}                    # raised after CMP, taken after JZ
        dev, _ = drive_and_replay(built.image, lay, ar, sym["main"], 100,
                                  events=DeviceEvents(irq_at_retire=irqs))
        assert dev.mode is DeviceMode.HALTED
        acc = next(i for i, b in enumerate(dev.trace) if b.irq_acc)
        assert any(b.pc == s and b.pc_next == after for b in dev.trace[acc + 1:])
        loop = dev.monitor.loop
        assert (loop.src_loop, loop.dest_loop) == (s, after)

        md = read_metadata(dev.state.dmem)
        pending = 1 if loop.ctr > 1 else 0      # an uncommitted counter slot
        got = decompress_entries(read_log_entries(dev.state.dmem, md.cf_size + pending))
        want = golden_region_trace(built.image, lay, ar, irqs)
        assert want == [(s, after)]
        assert got == want


class TestObserveEarlyOut:
    """A non-branch record returns the shared empty event without touching
    memory only while the timer is disarmed, pc is neither tcb_max nor
    ar_max and the log is below the flush level; breaking any one of these
    gives the record its effect."""

    def test_quiet_record_has_no_effect(self):
        from cfasim.monitor import NO_EVENT
        mon, lay = fresh_monitor()
        before = bytes(mon.dmem)
        assert mon.observe(rec(pc=0x9100, inst=Op.MOV)) is NO_EVENT
        assert bytes(mon.dmem) == before

    def test_log_at_flush_level_triggers(self):
        mon, lay = fresh_monitor(cflog_size=32)
        write_metadata(mon.dmem, Metadata(0, 0x9000, 0x9FFC,
                                          lay.max_entries - FLUSH_RESERVE))
        assert mon.observe(rec(pc=0x9100, inst=Op.MOV)).trigger is TriggerKind.LOG_FULL

    def test_region_end_triggers(self):
        mon, lay = fresh_monitor(ar=(0x9000, 0x9100))
        assert mon.observe(rec(pc=0x9100, inst=Op.NOP)).trigger is TriggerKind.REGION_END

    def test_armed_timer_counts_down(self):
        mon, lay = fresh_monitor()
        mon.timer_count = 2
        assert mon.observe(rec(pc=0x9100, inst=Op.MOV)).trigger is None
        assert mon.timer_count == 1
        assert mon.observe(rec(pc=0x9104, inst=Op.MOV)).trigger is TriggerKind.TIMER

    def test_exit_point_clears_log(self):
        mon, lay = fresh_monitor()
        write_metadata(mon.dmem, Metadata(0, 0x9000, 0x9FFC, 3))
        mon.observe(rec(pc=lay.tcb_max, inst=Op.MOV))
        assert mon.cf_size == 0
