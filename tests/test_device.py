"""Integration behavior of the prover device: trigger handling, resets that
preserve the log, trusted-phase ordering, policy paths, and key confinement."""

import pytest

from cfasim.apps import FIXTURES
from cfasim.asm import assemble
from cfasim.channel import Channel, ChannelPolicy
from cfasim.device import AttackEvent, DeviceEvents
from cfasim.mcu import METADATA, TIMER, MemoryLayout
from cfasim.monitor import ResetReason, TriggerKind
from cfasim.scenario import (Outcome, ScenarioConfig, run_image, run_scenario,
                             _derive_key)
from cfasim.tcb import HEAL_CYCLES, HealAction, PolicyMode, WaitPolicy
from test_mcu import UNMAPPED_ACCESSES

LAY = MemoryLayout()


def run_src(source, ar_labels=("main", "fin"), **kw):
    res = assemble(source, entry=LAY.tcb_min)
    ar = (res.symbols[ar_labels[0]], res.symbols[ar_labels[1]])
    return run_image(res.image, ar, LAY, key_bytes=_derive_key(1), **kw), res.symbols


def one_shot(attack_line):
    """App that performs one attack, then runs clean after the reset (a
    scratch flag survives the reset and skips the attack on the re-run)."""
    return f"""
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ fin
        MOV r1, #1
        MOV &0x1000, r1
{attack_line}
fin:    NOP
        HALT
"""


VIOLATION_APPS = {
    "cflog-write": (one_shot("        MOV &0x0200, r1        ; store into the protected log"),
                    ResetReason.CFLOG_WRITE),
    "metadata-write": (one_shot("        MOV &0x0104, r1        ; rewrite the region bounds"),
                       ResetReason.METADATA_WRITE),
    "tcb-jump": (one_shot("        JMP 0x8008             ; into the trusted software interior"),
                 ResetReason.ILLEGAL_TCB_ENTRY),
    "timer-write": (one_shot("        MOV &0x0050, r1        ; timer deadline register"),
                    ResetReason.TIMER_WRITE),
}


class TestViolationResets:
    @pytest.mark.parametrize("name", sorted(VIOLATION_APPS))
    def test_software_violations_reset_and_report(self, name):
        source, reason = VIOLATION_APPS[name]
        result, sym = run_src(source)
        dev = result.device
        assert dev.last_reset is reason
        assert dev.stats.n_violation_resets == 1
        kinds = [r.trigger for r in result.reports]
        assert TriggerKind.VIOLATION in kinds
        assert result.outcome is Outcome.COMPLETED   # clean re-run after reset

    @pytest.mark.parametrize("name", sorted(UNMAPPED_ACCESSES))
    def test_unmapped_access_resets_and_reports(self, name):
        result, _ = run_src(one_shot(UNMAPPED_ACCESSES[name]))
        dev = result.device
        assert dev.last_reset is ResetReason.MACHINE_FAULT
        assert dev.last_fault == "unmapped-access"
        assert TriggerKind.VIOLATION in [r.trigger for r in result.reports]
        assert result.outcome is Outcome.COMPLETED   # clean re-run after reset

    def test_vetoed_write_never_lands(self):
        result, sym = run_src(VIOLATION_APPS["cflog-write"][0])
        # the attacked log slot survives untouched in the violation report
        vio = next(r for r in result.reports if r.trigger is TriggerKind.VIOLATION)
        assert all(e != (1, 1) for e in vio.entries)

    def test_violation_report_carries_previolation_log(self):
        # branches before the attack must appear in the post-reset report
        result, sym = run_src("""
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ fin
        MOV r1, #1
        MOV &0x1000, r1
        CALL fn
        MOV &0x0200, r0
fin:    NOP
        HALT
fn:     RET
""")
        vio = next(r for r in result.reports if r.trigger is TriggerKind.VIOLATION)
        call_site = sym["main"] + 5 * 4
        assert (call_site, sym["fn"]) in vio.entries
        assert (sym["fn"], call_site + 4) in vio.entries

    def test_dma_attack_on_metadata_resets(self):
        ev = DeviceEvents(attacks=[AttackEvent(at_cycle=0, kind="dma",
                                               addr=LAY.metadata_base, count=2,
                                               value=0xFF)])
        result, _ = run_src(FIXTURES["few_branch"].source, events=ev)
        assert result.device.stats.n_violation_resets >= 1
        assert result.device.last_reset in (ResetReason.DMA_METADATA,
                                            ResetReason.METADATA_WRITE)

    def test_illegal_opcode_routes_to_reset(self):
        # the garbage bytes live outside the attested region (the verifier
        # must still be able to disassemble the region itself)
        result, _ = run_src("""
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ fin
        MOV r1, #1
        MOV &0x1000, r1
        JMP junk
fin:    NOP
        HALT
junk:   .word 0x00ff, 0x0000
""")
        assert result.device.last_reset is ResetReason.MACHINE_FAULT
        assert result.device.last_fault == "illegal-opcode"


def app_mode_device(source, sp, events=None):
    """A device past its boot session, about to run ``main`` in application
    mode with the stack pointer at ``sp``, recording every committed record."""
    from cfasim.device import Device
    from cfasim.rot import Mode
    from cfasim.tcb import DeviceKey

    built = assemble(source, entry=LAY.tcb_min)
    dev = Device(built.image, LAY, DeviceKey(b"\x01" * 32), events=events,
                 keep_trace=True)
    dev._pending_session = None
    dev.rot.mode = Mode.APP
    dev.state.pc = built.symbols["main"]
    dev.state.sp = sp
    return dev


class TestStackOverflowReset:
    """A push at the bottom of DMEM faults before its record commits, and
    the device resets into a violation session with MACHINE_FAULT."""

    def assert_fault_reset(self, dev, retired):
        dmem = bytes(dev.state.dmem)
        dev.tick(Channel())
        assert dev.last_reset is ResetReason.MACHINE_FAULT
        assert dev.last_fault == "stack-overflow"
        assert dev._pending_session is TriggerKind.VIOLATION
        assert dev.state.retired == retired == len(dev.trace)
        assert bytes(dev.state.dmem) == dmem     # nothing was pushed

    @pytest.mark.parametrize("line", ["PUSH r1", "CALL fn"])
    def test_push_or_call(self, line):
        dev = app_mode_device(f"""
        .org 0x9000
main:   {line}
fn:     HALT
""", LAY.dmem_base)
        self.assert_fault_reset(dev, 0)

    def test_maskable_acceptance(self):
        dev = app_mode_device("""
        .org 0x9000
main:   EINT
        NOP
        NOP
        HALT
isr:    RETI
        .org 0x0042
        .word isr
""", LAY.dmem_base, DeviceEvents(irq_at_retire={1: (1,)}))
        self.assert_fault_reset(dev, 2)    # EINT and the in-flight NOP


class TestTcbInterference:
    def test_dma_during_wait_resets_then_reattests_same_log(self):
        # DMA fires while the device sits in the wait phase
        ev = DeviceEvents(attacks=[AttackEvent(at_cycle=140_000, kind="dma",
                                               addr=0x1000, count=1, value=1)])
        result, _ = run_src(FIXTURES["few_branch"].source, events=ev,
                            channel_policy=ChannelPolicy(latency=300_000))
        dev = result.device
        assert dev.last_reset is ResetReason.DMA_IN_TCB
        reports = result.reports
        vi = next(i for i, r in enumerate(reports)
                  if r.trigger is TriggerKind.VIOLATION)
        assert reports[vi].entries == reports[vi - 1].entries
        assert reports[vi].metadata == reports[vi - 1].metadata

    def test_forced_maskable_irq_during_wait_resets(self):
        ev = DeviceEvents(attacks=[AttackEvent(at_cycle=140_000, kind="force-irq",
                                               line=3)])
        result, _ = run_src(FIXTURES["few_branch"].source, events=ev,
                            channel_policy=ChannelPolicy(latency=300_000))
        assert result.device.last_reset is ResetReason.IRQ_IN_TCB


class TestTcbSlide:
    """The application may enter the trusted region only by triggering a
    session.  Reaching it any other way in application mode resets the
    device.  Otherwise the application would slide through the zero-filled
    region to the exit point, which clears the log without a report."""

    SLIDE = """
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ fin
        MOV r1, #1
        MOV &0x1000, r1
        CALL work
jump:   JMP 0x8000             ; the legal entry point, without a trigger
fin:    NOP
        HALT
work:   RET
"""

    def test_jump_to_tcb_entry_ends_in_violation_report(self):
        result, sym = run_src(self.SLIDE)
        dev = result.device
        assert dev.last_reset is ResetReason.ILLEGAL_TCB_ENTRY
        vio = next(r for r in result.reports if r.trigger is TriggerKind.VIOLATION)
        call_site = sym["jump"] - 4
        assert vio.entries == ((LAY.tcb_max, sym["main"]),    # the BOOT exit
                               (call_site, sym["work"]), (sym["work"], sym["jump"]),
                               (sym["jump"], LAY.tcb_min))
        assert result.outcome is Outcome.COMPLETED   # clean re-run after reset

    def test_forced_nmi_in_app_mode_ends_in_violation_report(self):
        # the NMI line forced while the application runs: the core lands on
        # the trusted entry with no session behind it
        src = """
        .org 0x9000
main:   MOV r7, #5000
loop:   SUB r7, #1
        JNZ loop
fin:    NOP
        HALT
"""
        ev = DeviceEvents(attacks=[AttackEvent(at_cycle=140_000, kind="force-irq",
                                               line=0)])
        result, sym = run_src(src, events=ev)
        assert result.device.last_reset is ResetReason.ILLEGAL_TCB_ENTRY
        vio = next(r for r in result.reports if r.trigger is TriggerKind.VIOLATION)
        src_pc, dest = vio.entries[-1]
        assert dest == LAY.tcb_min and sym["loop"] <= src_pc <= sym["loop"] + 4
        assert result.outcome is Outcome.COMPLETED


class TestPhaseOrder:
    @pytest.mark.parametrize("app,input_kind,heal", [
        ("few_branch", "none", HealAction.SHUTDOWN),
        ("password", "benign", HealAction.SHUTDOWN),
        ("password", "overflow", HealAction.SHUTDOWN),
        ("password", "overflow", HealAction.UPDATE),
        ("moderate", "none", HealAction.SHUTDOWN),
    ])
    def test_phase_log_matches_protocol_order(self, app, input_kind, heal):
        """Each trusted-software session attests once and waits for one
        verdict; a heal follows each deny and nothing else."""
        res = run_scenario(ScenarioConfig(app=app, input_kind=input_kind,
                                          heal_action=heal, max_cflog_bytes=256))
        verdicts = [l for l in res.audit
                    if "kind=?" not in l and "kind=cached" not in l]
        assert len(verdicts) == len(res.reports)
        assert res.stats.n_reports == res.stats.trigger_total
        denies = [l for l in verdicts if " app=0 " in l]
        assert res.device.stats.heal_cycles == HEAL_CYCLES * len(denies)
        assert bool(denies) == (input_kind == "overflow")


class TestTimerTrigger:
    def test_deadline_fires_and_execution_resumes(self):
        src = """
        .org 0x9000
main:   MOV r7, #2000
loop:   SUB r7, #1
        JNZ loop
fin:    NOP
        HALT
"""
        result, _ = run_src(src, timer_deadline=500)
        assert result.stats.n_t1 >= 1
        assert result.outcome is Outcome.COMPLETED
        assert all(" app=1 " in l for l in result.audit)


class TestPolicies:
    def test_strict_waits_forever_under_blackout(self):
        res = run_scenario(ScenarioConfig(
            app="few_branch",
            channel=ChannelPolicy(blackout_windows=((0, 10**9),)),
            cycle_budget=600_000))
        assert res.outcome is Outcome.DEADLOCK
        assert res.device.state.retired == 0   # no app instruction ever ran

    def test_best_effort_resume_needs_an_issued_region(self):
        """Until a response sets it, the metadata holds no region (``ar_max``
        is 0), so a resumed application would run with nothing logged and
        nothing reported: the boot wait keeps waiting and retransmitting past
        the timeout."""
        res = run_scenario(ScenarioConfig(
            app="few_branch",
            policy=WaitPolicy(PolicyMode.BEST_EFFORT_RESUME, timeout_cycles=20_000),
            channel=ChannelPolicy(blackout_windows=((0, 10**9),)),
            cycle_budget=2_000_000))
        assert res.outcome is Outcome.DEADLOCK
        assert res.device.state.retired == 0   # no app instruction ever ran
        assert res.device.stats.n_retransmits == 186     # one per 10k cycles

    def test_best_effort_resume_times_out_and_runs(self):
        """A blackout from after the boot response on: the region-end report
        is never answered, the wait times out and resumes into the issued
        region, and the application halts."""
        res = run_scenario(ScenarioConfig(
            app="few_branch",
            policy=WaitPolicy(PolicyMode.BEST_EFFORT_RESUME, timeout_cycles=20_000),
            channel=ChannelPolicy(blackout_windows=((140_000, 10**9),)),
            cycle_budget=2_000_000))
        assert res.outcome is Outcome.COMPLETED
        assert [r.trigger for r in res.reports] == [TriggerKind.BOOT,
                                                     TriggerKind.REGION_END]
        assert res.audit == ["seq=1 kind=first app=1 reason=ok entries=0"]
        assert res.device.state.retired > 0

    def test_best_effort_resume_after_a_boot_blackout_attests_the_run(self):
        """The boot report gets through once the blackout ends, so every
        report of the run is answered and approved (resuming at the boot
        timeout ran 4,204 instructions unattested, with one report)."""
        res = run_scenario(ScenarioConfig(
            app="loop_heavy", seed=2,
            policy=WaitPolicy(PolicyMode.BEST_EFFORT_RESUME, timeout_cycles=25_000),
            channel=ChannelPolicy(blackout_windows=((0, 170_000),))))
        assert res.outcome is Outcome.COMPLETED
        assert len(res.reports) == 18
        assert [line.split()[3] for line in res.audit] == ["reason=ok"] * 18

    def test_best_effort_heal_times_out_into_remediation(self):
        res = run_scenario(ScenarioConfig(
            app="few_branch",
            policy=WaitPolicy(PolicyMode.BEST_EFFORT_HEAL, timeout_cycles=20_000),
            channel=ChannelPolicy(blackout_windows=((0, 10**9),)),
            cycle_budget=2_000_000))
        assert res.outcome is Outcome.SHUTDOWN

    def test_retransmission_happens_while_waiting(self):
        res = run_scenario(ScenarioConfig(
            app="few_branch",
            channel=ChannelPolicy(drop_first=3)))
        assert res.outcome is Outcome.COMPLETED
        assert res.device.stats.n_retransmits >= 3


class TestKeyConfinement:
    def test_key_bytes_never_appear_outside_macs(self):
        key = _derive_key(9)
        fx = FIXTURES["password"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        ar = (built.symbols["app_main"], built.symbols["done"])
        result = run_image(built.image, ar, LAY, key_bytes=key)
        dev = result.device
        assert key not in bytes(dev.state.pmem)
        assert key not in bytes(dev.state.dmem)
        for endpoint, frame in result.channel.captured:
            assert key not in frame
        for report in result.reports:
            for s, d in report.entries:
                assert key[:2] != bytes([s >> 8, s & 0xFF])  # spot check


class TestMetadataUpdatePath:
    def test_challenge_and_bounds_written_only_by_tcb(self):
        res = run_scenario(ScenarioConfig(app="moderate", max_cflog_bytes=512,
                                          keep_trace=True))
        lay = res.device.layout
        metadata = range(lay.metadata_base, lay.metadata_base + METADATA.size)
        for bus in res.device.trace:
            if bus.w_en and bus.d_addr in metadata:
                assert lay.in_tcb(bus.pc)

    def test_stored_challenge_tracks_responses(self):
        res = run_scenario(ScenarioConfig(app="moderate", max_cflog_bytes=512))
        from cfasim.monitor import read_metadata
        md = read_metadata(res.device.state.dmem)
        assert md.chal == res.stats.n_reports  # one approval per report


class TestHealUpdate:
    def test_shorter_replacement_erases_stale_code(self):
        # heal with a replacement smaller than the running app: no byte of
        # the old image may survive in the application region
        from cfasim.mcu import render_pmem
        from cfasim.monitor import read_metadata

        fx = FIXTURES["password"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        ar = (built.symbols["app_main"], built.symbols["done"])
        tiny = assemble("""
        .org 0x9000
start:  CALL app_main
        HALT
        .org 0x9100
app_main:
        NOP
done:   NOP
        HALT
""", entry=LAY.tcb_min)
        patched_ar = (tiny.symbols["app_main"], tiny.symbols["done"])
        from cfasim.apps import encode_input, overflow_input
        result = run_image(built.image, ar, LAY, key_bytes=_derive_key(3),
                           heal_action=HealAction.UPDATE,
                           update_image=tiny.image, patched_ar=patched_ar,
                           input_bytes=encode_input(overflow_input(built.symbols)))
        assert result.outcome is Outcome.COMPLETED
        dev = result.device
        assert bytes(dev.state.pmem) == render_pmem(tiny.image, LAY)
        assert " app=1 " in result.audit[-1]

    def test_update_without_an_image_reboots_the_unchanged_image(self):
        from cfasim.apps import encode_input, overflow_input
        from cfasim.mcu import render_pmem

        fx = FIXTURES["password"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        ar = (built.symbols["app_main"], built.symbols["done"])
        runs = {action: run_image(built.image, ar, LAY, key_bytes=_derive_key(3),
                                  heal_action=action, cycle_budget=600_000,
                                  input_bytes=encode_input(overflow_input(built.symbols)))
                for action in (HealAction.UPDATE, HealAction.REBOOT)}
        update, reboot = runs[HealAction.UPDATE], runs[HealAction.REBOOT]
        assert update.device.stats.heal_cycles >= 2 * HEAL_CYCLES   # healed, rebooted, healed
        assert bytes(update.device.state.pmem) == render_pmem(built.image, LAY)
        assert update.audit == reboot.audit and update.reports == reboot.reports
        assert update.stats == reboot.stats

    def test_boot_reports_measure_the_image_in_place(self):
        """The first BOOT report measures the original image and the first
        one after the update heal the patched image, each checked against
        an HMAC recomputed here from the rendered PMEM."""
        import hashlib
        import hmac
        from cfasim.mcu import SLOT, render_pmem

        fx = FIXTURES["password"]
        res = run_scenario(ScenarioConfig(app="password", input_kind="overflow",
                                          heal_action=HealAction.UPDATE, seed=5))
        assert res.outcome is Outcome.COMPLETED
        lay = res.device.layout
        images = [assemble(src, entry=lay.tcb_min).image
                  for src in (fx.source, fx.patched_source)]
        boots = [r for r in res.reports if r.trigger is TriggerKind.BOOT]
        assert len(boots) == 2
        for report, image in zip(boots, images):
            msg = (render_pmem(image, lay) + report.metadata.pack()
                   + b"".join(SLOT.pack(*e) for e in report.entries))
            assert report.h == hmac.new(_derive_key(5), msg, hashlib.sha256).digest()

    def test_update_rewrites_code_the_old_image_ran(self):
        """The patch puts different instructions at addresses the old image
        already executed.  After the heal the core must run the new bytes
        (``McuState.store`` empties the decode cache), so the reports from
        the post-heal boot on decompress to the patched image's golden
        trace."""
        from helpers.golden import golden_region_trace
        from cfasim.apps import encode_input, overflow_input
        from cfasim.mcu import ProgramImage, Segment, render_pmem
        from test_acceptance import app_level

        fx = FIXTURES["password"]
        res = run_scenario(ScenarioConfig(app="password", input_kind="overflow",
                                          heal_action=HealAction.UPDATE,
                                          keep_trace=True))
        assert res.outcome is Outcome.COMPLETED
        lay = res.device.layout
        old = assemble(fx.source, entry=lay.tcb_min)
        new = assemble(fx.patched_source, entry=lay.tcb_min)
        old_pmem, new_pmem = render_pmem(old.image, lay), render_pmem(new.image, lay)

        trace = res.device.trace
        heal_at = next(i for i, b in enumerate(trace) if b.w_en and lay.in_pmem(b.d_addr))
        ran = {b.pc for b in trace[:heal_at] if b.inst is not None and b.pc >= lay.s_base}
        rewritten = [pc for pc in ran
                     if old_pmem[pc - lay.pmem_base:pc - lay.pmem_base + 4]
                     != new_pmem[pc - lay.pmem_base:pc - lay.pmem_base + 4]]
        assert rewritten

        boot = max(i for i, r in enumerate(res.reports) if r.trigger is TriggerKind.BOOT)
        assert boot > 0
        data = Segment(lay.input_base, encode_input(overflow_input(old.symbols)))
        patched = ProgramImage(new.image.entry, new.image.segments + (data,))
        ar = (new.symbols["app_main"], new.symbols["done"])
        want = golden_region_trace(patched, lay, ar)
        assert len(want) > 10
        assert app_level(res.reports[boot:], lay) == want

    def test_update_keeps_the_trusted_region(self):
        """A heal rewrites PMEM from ``s_base`` on, so an image with bytes
        in the trusted region keeps them, and the verifier's post-heal
        expectation is the booted TCB plus the update image."""
        from cfasim.apps import encode_input, overflow_input

        fx = FIXTURES["password"]
        built = assemble(".org 0x8010\n.word 0x1234\n" + fx.source, entry=LAY.tcb_min)
        patched = assemble(fx.patched_source, entry=LAY.tcb_min)
        res = run_image(built.image, (built.symbols["app_main"], built.symbols["done"]),
                        LAY, key_bytes=_derive_key(3), heal_action=HealAction.UPDATE,
                        update_image=patched.image,
                        patched_ar=(patched.symbols["app_main"], patched.symbols["done"]),
                        timer_deadline=1_000_000,
                        input_bytes=encode_input(overflow_input(built.symbols)))
        assert res.outcome is Outcome.COMPLETED
        pmem = bytes(res.device.state.pmem)
        assert pmem[0x10:0x12] == b"\x34\x12"
        assert pmem == res.verifier.expected_pmem == res.verifier.config.patched_pmem
        verdicts = [" app=1 " in line for line in res.audit]
        assert verdicts.count(False) == 1 and verdicts[-1]

    def test_oversized_update_is_rejected(self):
        # an update image that reaches into the TCB cannot be healed onto
        # the device; a reboot in its place would leave the verifier
        # expecting the new image, so both entry points refuse it up front
        from cfasim.device import Device
        from cfasim.mcu import ImageError, ProgramImage, Segment
        from cfasim.tcb import DeviceKey
        fx = FIXTURES["password"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        ar = (built.symbols["app_main"], built.symbols["done"])
        bogus = ProgramImage(LAY.tcb_min, (Segment(LAY.tcb_min, b"\x00" * 8),))
        past_end = ProgramImage(LAY.tcb_min, (Segment(LAY.pmem_end - 4, b"\x00" * 8),))
        for image in (bogus, past_end):
            assert not LAY.fits_app_region(image)
            with pytest.raises(ValueError, match="application region"):
                run_image(built.image, ar, LAY, key_bytes=_derive_key(3),
                          heal_action=HealAction.UPDATE, update_image=image)
            with pytest.raises(ImageError):
                Device(built.image, LAY, DeviceKey(_derive_key(3)),
                       heal_action=HealAction.UPDATE, update_image=image)
        assert LAY.fits_app_region(built.image)
        tail = ProgramImage(LAY.tcb_min, (Segment(LAY.s_base, b"\x00" * 4),
                                          Segment(LAY.pmem_end - 4, b"\x00" * 4)))
        assert LAY.fits_app_region(tail)


class TestTrustedSoftwareRecords:
    def test_trusted_records_take_the_commit_path(self):
        # every record the trusted software produces goes through the same
        # veto-then-commit path as an instruction, so each lands in the trace
        # exactly once; counts come from the run's own verdicts
        from cfasim.apps import PASSWORD_PATCHED
        res = run_scenario(ScenarioConfig(app="password", input_kind="overflow",
                                          heal_action=HealAction.UPDATE,
                                          keep_trace=True))
        lay = res.device.layout
        assert res.outcome is Outcome.COMPLETED
        assert len(res.audit) == len(res.reports)   # clean channel: one verdict each
        approves = sum(" app=1 " in line for line in res.audit)
        denies = len(res.audit) - approves
        assert denies == 1
        patch = assemble(PASSWORD_PATCHED, entry=LAY.tcb_min).image
        n_patch = len(range(lay.s_base, lay.pmem_end, 256)) + len(patch.segments)

        tcb = [b for b in res.device.trace if lay.in_tcb(b.pc)]
        stores = [b for b in tcb if b.w_en]
        metadata = range(lay.metadata_base, lay.metadata_base + METADATA.size)
        timer = range(lay.timer_reg, lay.timer_reg + TIMER.size)
        md_stores = [b for b in stores if b.d_addr in metadata]
        timer_stores = [b for b in stores if b.d_addr in timer]
        pmem_stores = [b for b in stores if lay.in_pmem(b.d_addr)]
        jumps = [b for b in tcb if b.pc == lay.tcb_max and b.inst is not None]
        exits = [b for b in jumps if b.pc_next != lay.tcb_min]
        clears = [b for b in jumps if b.pc_next == lay.tcb_min]
        assert len(md_stores) == 3 * len(res.audit)
        assert len(timer_stores) == approves      # the re-arm before each exit
        assert len(exits) == approves
        assert len(pmem_stores) == n_patch * denies
        assert len(clears) == denies
        assert len(tcb) == len(stores) + len(jumps)
        assert len(stores) == len(md_stores) + len(timer_stores) + len(pmem_stores)


class TestTriggerSuppression:
    def test_watchdog_resets_when_acceptance_is_blocked(self, monkeypatch):
        """Structurally unreachable in this machine (triggers vector on the
        next cycle), but the watchdog must hold if acceptance were ever
        suppressed."""
        import cfasim.device as device_mod
        from cfasim.mcu import NMI_LINE
        from cfasim.channel import Channel

        fx = FIXTURES["few_branch"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        from cfasim.device import Device
        from cfasim.tcb import DeviceKey
        dev = Device(built.image, LAY, DeviceKey(_derive_key(1)))
        chan = Channel()
        dev.tick(chan)                      # boot session
        while chan.deliver("vrf", dev.cycle) is None:
            dev.tick(chan)
        # fake approval path is unnecessary: force-run with a stuck NMI
        dev.mode = device_mod.DeviceMode.RUN
        dev._pending_session = None
        dev.state.pc = built.symbols["main"]
        dev.state.pending_irq[NMI_LINE] = dev.state.retired - 1
        dev._raised = (TriggerKind.BOOT, dev.state.cycle)
        monkeypatch.setattr(device_mod, "acceptable_line", lambda st: None)
        for _ in range(10):
            dev._run(1)
            if dev.last_reset is ResetReason.TRIGGER_SUPPRESSED:
                break
        assert dev.last_reset is ResetReason.TRIGGER_SUPPRESSED


class TestDmaWalk:
    LONG_LOOP = """
        .org 0x9000
main:   MOV r0, #20000
loop:   SUB r0, #1
        JNZ loop
fin:    NOP
        HALT
"""

    def test_dma_walking_into_metadata_vetoed_at_boundary(self):
        """A DMA burst starting in benign memory is stopped the cycle its
        address counter reaches the protected region."""
        # 140k cycles lands inside the delay loop, well past the boot session
        ev = DeviceEvents(attacks=[AttackEvent(at_cycle=140_000, kind="dma",
                                               addr=LAY.metadata_base - 2,
                                               count=6, value=0xEE)])
        result, _ = run_src(self.LONG_LOOP, events=ev)
        dev = result.device
        # the overlapping boundary disjuncts may label this either way
        assert dev.last_reset in (ResetReason.DMA_METADATA,
                                  ResetReason.METADATA_WRITE)
        lay = dev.layout
        off = lay.metadata_base - lay.dmem_base
        # the two benign bytes before the region landed, the region did not
        assert dev.state.dmem[off - 2] == 0xEE and dev.state.dmem[off - 1] == 0xEE
        assert dev.state.dmem[off] != 0xEE


class TestResponseHandling:
    def _boot_to_wait(self):
        from cfasim.channel import Channel
        from cfasim.device import Device, DeviceMode
        from cfasim.tcb import DeviceKey
        from cfasim.mcu import render_pmem
        from cfasim.verifier import Verifier, VerifierConfig

        fx = FIXTURES["few_branch"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        ar = (built.symbols["main"], built.symbols["fin"])
        key = _derive_key(4)
        dev = Device(built.image, LAY, DeviceKey(key))
        ver = Verifier(VerifierConfig(key=key,
                                      expected_pmem=render_pmem(built.image, LAY),
                                      layout=LAY, target_ar=ar))
        chan = Channel()
        dev.tick(chan)   # boot attestation, report sent
        frame = chan.deliver("vrf", dev.cycle + 10_000)
        assert frame is not None
        resp = ver.handle_report(frame)
        assert resp is not None
        return dev, ver, chan, resp

    def test_tampered_response_keeps_device_waiting(self):
        from cfasim.device import DeviceMode

        dev, ver, chan, resp = self._boot_to_wait()
        bad = bytearray(resp)
        bad[-1] ^= 0x01
        chan.inject("prv", bytes(bad), dev.cycle)
        for _ in range(20):
            dev.tick(chan)
        assert dev.mode is DeviceMode.WAIT
        assert dev.stats.n_rejected_responses >= 1
        chan.inject("prv", resp, dev.cycle)
        for _ in range(50):
            dev.tick(chan)
            if dev.mode is not DeviceMode.WAIT:
                break
        assert dev.mode is not DeviceMode.WAIT   # intact copy completed it

    def test_replayed_stale_response_rejected_after_acceptance(self):
        from cfasim.device import DeviceMode

        dev, ver, chan, resp = self._boot_to_wait()
        chan.inject("prv", resp, dev.cycle)
        for _ in range(50):
            dev.tick(chan)
            if dev.mode is not DeviceMode.WAIT:
                break
        rejected_before = dev.stats.n_rejected_responses
        # drive until the region-end report puts the device back in wait
        for _ in range(20_000):
            dev.tick(chan)
            if dev.mode is DeviceMode.WAIT and len(dev.reports) == 2:
                break
        assert dev.mode is DeviceMode.WAIT
        chan.inject("prv", resp, dev.cycle)   # replay of the consumed response
        for _ in range(20):
            dev.tick(chan)
        assert dev.mode is DeviceMode.WAIT
        assert dev.stats.n_rejected_responses > rejected_before

    def test_undecodable_response_is_rejected_and_the_run_completes(self):
        from cfasim.device import DeviceMode
        from cfasim.wire import WireError, decode_response

        dev, ver, chan, resp = self._boot_to_wait()
        garbage = resp[:-1]
        with pytest.raises(WireError):
            decode_response(garbage)
        chan.inject("prv", garbage, dev.cycle)
        chan.inject("prv", resp, dev.cycle + 1)
        while dev.running and dev.cycle < 1_000_000:
            dev.tick(chan)
            while (frame := chan.deliver("vrf", dev.cycle)) is not None:
                answer = ver.handle_report(frame)
                if answer is not None:
                    chan.send("prv", answer, dev.cycle)
        assert dev.mode is DeviceMode.HALTED
        assert dev.stats.n_rejected_responses == 1
        assert all(" app=1 " in line for line in ver.audit)

    def test_duplicated_frames_end_to_end(self):
        from cfasim.channel import ChannelPolicy
        res = run_scenario(ScenarioConfig(
            app="few_branch",
            channel=ChannelPolicy(dup_prob=1.0)))
        assert res.outcome is Outcome.COMPLETED
        # duplicate responses bounce off challenge monotonicity
        assert res.device.stats.n_rejected_responses >= 1


class TestVetoSkip:
    """``Device._commit`` skips the rules on a record that writes nothing
    (no ``w_en``, ``dma_en`` or ``irq_acc``) while the RoT is in application
    mode and neither ``pc`` nor ``pc_next`` lies in the TCB.  Every record
    these runs commit is checked here: the rules ran on it exactly when the
    guard fails, and when it holds all three rules pass it under the RoT
    state the run itself had."""

    @staticmethod
    def record_rules(monkeypatch):
        from collections import Counter
        from cfasim.device import Device
        from cfasim.monitor import boundary_check, timer_write_check
        from cfasim.rot import Mode, RotState, rot_check

        counts = Counter()
        checked = set()
        commit, vetoed = Device._commit, Device._vetoed

        def vetoed_spy(self, bus):
            checked.add(id(bus))
            return vetoed(self, bus)

        def commit_spy(self, bus, cycles):
            rot = RotState(self.rot.mode, self.rot.heal_latch)
            checked.discard(id(bus))
            ev = commit(self, bus, cycles)
            lay = self.layout
            guard = not (bus.w_en or bus.dma_en or bus.irq_acc) \
                and rot.mode is Mode.APP \
                and not lay.in_tcb(bus.pc) and not lay.in_tcb(bus.pc_next)
            assert (id(bus) in checked) is not guard, bus
            if guard:
                assert boundary_check(bus, lay) is None, bus
                assert timer_write_check(bus, lay) is None, bus
                assert rot_check(bus, rot, lay) is None, bus
            counts["skipped" if guard else "checked"] += 1
            return ev

        monkeypatch.setattr(Device, "_vetoed", vetoed_spy)
        monkeypatch.setattr(Device, "_commit", commit_spy)
        return counts

    def test_criterion_1_corpus(self, monkeypatch):
        import hashlib
        from helpers.progen import SMALL_LAYOUT, generate

        counts = self.record_rules(monkeypatch)
        for seed in range(100):
            prog = generate(seed)
            res = assemble(prog.source, entry=SMALL_LAYOUT.tcb_min)
            run_image(res.image, (res.symbols["main"], res.symbols["fin"]),
                      SMALL_LAYOUT, key_bytes=hashlib.sha256(b"c1:%d" % seed).digest(),
                      events=DeviceEvents(irq_at_retire=prog.irq_at_retire),
                      ivt_targets=tuple(res.symbols[l] for l in prog.isr_labels))
        assert counts["skipped"] > 10 * counts["checked"] > 0

    def test_criterion_5_interference_classes(self, monkeypatch):
        counts = self.record_rules(monkeypatch)
        resets = []
        for attack in ("MOV &0x0200, r1", "MOV &0x0104, r1", "JMP 0x8008",
                       "MOV &0x0050, r1"):
            result, _ = run_src(one_shot(f"        CALL work\n        {attack}")
                                + "work:   RET\n")
            resets.append(result.device.last_reset)
        fx = FIXTURES["few_branch"]
        built = assemble(fx.source, entry=LAY.tcb_min)
        for event in (AttackEvent(at_cycle=140_000, kind="dma", count=2, value=0xFF,
                                  addr=LAY.metadata_base),
                      AttackEvent(at_cycle=140_000, kind="force-irq", line=3)):
            result = run_image(built.image, (built.symbols["main"], built.symbols["fin"]),
                               LAY, key_bytes=_derive_key(5),
                               events=DeviceEvents(attacks=[event]),
                               channel_policy=ChannelPolicy(latency=300_000))
            resets.append(result.device.last_reset)
        assert None not in resets and len(set(resets)) == 6
        assert counts["skipped"] > 0 and counts["checked"] > 0

    @pytest.mark.parametrize("app", sorted(FIXTURES))
    def test_fixtures_under_update_heal(self, monkeypatch, app):
        counts = self.record_rules(monkeypatch)
        res = run_scenario(ScenarioConfig(app=app, input_kind="overflow",
                                          heal_action=HealAction.UPDATE))
        assert res.outcome is Outcome.COMPLETED
        assert counts["skipped"] > 0 and counts["checked"] > 0


class TestAttackSchedule:
    """Attacks apply in cycle order, and attacks due at the same cycle in
    the order given; the schedule is read, never consumed."""

    DMA = AttackEvent(at_cycle=140_000, kind="dma", addr=LAY.metadata_base,
                      count=1, value=1)
    IRQ = AttackEvent(at_cycle=140_000, kind="force-irq", line=3)

    @staticmethod
    def run(events):
        result, _ = run_src(FIXTURES["few_branch"].source, events=events,
                            channel_policy=ChannelPolicy(latency=300_000))
        return result

    @pytest.mark.parametrize("attacks, last", [
        ([DMA, IRQ], ResetReason.IRQ_IN_TCB),
        ([IRQ, DMA], ResetReason.DMA_METADATA),
    ])
    def test_same_cycle_attacks_apply_in_given_order(self, attacks, last):
        assert self.run(DeviceEvents(attacks=attacks)).device.last_reset is last

    def test_unsorted_schedule_applies_the_earliest_first(self):
        late_irq = AttackEvent(at_cycle=150_000, kind="force-irq", line=3)
        result = self.run(DeviceEvents(attacks=[late_irq, self.DMA]))
        assert result.device.last_reset is ResetReason.IRQ_IN_TCB

    def test_one_schedule_runs_twice_alike(self):
        events = DeviceEvents(attacks=[self.IRQ, self.DMA])
        first, second = self.run(events), self.run(events)
        assert first.audit == second.audit
        assert second.device.last_reset is ResetReason.DMA_METADATA


class TestIrqSchedule:
    """Only the trigger logic raises the NMI line (line 0).  A schedule that
    names it, which would ship a report labelled BOOT mid-run, or a line the
    core does not have, is refused when the device is built."""

    @staticmethod
    def build(irq_at_retire):
        from cfasim.device import Device
        from cfasim.tcb import DeviceKey

        built = assemble(FIXTURES["moderate"].source, entry=LAY.tcb_min)
        return Device(built.image, LAY, DeviceKey(_derive_key(1)),
                      events=DeviceEvents(irq_at_retire=irq_at_retire))

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_nmi_line_is_refused(self, n):
        with pytest.raises(ValueError, match="line 0"):
            self.build({n: (0,)})

    def test_unknown_line_is_refused(self):
        with pytest.raises(ValueError, match="line 9"):
            self.build({3: (1,), 5: (9,)})

    def test_maskable_lines_are_accepted(self):
        dev = self.build({3: tuple(range(1, 8))})
        assert dev.events.irq_at_retire == {3: tuple(range(1, 8))}


class TestCallBudget:
    """The application loop's cost in Python calls, counted with
    ``sys.setprofile`` rather than timed: a delay-loop retirement makes five
    (``predict_bus``, ``SignalBus.__init__``, ``Device._commit``,
    ``CfaMonitor.observe`` and ``apply_instr``), plus its share of one drive
    loop pass per ``TICK_BURST`` cycles."""

    @staticmethod
    def calls(n):
        import sys

        built = assemble(f"""
        .org 0x9000
main:   MOV r6, #{n}
loop:   SUB r6, #1
        JNZ loop
fin:    NOP
        HALT
""", entry=LAY.tcb_min)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call":
                count += 1

        sys.setprofile(profile)
        try:
            res = run_image(built.image, (built.symbols["main"], built.symbols["fin"]),
                            LAY, key_bytes=_derive_key(1))
        finally:
            sys.setprofile(None)
        assert res.outcome is Outcome.COMPLETED
        return count, res.device.state.retired

    def test_delay_loop_retirement_makes_five_calls(self):
        self.calls(1_000)       # warm the process-wide decode table
        c1, r1 = self.calls(1_000)
        c3, r3 = self.calls(3_000)
        assert r3 - r1 == 4_000
        assert (c3 - c1) / (r3 - r1) <= 5.1
