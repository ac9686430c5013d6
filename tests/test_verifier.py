import hashlib

import pytest

from cfasim.apps import PASSWORD
from cfasim.asm import assemble
from cfasim.mcu import MemoryLayout, render_pmem
from cfasim.scenario import Outcome, ScenarioConfig, run_scenario
from cfasim.verifier import (EXTERNAL, SliceKind, VerifySession, Violation,
                             build_cfg, validate_slice)

LAY = MemoryLayout()


@pytest.fixture(scope="module")
def pw():
    res = assemble(PASSWORD, entry=LAY.tcb_min)
    ar = (res.symbols["app_main"], res.symbols["done"])
    cfg = build_cfg(render_pmem(res.image, LAY), ar)
    return res, ar, cfg


def session(ar, chal=1):
    s = VerifySession(LAY)
    s.issued_ar = ar
    s.issued_chal = chal
    return s


def benign_single_slice(sym, loop_count=4):
    """Entries the hardware emits for a benign password run (count = input
    words copied)."""
    return [
        (0x9000 + 8, sym["app_main"]),        # CALL app_main from start
        (sym["app_main"], sym["getpw"]),      # CALL getpw
        (0x915C, sym["cploop"]),              # copy loop backward jump
        (0x0000, loop_count),                 # loop counter
        (0x9144, sym["cpdone"]),              # JZ cpdone
        (0x91A4, sym["gexit"]),               # all compares matched, JMP gexit
        (0x91CC, sym["app_main"] + 4),        # RET back to app_main
        (0x910C, sym["sense"]),               # JMP sense
        (0x91EC, sym["sloop"]),               # sense loop backward jump
        (0x0000, 5),                          # counter
        (sym["done"], LAY.tcb_min),           # region-end trigger jump
    ]


class TestSliceRules:
    def test_benign_single_slice_accepted(self, pw):
        res, ar, cfg = pw
        sym = dict(res.symbols, cpdone=res.symbols["cpdone"], sloop=res.symbols["sloop"])
        s = session(ar)
        assert validate_slice(SliceKind.SINGLE, benign_single_slice(sym), cfg, s) is None

    def test_first_entry_must_target_region_start(self, pw):
        res, ar, cfg = pw
        entries = benign_single_slice(res.symbols)
        entries[0] = (0x9008, res.symbols["getpw"])   # jumps past the entry
        v = validate_slice(SliceKind.SINGLE, entries, cfg, session(ar))
        assert v == Violation(0, "BadRegionEntry")

    def test_return_mismatch_detected_at_offending_index(self, pw):
        res, ar, cfg = pw
        sym = res.symbols
        entries = benign_single_slice(sym)
        entries[6] = (0x91CC, sym["sense"])   # hijacked return
        v = validate_slice(SliceKind.SINGLE, entries, cfg, session(ar))
        assert v is not None and v.reason == "ReturnMismatch" and v.index == 6

    def test_edge_absent_from_cfg_rejected(self, pw):
        res, ar, cfg = pw
        entries = benign_single_slice(res.symbols)
        entries[7] = (0x910C, res.symbols["nope"])   # JMP with the wrong target
        v = validate_slice(SliceKind.SINGLE, entries, cfg, session(ar))
        assert v is not None and v.index == 7 and v.reason == "BadJumpTarget"

    def test_counter_requires_backward_jump(self, pw):
        res, ar, cfg = pw
        sym = res.symbols
        entries = [
            (0x9008, sym["app_main"]),
            (sym["app_main"], sym["getpw"]),
            (0x0000, 3),                      # counter without a loop before it
        ]
        v = validate_slice(SliceKind.FIRST, entries, cfg, session(ar))
        assert v is not None and v.index == 2

    def test_shadow_underflow_detected(self, pw):
        res, ar, cfg = pw
        sym = res.symbols
        s = session(ar)
        s.pending_resume = frozenset({sym["gexit"]})
        s.shadow = []
        # resumed at gexit, then a return with nothing on the shadow
        v = validate_slice(SliceKind.INTERMEDIATE,
                           [(LAY.tcb_max, sym["gexit"]), (0x91CC, sym["app_main"] + 4)],
                           cfg, s)
        assert v == Violation(1, "ShadowUnderflow")

    def test_violation_leaves_session_untouched(self, pw):
        res, ar, cfg = pw
        s = session(ar)
        before = (list(s.shadow), s.cursor, s.pending_resume, s.last_src)
        entries = benign_single_slice(res.symbols)
        entries[6] = (0x91CC, res.symbols["sense"])
        validate_slice(SliceKind.SINGLE, entries, cfg, s)
        assert (list(s.shadow), s.cursor, s.pending_resume, s.last_src) == before


CALLI_PROGRAM = """
        .org 0x9000
start:  CALL main
        HALT
main:   MOV r1, #work
        ADD r1, #4          ; work+4: no CALL or MOV #imm names it
        CALLI r1
        JMP fin
work:   NOP
        RET
fin:    NOP
"""

# Enters getpw from unaudited code at 0x9000 and returns there, leaving the
# cursor outside the region.
LEAVE_REGION = [(0x9000, "getpw"), (0x9144, "cpdone"), (0x91A4, "gexit"),
                (0x91CC, 0x9004)]


def _resolve(entries, sym):
    return [tuple(sym[x] if isinstance(x, str) else x for x in e) for e in entries]


class TestSliceViolationTable:
    """Hand-built slices that reach each violation the fixture runs never
    produce; every case pins the exact index and reason."""

    @pytest.mark.parametrize("kind, cursor, entries, expect", [
        pytest.param(SliceKind.FIRST, None,
                     [(0x9008, "app_main"), ("app_main", "cpdone")],
                     Violation(1, "BadCallTarget"), id="call-to-other-target"),
        pytest.param(SliceKind.FIRST, None,
                     [(0x9008, "app_main"), ("app_main", "getpw"), (0x9144, 0x9150)],
                     Violation(2, "BadJumpTarget"), id="conditional-to-other-target"),
        pytest.param(SliceKind.FIRST, None,
                     [(0x9008, "app_main"), ("app_main", "getpw"),
                      (0x9144, "cpdone"), (0x9164, "nope")],
                     Violation(3, "UnknownEdge"), id="transfer-from-non-branch"),
        pytest.param(SliceKind.FIRST, None,
                     [(0x9008, "app_main"), ("app_main", "getpw"), (0x9144, "cpdone"),
                      (0x91A4, "gexit"), (0x91CC, 0x9104), (0x0000, 3)],
                     Violation(5, "BadCounter"), id="counter-after-non-loop-jump"),
        pytest.param(SliceKind.INTERMEDIATE, None, [(LAY.tcb_max, 0x9000)],
                     Violation(0, "BadSliceStart"), id="resume-outside-region"),
        pytest.param(SliceKind.INTERMEDIATE, None, [(0x9008, "app_main")],
                     Violation(0, "BadSliceStart"), id="entry-without-exit-jump"),
        pytest.param(SliceKind.INTERMEDIATE, EXTERNAL, [(0x9000, "cpdone")],
                     Violation(0, "UnknownEdge"), id="first-entry-from-outside"),
        pytest.param(SliceKind.INTERMEDIATE, EXTERNAL, LEAVE_REGION + [(0x9000, "nope")],
                     Violation(4, "UnknownEdge"), id="entry-from-outside"),
        pytest.param(SliceKind.INTERMEDIATE, EXTERNAL, LEAVE_REGION + [(0x910C, "sense")],
                     Violation(4, "BrokenFlow"), id="source-inside-while-outside"),
        pytest.param(SliceKind.FIRST, None, [(LAY.tcb_min, "app_main")],
                     Violation(0, "BrokenFlow"), id="run-entered-from-trusted-software"),
        pytest.param(SliceKind.INTERMEDIATE, EXTERNAL,
                     LEAVE_REGION + [(LAY.tcb_max, "getpw")],
                     Violation(4, "BrokenFlow"), id="entry-from-trusted-software"),
    ])
    def test_password_slices(self, pw, kind, cursor, entries, expect):
        res, ar, cfg = pw
        s = session(ar)
        s.cursor = cursor
        before = (list(s.shadow), s.cursor, s.pending_resume, s.last_src)
        assert validate_slice(kind, _resolve(entries, res.symbols), cfg, s) == expect
        assert (list(s.shadow), s.cursor, s.pending_resume, s.last_src) == before

    def test_indirect_call_to_unknown_entry(self):
        res = assemble(CALLI_PROGRAM, entry=LAY.tcb_min)
        sym = res.symbols
        ar = (sym["main"], sym["fin"])
        cfg = build_cfg(render_pmem(res.image, LAY), ar)
        entries = [(0x9000, sym["main"]), (sym["main"] + 8, sym["work"] + 4)]
        v = validate_slice(SliceKind.FIRST, entries, cfg, session(ar))
        assert v == Violation(1, "IndirectTarget")

    def test_indirect_call_to_address_taken_entry(self):
        # MOV r1, #work takes work's address, so a CALLI may go there even
        # though no direct CALL does
        res = assemble(CALLI_PROGRAM, entry=LAY.tcb_min)
        sym = res.symbols
        ar = (sym["main"], sym["fin"])
        cfg = build_cfg(render_pmem(res.image, LAY), ar)
        assert cfg.known_entries == {sym["main"], sym["work"]}
        entries = [(0x9000, sym["main"]), (sym["main"] + 8, sym["work"])]
        assert validate_slice(SliceKind.FIRST, entries, cfg, session(ar)) is None


class TestSliceComposability:
    def test_slicewise_equals_concatenated(self):
        """Validating slices one by one with carried state accepts exactly the
        concatenated trace (triggers only cut, never change content)."""
        res = run_scenario(ScenarioConfig(app="moderate", max_cflog_bytes=512))
        assert all(" app=1 " in line for line in res.audit)
        slices = [list(r.entries) for r in res.reports if r.entries]

        big = run_scenario(ScenarioConfig(app="moderate", max_cflog_bytes=4096))
        assert all(" app=1 " in line for line in big.audit)
        big_slices = [list(r.entries) for r in big.reports if r.entries]
        assert len(big_slices) < len(slices)

        from cfasim.scenario import decompress_entries
        lay = res.device.layout

        def app_entries(groups):
            out = []
            for g in groups:
                out.extend(e for e in decompress_entries(g)
                           if not (lay.in_tcb(e[0]) or lay.in_tcb(e[1])))
            return out

        assert app_entries(slices) == app_entries(big_slices)


class TestEndToEndVerdicts:
    def test_benign_run_all_slices_approved(self):
        res = run_scenario(ScenarioConfig(app="password", max_cflog_bytes=256))
        assert all(" app=1 " in line for line in res.audit)

    def test_overflow_detected_in_second_report(self):
        res = run_scenario(ScenarioConfig(app="password", max_cflog_bytes=256,
                                          input_kind="overflow"))
        assert " app=0 " in res.audit[1]
        assert "ReturnMismatch" in res.audit[1]

    def test_run_end_is_read_off_the_last_entry(self, pw):
        """After the boot report, an authentic slice ends the run (SINGLE)
        exactly when its last entry is the region-end jump into the trusted
        software; cut short of that jump it only starts one (FIRST)."""
        from cfasim.monitor import Metadata, TriggerKind
        from cfasim.verifier import Verifier, VerifierConfig
        from cfasim.wire import CfaReport, attest_digest, encode_report

        res, ar, cfg = pw
        key = hashlib.sha256(b"vk").digest()
        pmem = render_pmem(res.image, LAY)
        full = benign_single_slice(res.symbols)
        assert full[-1] == (ar[1], LAY.tcb_min)
        for entries, trigger, kind in ((full[:-1], TriggerKind.TIMER, "first"),
                                       (full, TriggerKind.REGION_END, "single")):
            ver = Verifier(VerifierConfig(key=key, expected_pmem=pmem, layout=LAY,
                                          target_ar=ar))
            for md, trig, slice_ in ((Metadata(0, 0, 0, 0), TriggerKind.BOOT, ()),
                                     (Metadata(1, *ar, len(entries)), trigger,
                                      tuple(entries))):
                rep = CfaReport(attest_digest(key, pmem, md, slice_), md, trig, slice_)
                assert ver.handle_report(encode_report(rep)) is not None
            assert ver.audit == ["seq=1 kind=first app=1 reason=ok entries=0",
                                 f"seq=2 kind={kind} app=1 reason=ok "
                                 f"entries={len(entries)}"]

    def test_stale_challenge_report_dropped(self, pw):
        from cfasim.monitor import Metadata
        from cfasim.verifier import Verifier, VerifierConfig
        from cfasim.wire import CfaReport, attest_digest, encode_report
        from cfasim.monitor import TriggerKind

        res, ar, cfg = pw
        key = hashlib.sha256(b"vk").digest()
        pmem = render_pmem(res.image, LAY)
        ver = Verifier(VerifierConfig(key=key, expected_pmem=pmem, layout=LAY,
                                      target_ar=ar))
        md = Metadata(7, *ar, 0)     # challenge never issued
        rep = CfaReport(attest_digest(key, pmem, md, []), md, TriggerKind.TIMER)
        assert ver.handle_report(encode_report(rep)) is None
        assert "stale-chal" in ver.audit[-1]

    def test_bad_mac_report_dropped_without_response(self, pw):
        from cfasim.monitor import Metadata, TriggerKind
        from cfasim.verifier import Verifier, VerifierConfig
        from cfasim.wire import CfaReport, encode_report

        res, ar, cfg = pw
        key = hashlib.sha256(b"vk").digest()
        ver = Verifier(VerifierConfig(key=key, expected_pmem=render_pmem(res.image, LAY),
                                      layout=LAY, target_ar=ar))
        rep = CfaReport(b"\x00" * 32, Metadata(0, 0, 0, 0), TriggerKind.BOOT)
        assert ver.handle_report(encode_report(rep)) is None
        assert "bad-mac" in ver.audit[-1]

    def test_foreign_region_denied_and_malformed_frame_dropped(self, pw):
        from cfasim.monitor import Metadata, TriggerKind
        from cfasim.verifier import Verifier, VerifierConfig
        from cfasim.wire import CfaReport, attest_digest, decode_response, encode_report

        res, ar, cfg = pw
        key = hashlib.sha256(b"vk").digest()
        pmem = render_pmem(res.image, LAY)
        ver = Verifier(VerifierConfig(key=key, expected_pmem=pmem, layout=LAY,
                                      target_ar=ar))
        md = Metadata(0, *ar, 0)     # authentic, but the region was never issued
        rep = CfaReport(attest_digest(key, pmem, md, []), md, TriggerKind.BOOT)
        assert decode_response(ver.handle_report(encode_report(rep))).app == 0
        assert ver.handle_report(b"\x00" * 10) is None
        assert ver.audit == ["seq=1 kind=first app=0 reason=bad-ar entries=0",
                             "seq=2 kind=? app=0 reason=bad-frame entries=0"]

    def test_responses_have_increasing_challenges(self):
        res = run_scenario(ScenarioConfig(app="moderate", max_cflog_bytes=512))
        chals = []
        from cfasim.wire import decode_response
        for ep, frame in res.channel.captured:
            if ep == "prv" and len(frame) == 41:
                chals.append(decode_response(frame).chal)
        assert chals == sorted(chals)
        assert len(set(chals)) == len(chals)

    def test_only_the_last_response_is_kept_for_resends(self):
        from cfasim.channel import PROVER, VERIFIER
        res = run_scenario(ScenarioConfig(app="loop_heavy", max_cflog_bytes=16,
                                          timer_deadline_cycles=20_000,
                                          cycle_budget=10**9))
        assert res.outcome is Outcome.COMPLETED
        ver = res.verifier
        reports = [f for ep, f in res.channel.captured if ep == VERIFIER]
        responses = [f for ep, f in res.channel.captured if ep == PROVER]
        assert len(reports) == len(responses) > 100
        # the last report, resent, gets its byte-identical answer from the cache
        assert ver.handle_report(reports[-1]) == responses[-1]
        assert " reason=resend " in ver.audit[-1]
        # one cached response for the whole run: an older report is now stale
        assert ver._last[1] == responses[-1]
        assert ver.handle_report(reports[-2]) is None
        assert " reason=stale-chal " in ver.audit[-1]

    def test_update_expectation_is_built_once(self, pw, monkeypatch):
        """The first deny switches the expectation to the configured update
        and builds its CFG, once, however many denies follow: here the
        update reinstalls the same overflowable image, so every run is
        denied."""
        import cfasim.verifier as verifier
        from cfasim.apps import encode_input, overflow_input
        from cfasim.scenario import run_image
        from cfasim.tcb import HealAction

        res, ar, _ = pw
        builds = []
        build_cfg = verifier.build_cfg
        monkeypatch.setattr(verifier, "build_cfg",
                            lambda *args: builds.append(args[1]) or build_cfg(*args))
        out = run_image(res.image, ar, LAY, key_bytes=hashlib.sha256(b"vk").digest(),
                        heal_action=HealAction.UPDATE, update_image=res.image,
                        patched_ar=ar, cycle_budget=1_000_000,
                        input_bytes=encode_input(overflow_input(res.symbols)))
        denies = [line for line in out.audit if " app=0 " in line and "kind=?" not in line]
        assert len(denies) >= 3
        assert builds == [ar, ar]
        assert out.verifier.expected_pmem == render_pmem(res.image, LAY)


class TestTriggerByte:
    """Report byte 42 lies outside ``h``: the slice kind must come from the
    authenticated entries, never from that byte."""

    @pytest.mark.parametrize("app,log_size", [("few_branch", 512), ("moderate", 32)])
    def test_flips_among_non_restart_kinds_change_no_verdict(self, app, log_size):
        from cfasim.channel import VERIFIER
        from cfasim.monitor import TriggerKind
        from cfasim.verifier import Verifier

        res = run_scenario(ScenarioConfig(app=app, max_cflog_bytes=log_size,
                                          cycle_budget=10**9))
        assert res.outcome is Outcome.COMPLETED
        frames = [f for ep, f in res.channel.captured if ep == VERIFIER]

        def replay(frames):
            ver = Verifier(res.verifier.config)
            for frame in frames:
                ver.handle_report(frame)
            return ver.audit

        assert replay(frames) == res.audit
        kinds = (TriggerKind.TIMER, TriggerKind.LOG_FULL, TriggerKind.REGION_END)
        flips = 0
        for i, frame in enumerate(frames):
            if frame[42] not in kinds:
                continue
            for kind in kinds:
                if kind != frame[42]:
                    flipped = list(frames)
                    flipped[i] = frame[:42] + bytes([kind]) + frame[43:]
                    assert replay(flipped) == res.audit, (i, kind.name)
                    flips += 1
        assert flips >= 2


class TestSliceEdgeRules:
    def test_entries_after_trigger_jump_rejected(self, pw):
        res, ar, cfg = pw
        sym = res.symbols
        entries = [
            (0x9008, sym["app_main"]),
            (sym["app_main"], sym["getpw"]),
            (0x9134, LAY.tcb_min),          # trigger acceptance mid-slice
            (0x915C, sym["cploop"]),        # nothing may follow it
        ]
        v = validate_slice(SliceKind.FIRST, entries, cfg, session(ar))
        assert v is not None and v.reason == "EntriesAfterTrigger" and v.index == 3

    def test_intermediate_resume_must_match_announced_point(self, pw):
        res, ar, cfg = pw
        sym = res.symbols
        s = session(ar)
        s.pending_resume = frozenset({sym["sense"]})
        v = validate_slice(SliceKind.INTERMEDIATE,
                           [(LAY.tcb_max, sym["getpw"])], cfg, s)
        assert v is not None and v.reason == "ResumeMismatch"
        ok = validate_slice(SliceKind.INTERMEDIATE,
                            [(LAY.tcb_max, sym["sense"])], cfg, s)
        assert ok is None

    def test_counter_value_below_two_rejected(self, pw):
        res, ar, cfg = pw
        sym = res.symbols
        entries = [
            (0x9008, sym["app_main"]),
            (sym["app_main"], sym["getpw"]),
            (0x915C, sym["cploop"]),
            (0x0000, 1),                    # counters start at two
        ]
        v = validate_slice(SliceKind.FIRST, entries, cfg, session(ar))
        assert v is not None and v.index == 3


IRQ_PROGRAM = """
        .org 0x9000
main:   NOP
        JZ skip
skip:   NOP
spin:   NOP
        JMP spin
after:  NOP
fin:    NOP
        HALT
isr:    RETI
"""


class TestInterruptAcceptance:
    """Acceptances whose resume point the walk has to work out from the
    transfers before them, with ``ar = (main, fin)`` and IVT target ``isr``."""

    @pytest.fixture(scope="class")
    def irq(self):
        res = assemble(IRQ_PROGRAM, entry=LAY.tcb_min)
        sym = res.symbols
        ar = (sym["main"], sym["fin"])
        cfg = build_cfg(render_pmem(res.image, LAY), ar, (sym["isr"],))
        return sym, ar, cfg

    @staticmethod
    def snapshot(s):
        return (list(s.shadow), s.cursor, s.pending_resume, s.last_src)

    def test_acceptance_after_taken_jump_resumes_at_its_target(self, irq):
        sym, ar, cfg = irq
        s = session(ar)
        jmp = sym["spin"] + 4
        entries = [(LAY.tcb_max, sym["main"]), (jmp, sym["spin"]), (jmp, LAY.tcb_min)]
        assert validate_slice(SliceKind.FIRST, entries, cfg, s) is None
        assert s.pending_resume == {sym["spin"]}

    @pytest.mark.parametrize("kind, pending, entries", [
        # a JMP has no fall-through: an acceptance attributed to the one at
        # spin+4 must follow its own logged transfer, and none was logged
        pytest.param(SliceKind.FIRST, None,
                     [(LAY.tcb_max, "main"), ("jmp", LAY.tcb_min)],
                     id="jump-not-retired"),
        # after lies past the jump at spin+4: straight-line flow from main
        # cannot reach it
        pytest.param(SliceKind.FIRST, None,
                     [(LAY.tcb_max, "main"), ("after", LAY.tcb_min)],
                     id="source-unreachable"),
        # the handler would return past fin, outside the region
        pytest.param(SliceKind.INTERMEDIATE, {"after"},
                     [(LAY.tcb_max, "after"), ("fin", "isr")],
                     id="handler-resumes-outside"),
    ])
    def test_inconsistent_acceptance_is_broken_flow(self, irq, kind, pending, entries):
        sym, ar, cfg = irq
        sym = dict(sym, jmp=sym["spin"] + 4)
        s = session(ar)
        if pending is not None:
            s.pending_resume = frozenset(sym[p] for p in pending)
        before = self.snapshot(s)
        v = validate_slice(kind, _resolve(entries, sym), cfg, s)
        assert v == Violation(1, "BrokenFlow")
        assert self.snapshot(s) == before
