"""Scenario-runner behavior: outcome taxonomy, statistics invariants, and
the qualitative trigger patterns of the sample-application table."""

import pytest

from cfasim.asm import assemble
from cfasim.device import DeviceMode
from cfasim.mcu import MemoryLayout
from cfasim.scenario import (Outcome, ScenarioConfig, StatsReport, run_image,
                             run_scenario, _derive_key)
from cfasim.monitor import TriggerKind
from cfasim.tcb import RETRANSMIT_EVERY, HealAction


def test_every_trigger_yields_exactly_one_report():
    for app in ("few_branch", "moderate", "loop_heavy", "password"):
        res = run_scenario(ScenarioConfig(app=app))
        assert res.stats.n_reports == res.stats.trigger_total


def test_kv_lines_are_parseable():
    res = run_scenario(ScenarioConfig(app="few_branch"))
    kv = dict(line.split("=", 1) for line in res.stats.kv_lines())
    assert kv["app"] == "few_branch"
    assert int(kv["n_reports"]) == 2
    assert kv["outcome"] == "completed"


def test_budget_exhaustion_distinct_from_deadlock():
    lay = MemoryLayout()
    # an application spinning forever, with triggers effectively disabled
    spin = assemble("""
        .org 0x9000
main:   MOV r0, #1
loop:   ADD r0, #1
        JMP loop
fin:    NOP
        HALT
""", entry=lay.tcb_min)
    res = run_image(spin.image, (spin.symbols["main"], spin.symbols["fin"]), lay,
                    key_bytes=_derive_key(0), cycle_budget=250_000)
    assert res.outcome is Outcome.BUDGET_EXHAUSTED

    from cfasim.channel import ChannelPolicy
    dark = run_scenario(ScenarioConfig(
        app="few_branch", channel=ChannelPolicy(blackout_windows=((0, 10**9),)),
        cycle_budget=250_000))
    assert dark.outcome is Outcome.DEADLOCK


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(app="moderate", max_cflog_bytes=16),
    ScenarioConfig(app="password", input_kind="overflow",
                   heal_action=HealAction.REBOOT),
], ids=["moderate-log16", "password-overflow-reboot"])
def test_budget_end_in_a_fresh_wait_is_not_deadlock(cfg):
    """A budget that runs out before any retransmission went unanswered
    stops a healthy wait, not a stalled one."""
    res = run_scenario(cfg)
    assert res.device.mode is DeviceMode.WAIT
    assert res.outcome is Outcome.BUDGET_EXHAUSTED
    assert res.device.cycle - res.device.wait_started < RETRANSMIT_EVERY


def test_periodic_trigger_reports_spinning_application():
    # the same spinning app cannot evade auditing once the timer is armed
    lay = MemoryLayout()
    spin = assemble("""
        .org 0x9000
main:   MOV r0, #1
loop:   ADD r0, #1
        JMP loop
fin:    NOP
        HALT
""", entry=lay.tcb_min)
    res = run_image(spin.image, (spin.symbols["main"], spin.symbols["fin"]), lay,
                    key_bytes=_derive_key(0), timer_deadline=2_000,
                    cycle_budget=800_000)
    assert res.stats.n_t1 >= 2
    assert all(" app=1 " in l for l in res.audit)   # spinning is a valid path


def test_intermediate_trigger_source_shifts_with_log_size():
    """With a deadline between the two fill times, intermediate reports come
    from the full log at the small size but from the timer at the large one."""
    small = run_scenario(ScenarioConfig(app="loop_heavy", max_cflog_bytes=512,
                                        timer_deadline_cycles=500))
    large = run_scenario(ScenarioConfig(app="loop_heavy", max_cflog_bytes=1024,
                                        timer_deadline_cycles=500))
    assert small.outcome is Outcome.COMPLETED
    assert large.outcome is Outcome.COMPLETED
    assert small.stats.n_t2 > 0
    assert large.stats.n_t2 == 0
    assert large.stats.n_t1 > 0
    assert large.stats.n_reports <= small.stats.n_reports


def test_table_header_matches_rows():
    res = run_scenario(ScenarioConfig(app="few_branch"))
    header_cols = StatsReport.TABLE_HEADER.split()
    row_cols = res.stats.table_row().split()
    assert len(header_cols) == len(row_cols)


def test_reports_across_sessions_share_log_content(tmp_path):
    # the boot report after an update-heal must be empty (already-audited
    # slices are never re-sent)
    from cfasim.tcb import HealAction
    res = run_scenario(ScenarioConfig(app="password", max_cflog_bytes=256,
                                      input_kind="overflow",
                                      heal_action=HealAction.UPDATE))
    idx = next(i for i, r in enumerate(res.reports)
               if r.trigger is TriggerKind.BOOT and i > 0)
    assert res.reports[idx].entries == ()


def _password_with_input(input_bytes):
    from cfasim.apps import FIXTURES
    lay = MemoryLayout()
    fx = FIXTURES["password"]
    built = assemble(fx.source, entry=lay.tcb_min)
    ar = (built.symbols[fx.ar_labels[0]], built.symbols[fx.ar_labels[1]])
    return run_image(built.image, ar, lay, key_bytes=_derive_key(1),
                     input_bytes=input_bytes)


def test_input_longer_than_its_region_rejected():
    """0xB0 bytes would run past the 0x80-byte input region into the
    metadata (the boot report then carried chal=0x01010101)."""
    with pytest.raises(ValueError, match="input region holds 128"):
        _password_with_input(b"\x01" * 0xB0)


def test_input_filling_its_region_accepted():
    res = _password_with_input(b"\x01" * MemoryLayout.input_size)
    assert res.reports[0].metadata.chal == 0
    assert res.reports[0].metadata.cf_size == 0
    assert not any("stale-chal" in line for line in res.audit)


FRAME_RUNS = [ScenarioConfig(app=app, max_cflog_bytes=log, cycle_budget=10**9)
              for app in ("loop_heavy", "moderate") for log in (16, 512)] \
    + [ScenarioConfig(app="password", input_kind="overflow",
                      heal_action=HealAction.UPDATE)]


@pytest.mark.parametrize("cfg", FRAME_RUNS,
                         ids=lambda c: f"{c.app}-{c.max_cflog_bytes}-{c.input_kind}")
def test_sent_frames_are_the_encoded_reports(cfg, monkeypatch):
    """Every report frame the device sends is ``encode_report`` of the
    report it records, and its MAC is ``attest_digest`` over the PMEM the
    verifier expects: the image, then the patched image after an update
    heal."""
    from cfasim.channel import VERIFIER
    from cfasim.device import Device
    from cfasim.wire import attest_digest, encode_report

    sent = []
    session = Device._session

    def recording(self, channel):
        session(self, channel)
        ep, frame = channel.captured[-1]
        assert ep == VERIFIER
        sent.append(frame)

    monkeypatch.setattr(Device, "_session", recording)
    res = run_scenario(cfg)
    assert res.outcome is Outcome.COMPLETED
    assert sent == [encode_report(r) for r in res.reports]
    conf = res.verifier.config
    pmems = [conf.expected_pmem] + ([conf.patched_pmem] if conf.patched_pmem else [])
    key = _derive_key(cfg.seed)
    which = []
    for rep in res.reports:
        macs = [attest_digest(key, p, rep.metadata, rep.entries) for p in pmems]
        assert rep.h in macs
        which.append(macs.index(rep.h))
    assert which == sorted(which)     # the expectation switches once, at the heal
    if conf.patched_pmem is not None:
        assert which[-1] == 1 and bytes(res.device.state.pmem) == conf.patched_pmem


COUNTDOWN = """
        .org 0x9000
main:   MOV r1, #3
loop:   SUB r1, #1
        JNZ loop
fin:    NOP
        HALT
"""


@pytest.mark.parametrize("ar", [(0x9000, 0x900E), (0x9002, 0x900C),
                                (0x900C, 0x9000), (0x9000, 0x10000),
                                (0x8FFC, 0x900C)],
                         ids=["ar_max-mid-instruction", "ar_min-mid-instruction",
                              "ar_max-below-ar_min", "ar_max-past-pmem",
                              "ar_min-in-tcb"])
def test_region_must_bound_instruction_addresses(ar):
    """A region whose ``ar_max`` is no instruction address never ends: with
    ``(main, fin + 2)`` the run completed with only its boot report."""
    lay = MemoryLayout()
    built = assemble(COUNTDOWN, entry=lay.tcb_min)
    assert (built.symbols["main"], built.symbols["fin"]) == (0x9000, 0x900C)
    with pytest.raises(ValueError, match="not a region of instruction addresses"):
        run_image(built.image, ar, lay, key_bytes=_derive_key(1))
    with pytest.raises(ValueError, match="patched_ar"):
        run_image(built.image, (0x9000, 0x900C), lay, key_bytes=_derive_key(1),
                  patched_ar=ar)


def test_instruction_region_ends_and_is_judged():
    lay = MemoryLayout()
    built = assemble(COUNTDOWN, entry=lay.tcb_min)
    res = run_image(built.image, (built.symbols["main"], built.symbols["fin"]), lay,
                    key_bytes=_derive_key(1))
    assert res.outcome is Outcome.COMPLETED
    assert [r.trigger for r in res.reports] == [TriggerKind.BOOT,
                                                 TriggerKind.REGION_END]
    assert res.audit[-1] == "seq=2 kind=single app=1 reason=ok entries=4"


# One violation (a store into the log, skipped on the re-run), then log-full
# flushes in the call loop and timer reports in the delay loop: a 24-byte
# log and a 15-cycle timer give BOOT, VIOLATION, LOG_FULL, TIMER and
# REGION_END reports.
MIXED = """
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ work
        MOV r1, #1
        MOV &0x1000, r1
        MOV &0x0200, r1
fn:     RET
work:   MOV r2, #4
loop:   CALL fn
        SUB r2, #1
        JNZ loop
        MOV r3, #40
spin:   SUB r3, #1
        JNZ spin
fin:    NOP
        HALT
"""


def _mixed_run():
    lay = MemoryLayout(cflog_size=24)
    built = assemble(MIXED, entry=lay.tcb_min)
    return run_image(built.image, (built.symbols["main"], built.symbols["fin"]), lay,
                     key_bytes=_derive_key(1), timer_deadline=15)


# MIXED with ``fn`` moved past ``HALT``, out of the attested region: each
# call in the loop leaves the region, and a trigger can be accepted on the
# cycle right after it
MIXED_CALL_OUT = MIXED.replace("fn:     RET\n", "").replace(
    "        HALT\n", "        HALT\nfn:     RET\n")


def _call_out_run(log_size, timer):
    lay = MemoryLayout(cflog_size=log_size)
    built = assemble(MIXED_CALL_OUT, entry=lay.tcb_min)
    res = run_image(built.image, (built.symbols["main"], built.symbols["fin"]), lay,
                    key_bytes=_derive_key(1), timer_deadline=timer,
                    cycle_budget=10**9)
    return res, built.symbols


@pytest.mark.parametrize("log_size", [16, 64])
def test_trigger_right_after_a_transfer_out_of_the_region_is_approved(log_size):
    """The acceptance's source is the in-region call the walker has already
    followed out of the region; it is the interrupted transfer, not a
    broken flow."""
    for timer in range(1, 80):
        res, _ = _call_out_run(log_size, timer)
        assert res.outcome is Outcome.COMPLETED, timer
        assert not any(" app=0 " in line for line in res.audit), timer


def test_acceptance_after_a_transfer_out_admits_no_other_pair():
    """Re-MAC the accepted acceptance entry with its source, or its
    destination, moved to every other region address and to either end of
    the trusted software: the verifier denies every one."""
    from helpers.replay import replay_with_entries

    res, sym = _call_out_run(64, 5)
    lay = MemoryLayout(cflog_size=64)
    rep = res.reports[3]
    accepted = (sym["loop"], lay.tcb_min)
    assert rep.entries[3] == accepted

    def replay(entries):
        return replay_with_entries(res, 3, entries)

    assert replay(rep.entries) == 1
    addrs = list(range(sym["main"], sym["fin"] + 1, 4)) + [lay.tcb_min, lay.tcb_max]
    mutants = [(a, accepted[1]) for a in addrs if a != accepted[0]] \
        + [(accepted[0], a) for a in addrs if a != accepted[1]]
    assert len(mutants) == 30
    approved = [m for m in mutants
                if replay(rep.entries[:3] + (m,) + rep.entries[4:]) != 0]
    assert approved == []


@pytest.mark.parametrize("run", [
    lambda: run_scenario(ScenarioConfig(app="loop_heavy", max_cflog_bytes=16,
                                        cycle_budget=10**9)),
    _mixed_run,
], ids=["loop_heavy-16", "mixed"])
def test_device_keeps_each_report_as_the_frame_it_sends(run):
    """``Device.reports`` holds each report as its frame: on a lossless run
    the very objects the channel captured toward the verifier, and each is
    the encoding of the report ``ScenarioResult.reports`` decodes from it."""
    from cfasim.channel import VERIFIER
    from cfasim.wire import encode_report

    res = run()
    assert res.outcome is Outcome.COMPLETED
    frames = res.device.reports
    sent = [frame for ep, frame in res.channel.captured if ep == VERIFIER]
    assert len(sent) == len(frames) == len(res.reports)
    assert all(s is f for s, f in zip(sent, frames))
    assert all(encode_report(r) == f for r, f in zip(res.reports, frames))


STATS_RUNS = [ScenarioConfig(app=app, max_cflog_bytes=log, seed=seed)
              for seed in (0, 1) for app in ("few_branch", "moderate", "loop_heavy")
              for log in (512, 1024)]


@pytest.mark.parametrize("cfg", STATS_RUNS,
                         ids=lambda c: f"{c.app}-{c.max_cflog_bytes}-seed{c.seed}")
def test_run_record_decodes_every_frame(cfg):
    """``ScenarioResult.reports`` is the record ``decode_report`` makes of
    each frame the device kept, over the ``cfasim stats`` configurations."""
    from cfasim.wire import decode_report

    res = run_scenario(cfg)
    assert res.reports == [decode_report(f) for f in res.device.reports]


def test_run_record_shares_equal_entries():
    """Across one run's record, equal log entries are one tuple, and its
    records keep no per-instance dict."""
    res = run_scenario(ScenarioConfig(app="loop_heavy", max_cflog_bytes=16,
                                      cycle_budget=10**9))
    assert res.outcome is Outcome.COMPLETED
    entries = [pair for rep in res.reports for pair in rep.entries]
    first = {}
    for pair in entries:
        assert first.setdefault(pair, pair) is pair
    assert len(first) < len(entries) / 100    # the log repeats a few edges
    rep = res.reports[0]
    assert not hasattr(rep, "__dict__") and not hasattr(rep.metadata, "__dict__")


def test_retransmission_resends_the_kept_frame():
    from cfasim.channel import VERIFIER, ChannelPolicy

    res = run_scenario(ScenarioConfig(app="few_branch",
                                      channel=ChannelPolicy(drop_first=1)))
    assert res.outcome is Outcome.COMPLETED
    # the first frame each way is dropped: the boot report goes out three times
    n = res.device.stats.n_retransmits
    assert n == 2
    sent = [frame for ep, frame in res.channel.captured if ep == VERIFIER]
    frames = res.device.reports
    assert len(sent) == len(frames) + n
    assert all(s is frames[0] for s in sent[:n + 1])
    assert all(s is f for s, f in zip(sent[n + 1:], frames[1:]))


def test_statistics_count_the_reports_of_every_kind():
    from cfasim.mcu import SLOT

    res = _mixed_run()
    assert res.outcome is Outcome.COMPLETED
    kinds = [r.trigger for r in res.reports]
    assert set(TriggerKind) <= set(kinds)
    st = res.stats
    assert (st.n_t1, st.n_t2, st.n_t3, st.n_reports) == (
        kinds.count(TriggerKind.TIMER), kinds.count(TriggerKind.LOG_FULL),
        kinds.count(TriggerKind.BOOT) + kinds.count(TriggerKind.REGION_END),
        len(kinds))
    assert st.n_violation_resets == kinds.count(TriggerKind.VIOLATION) == 1
    assert st.cflog_bytes_total == sum(SLOT.size * len(r.entries) for r in res.reports)
    assert st.n_reports == st.trigger_total


@pytest.mark.parametrize("timer", range(1, 9))
def test_trigger_at_the_first_region_instruction_resumes_there(timer):
    """A short timer can be accepted right after ``CALL app_main``, before
    the region's first instruction retires; the acceptance is logged, so
    the verifier resumes the run at ``app_main`` and approves it."""
    res = run_scenario(ScenarioConfig(app="password", timer_deadline_cycles=timer,
                                      cycle_budget=20_000_000))
    assert res.outcome is Outcome.COMPLETED
    assert all(" app=1 " in line for line in res.audit)


@pytest.mark.parametrize("app", ["few_branch", "password"])
def test_smallest_log_completes(app):
    res = run_scenario(ScenarioConfig(app=app, max_cflog_bytes=12, cycle_budget=10**9))
    assert res.outcome is Outcome.COMPLETED
    assert all(" app=1 " in line for line in res.audit)
