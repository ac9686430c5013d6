"""Acceptance suite: every release criterion as one test, each printing a
single PASS line with its measured result.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import hashlib
import random
import time

import pytest

from helpers.golden import golden_region_trace
from helpers.progen import SMALL_LAYOUT, generate

from cfasim.apps import delay_loop
from cfasim.asm import assemble
from cfasim.channel import ChannelPolicy
from cfasim.device import Device, DeviceEvents
from cfasim.mcu import MemoryLayout
from cfasim.monitor import Metadata, TriggerKind
from cfasim.scenario import (Outcome, ScenarioConfig, decompress_entries,
                             run_image, run_scenario, _derive_key)
from cfasim.tcb import DeviceKey, HealAction, authenticate_response
from cfasim.wire import (CfaReport, CfaResponse, decode_report, decode_response,
                         encode_report, encode_response, mac, response_auth)


def app_level(reports, layout):
    """Decompressed concatenation of all report slices, trusted-software
    entry/exit jumps filtered out."""
    out = []
    for rep in reports:
        for s, d in decompress_entries(rep.entries):
            if not (layout.in_tcb(s) or layout.in_tcb(d)):
                out.append((s, d))
    return out


def test_criterion_1_log_oracle_equivalence():
    """100 seeded random programs: emitted slices decompress to exactly the
    golden interpreter's in-region transfer trace."""
    started = time.time()
    mismatches = 0
    for seed in range(100):
        prog = generate(seed)
        res = assemble(prog.source, entry=SMALL_LAYOUT.tcb_min)
        ar = (res.symbols["main"], res.symbols["fin"])
        isrs = tuple(res.symbols[l] for l in prog.isr_labels)
        result = run_image(res.image, ar, SMALL_LAYOUT,
                           key_bytes=hashlib.sha256(b"c1:%d" % seed).digest(),
                           events=DeviceEvents(irq_at_retire=prog.irq_at_retire),
                           ivt_targets=isrs)
        got = app_level(result.reports, SMALL_LAYOUT)
        want = golden_region_trace(res.image, SMALL_LAYOUT, ar, prog.irq_at_retire)
        if got != want or result.outcome is not Outcome.COMPLETED \
                or any(" app=0 " in line for line in result.audit):
            mismatches += 1
    elapsed = time.time() - started
    assert mismatches == 0
    assert elapsed < 60.0
    print(f"PASS criterion 1: log-oracle equivalence 100/100 programs, "
          f"0 mismatches in {elapsed:.1f}s")


def test_criterion_2_loop_compression():
    """A delay loop whose backward jump executes n times costs exactly two
    entries (jump + counter n); a single pass costs one entry."""
    lay = MemoryLayout()
    for n in (1, 2, 10, 1000):
        res = assemble(delay_loop(n), entry=lay.tcb_min)
        ar = (res.symbols["main"], res.symbols["fin"])
        result = run_image(res.image, ar, lay, key_bytes=_derive_key(2))
        final = next(r for r in result.reports
                     if r.trigger is TriggerKind.REGION_END)
        jnz = res.symbols["dloop"] + 4
        loop_part = list(final.entries[1:-1])   # strip region entry/exit jumps
        if n == 1:
            assert loop_part == [(jnz, res.symbols["dloop"])]
        else:
            assert loop_part == [(jnz, res.symbols["dloop"]), (0x0000, n)]
    print("PASS criterion 2: loop compression exact for n in {1, 2, 10, 1000}")


def test_criterion_3_trigger_accounting():
    """Few-branch shape is exact; report counts never increase with a larger
    log; decompressed application logs are identical across log sizes."""
    rows = {}
    for app in ("few_branch", "moderate", "loop_heavy"):
        for size in (512, 1024):
            res = run_scenario(ScenarioConfig(app=app, max_cflog_bytes=size))
            assert res.outcome is Outcome.COMPLETED
            rows[(app, size)] = res

    for size in (512, 1024):
        st = rows[("few_branch", size)].stats
        assert (st.n_t2, st.n_t3, st.n_reports) == (0, 2, 2)

    for app in ("few_branch", "moderate", "loop_heavy"):
        small, big = rows[(app, 512)], rows[(app, 1024)]
        assert big.stats.n_reports <= small.stats.n_reports
        lay = small.device.layout
        small_app = app_level(small.reports, lay)
        big_app = app_level(big.reports, lay)
        assert small_app == big_app
        # every trigger produced exactly one report
        for r in (small, big):
            assert r.stats.n_reports == r.stats.trigger_total
    print("PASS criterion 3: trigger accounting exact (few-branch 2 reports "
          "at both sizes; counts monotone; log content size-invariant)")


@pytest.mark.parametrize("heal", [HealAction.SHUTDOWN, HealAction.UPDATE])
def test_criterion_4_detection_and_remediation(heal):
    """Password service: benign input approved end to end; the 24-byte
    overflow is flagged as a return mismatch in the slice holding the
    corrupted return, and the configured remediation runs, under 20 seeded
    lossy channels."""
    noisy = dict(drop_prob=0.15, dup_prob=0.10, tamper_prob=0.10)
    for seed in range(20):
        chan = ChannelPolicy(seed=seed, **noisy)
        benign = run_scenario(ScenarioConfig(app="password", max_cflog_bytes=256,
                                             seed=seed, channel=chan))
        assert benign.outcome is Outcome.COMPLETED
        assert all(" app=1 " in l for l in benign.audit
                   if " reason=ok " in l or " reason=resend " in l)
        assert not any("Mismatch" in l for l in benign.audit)

        attack = run_scenario(ScenarioConfig(app="password", max_cflog_bytes=256,
                                             seed=seed, channel=chan,
                                             input_kind="overflow",
                                             heal_action=heal))
        rejected = [l for l in attack.audit
                    if " app=0 " in l and "ReturnMismatch@" in l]
        assert rejected, attack.audit
        # the violation index points into the slice holding the corrupted return
        idx = int(rejected[0].rsplit("@", 1)[1].split(" ")[0])
        gexit_ret = None
        for rep in attack.reports:
            if len(rep.entries) > idx and rep.entries[idx][1] != 0 and \
                    rep.trigger is TriggerKind.REGION_END:
                gexit_ret = rep.entries[idx]
                break
        assert gexit_ret is not None
        sym = assemble(__import__("cfasim.apps", fromlist=["PASSWORD"]).PASSWORD,
                       entry=0x8000).symbols
        assert gexit_ret == (sym["gexit"] + 8 * 4, sym["sense"])

        if heal is HealAction.SHUTDOWN:
            assert attack.outcome is Outcome.SHUTDOWN
            dev = attack.device
            assert dev.state.retired == dev.retired_at_last_trigger
        else:
            assert attack.outcome is Outcome.COMPLETED
            assert " app=1 " in attack.audit[-1]   # patched image attested clean
    print(f"PASS criterion 4: detection + {heal.value} remediation on 20/20 "
          f"seeded channels")


def test_criterion_5_security_property_suite():
    """Six interference classes each cause a deterministic reset whose next
    activity is an attestation report still carrying the pre-violation log."""
    from cfasim.monitor import ResetReason

    lay = MemoryLayout()
    preamble = """
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ fin
        MOV r1, #1
        MOV &0x1000, r1
        CALL work
"""
    tail = """
fin:    NOP
        HALT
work:   RET
"""
    sw_attacks = [
        ("s-write-cflog", "        MOV &0x0200, r1", ResetReason.CFLOG_WRITE),
        ("s-write-metadata", "        MOV &0x0104, r1", ResetReason.METADATA_WRITE),
        ("jump-into-tcb", "        JMP 0x8008", ResetReason.ILLEGAL_TCB_ENTRY),
        ("timer-write-from-s", "        MOV &0x0050, r1", ResetReason.TIMER_WRITE),
    ]
    passed = 0
    for name, attack, reason in sw_attacks:
        src = preamble + attack + "\n" + tail
        res = assemble(src, entry=lay.tcb_min)
        ar = (res.symbols["main"], res.symbols["fin"])
        result = run_image(res.image, ar, lay, key_bytes=_derive_key(5))
        dev = result.device
        assert dev.last_reset is reason, name
        vio = next(r for r in result.reports
                   if r.trigger is TriggerKind.VIOLATION)
        want = golden_region_trace(res.image, lay, ar)
        got = app_level([vio], lay)
        assert got == want[:len(got)] and len(got) >= 2, name  # pre-violation prefix
        call_site = res.symbols["main"] + 5 * 4
        assert (call_site, res.symbols["work"]) in vio.entries, name
        passed += 1

    # hardware interference while the trusted software holds the core
    from cfasim.apps import FIXTURES
    from cfasim.device import AttackEvent

    for name, event, reason in [
        ("dma-write-metadata",
         AttackEvent(at_cycle=140_000, kind="dma", addr=lay.metadata_base,
                     count=2, value=0xFF),
         (ResetReason.DMA_METADATA, ResetReason.METADATA_WRITE, ResetReason.DMA_IN_TCB)),
        ("maskable-irq-during-tcb",
         AttackEvent(at_cycle=140_000, kind="force-irq", line=3),
         (ResetReason.IRQ_IN_TCB,)),
    ]:
        fx = FIXTURES["few_branch"]
        built = assemble(fx.source, entry=lay.tcb_min)
        ar = (built.symbols["main"], built.symbols["fin"])
        result = run_image(built.image, ar, lay, key_bytes=_derive_key(5),
                           events=DeviceEvents(attacks=[event]),
                           channel_policy=ChannelPolicy(latency=300_000))
        dev = result.device
        assert dev.last_reset in reason, name
        reports = result.reports
        vi = next(i for i, r in enumerate(reports)
                  if r.trigger is TriggerKind.VIOLATION)
        assert reports[vi].entries == reports[vi - 1].entries, name
        assert reports[vi].metadata == reports[vi - 1].metadata, name
        passed += 1
    assert passed == 6
    print("PASS criterion 5: security-property suite 6/6 interference classes")


def test_criterion_6_protocol_robustness():
    """Replay and tamper rejection with probability 1; recovery from early
    losses; strict policy keeps a blacked-out device frozen."""
    key_raw = _derive_key(6)
    key = DeviceKey(key_raw)
    raw = encode_response(CfaResponse(1, 10, 0x9000, 0x9FFC,
                                      response_auth(key_raw, 10, 0x9000, 0x9FFC, 1)))
    assert authenticate_response(key, raw, 9)

    rng = random.Random(6)
    rejected = 0
    for _ in range(1000):
        rejected += not authenticate_response(key, raw, 10)   # replay: chal consumed
    assert rejected == 1000
    rejected = 0
    for _ in range(1000):
        tam = bytearray(raw)
        pos = rng.randrange(len(tam))
        tam[pos] ^= 1 + rng.randrange(255)
        rejected += not authenticate_response(key, bytes(tam), 9)
    assert rejected == 1000

    lossy = run_scenario(ScenarioConfig(app="few_branch",
                                        channel=ChannelPolicy(drop_first=5)))
    assert lossy.outcome is Outcome.COMPLETED

    dark = run_scenario(ScenarioConfig(
        app="few_branch", channel=ChannelPolicy(blackout_windows=((0, 10**9),)),
        cycle_budget=500_000))
    assert dark.outcome is Outcome.DEADLOCK
    assert dark.device.state.retired == 0
    print("PASS criterion 6: 1000/1000 replays and 1000/1000 tampers rejected; "
          "drop-first-5 handshake completed; strict blackout ran 0 instructions")


def test_criterion_7_wire_conformance():
    import json
    from pathlib import Path

    rep = CfaReport(b"\x00" * 32, Metadata(0, 0, 0, 0), TriggerKind.BOOT)
    assert len(encode_report(rep)) == 43
    entries = tuple((i, i + 1) for i in range(5))
    rep5 = CfaReport(b"\x00" * 32, Metadata(1, 2, 3, 5), TriggerKind.TIMER, entries)
    assert len(encode_report(rep5)) == 43 + 4 * 5
    assert len(encode_response(CfaResponse(0, 1, 2, 3, b"\x00" * 32))) == 41

    vectors = json.loads(
        (Path(__file__).parent / "data/hmac_sha256_rfc4231.json").read_text())
    for case in vectors["cases"]:
        assert mac(bytes.fromhex(case["key"]),
                   bytes.fromhex(case["data"])).hex() == case["mac"]

    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(0, 24)
        rep = CfaReport(rng.randbytes(32),
                        Metadata(rng.randrange(2**32), rng.randrange(2**16),
                                 rng.randrange(2**16), n),
                        rng.choice(list(TriggerKind)),
                        tuple((rng.randrange(2**16), rng.randrange(2**16))
                              for _ in range(n)))
        assert decode_report(encode_report(rep)) == rep
        resp = CfaResponse(rng.randrange(2), rng.randrange(2**32),
                           rng.randrange(2**16), rng.randrange(2**16),
                           rng.randbytes(32))
        assert decode_response(encode_response(resp)) == resp
    print("PASS criterion 7: frame lengths exact; 6/6 RFC 4231 vectors; "
          "1000/1000 round-trips")


def test_criterion_8_attestation_time_scales_with_memory():
    """Measurement cycle cost strictly increases with attested memory size."""
    costs = []
    for kb in (1, 2, 4, 8):
        pmem_size = kb * 1024
        lay = MemoryLayout(pmem_size=pmem_size, tcb_max=0x80FC, cflog_size=256)
        src = f"""
        .org {lay.s_base:#x}
main:   NOP
fin:    NOP
        HALT
"""
        res = assemble(src, entry=lay.tcb_min)
        dev = Device(res.image, lay, DeviceKey(_derive_key(8)))
        from cfasim.channel import Channel
        dev.tick(Channel())    # boot attestation
        costs.append(dev.stats.att_cycles)
    assert costs == sorted(costs) and len(set(costs)) == 4
    print(f"PASS criterion 8: attestation cycles strictly increasing "
          f"{costs} for 1/2/4/8 KB images")
