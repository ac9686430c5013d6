#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload at a small size (untraced with the memory pass, then
traced) and requires every operation to pass.  Then it corrupts results on
purpose and requires the checks to catch each corruption: one flipped log
entry, one flipped MAC byte and a swapped violation index.  Exits non-zero
on the first problem.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from run import bootstrap


def _expect_caught(label: str, problems: list[str]) -> None:
    if not problems:
        sys.exit(f"FAIL {label}: corruption not caught")
    print(f"PASS {label}: caught ({problems[0]})")


def main() -> int:
    bootstrap()
    import bench
    import checks
    from cfasim.channel import ChannelPolicy
    from cfasim.scenario import ScenarioConfig, run_scenario

    small = {
        "oracle_corpus": bench.prepare_oracle(7, n_long=0, n_short=4),
        "report_stream": bench.prepare_report(
            7, ops=(("moderate", 32, 1_000_000), ("moderate", 512, None))),
        "hostile": bench.prepare_hostile(7, n_channels=1),
    }
    for name, build in small.items():
        for trace in (False, True):
            stats = bench.measure(build, 0, trace=trace)
            bad = [p for r in stats.records for p in r.problems]
            if stats.failed or stats.mismatches or bad:
                sys.exit(f"FAIL {name} trace={trace}: {bad or stats.mismatches}")
        print(f"PASS {name}: {len(stats.records)} operations checked, "
              "untraced and traced")

    # one flipped log entry: both the golden comparison and the MAC catch it
    op = bench.setup(small["oracle_corpus"], bench.RunStats(), repeats=1)[0]
    result = op.run()
    j = max(range(len(result.reports)), key=lambda i: len(result.reports[i].entries))
    rep = result.reports[j]
    entries = list(rep.entries)
    s, d = entries[1]
    entries[1] = (s, d ^ 0x10)
    reports = list(result.reports)
    reports[j] = replace(rep, entries=tuple(entries))
    flipped = replace(result, reports=reports)
    _expect_caught("flipped log entry vs golden trace",
                   checks.check_golden(flipped, op.expect))
    _expect_caught("flipped log entry vs recomputed HMAC",
                   checks.check_macs(flipped, op.macs))

    # one flipped MAC byte
    reports = list(result.reports)
    h = bytearray(reports[0].h)
    h[5] ^= 0x01
    reports[0] = replace(reports[0], h=bytes(h))
    _expect_caught("flipped MAC byte",
                   checks.check_macs(replace(result, reports=reports), op.macs))

    # a swapped violation index in the overflow run's deny verdict
    ops = bench.setup(small["hostile"], bench.RunStats(), repeats=1)
    op = next(o for o in ops if o.expect.deny_at is not None)
    result = op.run()
    if checks.check_operation(result, op.expect, op.macs):
        sys.exit("FAIL overflow run: uncorrupted result does not pass")
    audit = []
    for line in result.audit:
        if "ReturnMismatch@" in line:
            head, tail = line.split("ReturnMismatch@", 1)
            idx, rest = tail.split(" ", 1)
            line = f"{head}ReturnMismatch@{int(idx) - 1} {rest}"
        audit.append(line)
    _expect_caught("swapped violation index",
                   checks.check_verdicts(replace(result, audit=audit), op.expect)[0])

    # dropped frames are audited with app=0; the checks key on reason
    chan = ChannelPolicy(seed=1, drop_prob=0.15, dup_prob=0.10, tamper_prob=0.10)
    res = run_scenario(ScenarioConfig(app="password", max_cflog_bytes=256, seed=1,
                                      channel=chan))
    dropped = [l for l in res.audit if " app=0 reason=bad-mac " in l]
    verdicts = checks.fresh_verdicts(res.audit)
    if res.outcome.value != "completed" or not dropped \
            or any(v != checks.APPROVE for v in verdicts):
        sys.exit("FAIL dropped-frame audit: expected a completed benign run "
                 "with an app=0 bad-mac line and only approvals")
    print(f"PASS dropped-frame audit: {dropped[0]!r} is not counted as a deny")
    return 0


if __name__ == "__main__":
    sys.exit(main())
