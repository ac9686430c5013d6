"""Per-operation correctness checks, written apart from the product code.

Every check takes one ``ScenarioResult`` plus an :class:`Expect` and returns
a list of problems (empty when the operation is correct).  No check calls
into the simulator's decompression, framing or MAC helpers: log slices are
decompressed, PMEM is rendered and every report MAC is recomputed with
``hmac``/``hashlib`` directly from the wire layout documented in the README.
Only the behaviour fingerprint (:func:`digest`), which is not a check, hashes
the product's own report frames.
Expected transfer traces come from the golden interpreter
(``tests/helpers/golden.py``), which shares no execution code with the
product.
"""

from __future__ import annotations

import hashlib
import hmac
import re
import struct
from dataclasses import dataclass

from cfasim.wire import encode_report

# Trigger annotation byte values on the wire.
TRIGGER_VIOLATION = 5

# Audit reasons for frames the verifier drops without answering.  These lines
# also carry ``app=0``, so every check keys on ``reason``, never on ``app``.
DROPPED = frozenset({"bad-mac", "stale-chal", "bad-frame"})
RESEND = "resend"
APPROVE = "ok"
# The violation an overflow's first deny must name.
DENY_REASON = "ReturnMismatch"

_AUDIT = re.compile(r"seq=\d+ kind=\S+ app=[01] reason=(\S+) entries=\d+$")


@dataclass(frozen=True)
class Pmem:
    """Address map needed to read a slice and render program memory."""
    base: int
    size: int
    tcb_min: int
    tcb_max: int

    @property
    def s_base(self) -> int:
        return self.tcb_max + 4


@dataclass
class Expect:
    """What one operation must show.

    ``segments`` are the (base, bytes) segments of the image the device
    boots; ``patched_segments`` those of the update image, if one is
    commanded.  ``golden`` is the golden interpreter's in-region transfer trace, for the
    workloads where the whole application run is attested.  ``deny_at`` is
    the (src, dest) log entry the first deny must point at, for an overflow
    run; ``heal`` is then ``"update"`` or ``"shutdown"``.  ``interference``
    selects the criterion-5 properties: ``"sw"`` (the violation slice is a
    golden prefix holding ``call_edge``) or ``"hw"`` (the violation slice
    repeats the previous slice).
    """
    outcome: str
    key: bytes
    segments: list[tuple[int, bytes]]
    mem: Pmem
    golden: list[tuple[int, int]] | None = None
    patched_segments: list[tuple[int, bytes]] | None = None
    deny_at: tuple[int, int] | None = None
    heal: str | None = None
    interference: str | None = None
    reset_reasons: tuple[str, ...] = ()
    call_edge: tuple[int, int] | None = None


def render_pmem(segments, mem: Pmem) -> bytes:
    """PMEM content of an image: its segments placed over zeroes."""
    out = bytearray(mem.size)
    for base, data in segments:
        if mem.base <= base < mem.base + mem.size:
            off = base - mem.base
            out[off:off + len(data)] = data
    return bytes(out)


def healed_pmem(original: bytes, segments, mem: Pmem) -> bytes:
    """PMEM after an update heal: the trusted region is kept, the application
    region is wiped and the replacement image written over it."""
    keep = mem.s_base - mem.base
    fresh = render_pmem(segments, mem)
    return original[:keep] + fresh[keep:]


def decompress(entries, pmem_base: int) -> list[tuple[int, int]]:
    """Expand loop counters.  A counter directly follows a backward jump
    (dest <= src) and has a high half below program memory; value n stands
    for n traversals of that jump in total."""
    out: list[tuple[int, int]] = []
    last_jump: tuple[int, int] | None = None
    for src, dest in entries:
        if last_jump is not None and last_jump[1] <= last_jump[0] and src < pmem_base:
            out.extend([last_jump] * (((src << 16) | dest) - 1))
            last_jump = None
            continue
        out.append((src, dest))
        last_jump = (src, dest)
    return out


def app_level(reports, mem: Pmem) -> list[tuple[int, int]]:
    """Decompressed concatenation of all slices without the trusted-software
    entry and exit jumps."""
    def in_tcb(a):
        return mem.tcb_min <= a <= mem.tcb_max
    return [(s, d) for rep in reports for s, d in decompress(rep.entries, mem.base)
            if not (in_tcb(s) or in_tcb(d))]


def expected_h(mac_over_pmem, rep) -> bytes:
    """HMAC-SHA-256(K, pmem || metadata || entries), resumed from a MAC
    state that has already absorbed ``pmem``."""
    md = rep.metadata
    m = mac_over_pmem.copy()
    m.update(struct.pack(">IHHH", md.chal, md.ar_min, md.ar_max, md.cf_size))
    for s, d in rep.entries:
        m.update(struct.pack(">HH", s, d))
    return m.digest()


def pmem_macs(exp: Expect):
    """MAC states that have absorbed the PMEM before and after an update."""
    pmem = render_pmem(exp.segments, exp.mem)
    base = hmac.new(exp.key, pmem, hashlib.sha256)
    if exp.patched_segments is None:
        return base, None
    healed = healed_pmem(pmem, exp.patched_segments, exp.mem)
    return base, hmac.new(exp.key, healed, hashlib.sha256)


def audit_reasons(lines) -> list[str]:
    """The reason of every audit line; raises ValueError on a line that does
    not have the documented shape."""
    out = []
    for line in lines:
        m = _AUDIT.match(line)
        if m is None:
            raise ValueError(f"malformed audit line {line!r}")
        out.append(m.group(1))
    return out


def fresh_verdicts(audit) -> list[str]:
    """Reasons of the verdicts computed for a new report, in order: neither a
    dropped frame nor a cached resend."""
    return [reason for reason in audit_reasons(audit)
            if reason not in DROPPED and reason != RESEND]


def check_macs(result, macs, pmem_switch: int | None = None) -> list[str]:
    """Every report's h against an independently recomputed HMAC, resumed
    from ``macs`` (what :func:`pmem_macs` returns).  Reports after index
    ``pmem_switch`` were measured over the healed PMEM."""
    base, patched = macs
    problems = []
    for i, rep in enumerate(result.reports):
        if rep.metadata.cf_size != len(rep.entries):
            problems.append(f"report {i}: cf_size {rep.metadata.cf_size} "
                            f"!= {len(rep.entries)} entries")
            continue
        use = patched if pmem_switch is not None and i > pmem_switch else base
        if use is None or expected_h(use, rep) != rep.h:
            problems.append(f"report {i}: h does not match the recomputed HMAC")
    return problems


def check_golden(result, exp: Expect) -> list[str]:
    got = app_level(result.reports, exp.mem)
    if got == exp.golden:
        return []
    n = next((i for i, (a, b) in enumerate(zip(got, exp.golden)) if a != b),
             min(len(got), len(exp.golden)))
    return [f"app-level log differs from the golden trace at transfer {n} "
            f"({len(got)} logged, {len(exp.golden)} expected)"]


def _first_deny(verdicts) -> tuple[int, str] | None:
    return next(((i, r) for i, r in enumerate(verdicts) if r != APPROVE), None)


def check_verdicts(result, exp: Expect) -> tuple[list[str], int | None]:
    """Deny policy and remediation.  Returns the problems and the index of
    the first denied report (None when every verdict approves).

    A report that repeats the previous one byte for byte (a reset while the
    device waited for approval) is answered from the verifier's cache, so
    fresh verdicts pair with the distinct (chal, h) keys in send order."""
    try:
        verdicts = fresh_verdicts(result.audit)
    except ValueError as e:
        return [str(e)], None
    first_report: dict[tuple[int, bytes], int] = {}
    for i, rep in enumerate(result.reports):
        first_report.setdefault((rep.metadata.chal, bytes(rep.h)), i)
    sent = list(first_report.values())
    problems = []
    if len(verdicts) != len(sent):
        problems.append(f"{len(verdicts)} fresh verdicts for "
                        f"{len(sent)} distinct reports")
    deny = _first_deny(verdicts)
    if exp.deny_at is None:
        if deny is not None:
            problems.append(f"unexpected deny {deny[1]} for report {deny[0]}")
        return problems, None
    if deny is None or deny[0] >= len(sent):
        return problems + ["expected deny is missing"], None
    k, reason = deny
    r = sent[k]
    name, _, idx = reason.partition("@")
    if name != DENY_REASON or not idx.isdigit():
        return problems + [f"first deny is {reason}, expected {DENY_REASON}"], r
    entries = result.reports[r].entries
    i = int(idx)
    if not i < len(entries) or tuple(entries[i]) != exp.deny_at:
        problems.append(f"violation index {i} does not point at entry "
                        f"({exp.deny_at[0]:#06x}, {exp.deny_at[1]:#06x})")
    if exp.heal == "update":
        if any(v != APPROVE for v in verdicts[k + 1:]) or k == len(verdicts) - 1:
            problems.append("update heal did not end in approvals")
    elif exp.heal == "shutdown":
        dev = result.device
        if dev.state.retired != dev.retired_at_last_trigger:
            problems.append(f"{dev.state.retired - dev.retired_at_last_trigger} "
                            "instructions retired after the last trigger")
        if k != len(verdicts) - 1:
            problems.append("verdicts continued after the shutdown deny")
    return problems, r


def check_interference(result, exp: Expect) -> list[str]:
    dev = result.device
    reason = dev.last_reset.value if dev.last_reset is not None else None
    if reason not in exp.reset_reasons:
        return [f"reset reason {reason}, expected one of {exp.reset_reasons}"]
    reps = result.reports
    vi = next((i for i, r in enumerate(reps) if int(r.trigger) == TRIGGER_VIOLATION),
              None)
    if vi is None:
        return ["no violation report after the reset"]
    if exp.interference == "sw":
        got = app_level([reps[vi]], exp.mem)
        if len(got) < 2 or got != exp.golden[:len(got)]:
            return ["violation slice is not a golden-trace prefix"]
        if exp.call_edge not in reps[vi].entries:
            return ["violation slice lacks the pre-violation call"]
        return []
    if vi == 0 or reps[vi].entries != reps[vi - 1].entries \
            or reps[vi].metadata != reps[vi - 1].metadata:
        return ["violation slice does not carry the pre-violation log"]
    return []


def check_operation(result, exp: Expect, macs) -> list[str]:
    """Every property one operation must have."""
    problems = []
    if result.outcome.value != exp.outcome:
        problems.append(f"outcome {result.outcome.value}, expected {exp.outcome}")
    vproblems, deny_idx = check_verdicts(result, exp)
    problems += vproblems
    switch = deny_idx if exp.heal == "update" else None
    problems += check_macs(result, macs, switch)
    if exp.interference is not None:
        problems += check_interference(result, exp)
    elif exp.golden is not None:
        problems += check_golden(result, exp)
    return problems


def totals(result) -> tuple[int, int, int, int, int]:
    """Simulated totals that must repeat exactly between runs."""
    st = result.stats
    return (st.n_reports, st.cflog_bytes_total, st.att_cycles,
            result.device.state.retired, st.total_cycles)


def digest(result) -> bytes:
    """SHA-256 over the operation's report frames, audit lines and
    statistics lines: the behaviour fingerprint of one operation."""
    h = hashlib.sha256()
    for rep in result.reports:
        h.update(encode_report(rep))
    for line in result.audit:
        h.update(line.encode() + b"\n")
    for line in result.stats.kv_lines():
        h.update(line.encode() + b"\n")
    return h.digest()
