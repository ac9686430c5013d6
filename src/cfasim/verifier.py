"""Verifier endpoint: offline disassembly of the expected binary's attested
region, online validation of log slices against it with a shadow stack,
approval decisions, and response generation.

Slice validation walks the logged (source, destination) pairs while tracking
a cursor (the address execution is expected to reach next by straight-line
flow, or ``EXTERNAL`` outside the region), a shadow stack whose every entry
holds the candidate return addresses of one call or interrupt, and the
candidate resume points announced by a trusted-software entry.  Loop-counter
entries are told apart from transfers by the positional rule of
:func:`cfasim.wire.decode_log`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

from .isa import (CALL, CALLI, INSTR_SIZE, JMP, JNZ, JZ, M_IMM, MOV,
                  NO_FALLTHROUGH_OPS, RET, RETI, WORD, DecodeError, Instr,
                  decode_word)
from .mcu import MemoryLayout
from .monitor import Metadata, TriggerKind
from .wire import (CfaResponse, PmemMac, WireError, decode_log, decode_report,
                   encode_response, frame_covered, response_auth)

EXTERNAL = -1   # cursor value while execution is outside the region: no address

MASK16 = 0xFFFF


class CfgError(ValueError):
    pass


@dataclass
class Cfg:
    """What slice validation reads of the attested region: its instructions
    by address and the entry points a transfer from outside may target."""
    ar_min: int
    ar_max: int
    instrs: dict[int, Instr]
    known_entries: set[int]
    isr_targets: set[int]

    def in_region(self, addr: int) -> bool:
        return self.ar_min <= addr <= self.ar_max


def build_cfg(binary: bytes, ar: tuple[int, int],
              ivt_targets: tuple[int, ...] = ()) -> Cfg:
    """Disassemble the attested region of the expected binary and collect
    its entry points: ``ar_min``, every direct ``CALL`` target, and every
    address the region takes (a ``MOV rd, #imm`` whose immediate is a
    4-aligned PMEM address), which is where a ``CALLI`` may go.  ``binary``
    is full PMEM content."""
    ar_min, ar_max = ar
    base, end = MemoryLayout.pmem_base, MemoryLayout.pmem_base + len(binary)
    instrs: dict[int, Instr] = {}
    for addr in range(ar_min, ar_max + 1, INSTR_SIZE):
        if not (base <= addr and addr + INSTR_SIZE <= end):
            raise CfgError(f"instruction address {addr:#06x} outside PMEM")
        try:
            instrs[addr] = decode_word(WORD.unpack_from(binary, addr - base)[0])
        except DecodeError as e:
            raise CfgError(f"undecodable instruction at {addr:#06x}: {e}") from None

    known = {ins.imm for ins in instrs.values()
             if ins.op is CALL or (ins.op is MOV and ins.mode == M_IMM
                                   and base <= ins.imm < end
                                   and not ins.imm % INSTR_SIZE)}
    return Cfg(ar_min, ar_max, instrs, known | {ar_min}, set(ivt_targets))


# ---------------------------------------------------------------------------
# Online slice validation
# ---------------------------------------------------------------------------

class SliceKind(enum.Enum):
    FIRST = "first"
    INTERMEDIATE = "intermediate"
    LAST = "last"
    SINGLE = "single"


# Members bound once: a read through the class resolves in EnumType.
FIRST, INTERMEDIATE, LAST, SINGLE = SliceKind
RUN_STARTS, RUN_ENDS = (FIRST, SINGLE), (LAST, SINGLE)
RESTARTS = (TriggerKind.BOOT, TriggerKind.VIOLATION)   # trigger bytes of a restart


@dataclass(frozen=True)
class Violation:
    index: int
    reason: str

    def __str__(self):
        return f"{self.reason}@{self.index}"


@dataclass
class VerifySession:
    """Per-prover verifier state carried across reports."""
    layout: MemoryLayout
    issued_chal: int = 0
    confirmed_chal: int = 0
    issued_ar: tuple[int, int] = (0, 0)
    shadow: list[tuple[int, ...]] = field(default_factory=list)  # candidate returns
    cursor: int | None = None
    pending_resume: frozenset[int] = frozenset()  # candidate resume points
    fresh: bool = True      # the next slice starts a run (FIRST or SINGLE)
    last_src: int | None = None     # src of the previous transfer, for irq attribution

    def fresh_run(self) -> None:
        """The device (re)starts executing from scratch."""
        self.shadow.clear()
        self.cursor = None
        self.pending_resume = frozenset()
        self.last_src = None
        self.fresh = True


class _Walker:
    """Working state of one slice validation; committed only on success."""

    __slots__ = ("cfg", "lay", "shadow", "cursor", "pending", "last_src")

    def __init__(self, cfg: Cfg, session: VerifySession):
        self.cfg = cfg
        self.lay = session.layout
        self.shadow = list(session.shadow)
        self.cursor = session.cursor
        self.pending = session.pending_resume
        self.last_src = session.last_src

    def commit(self, session: VerifySession) -> None:
        session.shadow = self.shadow
        session.cursor = self.cursor
        session.pending_resume = self.pending
        session.last_src = self.last_src

    # -- helpers --

    def _loc(self, addr: int) -> int:
        return addr if self.cfg.in_region(addr) else EXTERNAL

    def _reachable(self, start: int | None, target: int) -> bool:
        """Straight-line flow from ``start`` to ``target``: conditionals may
        be crossed (not taken), unconditional transfers may not.  A cursor
        outside the region (``EXTERNAL``) or nowhere (None) reaches nothing."""
        addr = start
        while addr != target:
            ins = self.cfg.instrs.get(addr)
            if ins is None or ins.op in NO_FALLTHROUGH_OPS:
                return False
            addr += INSTR_SIZE
        return target in self.cfg.instrs

    def _enter_external(self, i: int, s: int, d: int) -> Violation | None:
        """Transfer from unaudited code into the region: a return to the
        shadow-tracked address, a call to a known entry, or a handler entry."""
        if self.shadow and d in self.shadow[-1]:
            self.shadow.pop()
        elif d in self.cfg.known_entries or d in self.cfg.isr_targets:
            self.shadow.append(((s + INSTR_SIZE) & MASK16,))
        else:
            return Violation(i, "UnknownEdge")
        self.cursor = d
        return None

    def _accept_interrupt(self, i: int, s: int, d: int) -> Violation | None:
        """An interrupt acceptance attributed to source ``s`` (the last
        retired instruction): a jump into the trusted software (``d ==
        tcb_min``) or into the handler entry ``d``.  Every resume point
        consistent with the log so far is a candidate (an acceptance directly
        after a taken conditional is indistinguishable from one after the
        next not-taken pass; the eventual return or the next slice start
        disambiguates)."""
        cursor, again = self.cursor, s == self.last_src
        past = (s + INSTR_SIZE) & MASK16
        op = self.cfg.instrs[s].op if self._reachable(cursor, s) else None
        if op is None or op in NO_FALLTHROUGH_OPS:
            # only if the previous logged transfer, from ``s``, retired and
            # the interrupt landed on the very next cycle: execution stood at
            # its destination
            resumes = (cursor,) if again else ()
        elif op is JZ or op is JNZ:
            # a not-taken pass resumes past the conditional; if the previous
            # transfer was this same conditional taken, resuming at its
            # target is equally consistent
            resumes = (past, cursor) if again else (past,)
        else:
            resumes = (past,)
        if not resumes:
            return Violation(i, "BrokenFlow")
        cands = frozenset(map(self._loc, resumes))
        if d == self.lay.tcb_min:
            self.pending = cands
            self.cursor = None
            return None
        returns = tuple(sorted(cands - {EXTERNAL}))
        if not returns:
            # resuming outside the region: an interrupt of unaudited code
            # leaves the walk where it stood, outside
            return None if cursor == EXTERNAL else Violation(i, "BrokenFlow")
        self.shadow.append(returns)
        self.cursor = self._loc(d)
        return None

    # -- entry processing --

    def first_entry(self, kind: SliceKind, s: int, d: int,
                    issued_ar: tuple[int, int]) -> Violation | None:
        """Entry 0 adds only what a slice start decides.  A run enters at the
        region start.  The trusted software's exit jump resumes the walk at
        its destination, which within a run must be an announced resume
        point.  Any other first entry is a transfer from outside the region
        (a run's call into it, or a return or trigger while execution was
        outside), judged by :meth:`entry` from an ``EXTERNAL`` cursor."""
        fresh = kind in RUN_STARTS
        if fresh and d != issued_ar[0]:
            return Violation(0, "BadRegionEntry")
        if s == self.lay.tcb_max:
            if not (fresh or self.cfg.in_region(d)):
                return Violation(0, "BadSliceStart")
            if not (fresh or d in self.pending):
                return Violation(0, "ResumeMismatch")
            self.pending = frozenset()
            self.cursor = d
            return None
        if not (fresh or self.cursor == EXTERNAL or EXTERNAL in self.pending):
            return Violation(0, "BadSliceStart")
        self.pending = frozenset()
        self.cursor = EXTERNAL
        return self.entry(0, s, d)

    def counter_entry(self, i: int, count: int) -> Violation | None:
        # iterations 2..count retrace the identical backward jump, from
        # last_src to the cursor; one extra traversal proves the loop body
        # is straight-line, the rest repeat it
        if count < 2 or not self._reachable(self.cursor, self.last_src):
            return Violation(i, "BadCounter")
        return None

    def entry(self, i: int, s: int, d: int) -> Violation | None:
        cfg, lay = self.cfg, self.lay

        # an in-region source under an EXTERNAL cursor reaches nothing: below
        # it is an acceptance right after the transfer out, or a BrokenFlow
        if self.cursor == EXTERNAL and not cfg.in_region(s):
            return self._enter_external(i, s, d)

        # a transfer into the trusted software or a handler entry is an
        # interrupt acceptance, except when it is the taken edge of the very
        # conditional sitting at the source
        if d == lay.tcb_min or d in cfg.isr_targets:
            ins = cfg.instrs.get(s)
            if not (ins is not None and ins.op in (JMP, JZ, JNZ, CALL)
                    and d == ins.imm and self._reachable(self.cursor, s)):
                return self._accept_interrupt(i, s, d)

        if not self._reachable(self.cursor, s):
            return Violation(i, "BrokenFlow")
        ins = cfg.instrs[s]
        op = ins.op

        if op is JMP or op is JZ or op is JNZ:
            if d != ins.imm:
                return Violation(i, "BadJumpTarget")
        elif op is CALL:
            if d != ins.imm:
                return Violation(i, "BadCallTarget")
            self.shadow.append(((s + INSTR_SIZE) & MASK16,))
        elif op is CALLI:
            if d not in cfg.known_entries:
                return Violation(i, "IndirectTarget")
            self.shadow.append(((s + INSTR_SIZE) & MASK16,))
        elif op is RET or op is RETI:
            if not self.shadow:
                return Violation(i, "ShadowUnderflow")
            if d not in self.shadow.pop():
                return Violation(i, "ReturnMismatch")
        else:
            return Violation(i, "UnknownEdge")
        self.cursor = self._loc(d)
        return None


def validate_slice(kind: SliceKind, entries: Sequence[tuple[int, int]], cfg: Cfg,
                   session: VerifySession) -> Violation | None:
    """Validate one log slice; on success the session's traversal state is
    advanced, on violation it is left untouched."""
    w = _Walker(cfg, session)
    lay = session.layout

    for i, (s, d, count) in enumerate(decode_log(entries)):
        if i and w.cursor is None:
            # only the acceptance into the trusted software leaves no cursor
            return Violation(i, "EntriesAfterTrigger")
        if count is not None:
            v = w.counter_entry(i, count)
            if v is not None:
                return v
            continue
        if i == 0:
            v = w.first_entry(kind, s, d, session.issued_ar)
        else:
            v = w.entry(i, s, d)
        if v is not None:
            return v
        w.last_src = s

    if kind in RUN_ENDS:
        if not entries or entries[-1] != (session.issued_ar[1], lay.tcb_min):
            return Violation(max(0, len(entries) - 1), "BadSliceEnd")

    w.commit(session)
    return None


# ---------------------------------------------------------------------------
# Report handling
# ---------------------------------------------------------------------------

@dataclass
class VerifierConfig:
    key: bytes                       # pre-shared symmetric attestation key
    expected_pmem: bytes
    layout: MemoryLayout
    target_ar: tuple[int, int]       # region bounds issued in responses
    ivt_targets: tuple[int, ...] = ()
    patched_pmem: bytes | None = None   # expectation after a commanded update
    patched_ar: tuple[int, int] | None = None


class Verifier:
    """Drives one session per prover: authenticates reports, validates their
    log slices, and answers with authenticated approve/deny responses.

    Reports failing the measurement check are dropped without a response
    (indistinguishable from channel corruption; the prover retransmits), as
    are reports with out-of-window challenges (replays).  Authentic reports
    always get a response, approving or not.
    """

    def __init__(self, config: VerifierConfig):
        self.config = config
        self.session = VerifySession(config.layout)
        # the expected PMEM and its CFG, whose bounds every response issues;
        # a configured update replaces both once, at the first deny
        self.expected_pmem = config.expected_pmem
        self.graph = build_cfg(config.expected_pmem, config.target_ar,
                               config.ivt_targets)
        self._update = None if config.patched_pmem is None else \
            (config.patched_pmem, config.patched_ar or config.target_ar)
        self.audit: list[str] = []
        # the answer to the last authentic report, resent verbatim when that
        # report is retransmitted; only one challenge is outstanding at a time
        self._last: tuple[tuple[int, bytes], bytes] | None = None
        # primes again by itself when the expectation switches to patched_pmem
        self._att = PmemMac(config.key)

    # -- helpers --

    def _infer_kind(self, md: Metadata, entries) -> SliceKind:
        """The slice kind from authenticated bytes alone: a slice ends the
        run exactly when its last entry is the region-end jump into the
        trusted software."""
        fresh = self.session.fresh
        if entries and entries[-1] == (md.ar_max, self.config.layout.tcb_min):
            return SINGLE if fresh else LAST
        return FIRST if fresh else INTERMEDIATE

    def _audit(self, kind: str, app: int, reason: str, entries: int) -> None:
        self.audit.append(f"seq={len(self.audit) + 1} kind={kind} app={app} "
                          f"reason={reason} entries={entries}")

    def handle_report(self, frame: bytes) -> bytes | None:
        sess = self.session
        try:
            report = decode_report(frame)
        except WireError:
            self._audit("?", 0, "bad-frame", 0)
            return None
        md = report.metadata

        cache_key = (md.chal, report.h)
        if self._last is not None and self._last[0] == cache_key:
            cached = self._last[1]
            self._audit("cached", cached[0], "resend", md.cf_size)
            return cached

        expect_h = self._att.digest(self.expected_pmem, frame_covered(frame))
        if expect_h != report.h:
            self._audit("?", 0, "bad-mac", md.cf_size)
            return None
        if md.chal not in (sess.confirmed_chal, sess.issued_chal):
            self._audit("?", 0, "stale-chal", md.cf_size)
            return None
        sess.confirmed_chal = md.chal

        kind = self._infer_kind(md, report.entries)
        app, reason = 1, "ok"
        if (md.ar_min, md.ar_max) != sess.issued_ar:
            app, reason = 0, "bad-ar"
        else:
            violation = validate_slice(kind, report.entries, self.graph, sess)
            if violation is not None:
                app, reason = 0, str(violation)

        if app == 1:
            # the trigger byte is read only to learn that the device restarted
            if report.trigger in RESTARTS or kind in RUN_ENDS:
                sess.fresh_run()
            elif report.entries:
                sess.fresh = False
        else:
            # the response commands remediation; the device restarts fresh
            sess.fresh_run()
            if self._update is not None:
                self.expected_pmem, ar = self._update
                self._update = None
                self.graph = build_cfg(self.expected_pmem, ar, self.config.ivt_targets)

        raw = self._respond(app)
        self._last = (cache_key, raw)
        self._audit(kind.value, app, reason, md.cf_size)
        return raw

    def _respond(self, app: int) -> bytes:
        sess = self.session
        sess.issued_chal += 1
        ar_min, ar_max = self.graph.ar_min, self.graph.ar_max
        auth = response_auth(self.config.key, sess.issued_chal, ar_min, ar_max, app)
        sess.issued_ar = (ar_min, ar_max)
        return encode_response(CfaResponse(app, sess.issued_chal, ar_min, ar_max, auth))
