"""Verifier endpoint: offline disassembly of the expected binary's attested
region, online validation of log slices against it with a shadow stack,
approval decisions, and response generation.

Slice validation walks the logged (source, destination) pairs while tracking
a cursor (the address execution is expected to reach next by straight-line
flow, or ``EXTERNAL`` outside the region), a shadow stack whose every entry
holds the candidate return addresses of one call or interrupt, and the
candidate resume points announced by a trusted-software entry.  This walk
state and the CFG it walks live in the prover's :class:`VerifySession`; a
slice walk advances them in place and restores them on a violation.
Loop-counter entries are told apart from transfers by the positional rule of
:func:`cfasim.wire.decode_log`.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

from .isa import (CALL, CALLI, INSTR_SIZE, JMP, JNZ, JZ, M_IMM, MOV,
                  NO_FALLTHROUGH_OPS, RET, RETI, WORD, DecodeError, Instr,
                  decode_word)
from .mcu import SLOT, MemoryLayout
from .monitor import TriggerKind
from .wire import (MAC_LEN, REPORT_FIXED, RESPONSE_HEADER, TRIGGER_AT, PmemMac,
                   WireError, decode_log, frame_covered, report_metadata,
                   response_auth)

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


@dataclass(slots=True)
class VerifySession:
    """Per-prover verifier state carried across reports: the challenges, the
    CFG of the expected binary, and the walk over it.  A slice walk advances
    the walk fields in place; :func:`validate_slice` restores them when the
    slice is denied."""
    layout: MemoryLayout
    cfg: Cfg | None = None
    issued_chal: int = 0
    confirmed_chal: int = 0
    issued_ar: tuple[int, int] = (0, 0)
    shadow: list[tuple[int, ...]] = field(default_factory=list)  # candidate returns
    cursor: int | None = None
    pending_resume: frozenset[int] = frozenset()  # candidate resume points
    last_src: int | None = None     # src of the previous transfer, for irq attribution

    def fresh_run(self) -> None:
        """The device (re)starts executing from scratch."""
        self.shadow.clear()
        self.cursor = None
        self.pending_resume = frozenset()
        self.last_src = None

    # -- walk helpers --

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
        shadow-tracked address, a call to a known entry, or a handler entry.
        The trusted software is left only by the exit jump from ``tcb_max``,
        which :meth:`first_entry` takes, so no other source may lie in it."""
        if self.layout.in_tcb(s):
            return Violation(i, "BrokenFlow")
        if self.shadow and d in self.shadow[-1]:
            self.shadow.pop()
        elif d in self.cfg.known_entries or d in self.cfg.isr_targets:
            self.shadow.append(((s + INSTR_SIZE) & MASK16,))
        else:
            return Violation(i, "UnknownEdge")
        self.cursor = d
        return None

    def _accept_interrupt(self, i: int, s: int, d: int,
                          ins: Instr | None) -> Violation | None:
        """An interrupt acceptance attributed to source ``s`` (the last
        retired instruction, ``ins`` when the cursor reaches it, else None):
        a jump into the trusted software (``d == tcb_min``) or into the
        handler entry ``d``.  Every resume point consistent with the log so
        far is a candidate (an acceptance directly after a taken conditional
        is indistinguishable from one after the next not-taken pass; the
        eventual return or the next slice start disambiguates)."""
        cursor, again = self.cursor, s == self.last_src
        past = (s + INSTR_SIZE) & MASK16
        op = None if ins is None else ins.op
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
        if d == self.layout.tcb_min:
            self.pending_resume = cands
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

    def first_entry(self, kind: SliceKind, s: int, d: int) -> Violation | None:
        """Entry 0 adds only what a slice start decides.  A run enters at the
        region start.  The trusted software's exit jump resumes the walk at
        its destination, which within a run must be an announced resume
        point.  Any other first entry is a transfer from outside the region
        (a run's call into it, or a return or trigger while execution was
        outside), judged by :meth:`entry` from an ``EXTERNAL`` cursor."""
        fresh = kind in RUN_STARTS
        if fresh and d != self.cfg.ar_min:
            return Violation(0, "BadRegionEntry")
        if s == self.layout.tcb_max:
            if not (fresh or self.cfg.in_region(d)):
                return Violation(0, "BadSliceStart")
            if not (fresh or d in self.pending_resume):
                return Violation(0, "ResumeMismatch")
            self.pending_resume = frozenset()
            self.cursor = d
            return None
        if not (fresh or self.cursor == EXTERNAL or EXTERNAL in self.pending_resume):
            return Violation(0, "BadSliceStart")
        self.pending_resume = frozenset()
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
        cfg = self.cfg

        # an in-region source under an EXTERNAL cursor reaches nothing: below
        # it is an acceptance right after the transfer out, or a BrokenFlow
        if self.cursor == EXTERNAL and not cfg.in_region(s):
            return self._enter_external(i, s, d)

        ins = cfg.instrs[s] if self._reachable(self.cursor, s) else None
        # a transfer into the trusted software or a handler entry is an
        # interrupt acceptance, except when it is the taken edge of the very
        # conditional sitting at the source
        if (d == self.layout.tcb_min or d in cfg.isr_targets) and not (
                ins is not None and ins.op in (JMP, JZ, JNZ, CALL) and d == ins.imm):
            return self._accept_interrupt(i, s, d, ins)
        if ins is None:
            return Violation(i, "BrokenFlow")
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
    """Validate one log slice over ``cfg``, which becomes the session's CFG.
    The walk advances the session in place; on violation its walk fields are
    restored, so the session is left as it stood before the call."""
    session.cfg = cfg
    saved = (list(session.shadow), session.cursor, session.pending_resume,
             session.last_src)
    v = None
    for i, (s, d, count) in enumerate(decode_log(entries)):
        if i and session.cursor is None:
            # only the acceptance into the trusted software leaves no cursor
            v = Violation(i, "EntriesAfterTrigger")
        elif count is not None:
            v = session.counter_entry(i, count)
        else:
            v = session.first_entry(kind, s, d) if i == 0 else session.entry(i, s, d)
            session.last_src = s
        if v is not None:
            break
    else:
        if kind in RUN_ENDS and (not entries
                                 or entries[-1] != (cfg.ar_max, session.layout.tcb_min)):
            v = Violation(max(0, len(entries) - 1), "BadSliceEnd")
    if v is not None:
        session.shadow, session.cursor, session.pending_resume, session.last_src = saved
    return v


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
        # the expected PMEM and the session's CFG, whose bounds every
        # response issues; a configured update replaces both once, at the
        # first deny
        self.expected_pmem = config.expected_pmem
        self.session = VerifySession(config.layout, build_cfg(
            config.expected_pmem, config.target_ar, config.ivt_targets))
        self._update = None if config.patched_pmem is None else \
            (config.patched_pmem, config.patched_ar or config.target_ar)
        self.audit: list[str] = []
        # the answer to the last authentic report, resent verbatim when that
        # report is retransmitted; only one challenge is outstanding at a time
        self._last: tuple[tuple[int, bytes], bytes] | None = None
        # primes again by itself when the expectation switches to patched_pmem
        self._att = PmemMac(config.key)

    # -- helpers --

    def _infer_kind(self, ar_max: int, entries) -> SliceKind:
        """The slice kind from authenticated bytes alone: a slice ends the
        run exactly when its last entry is the region-end jump into the
        trusted software, and starts one when the walk stands where only a
        fresh run leaves it: at no cursor, with no announced resume point."""
        fresh = self.session.cursor is None and not self.session.pending_resume
        if entries and entries[-1] == (ar_max, self.config.layout.tcb_min):
            return SINGLE if fresh else LAST
        return FIRST if fresh else INTERMEDIATE

    def _audit(self, kind: str, app: int, reason: str, entries: int) -> None:
        self.audit.append(f"seq={len(self.audit) + 1} kind={kind} app={app} "
                          f"reason={reason} entries={entries}")

    def handle_report(self, frame: bytes) -> bytes | None:
        """Answer one report frame, read in place: the metadata once the
        frame's shape is checked, the entries once the MAC and challenge
        checks pass.  None when the frame is dropped."""
        sess = self.session
        try:
            chal, ar_min, ar_max, cf_size = report_metadata(frame)
        except WireError:
            self._audit("?", 0, "bad-frame", 0)
            return None

        h = frame[:MAC_LEN]
        cache_key = (chal, h)
        if self._last is not None and self._last[0] == cache_key:
            cached = self._last[1]
            self._audit("cached", cached[0], "resend", cf_size)
            return cached

        expect_h = self._att.digest(self.expected_pmem, frame_covered(frame))
        if expect_h != h:
            self._audit("?", 0, "bad-mac", cf_size)
            return None
        if chal not in (sess.confirmed_chal, sess.issued_chal):
            self._audit("?", 0, "stale-chal", cf_size)
            return None
        sess.confirmed_chal = chal

        entries = tuple(SLOT.iter_unpack(frame[REPORT_FIXED:]))
        kind = self._infer_kind(ar_max, entries)
        app, reason = 1, "ok"
        if (ar_min, ar_max) != sess.issued_ar:
            app, reason = 0, "bad-ar"
        else:
            violation = validate_slice(kind, entries, sess.cfg, sess)
            if violation is not None:
                app, reason = 0, str(violation)

        if app == 1:
            # the trigger byte is read only to learn that the device restarted
            if frame[TRIGGER_AT] in RESTARTS or kind in RUN_ENDS:
                sess.fresh_run()
        else:
            # the response commands remediation; the device restarts fresh
            sess.fresh_run()
            if self._update is not None:
                self.expected_pmem, ar = self._update
                self._update = None
                sess.cfg = build_cfg(self.expected_pmem, ar, self.config.ivt_targets)

        raw = self._respond(app)
        self._last = (cache_key, raw)
        self._audit(kind.value, app, reason, cf_size)
        return raw

    def _respond(self, app: int) -> bytes:
        sess = self.session
        sess.issued_chal += 1
        ar_min, ar_max = sess.cfg.ar_min, sess.cfg.ar_max
        auth = response_auth(self.config.key, sess.issued_chal, ar_min, ar_max, app)
        sess.issued_ar = (ar_min, ar_max)
        return RESPONSE_HEADER.pack(app, sess.issued_chal, ar_min, ar_max) + auth
