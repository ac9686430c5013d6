"""Bit-exact wire formats shared by prover and verifier.

Report frame (43 + 4*cf_size bytes):

    offset  0   h            32  HMAC-SHA-256 over pmem || metadata || entries
    offset 32   metadata     10  chal u32 | ar_min u16 | ar_max u16 | cf_size u16
    offset 42   trigger       1  simulator annotation, excluded from h; the
                                 verifier reads it only to learn a restart
                                 (BOOT, VIOLATION)
    offset 43   entries       4*cf_size  (src u16 || dest u16 each)

Response frame (41 bytes):

    offset  0   app           1
    offset  1   chal'         4
    offset  5   ar_min        2
    offset  7   ar_max        2
    offset  9   auth         32  HMAC-SHA-256 over chal' || ar_min || ar_max || app

All integers are big-endian.  Metadata and entries are the ``METADATA`` and
``SLOT`` records of :mod:`cfasim.mcu`, byte for byte as stored in protected
memory; every length and offset here derives from them and ``RESPONSE_HEADER``.

Both endpoints read frames in place: the verifier checks a report's shape
with :func:`report_metadata`, and the prover checks a response in
``tcb.authenticate_response``.  :class:`CfaReport` is the run's record of a
report (``ScenarioResult.reports``), made once per kept frame by
:func:`decode_report`; :class:`CfaResponse` and the encoders serve tests
and tools.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

from .mcu import CTR_MAX, METADATA, SLOT
from .monitor import Metadata, TriggerKind

MAC_LEN = 32
REPORT_FIXED = MAC_LEN + METADATA.size + 1     # h | metadata | trigger
TRIGGER_AT = REPORT_FIXED - 1
_TRIGGERS = {int(kind): kind for kind in TriggerKind}
RESPONSE_HEADER = struct.Struct(">BIHH")       # app | chal' | ar_min | ar_max
RESPONSE_LEN = RESPONSE_HEADER.size + MAC_LEN


class WireError(ValueError):
    pass


def mac(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA-256 of ``message`` under ``key``."""
    return _hmac.digest(key, message, "sha256")


class PmemMac:
    """The report measurement under one key: HMAC-SHA-256 over pmem and the
    MAC-covered bytes of a report (metadata and the used log slice, in wire
    byte order; the trigger annotation byte is deliberately not included).

    Reports share their PMEM prefix, so the state that has absorbed
    key || pmem is primed once and copied for each report.  It is keyed on
    the PMEM bytes themselves, compared by content, so a PMEM write (a
    heal's patch, the verifier's switch to the patched image) can never
    leave a stale prefix behind.  The comparison costs O(1) for the ``bytes``
    object it primed from (``bytes(b) is b``, and an object equals itself)."""

    __slots__ = ("_key", "_pmem", "_primed")

    def __init__(self, key: bytes):
        self._key = key
        self._pmem: bytes | None = None
        self._primed = None

    def digest(self, pmem: bytes | bytearray, covered: bytes) -> bytes:
        """HMAC-SHA-256(key, pmem || covered)."""
        if pmem != self._pmem:
            self._pmem = bytes(pmem)
            self._primed = _hmac.new(self._key, self._pmem, hashlib.sha256)
        h = self._primed.copy()
        h.update(covered)
        return h.digest()


def frame_covered(frame: bytes) -> bytes:
    """The bytes of a report frame that ``h`` covers after PMEM, metadata ||
    entries: all but ``h`` and the trigger byte."""
    return frame[MAC_LEN:TRIGGER_AT] + frame[REPORT_FIXED:]


def attest_digest(key: bytes, pmem: bytes, md: Metadata,
                  entries: Iterable[tuple[int, int]]) -> bytes:
    """The report measurement as one call (see ``PmemMac``)."""
    return PmemMac(key).digest(pmem, md.pack() + pack_entries(entries))


def response_auth(key: bytes, chal: int, ar_min: int, ar_max: int, app: int) -> bytes:
    return mac(key, struct.pack(">IHHB", chal, ar_min, ar_max, app))


def decode_log(entries):
    """Yield ``(src, dest, count)`` for each log entry: ``count`` is None for
    a transfer and the iteration count of a loop-counter entry.  Counters are
    recognised by position: one follows a backward jump, it is at most
    ``mcu.CTR_MAX`` (its high half lies below PMEM, where no transfer source
    can, in any layout), and a counter never follows a counter."""
    prev = None   # the previous entry, when it was a transfer
    for src, dest in entries:
        if prev is not None and prev[1] <= prev[0] and src <= CTR_MAX >> 16:
            yield src, dest, (src << 16) | dest
            prev = None
        else:
            yield src, dest, None
            prev = (src, dest)


def pack_entries(entries: Iterable[tuple[int, int]]) -> bytes:
    return b"".join(SLOT.pack(src, dest) for src, dest in entries)


@dataclass(frozen=True, slots=True)
class CfaReport:
    h: bytes
    metadata: Metadata
    trigger: TriggerKind
    entries: tuple[tuple[int, int], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CfaResponse:
    app: int
    chal: int
    ar_min: int
    ar_max: int
    auth: bytes


def report_frame(h: bytes, md_bytes: bytes, trigger: TriggerKind,
                 log_bytes: bytes) -> bytes:
    """A report frame from its metadata and entries already in their wire
    encoding, as protected memory stores them."""
    return h + md_bytes + bytes((trigger,)) + log_bytes


def encode_report(r: CfaReport) -> bytes:
    if len(r.h) != MAC_LEN:
        raise WireError("bad digest length")
    if r.metadata.cf_size != len(r.entries):
        raise WireError("cf_size does not match entry count")
    return report_frame(r.h, r.metadata.pack(), r.trigger, pack_entries(r.entries))


def report_metadata(raw: bytes) -> tuple[int, int, int, int]:
    """The metadata ``(chal, ar_min, ar_max, cf_size)`` of a report frame,
    read in place once the frame's length, trigger byte and length against
    ``cf_size`` are checked, in that order; ``WireError`` when one fails."""
    if len(raw) < REPORT_FIXED:
        raise WireError("report too short")
    md = METADATA.unpack_from(raw, MAC_LEN)
    if raw[TRIGGER_AT] not in _TRIGGERS:
        raise WireError(f"bad trigger byte {raw[TRIGGER_AT]}")
    if len(raw) != REPORT_FIXED + SLOT.size * md[3]:
        raise WireError("report length does not match cf_size")
    return md


def decode_report(raw: bytes, pairs: dict | None = None) -> CfaReport:
    """The record of a report frame.  With ``pairs``, each entry equal to
    one already in that dict is that dict's tuple, so records decoded
    against one dict share what repeats."""
    md = report_metadata(raw)
    entries = tuple(SLOT.iter_unpack(raw[REPORT_FIXED:]))
    if pairs is not None:
        entries = tuple(map(pairs.setdefault, entries, entries))
    return CfaReport(raw[:MAC_LEN], Metadata(*md), _TRIGGERS[raw[TRIGGER_AT]], entries)


def encode_response(r: CfaResponse) -> bytes:
    if r.app not in (0, 1):
        raise WireError("app must be 0 or 1")
    if len(r.auth) != MAC_LEN:
        raise WireError("bad auth length")
    return RESPONSE_HEADER.pack(r.app, r.chal, r.ar_min, r.ar_max) + r.auth


def decode_response(raw: bytes) -> CfaResponse:
    if len(raw) != RESPONSE_LEN:
        raise WireError(f"response must be {RESPONSE_LEN} bytes")
    app, chal, ar_min, ar_max = RESPONSE_HEADER.unpack_from(raw)
    return CfaResponse(app, chal, ar_min, ar_max, raw[RESPONSE_HEADER.size:])
