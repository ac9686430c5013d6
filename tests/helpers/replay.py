"""Replay one report of a finished run, altered, through a fresh verifier.

A mutation check asks whether the verifier approves a log the device never
sent.  The test holds the prover's key, so the altered report carries a
valid MAC and only the slice walk can deny it.  A frame check instead
replays the sent frame with its bytes altered, MAC and all.
"""

from __future__ import annotations

from cfasim.verifier import Verifier
from cfasim.wire import CfaReport, attest_digest, decode_response, encode_report


def _after_earlier(res, index: int) -> Verifier:
    """A fresh verifier, configured as ``res``'s, that has been handed the
    untouched frames before report ``index`` of ``res``."""
    verifier = Verifier(res.verifier.config)
    for frame in res.device.reports[:index]:
        assert verifier.handle_report(frame) is not None
    return verifier


def replay_frame(res, index: int, frame: bytes) -> tuple[str, bytes | None]:
    """The audit line and the answer (None when dropped) of a fresh verifier,
    configured as ``res``'s, to ``frame`` in place of report ``index`` of
    ``res``, after the untouched earlier frames."""
    verifier = _after_earlier(res, index)
    resp = verifier.handle_report(frame)
    return verifier.audit[-1], resp


def replay_with_entries(res, index: int, entries, *, reason: bool = False):
    """The ``app`` bit that a fresh verifier, configured as ``res``'s, answers
    to report ``index`` of ``res`` with its log replaced by ``entries`` and
    MACed again, after the untouched earlier frames.  With ``reason``, the
    verdict's audit reason instead (``ok``, or a violation such as
    ``BrokenFlow@3``)."""
    verifier = _after_earlier(res, index)
    rep = res.reports[index]
    h = attest_digest(res.verifier.config.key, verifier.expected_pmem,
                      rep.metadata, entries)
    resp = verifier.handle_report(encode_report(
        CfaReport(h, rep.metadata, rep.trigger, tuple(entries))))
    if reason:
        return dict(f.split("=", 1) for f in verifier.audit[-1].split())["reason"]
    return decode_response(resp).app
