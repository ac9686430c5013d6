"""Functional model of the trusted software: measurement (Att), report
transmission and response authentication (Wait), and remediation (Heal).

The model runs whenever the core reaches the trusted entry point.  It charges
simulated cycle costs per phase instead of executing real instructions; its
*observable* behavior (memory writes, wire messages, phase ordering) is what
the surrounding hardware model protects and what the tests pin down.

The device key lives only in ``DeviceKey._k`` and in the ``wire.PmemMac`` that
key carries; no operation returns it and it is never written to simulated
memory or the wire.
"""

from __future__ import annotations

import enum
import hmac
from collections.abc import Sequence
from dataclasses import dataclass

from .mcu import SLOT
from .wire import (RESPONSE_HEADER, RESPONSE_LEN, PmemMac, pack_entries,
                   response_auth)

# Cycle-cost model.  Attestation is dominated by MAC-ing program memory, so
# its cost scales with the measured byte count; the rest are flat charges.
ATT_BASE_CYCLES = 2_000
ATT_CYCLES_PER_BYTE = 4
AUTH_CYCLES = 3_000
HEAL_CYCLES = 500
WAIT_POLL_CYCLES = 50      # granularity of the wait loop
RETRANSMIT_EVERY = 10_000  # cycles between sends of an unanswered report


class PolicyMode(enum.Enum):
    STRICT = "strict"
    BEST_EFFORT_RESUME = "resume"
    BEST_EFFORT_HEAL = "heal"


@dataclass(frozen=True)
class WaitPolicy:
    """How long the prover is willing to pause for verifier approval."""
    mode: PolicyMode = PolicyMode.STRICT
    timeout_cycles: int = 0

    def __post_init__(self):
        if self.mode is not PolicyMode.STRICT and self.timeout_cycles <= 0:
            raise ValueError("best-effort policies need a positive timeout")


class HealAction(enum.Enum):
    SHUTDOWN = "shutdown"
    REBOOT = "reboot"
    UPDATE = "update"


class DeviceKey:
    """Symmetric attestation key.  Deliberately opaque: no repr leakage, no
    serialization; only the two MAC operations below can reach the bytes.
    It carries the prover's primed measurement (``wire.PmemMac``), keyed on
    the PMEM bytes, so ``tcb_att`` stays a pure function of its arguments
    across heal-time PMEM patches."""

    __slots__ = ("_k", "_att")

    def __init__(self, k: bytes):
        if len(k) != 32:
            raise ValueError("key must be 32 bytes")
        self._k = bytes(k)
        self._att = PmemMac(self._k)

    def __repr__(self):
        return "DeviceKey(<hidden>)"


def tcb_att(key: DeviceKey, pmem: bytes | bytearray, md: bytes | bytearray,
            entries: Sequence[tuple[int, int]]) -> tuple[bytes, int]:
    """Measure ``pmem``, the metadata record ``md`` as stored and the log
    ``entries``: returns (digest, charged cycles).  The cycles model the
    device's MAC over all of ``pmem``; the host re-hashes it on a change."""
    h = key._att.digest(pmem, md + pack_entries(entries))
    cost = ATT_BASE_CYCLES + ATT_CYCLES_PER_BYTE * (
        len(pmem) + len(md) + SLOT.size * len(entries))
    return h, cost


def authenticate_response(key: DeviceKey, frame: bytes,
                          stored_chal: int) -> tuple[int, int, int, int] | None:
    """The response check on a response frame: its length, a fresh
    challenge, an ``app`` bit and a valid tag.  Returns the authenticated
    ``(app, chal, ar_min, ar_max)``, or None when the check fails."""
    if len(frame) != RESPONSE_LEN:
        return None
    resp = RESPONSE_HEADER.unpack_from(frame)
    app, chal, ar_min, ar_max = resp
    if chal <= stored_chal or app not in (0, 1):
        return None
    expect = response_auth(key._k, chal, ar_min, ar_max, app)
    return resp if hmac.compare_digest(expect, frame[RESPONSE_HEADER.size:]) else None
