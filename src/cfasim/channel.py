"""Simulated adversarial network between prover and verifier.

The adversary may drop, duplicate, or tamper with frames (Bernoulli per
frame, seeded and therefore reproducible), may black out whole cycle windows,
and may capture frames for later replay.  Frames are otherwise delivered in
FIFO order after a fixed latency; no cryptographic capability is modeled
because the endpoints rely on MACs alone.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

PROVER = "prv"
VERIFIER = "vrf"

DEFAULT_LATENCY = 200


@dataclass
class ChannelPolicy:
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    tamper_prob: float = 0.0
    drop_first: int = 0                      # deterministically drop the first n frames per direction
    blackout_windows: tuple[tuple[int, int], ...] = ()
    latency: int = DEFAULT_LATENCY
    seed: int = 0

    def __post_init__(self):
        for p in (self.drop_prob, self.dup_prob, self.tamper_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")


@dataclass
class Channel:
    policy: ChannelPolicy = field(default_factory=ChannelPolicy)

    def __post_init__(self):
        pol = self.policy
        # a lossless channel draws nothing, so it holds no generator state
        self._rng = random.Random(pol.seed) \
            if pol.drop_prob or pol.dup_prob or pol.tamper_prob else None
        # per endpoint, a heap of (deliver_at, seq, frame)
        self._queues: dict[str, list] = {PROVER: [], VERIFIER: []}
        self._sent: dict[str, int] = {PROVER: 0, VERIFIER: 0}
        self._seq = 0
        # every frame offered to the channel: (cycle, endpoint, frame, injected)
        self._log: list[tuple[int, str, bytes, bool]] = []

    @property
    def captured(self) -> list[tuple[str, bytes]]:
        """The adversary's replay buffer: every frame sent, before the
        adversary's own actions."""
        return [(ep, frame) for _, ep, frame, injected in self._log if not injected]

    @property
    def trace(self) -> list[str]:
        """Hex trace of every sent and injected frame."""
        return [f"{cycle} =>{ep} {frame.hex()} (injected)" if injected
                else f"{cycle} ->{ep} {frame.hex()}"
                for cycle, ep, frame, injected in self._log]

    def _blacked_out(self, cycle: int) -> bool:
        return any(a <= cycle < b for a, b in self.policy.blackout_windows)

    def _enqueue(self, endpoint: str, frame: bytes, deliver_at: int) -> None:
        self._seq += 1
        heapq.heappush(self._queues[endpoint], (deliver_at, self._seq, frame))

    def send(self, endpoint: str, frame: bytes, at_cycle: int) -> None:
        """Enqueue ``frame`` toward ``endpoint``, subject to the adversary."""
        if not frame:
            raise ValueError("empty frame")
        pol = self.policy
        frame = bytes(frame)
        self._log.append((at_cycle, endpoint, frame, False))
        self._sent[endpoint] += 1
        if self._sent[endpoint] <= pol.drop_first:
            return
        if pol.blackout_windows and self._blacked_out(at_cycle):
            return
        dup = False
        if self._rng is not None:
            if self._rng.random() < pol.drop_prob:
                return
            if self._rng.random() < pol.tamper_prob:
                out = bytearray(frame)
                pos = self._rng.randrange(len(out))
                out[pos] ^= 1 + self._rng.randrange(255)
                frame = bytes(out)
            dup = self._rng.random() < pol.dup_prob
        self._enqueue(endpoint, frame, at_cycle + pol.latency)
        if dup:
            self._enqueue(endpoint, frame, at_cycle + pol.latency + 1)

    def inject(self, endpoint: str, frame: bytes, at_cycle: int) -> None:
        """Adversarial injection/replay: bypasses drop/tamper policy."""
        frame = bytes(frame)
        self._enqueue(endpoint, frame, at_cycle + self.policy.latency)
        self._log.append((at_cycle, endpoint, frame, True))

    def next_due(self, endpoint: str) -> int | None:
        """The earliest ``deliver_at`` queued toward ``endpoint``, or None
        when nothing is in flight there."""
        q = self._queues[endpoint]
        return q[0][0] if q else None

    def deliver(self, endpoint: str, at_cycle: int) -> bytes | None:
        """At most one frame: the earliest due, FIFO among equal times."""
        q = self._queues[endpoint]
        if not q or q[0][0] > at_cycle:
            return None
        return heapq.heappop(q)[2]
