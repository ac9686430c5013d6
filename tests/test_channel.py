import pytest

from cfasim.channel import Channel, ChannelPolicy, PROVER, VERIFIER


def test_empty_queue_delivers_nothing():
    ch = Channel(ChannelPolicy())
    assert ch.deliver(PROVER, 10_000) is None


def test_delivery_after_latency_fifo():
    ch = Channel(ChannelPolicy(latency=100))
    ch.send(VERIFIER, b"one", 0)
    ch.send(VERIFIER, b"two", 10)
    assert ch.deliver(VERIFIER, 50) is None
    assert ch.deliver(VERIFIER, 200) == b"one"
    assert ch.deliver(VERIFIER, 200) == b"two"
    assert ch.deliver(VERIFIER, 200) is None


def test_drop_all_policy():
    ch = Channel(ChannelPolicy(drop_prob=1.0))
    for i in range(20):
        ch.send(PROVER, b"x", i)
    assert ch.deliver(PROVER, 1_000_000) is None


def test_duplicate_policy_delivers_twice():
    ch = Channel(ChannelPolicy(dup_prob=1.0, latency=1))
    ch.send(PROVER, b"frame", 0)
    assert ch.deliver(PROVER, 100) == b"frame"
    assert ch.deliver(PROVER, 100) == b"frame"
    assert ch.deliver(PROVER, 100) is None


def test_tamper_flips_exactly_one_byte():
    ch = Channel(ChannelPolicy(tamper_prob=1.0, latency=1, seed=3))
    payload = bytes(64)
    ch.send(PROVER, payload, 0)
    got = ch.deliver(PROVER, 100)
    assert got is not None and got != payload
    assert sum(1 for a, b in zip(got, payload) if a != b) == 1


def test_drop_first_n_per_direction():
    ch = Channel(ChannelPolicy(drop_first=2, latency=1))
    for i in range(3):
        ch.send(PROVER, b"p%d" % i, 0)
        ch.send(VERIFIER, b"v%d" % i, 0)
    assert ch.deliver(PROVER, 100) == b"p2"
    assert ch.deliver(VERIFIER, 100) == b"v2"


def test_blackout_window_drops_sends():
    ch = Channel(ChannelPolicy(blackout_windows=((100, 200),), latency=1))
    ch.send(PROVER, b"in-blackout", 150)
    ch.send(PROVER, b"after", 250)
    assert ch.deliver(PROVER, 1000) == b"after"
    assert ch.deliver(PROVER, 1000) is None


def test_seeded_schedule_is_reproducible():
    def trace(seed):
        ch = Channel(ChannelPolicy(drop_prob=0.4, dup_prob=0.3, tamper_prob=0.2,
                                   seed=seed, latency=5))
        out = []
        for i in range(50):
            ch.send(PROVER, bytes([i]) * 8, i)
        while (f := ch.deliver(PROVER, 10_000)) is not None:
            out.append(f)
        return out
    assert trace(7) == trace(7)
    assert trace(7) != trace(8)


def test_capture_and_inject_replays_verbatim():
    ch = Channel(ChannelPolicy(latency=1))
    ch.send(PROVER, b"secret-response", 0)
    assert ch.deliver(PROVER, 100) == b"secret-response"
    endpoint, frame = ch.captured[0]
    ch.inject(endpoint, frame, 200)
    assert ch.deliver(PROVER, 300) == b"secret-response"


def test_injected_frame_due_earlier_is_delivered_first():
    ch = Channel(ChannelPolicy(latency=100))
    ch.send(PROVER, b"queued", 50)
    ch.inject(PROVER, b"injected", 0)
    assert ch.deliver(PROVER, 120) == b"injected"
    assert ch.deliver(PROVER, 120) is None
    assert ch.deliver(PROVER, 150) == b"queued"
    assert ch.captured == [(PROVER, b"queued")]
    assert ch.trace == [f"50 ->{PROVER} {b'queued'.hex()}",
                        f"0 =>{PROVER} {b'injected'.hex()} (injected)"]


def test_next_due_peeks_the_earliest_frame_per_endpoint():
    ch = Channel(ChannelPolicy(latency=100))
    assert ch.next_due(PROVER) is None and ch.next_due(VERIFIER) is None
    ch.send(VERIFIER, b"late", 50)
    ch.inject(VERIFIER, b"early", 10)
    ch.send(PROVER, b"resp", 30)
    assert ch.next_due(VERIFIER) == 110
    assert ch.next_due(PROVER) == 130
    assert ch.deliver(VERIFIER, 110) == b"early"
    assert ch.next_due(VERIFIER) == 150
    assert ch.deliver(VERIFIER, 150) == b"late"
    assert ch.next_due(VERIFIER) is None
    assert ch.next_due(PROVER) == 130


def test_empty_frame_rejected():
    ch = Channel(ChannelPolicy())
    with pytest.raises(ValueError):
        ch.send(PROVER, b"", 0)


def test_bad_probability_rejected():
    with pytest.raises(ValueError):
        ChannelPolicy(drop_prob=1.5)
