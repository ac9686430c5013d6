import hashlib
import hmac

import pytest

from cfasim.monitor import Metadata
from cfasim.tcb import (DeviceKey, PolicyMode, WaitPolicy, authenticate_response,
                        tcb_att)
from cfasim.wire import CfaResponse, encode_response, response_auth


def hmac_sha256_reference(key: bytes, msg: bytes) -> bytes:
    """Independent HMAC construction straight from the definition, used as a
    second opinion against the library-backed path."""
    block = 64
    if len(key) > block:
        key = hashlib.sha256(key).digest()
    key = key.ljust(block, b"\x00")
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in key) + msg).digest()
    return hashlib.sha256(bytes(b ^ 0x5C for b in key) + inner).digest()


KEY = DeviceKey(bytes(32))


class TestAtt:
    def test_matches_independent_mac_construction(self):
        md = Metadata(0, 0, 0, 0)
        pmem = bytes(16)
        h, _ = tcb_att(KEY, pmem, md.pack(), [])
        assert h == hmac_sha256_reference(bytes(32), pmem + md.pack())

    def test_log_byte_flip_changes_digest(self):
        md = Metadata(1, 0x9000, 0x9FFC, 1)
        h1, _ = tcb_att(KEY, bytes(16), md.pack(), [(0x9000, 0x9100)])
        h2, _ = tcb_att(KEY, bytes(16), md.pack(), [(0x9000, 0x9101)])
        assert h1 != h2

    def test_deterministic(self):
        md = Metadata(7, 0x9000, 0x9FFC, 0)
        assert tcb_att(KEY, b"\xAB" * 64, md.pack(), []) == \
            tcb_att(KEY, b"\xAB" * 64, md.pack(), [])

    def test_pmem_change_primes_the_measurement_again(self):
        """One key measures PMEM A, then B, then A again (the prover's
        PMEM after an update heal, the verifier's switch to the patched
        image): each digest is the plain HMAC over that content."""
        key = bytes(range(32))
        dev_key = DeviceKey(key)
        md = Metadata(3, 0x9000, 0x9FFC, 1)
        entries = [(0x9000, 0x9100)]
        tail = md.pack() + bytes.fromhex("90009100")
        a, b = bytearray(b"\xAB" * 512), bytearray(b"\xAB" * 511 + b"\xAC")
        for pmem in (a, b, a):
            h, _ = tcb_att(dev_key, pmem, md.pack(), entries)
            assert h == hmac.new(key, bytes(pmem) + tail, hashlib.sha256).digest()
        # the same buffer written in place is measured afresh
        a[0] ^= 0xFF
        h, _ = tcb_att(dev_key, a, md.pack(), entries)
        assert h == hmac.new(key, bytes(a) + tail, hashlib.sha256).digest()

    def test_cost_scales_with_measured_bytes(self):
        md = Metadata(0, 0, 0, 0)
        _, c1 = tcb_att(KEY, bytes(1024), md.pack(), [])
        _, c2 = tcb_att(KEY, bytes(4096), md.pack(), [])
        assert c2 > c1


def make_response(key: bytes, app=1, chal=1, ar=(0x9000, 0x9FFC)) -> bytes:
    return encode_response(CfaResponse(app, chal, ar[0], ar[1],
                                       response_auth(key, chal, ar[0], ar[1], app)))


class TestAuthenticate:
    def test_valid_response_accepted(self):
        assert authenticate_response(KEY, make_response(bytes(32)), 0)
        assert authenticate_response(KEY, make_response(bytes(32), app=0, chal=7),
                                     6) == (0, 7, 0x9000, 0x9FFC)

    def test_stale_challenge_rejected(self):
        resp = make_response(bytes(32), chal=5)
        assert not authenticate_response(KEY, resp, 5)
        assert not authenticate_response(KEY, resp, 9)

    def test_wrong_key_rejected(self):
        resp = make_response(b"\x01" * 32)
        assert not authenticate_response(KEY, resp, 0)

    def test_any_tampered_byte_rejected(self):
        raw = bytearray(make_response(bytes(32)))
        for pos in range(len(raw)):
            bad = bytearray(raw)
            bad[pos] ^= 0x40
            assert not authenticate_response(KEY, bytes(bad), 0)

    def test_frame_of_another_length_rejected(self):
        raw = make_response(bytes(32))
        assert authenticate_response(KEY, raw, 0)
        assert authenticate_response(KEY, raw[:-1], 0) is None
        assert authenticate_response(KEY, raw + b"\x00", 0) is None


class TestKeyHandling:
    def test_key_not_reachable_through_repr(self):
        assert "00" not in repr(KEY)

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            DeviceKey(b"short")


class TestWaitPolicy:
    def test_strict_has_no_timeout(self):
        assert WaitPolicy().mode is PolicyMode.STRICT

    def test_best_effort_requires_timeout(self):
        with pytest.raises(ValueError):
            WaitPolicy(PolicyMode.BEST_EFFORT_RESUME)
        WaitPolicy(PolicyMode.BEST_EFFORT_RESUME, timeout_cycles=1000)
