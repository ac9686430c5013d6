import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cfasim.monitor import Metadata, TriggerKind
from cfasim.wire import (MAC_LEN, RESPONSE_LEN, CfaReport,
                         CfaResponse, WireError, decode_report,
                         decode_response, encode_report, encode_response, mac)

DATA = Path(__file__).parent / "data"


def make_report(entries=(), chal=0, ar=(0, 0), trigger=TriggerKind.BOOT):
    md = Metadata(chal, ar[0], ar[1], len(entries))
    return CfaReport(b"\x11" * 32, md, trigger, tuple(entries))


class TestReportLayout:
    def test_empty_report_is_43_bytes(self):
        assert len(encode_report(make_report())) == 43

    def test_two_entry_report_offsets(self):
        raw = encode_report(make_report([(0xA000, 0xB000), (0xB004, 0xA004)],
                                        chal=3, ar=(0x9000, 0x9FFC)))
        assert len(raw) == 51
        assert raw[43:47] == bytes.fromhex("a000b000")
        assert raw[47:51] == bytes.fromhex("b004a004")

    def test_field_offsets_big_endian(self):
        raw = encode_report(make_report(chal=0x01020304, ar=(0x1122, 0x3344),
                                        trigger=TriggerKind.REGION_END))
        assert raw[:32] == b"\x11" * 32
        assert raw[32:36] == bytes.fromhex("01020304")
        assert raw[36:38] == bytes.fromhex("1122")
        assert raw[38:40] == bytes.fromhex("3344")
        assert raw[40:42] == bytes.fromhex("0000")
        assert raw[42] == TriggerKind.REGION_END

    def test_truncated_report_rejected(self):
        with pytest.raises(WireError):
            decode_report(encode_report(make_report())[:-1])

    def test_length_must_match_cf_size(self):
        raw = bytearray(encode_report(make_report([(1, 2)])))
        raw[40:42] = (2).to_bytes(2, "big")
        with pytest.raises(WireError):
            decode_report(bytes(raw))

    @pytest.mark.parametrize("byte", [0, 6, 0xFF])
    def test_unknown_trigger_byte_rejected(self, byte):
        raw = bytearray(encode_report(make_report([(1, 2)])))
        raw[42] = byte
        with pytest.raises(WireError, match=f"bad trigger byte {byte}"):
            decode_report(bytes(raw))

    def test_digest_length_enforced(self):
        report = make_report()
        with pytest.raises(WireError, match="bad digest length"):
            encode_report(CfaReport(b"\x11" * 31, report.metadata, report.trigger, ()))

    def test_cf_size_entry_count_consistency_enforced(self):
        md = Metadata(0, 0, 0, 3)
        with pytest.raises(WireError):
            encode_report(CfaReport(b"\x00" * 32, md, TriggerKind.BOOT, ()))


class TestResponseLayout:
    def test_fixed_41_byte_frame_app_first(self):
        raw = encode_response(CfaResponse(1, 1, 0x8000, 0x9FFE, b"\x22" * 32))
        assert len(raw) == RESPONSE_LEN == 41
        assert raw[0] == 1
        assert raw[1:5] == bytes.fromhex("00000001")
        assert raw[5:7] == bytes.fromhex("8000")
        assert raw[7:9] == bytes.fromhex("9ffe")
        assert raw[9:] == b"\x22" * 32

    @pytest.mark.parametrize("app, auth, message", [
        (2, b"\x22" * 32, "app must be 0 or 1"),
        (1, b"\x22" * 31, "bad auth length"),
    ])
    def test_response_fields_enforced(self, app, auth, message):
        with pytest.raises(WireError, match=message):
            encode_response(CfaResponse(app, 1, 0x8000, 0x9FFE, auth))

    def test_truncated_response_rejected(self):
        with pytest.raises(WireError):
            decode_response(bytes(40))

    def test_tampered_auth_still_decodes(self):
        raw = bytearray(encode_response(CfaResponse(0, 9, 0, 0, b"\x00" * 32)))
        raw[-1] ^= 0xFF
        resp = decode_response(bytes(raw))
        assert resp.chal == 9   # rejection happens at authentication, not here


class TestGoldenHexFixture:
    def test_pinned_layout(self):
        lines = (DATA / "wire_golden.txt").read_text().splitlines()
        fixtures = {}
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if line:
                name, hexstr = line.split("=", 1)
                fixtures[name.strip()] = bytes.fromhex(hexstr.strip())
        report = make_report([(0x9000, 0x9100)], chal=2, ar=(0x9000, 0x9FFC),
                             trigger=TriggerKind.TIMER)
        assert encode_report(report) == fixtures["report"]
        resp = CfaResponse(1, 3, 0x9000, 0x9FFC, bytes(range(32)))
        assert encode_response(resp) == fixtures["response"]


class TestMac:
    def test_rfc4231_vectors(self):
        cases = json.loads((DATA / "hmac_sha256_rfc4231.json").read_text())["cases"]
        assert len(cases) == 6
        for case in cases:
            got = mac(bytes.fromhex(case["key"]), bytes.fromhex(case["data"]))
            assert got.hex() == case["mac"], f"case {case['case']}"

    def test_empty_message_deterministic(self):
        assert mac(b"k", b"") == mac(b"k", b"")
        assert len(mac(b"k", b"")) == MAC_LEN

    def test_distinct_keys_distinct_digests(self):
        assert mac(b"k1", b"msg") != mac(b"k2", b"msg")


entries_st = st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
                      max_size=40)


@given(st.binary(min_size=32, max_size=32), entries_st, st.integers(0, 2**32 - 1),
       st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
       st.sampled_from(sorted(TriggerKind)))
def test_report_roundtrip(h, entries, chal, ar_min, ar_max, trigger):
    rep = CfaReport(h, Metadata(chal, ar_min, ar_max, len(entries)), trigger,
                    tuple(entries))
    assert decode_report(encode_report(rep)) == rep


@given(st.integers(0, 1), st.integers(0, 2**32 - 1), st.integers(0, 0xFFFF),
       st.integers(0, 0xFFFF), st.binary(min_size=32, max_size=32))
def test_response_roundtrip(app, chal, ar_min, ar_max, auth):
    resp = CfaResponse(app, chal, ar_min, ar_max, auth)
    assert decode_response(encode_response(resp)) == resp


def test_thousand_random_messages_roundtrip():
    rng = random.Random(4231)
    for _ in range(1000):
        n = rng.randrange(0, 30)
        entries = tuple((rng.randrange(0, 0x10000), rng.randrange(0, 0x10000))
                        for _ in range(n))
        rep = CfaReport(rng.randbytes(32),
                        Metadata(rng.randrange(0, 2**32), rng.randrange(0, 0x10000),
                                 rng.randrange(0, 0x10000), n),
                        rng.choice(list(TriggerKind)), entries)
        assert decode_report(encode_report(rep)) == rep
        resp = CfaResponse(rng.randrange(0, 2), rng.randrange(0, 2**32),
                           rng.randrange(0, 0x10000), rng.randrange(0, 0x10000),
                           rng.randbytes(32))
        assert decode_response(encode_response(resp)) == resp
