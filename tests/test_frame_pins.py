"""The verifier's answer to every altered frame of one small run, pinned.

``few_branch`` at seed 1 with a 64-byte log sends two reports.  For each,
the sent frame is altered in every way below and replayed through a fresh
verifier after the untouched earlier frames (``helpers.replay``):

* every byte XOR 0x01 and every byte XOR 0xFF;
* every value of byte 42, the trigger annotation (the value sent included);
* the frame one byte short and one byte long.

A mutant's verdict is its audit line and the response frame (hex, or
``-`` when dropped).  ``data/frame_pins.json`` holds, per report, the mutant
count, the count per audit line and a SHA-256 of the ordered verdict list.
A trigger byte of BOOT or VIOLATION on an authentic report restarts the
verifier's session; those verdicts are pinned as they stand.

Run this file as a script to rewrite the pins, only for a deliberate change
of how the verifier reads a frame.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from helpers.replay import replay_frame

from cfasim.scenario import ScenarioConfig, run_scenario
from cfasim.wire import TRIGGER_AT

PINS_PATH = Path(__file__).parent / "data" / "frame_pins.json"


def mutants(frame: bytes):
    for flip in (0x01, 0xFF):
        for at in range(len(frame)):
            raw = bytearray(frame)
            raw[at] ^= flip
            yield bytes(raw)
    for value in range(256):
        raw = bytearray(frame)
        raw[TRIGGER_AT] = value
        yield bytes(raw)
    yield frame[:-1]
    yield frame + b"\x00"


def verdicts(res, index: int) -> list[str]:
    out = []
    for frame in mutants(res.device.reports[index]):
        line, resp = replay_frame(res, index, frame)
        out.append(f"{line} resp={'-' if resp is None else resp.hex()}")
    return out


def summary(lines: list[str]) -> dict:
    reasons = Counter(line.split(" resp=")[0] for line in lines)
    return {"mutants": len(lines), "audit": dict(sorted(reasons.items())),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def run():
    return run_scenario(ScenarioConfig(app="few_branch", seed=1, max_cflog_bytes=64))


@pytest.fixture(scope="module")
def res():
    res = run()
    assert len(res.device.reports) == 2
    return res


@pytest.mark.parametrize("index", [0, 1])
def test_frame_verdicts_match_the_pin(res, index):
    assert summary(verdicts(res, index)) == json.loads(PINS_PATH.read_text())[str(index)]


if __name__ == "__main__":
    res = run()
    PINS_PATH.write_text(json.dumps(
        {str(i): summary(verdicts(res, i)) for i in range(len(res.device.reports))},
        indent=1) + "\n")
