"""The benchmark's behaviour fingerprints as a test.

``perfbench/fingerprints.txt`` holds, per workload at the reference seed, a
SHA-256 over every operation's report frames, audit lines and statistics
lines.  This recomputes each as ``perfbench/fingerprint.py`` does and
compares it with that file, so a change that moves a report byte, an audit
line or a statistic fails here.  The test only reads the file: a declared
behaviour change regenerates it with ``perfbench/fingerprint.py``.

``data/fingerprint_pins.json`` holds the same digests at two further seeds,
whose workloads draw other programs and schedules.  Run this file as a
script to rewrite those pins, only for a declared behaviour change.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS_PATH = Path(__file__).parent / "data" / "fingerprint_pins.json"
PIN_SEEDS = (2, 3)


def reference() -> dict[str, tuple[int, str]]:
    out = {}
    for line in (PERFBENCH / "fingerprints.txt").read_text().splitlines():
        workload, seed, digest = line.split()
        out[workload] = (int(seed.removeprefix("seed=")), digest)
    return out


REFERENCE = reference()


def fingerprint(workload: str, seed: int) -> str:
    import bench

    stats = bench.measure(bench.PREPARE[workload](seed), 0, trace=False,
                          memory=False)
    assert not stats.mismatches and stats.failed == 0
    return bench.fingerprint(stats)


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_fingerprint_matches_reference(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    seed, want = REFERENCE[workload]
    assert fingerprint(workload, seed) == want


@pytest.mark.parametrize("seed", PIN_SEEDS)
@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_fingerprint_matches_pin(workload, seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    pins = json.loads(PINS_PATH.read_text())
    assert fingerprint(workload, seed) == pins[workload][str(seed)]


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    from run import bootstrap

    bootstrap()
    PINS_PATH.write_text(json.dumps(
        {w: {str(s): fingerprint(w, s) for s in PIN_SEEDS} for w in sorted(REFERENCE)},
        indent=1) + "\n")
