"""The benchmark's behaviour fingerprints as a test.

``perfbench/fingerprints.txt`` holds, per workload at the reference seed, a
SHA-256 over every operation's report frames, audit lines and statistics
lines.  This recomputes each as ``perfbench/fingerprint.py`` does and
compares it with that file, so a change that moves a report byte, an audit
line or a statistic fails here.  The test only reads the file: a declared
behaviour change regenerates it with ``perfbench/fingerprint.py``.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def reference() -> dict[str, tuple[int, str]]:
    out = {}
    for line in (PERFBENCH / "fingerprints.txt").read_text().splitlines():
        workload, seed, digest = line.split()
        out[workload] = (int(seed.removeprefix("seed=")), digest)
    return out


REFERENCE = reference()


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_fingerprint_matches_reference(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    seed, want = REFERENCE[workload]
    stats = bench.measure(bench.PREPARE[workload](seed), 0, trace=False,
                          memory=False)
    assert not stats.mismatches and stats.failed == 0
    assert bench.fingerprint(stats) == want
