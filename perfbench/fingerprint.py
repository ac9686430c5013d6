#!/usr/bin/env python3
"""Regenerate the reference behaviour fingerprints.

    python3 perfbench/fingerprint.py      # rewrites perfbench/fingerprints.txt

One line per workload at the reference seed: a SHA-256 over every
operation's report frames, audit lines and statistics lines, in round
order.  A change that must keep behaviour identical leaves the file
unchanged (check with ``git diff``); it is a reference, not a gate of the
benchmark.
"""

from __future__ import annotations

import sys

from run import HERE, WORKLOADS, bootstrap

REFERENCE_SEED = 1


def main() -> int:
    bootstrap()
    import bench

    lines = []
    for workload in WORKLOADS:
        build = bench.PREPARE[workload](REFERENCE_SEED)
        stats = bench.measure(build, 0, trace=False, memory=False)
        lines.append(f"{workload} seed={REFERENCE_SEED} {bench.fingerprint(stats)}")
        print(lines[-1])
    (HERE / "fingerprints.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
