#!/usr/bin/env python3
"""cfasim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle_corpus --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric; with ``--trace 1``
the layers are wrapped and the object holds the per-layer metrics instead.
The same object, with per-operation detail and the behaviour fingerprint,
is written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_corpus", "report_stream", "hostile")


def bootstrap() -> None:
    """Make the simulator (``src/``) and the golden interpreter and program
    generator (``tests/helpers/``) importable; fail if they are absent."""
    for need in (ROOT / "src" / "cfasim", ROOT / "tests" / "helpers"):
        if not need.is_dir():
            sys.exit(f"perfbench: {need.relative_to(ROOT)} not found; "
                     "run from a full checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bootstrap()
    import bench

    build = bench.PREPARE[args.workload](args.seed)
    stats = bench.measure(build, args.seconds, trace=bool(args.trace))
    metrics = bench.per_layer(stats) if args.trace else bench.end_to_end(stats)
    fp = bench.fingerprint(stats)

    for rec_i, rec in enumerate(stats.records):
        for problem in rec.problems:
            print(f"FAILED op {rec_i}: {problem}", file=sys.stderr)
    for line in stats.mismatches[:10]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={stats.rounds} ops/round={len(stats.records)} "
          f"attempted={stats.attempted} failed={stats.failed}")
    print(f"fingerprint {args.workload} seed={args.seed} {fp}")
    if args.trace:
        print(f"  traced round wall_s (median)      "
              f"{statistics.median(stats.round_wall_s):14.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")

    result = {
        "correct": not stats.mismatches and stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, fingerprint=fp,
                  python=platform.python_version(), machine=platform.machine(),
                  rounds=stats.rounds, round_wall_s=stats.round_wall_s,
                  setup_s=stats.setup_s, op_names=stats.op_names,
                  op_s_by_round=[stats.op_s[i:i + len(stats.op_names)] for i in
                                 range(0, len(stats.op_s), len(stats.op_names))])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
