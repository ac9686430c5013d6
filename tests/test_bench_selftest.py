"""The benchmark's self-test (``perfbench/selftest.py``) as a test.

The self-test runs every workload at a small size, untraced and traced, so a
product change that breaks what the tracer's hooks read (``observe(...)``
returning an event with ``.entry``, the four arguments of ``tcb_att``) fails
here.  It then corrupts results on purpose, so a change that stops the
benchmark's checks from catching those faults fails here too.  It runs as
documented, from the repository root, with bytecode writing off so that it
leaves ``perfbench/`` as it found it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def perfbench_files():
    return sorted((str(p.relative_to(ROOT)), p.stat().st_mtime_ns)
                  for p in (ROOT / "perfbench").rglob("*"))


def test_benchmark_selftest_passes():
    before = perfbench_files()
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout
    assert perfbench_files() == before
