"""The paper-table sweep, pinned.

``data/stats_pins.json`` holds what ``cfasim stats`` printed at seeds 0 and
1 (the header and one ``table_row()`` per run) and each of those runs'
``kv_lines()``, which add the cycle split (``att_cycles``, ``wait_cycles``,
``app_cycles``, ``total_cycles``).  The table reproduces simulated cycles
and log bytes, outputs to keep fixed, so nothing here may move.

Run this file as a script to rewrite the pins, only for a deliberate change
of the simulated statistics.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cfasim.cli import main
from cfasim.scenario import ScenarioConfig, run_scenario

PINS_PATH = Path(__file__).parent / "data" / "stats_pins.json"
SEEDS = (0, 1)


def sweep(seed: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["stats", "--seed", str(seed)]) == 0
    kv = [run_scenario(ScenarioConfig(app=app, max_cflog_bytes=size, seed=seed))
          .stats.kv_lines()
          for app in ("few_branch", "moderate", "loop_heavy") for size in (512, 1024)]
    return {"table": out.getvalue().splitlines(), "kv_lines": kv}


@pytest.mark.parametrize("seed", SEEDS)
def test_stats_sweep_matches_the_pin(seed):
    pins = json.loads(PINS_PATH.read_text())
    assert sweep(seed) == pins[str(seed)]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps({str(s): sweep(s) for s in SEEDS}, indent=1) + "\n")
