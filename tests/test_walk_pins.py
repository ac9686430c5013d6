"""The slice walk's verdict on every single-entry mutant, pinned.

For each program of the corpus below, every transfer entry of every report
(loop counters excluded) has its source, or its destination, set to each
instruction address of the attested region and to both ends of the trusted
software.  Each mutant is MACed again and replayed after the untouched
earlier frames (``helpers.replay``); its verdict is the audit line's reason
(``ok`` or a violation such as ``BrokenFlow@3``).  ``data/walk_pins.json``
holds, per program, the mutant count, the count per reason and a SHA-256 of
the ordered verdict list.

The corpus:

* ``few_branch``, ``moderate`` and ``password`` at seed 1;
* ``test_boundary``'s ``CALL_IN`` (interrupt after 1 retirement),
  ``CALL_OUT`` (after 2) and ``RET_OUT`` (timer 5), each with a 64-byte log;
* ``progen`` seeds 0-9, run as criterion 1 runs them.

Run this file as a script to rewrite the pins, only for a deliberate change
of what the walk approves.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from helpers.progen import SMALL_LAYOUT, generate
from helpers.replay import replay_with_entries
from test_boundary import CALL_IN, CALL_OUT, RET_OUT, _run

from cfasim.asm import assemble
from cfasim.device import DeviceEvents
from cfasim.scenario import ScenarioConfig, run_image, run_scenario
from cfasim.wire import decode_log

PINS_PATH = Path(__file__).parent / "data" / "walk_pins.json"


def _progen_run(seed: int):
    prog = generate(seed)
    built = assemble(prog.source, entry=SMALL_LAYOUT.tcb_min)
    return run_image(built.image, (built.symbols["main"], built.symbols["fin"]),
                     SMALL_LAYOUT, key_bytes=hashlib.sha256(b"c1:%d" % seed).digest(),
                     events=DeviceEvents(irq_at_retire=prog.irq_at_retire),
                     ivt_targets=tuple(built.symbols[l] for l in prog.isr_labels))


PROGRAMS = {
    **{app: lambda app=app: run_scenario(ScenarioConfig(app=app, seed=1))
       for app in ("few_branch", "moderate", "password")},
    "call-in": lambda: _run(CALL_IN, 64, irq_at=1)[0],
    "call-out": lambda: _run(CALL_OUT, 64, irq_at=2)[0],
    "ret-out": lambda: _run(RET_OUT, 64, timer=5)[0],
    **{f"progen-{seed}": lambda seed=seed: _progen_run(seed) for seed in range(10)},
}


def verdicts(res) -> list[str]:
    """The reason of every mutant of ``res``, in report, entry, then source
    before destination, then address order."""
    config = res.verifier.config
    ar_min, ar_max = config.target_ar
    addrs = [*range(ar_min, ar_max + 1, 4), config.layout.tcb_min, config.layout.tcb_max]
    out = []
    for index, rep in enumerate(res.reports):
        entries = list(rep.entries)
        for at, (s, d, count) in enumerate(decode_log(entries)):
            if count is not None:
                continue
            for mutant in [(a, d) for a in addrs if a != s] + [(s, a) for a in addrs if a != d]:
                out.append(replay_with_entries(
                    res, index, entries[:at] + [mutant] + entries[at + 1:], reason=True))
    return out


def summary(reasons: list[str]) -> dict:
    return {"mutants": len(reasons), "reasons": dict(sorted(Counter(reasons).items())),
            "sha256": hashlib.sha256("\n".join(reasons).encode()).hexdigest()}


@pytest.mark.parametrize("program", PROGRAMS)
def test_walk_verdicts_match_the_pin(program):
    assert summary(verdicts(PROGRAMS[program]())) == \
        json.loads(PINS_PATH.read_text())[program]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {name: summary(verdicts(run())) for name, run in PROGRAMS.items()},
        indent=1) + "\n")
