"""The hardware rules' verdicts, pinned over a grid of bus records.

``boundary_check``, ``timer_write_check`` and ``rot_check`` run on every
record that can break a rule.  ``data/rule_pins.json`` holds the verdict
each gave on every record of the grid below, recorded before the rules were
rewritten to compare against hoisted region bounds; the rules must still
give exactly those verdicts.

The grid, built for two layouts (the default and a small one whose log, TCB
and PMEM end elsewhere):

* store records: every edge +-1 of the metadata, log, timer, TCB, PMEM and
  DMEM regions as a CPU store address, as a DMA address, and both at once
  (the DMA address then from one representative per region), at ``pc`` on
  ``tcb_min``, inside the TCB, on ``tcb_max`` and outside it;
* control records: ``pc`` and ``pc_next`` each at ``tcb_min``, inside the
  TCB, at ``tcb_max``, just past it and below it, for a plain record, a
  jump, ``EINT`` and an acceptance on the NMI and on a maskable line, with
  and without a DMA byte;

each under both RoT modes with the heal latch set and clear.

Run this file as a script to rewrite the pins, only for a deliberate change
of a rule's verdict.
"""

import json
import string
from pathlib import Path

from cfasim.isa import Op
from cfasim.mcu import METADATA, NMI_LINE, TIMER, MemoryLayout, SignalBus
from cfasim.monitor import ResetReason, boundary_check, timer_write_check
from cfasim.rot import Mode, RotState, rot_check

PINS_PATH = Path(__file__).parent / "data" / "rule_pins.json"
LAYOUTS = (MemoryLayout(), MemoryLayout(pmem_size=0x2000, tcb_max=0x87FC,
                                        cflog_size=128))
ROT_STATES = tuple((mode, latch) for mode in (Mode.APP, Mode.TCB)
                   for latch in (False, True))
CODES = {None: "-"} | {r: string.ascii_lowercase[i]
                       for i, r in enumerate(ResetReason)}
RULES = {
    "boundary_check": lambda bus, rot, lay: boundary_check(bus, lay),
    "timer_write_check": lambda bus, rot, lay: timer_write_check(bus, lay),
    "rot_check": rot_check,
}


def regions(lay: MemoryLayout) -> list[tuple[int, int]]:
    """Each protected or mapped region as [lo, hi)."""
    return [(lay.metadata_base, lay.metadata_base + METADATA.size),
            (lay.cflog_base, lay.cflog_base + lay.cflog_size),
            (lay.timer_reg, lay.timer_reg + TIMER.size),
            (lay.tcb_min, lay.tcb_max + 1),
            (lay.pmem_base, lay.pmem_end),
            (lay.dmem_base, lay.dmem_end)]


def edge_addresses(lay: MemoryLayout) -> list[int]:
    out = set()
    for lo, hi in regions(lay):
        out |= {lo - 1, lo, lo + 1, hi - 2, hi - 1, hi}
    return sorted(a for a in out if 0 <= a <= 0xFFFF)


def grid(lay: MemoryLayout):
    """Yield (description, bus, rot) for every record of the grid."""
    pcs = {"tcb_min": lay.tcb_min, "in-tcb": lay.tcb_min + 8,
           "tcb_max": lay.tcb_max, "outside": lay.s_base + 0x100}
    addrs = edge_addresses(lay)
    reps = [lo for lo, _ in regions(lay)] + [lay.s_base, 0x1000]
    writes = [(None, None)] + [(a, None) for a in addrs] \
        + [(None, a) for a in addrs] + [(a, d) for a in addrs for d in reps]
    for mode, latch in ROT_STATES:
        for pc_name, pc in pcs.items():
            for w, d in writes:
                bus = SignalBus(pc, pc, pc, Op.MOV, w is not None, w or 0,
                                d is not None, d or 0)
                yield (f"store pc={pc_name} w={w} dma={d} {mode.value} "
                       f"latch={latch}", bus, RotState(mode, latch))
    points = {"tcb_min": lay.tcb_min, "in-tcb": lay.tcb_min + 8,
              "tcb_max": lay.tcb_max, "s_base": lay.s_base,
              "below": lay.tcb_min - 2}
    kinds = {"plain": (Op.MOV, None), "jump": (Op.JMP, None),
             "eint": (Op.EINT, None), "nmi": (None, NMI_LINE), "irq3": (None, 3)}
    for mode, latch in ROT_STATES:
        for pc_name, pc in points.items():
            for nx_name, nx in points.items():
                for kind, (inst, line) in kinds.items():
                    for dma in (False, True):
                        bus = SignalBus(pc, pc, nx, inst, False, 0, dma,
                                        0x1000 if dma else 0, line is not None,
                                        line)
                        yield (f"control pc={pc_name} next={nx_name} {kind} "
                               f"dma={dma} {mode.value} latch={latch}", bus,
                               RotState(mode, latch))


def verdicts() -> dict[str, list[str]]:
    """Per rule, one code string per layout, one character per record."""
    out = {}
    for name, rule in RULES.items():
        out[name] = ["".join(CODES[rule(bus, rot, lay)] for _, bus, rot in grid(lay))
                     for lay in LAYOUTS]
    return out


def test_rules_match_every_pin():
    pins = json.loads(PINS_PATH.read_text())
    assert pins["codes"] == {c: (r.value if r else None) for r, c in CODES.items()}
    got = verdicts()
    for name in RULES:
        for li, lay in enumerate(LAYOUTS):
            want = pins[name][li]
            have = got[name][li]
            assert len(have) == len(want)
            if have != want:
                descs = [d for d, _, _ in grid(lay)]
                bad = [f"{descs[i]}: {want[i]} -> {have[i]}"
                       for i in range(len(want)) if want[i] != have[i]]
                raise AssertionError(f"{name} on {lay}: {len(bad)} verdicts "
                                     f"moved, first {bad[:5]}")


def test_grid_reaches_every_rule_verdict():
    """The grid exercises each verdict each rule can give."""
    pins = json.loads(PINS_PATH.read_text())
    seen = {c for name in RULES for s in pins[name] for c in s}
    assert seen == set(CODES.values()) - {CODES[ResetReason.TRIGGER_SUPPRESSED],
                                          CODES[ResetReason.MACHINE_FAULT]}


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {"codes": {c: (r.value if r else None) for r, c in CODES.items()}}
        | verdicts(), indent=1) + "\n")
