"""The application loop, pinned record by record.

The fingerprints cover frames, audit lines and statistics, not the bus
records the device commits.  ``data/loop_pins.json`` holds, for each run
below, the SHA-256 over the ten fields of every record the device kept with
``keep_trace=True``, and the run's retired count, final cycle, application
cycles, last reset and outcome.  A faster application loop must commit
exactly the same records in the same order, so nothing here may move.

The runs: the four fixtures, the mixed-trigger program of
``test_scenario.py``, the six criterion-5 interference classes, a run that
halts with a maskable interrupt pending, and the criterion-1 generator's
programs 0-19 with their interrupt schedules.

Run this file as a script to rewrite the pins, only for a deliberate change
of the committed records.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from helpers.progen import SMALL_LAYOUT, generate

from cfasim.apps import FIXTURES
from cfasim.asm import assemble
from cfasim.channel import ChannelPolicy
from cfasim.device import AttackEvent, DeviceEvents
from cfasim.mcu import MemoryLayout
from cfasim.scenario import ScenarioConfig, run_image, run_scenario, _derive_key

from test_scenario import MIXED

PINS_PATH = Path(__file__).parent / "data" / "loop_pins.json"
LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
LAY = MemoryLayout()

# criterion 5: four software attacks after a call, two hardware attacks
# while the trusted software holds the core
SW_PREAMBLE = """
        .org 0x9000
main:   MOV r0, &0x1000
        CMP r0, #1
        JZ fin
        MOV r1, #1
        MOV &0x1000, r1
        CALL work
"""
SW_TAIL = """
fin:    NOP
        HALT
work:   RET
"""
SW_ATTACKS = {
    "s-write-cflog": "        MOV &0x0200, r1",
    "s-write-metadata": "        MOV &0x0104, r1",
    "jump-into-tcb": "        JMP 0x8008",
    "timer-write-from-s": "        MOV &0x0050, r1",
}
HW_ATTACKS = {
    "dma-write-metadata": AttackEvent(at_cycle=140_000, kind="dma",
                                      addr=LAY.metadata_base, count=2, value=0xFF),
    "maskable-irq-during-tcb": AttackEvent(at_cycle=140_000, kind="force-irq", line=3),
}

# the handler's line is raised as HALT retires, with interrupts enabled: the
# halted core does not take it
HALT_PENDING = """
        .org 0x9000
main:   EINT
        NOP
fin:    NOP
        HALT
isr0:   RETI
        .org 0x0042
        .word isr0
"""


def _run_src(source, lay=LAY, **kw):
    built = assemble(source, entry=lay.tcb_min)
    return run_image(built.image, (built.symbols["main"], built.symbols["fin"]), lay,
                     keep_trace=True, **kw)


def _fixture(app):
    return lambda: run_scenario(ScenarioConfig(app=app, keep_trace=True))


def _mixed():
    return _run_src(MIXED, MemoryLayout(cflog_size=24), key_bytes=_derive_key(1),
                    timer_deadline=15)


def _sw_attack(attack):
    return lambda: _run_src(SW_PREAMBLE + attack + "\n" + SW_TAIL,
                            key_bytes=_derive_key(5))


def _hw_attack(event):
    return lambda: _run_src(FIXTURES["few_branch"].source, key_bytes=_derive_key(5),
                            events=DeviceEvents(attacks=[event]),
                            channel_policy=ChannelPolicy(latency=300_000))


def _halt_pending():
    return _run_src(HALT_PENDING, key_bytes=_derive_key(2),
                    events=DeviceEvents(irq_at_retire={4: (1,)}))


def _progen(seed):
    def run():
        prog = generate(seed)
        built = assemble(prog.source, entry=SMALL_LAYOUT.tcb_min)
        return run_image(built.image, (built.symbols["main"], built.symbols["fin"]),
                         SMALL_LAYOUT, key_bytes=hashlib.sha256(b"c1:%d" % seed).digest(),
                         events=DeviceEvents(irq_at_retire=prog.irq_at_retire),
                         ivt_targets=tuple(built.symbols[l] for l in prog.isr_labels),
                         keep_trace=True)
    return run


INTERFERENCE = {name: _sw_attack(a) for name, a in SW_ATTACKS.items()} \
    | {name: _hw_attack(e) for name, e in HW_ATTACKS.items()}
RUNS = {f"fixture-{app}": _fixture(app) for app in sorted(FIXTURES)} \
    | {"mixed": _mixed} | INTERFERENCE | {"halt-irq-pending": _halt_pending} \
    | {f"progen-{seed}": _progen(seed) for seed in range(20)}


def summary(res) -> dict:
    dev = res.device
    h = hashlib.sha256()
    for b in dev.trace:
        h.update(repr((b.pc, b.pc_prev, b.pc_next,
                       None if b.inst is None else int(b.inst), b.w_en, b.d_addr,
                       b.dma_en, b.dma_addr, b.irq_acc, b.irq_line)).encode())
    return {"records": len(dev.trace), "trace_sha256": h.hexdigest(),
            "retired": dev.state.retired, "cycle": dev.cycle,
            "app_cycles": dev.stats.app_cycles,
            "last_reset": dev.last_reset and dev.last_reset.value,
            "outcome": res.outcome.value}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_committed_records_match_the_pin(name):
    pins = json.loads(PINS_PATH.read_text())
    assert summary(RUNS[name]()) == pins[name]


def test_halt_run_ends_with_the_interrupt_pending():
    res = _halt_pending()
    assert res.device.state.halted and 1 in res.device.state.pending_irq
    assert res.device.state.gie


@pytest.mark.parametrize("name", sorted(INTERFERENCE))
def test_monitor_observes_each_kept_record_once(name):
    """Under the benchmark's tracer, ``monitor.records`` (one per
    ``CfaMonitor.observe`` call) equals the records the device kept."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    with layers.LayerTracer() as tracer:
        res = INTERFERENCE[name]()
    assert res.device.last_reset is not None
    assert tracer.counts["monitor.records"] == len(res.device.trace) > 0


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps({name: summary(run()) for name, run in RUNS.items()},
                                    indent=1) + "\n")
