"""Randomized write-attack programs: no sequence of application stores or
DMA writes may alter a committed log entry, the challenge, or the region
bounds.  Attacks are drawn across the whole address space; every protected
hit must become a veto-and-reset, and the first report after the first reset
must still carry exactly the pre-violation transfers."""

import hashlib
import random

from helpers.golden import golden_region_trace
from helpers.progen import SMALL_LAYOUT

from cfasim.asm import assemble
from cfasim.device import AttackEvent, DeviceEvents
from cfasim.monitor import TriggerKind
from cfasim.scenario import decompress_entries, run_image

PROTECTED_TARGETS = [0x0100, 0x0104, 0x0108, 0x0200, 0x0204, 0x0050]
SAFE_TARGETS = [0x1000 + 2 * i for i in range(32)]
PMEM_TARGETS = [0x8008, 0x9200]


def attack_program(seed: int) -> tuple[str, bool]:
    """A program mixing benign work with random stores; returns the source
    and whether any store targets protected state."""
    rng = random.Random(seed)
    lines = ["        .org 0x9000", "main:"]
    hits_protected = False
    for i in range(rng.randrange(6, 16)):
        roll = rng.random()
        if roll < 0.3:
            lines.append(f"        MOV r{rng.randrange(5)}, #{rng.randrange(100)}")
        elif roll < 0.5:
            lines.append(f"        CALL fn")
        elif roll < 0.75:
            addr = rng.choice(SAFE_TARGETS)
            lines.append(f"        MOV &{addr:#x}, r1")
        else:
            pool = PROTECTED_TARGETS + PMEM_TARGETS
            addr = rng.choice(pool)
            hits_protected = True
            lines.append(f"        MOV &{addr:#x}, r1")
    lines += ["        JMP fin", "fn:     RET", "fin:    NOP", "        HALT"]
    return "\n".join(lines) + "\n", hits_protected


def test_randomized_write_attacks_never_corrupt_protected_state():
    lay = SMALL_LAYOUT
    attacked = 0
    for seed in range(25):
        src, hits = attack_program(seed)
        res = assemble(src, entry=lay.tcb_min)
        ar = (res.symbols["main"], res.symbols["fin"])
        events = DeviceEvents()
        if seed % 3 == 0:
            events = DeviceEvents(attacks=[AttackEvent(
                at_cycle=random.Random(seed ^ 0xD).randrange(1, 200_000),
                kind="dma",
                addr=random.Random(seed ^ 0xA).choice(PROTECTED_TARGETS),
                count=2, value=0x66)])
            hits = True
        result = run_image(res.image, ar, lay,
                           key_bytes=hashlib.sha256(b"atk%d" % seed).digest(),
                           events=events, keep_trace=True,
                           cycle_budget=1_500_000)
        dev = result.device

        # committed records never write protected state from outside the TCB
        for bus in dev.trace:
            if bus.w_en:
                assert not lay.in_cflog(bus.d_addr)
                if lay.in_metadata(bus.d_addr) or lay.in_timer(bus.d_addr):
                    assert lay.in_tcb(bus.pc)
                assert not lay.in_pmem(bus.d_addr)
            if bus.dma_en:
                assert not (lay.in_cflog(bus.dma_addr)
                            or lay.in_metadata(bus.dma_addr)
                            or lay.in_timer(bus.dma_addr))

        if hits:
            attacked += 1
            assert dev.stats.n_violation_resets >= 1
            # the run up to the first reset is faithfully reported
            first_violation = next(i for i, r in enumerate(result.reports)
                                   if r.trigger is TriggerKind.VIOLATION)
            got = []
            for rep in result.reports[:first_violation + 1]:
                got.extend(e for e in decompress_entries(rep.entries)
                           if not (lay.in_tcb(e[0]) or lay.in_tcb(e[1])))
            want = golden_region_trace(res.image, lay, ar)
            assert got == want[:len(got)]
    assert attacked >= 10   # the mix actually exercised attacks
