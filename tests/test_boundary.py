"""Runs whose execution crosses the attested region's boundary, and mutants
of the entries logged where it does.

The walker's hardest rules apply where execution enters or leaves the
region: a call into it from outside, a call out of it, a return out of its
last instruction, and an interrupt accepted on the cycle after any of them.
The sweep runs boundary-shaped programs under every short timer and every
early maskable interrupt and asks that no benign run be denied.  The mutant
pins re-MAC one logged entry with its source or destination moved to
another address and check the verifier's answer.
"""

import pytest

from cfasim.asm import assemble
from cfasim.device import DeviceEvents
from cfasim.mcu import MemoryLayout
from cfasim.scenario import (Outcome, ScenarioConfig, _derive_key, run_image,
                             run_scenario)

from helpers.replay import replay_with_entries
from test_scenario import _call_out_run

BUDGET = 10**9

# a call from outside enters the region; the handler lies outside it
CALL_IN = """
        .org 0x0042
        .word h1
        .org 0x9000
start:  EINT
        CALL main
        HALT
h1:     RETI
main:   NOP
        NOP
fin:    NOP
        RET
"""

# the region calls a function outside it in a loop; the handler lies
# outside it too
CALL_OUT = """
        .org 0x0042
        .word h1
        .org 0x9000
main:   EINT
        MOV r2, #3
loop:   CALL fn
        SUB r2, #1
        JNZ loop
fin:    NOP
        HALT
fn:     RET
h1:     RETI
"""

# the region's last instruction returns out of it
RET_OUT = """
        .org 0x9000
start:  CALL main
        HALT
main:   MOV r2, #3
loop:   SUB r2, #1
        JNZ loop
fin:    RET
"""


def _run(source, log_size, timer=0, irq_at=None):
    """``source`` attested over ``main``..``fin``, with a maskable interrupt
    raised on line 1 after ``irq_at`` retirements if given."""
    lay = MemoryLayout(cflog_size=log_size)
    built = assemble(source, entry=lay.tcb_min)
    sym = built.symbols
    events = None if irq_at is None else DeviceEvents(irq_at_retire={irq_at: (1,)})
    res = run_image(built.image, (sym["main"], sym["fin"]), lay,
                    key_bytes=_derive_key(1), events=events,
                    ivt_targets=(sym["h1"],) if "h1" in sym else (),
                    timer_deadline=timer, cycle_budget=BUDGET)
    return res, sym


def _fixture_run(app, log_size, timer):
    return run_scenario(ScenarioConfig(app=app, max_cflog_bytes=log_size, seed=1,
                                       timer_deadline_cycles=timer,
                                       cycle_budget=BUDGET))


def _denied(res):
    return res.outcome is not Outcome.COMPLETED \
        or any(" app=0 " in line for line in res.audit)


# A handler inside the region that interrupts code outside it is still
# denied (CHANGES.md, FOUND on the in-region handler), so no program here
# places its handler in the region.
@pytest.mark.parametrize("log_size", [16, 64])
@pytest.mark.parametrize("program", ["few_branch", "password", "call-in",
                                     "call-out", "ret-out"])
def test_no_benign_run_is_denied_at_the_region_boundary(program, log_size):
    """Timers 1-60 on every program, and a maskable interrupt after each of
    the first 20 retirements on those with a handler: every run completes
    with every report approved.

    On ``call-out``, an interrupt accepted right after ``CALL fn`` leaves
    the region runs its handler outside it too, and the walk stays outside
    until ``fn`` returns; one accepted right after that return is logged by
    the address it interrupts, in the region.  On ``call-in``, so is one
    accepted right after ``CALL main``."""
    source = {"call-in": CALL_IN, "call-out": CALL_OUT, "ret-out": RET_OUT}.get(program)
    runs = {f"timer={t}": (_fixture_run(program, log_size, t) if source is None
                           else _run(source, log_size, t)[0]) for t in range(1, 61)}
    if program in ("call-in", "call-out"):
        runs |= {f"irq_at={n}": _run(source, log_size, irq_at=n)[0] for n in range(20)}
    assert [name for name, res in runs.items() if _denied(res)] == []


def _mutants(entry, addrs):
    s, d = entry
    return [(a, d) for a in addrs if a != s] + [(s, a) for a in addrs if a != d]


def _targets(sym):
    """Every instruction address of ``main``..``fin`` and both ends of the
    trusted software."""
    lay = MemoryLayout()
    return list(range(sym["main"], sym["fin"] + 1, 4)) + [lay.tcb_min, lay.tcb_max]


def _approved(res, index, at, mutants):
    entries = res.reports[index].entries
    assert replay_with_entries(res, index, entries) == 1
    return [m for m in mutants
            if replay_with_entries(res, index, entries[:at] + (m,) + entries[at + 1:])]


def test_maskable_acceptance_after_a_call_out_admits_no_other_pair():
    """The acceptance right after ``CALL fn`` left the region, with its
    source or destination moved to any other region address or either end
    of the trusted software: every mutant is denied."""
    res, sym = _run(CALL_OUT, 64, irq_at=2)
    accepted = (sym["loop"], sym["h1"])
    assert res.reports[1].entries[2] == accepted
    mutants = _mutants(accepted, _targets(sym))
    assert len(mutants) == 15
    assert _approved(res, 1, 2, mutants) == []


def test_maskable_acceptance_after_a_call_in_admits_two_sources():
    """The acceptance right after ``CALL main`` is logged by the address it
    interrupts.  Of its mutants, only a source of ``main`` or the next
    ``NOP`` is approved: the handler's ``RETI`` then re-enters the region at
    its known entry ``main``."""
    res, sym = _run(CALL_IN, 64, irq_at=1)
    accepted = (sym["start"] + 4, sym["h1"])
    assert res.reports[1].entries[1] == accepted
    mutants = _mutants(accepted, _targets(sym))
    assert len(mutants) == 10
    assert _approved(res, 1, 1, mutants) == [(sym["main"], sym["h1"]),
                                             (sym["main"] + 4, sym["h1"])]


@pytest.mark.parametrize("case, count", [("few_branch", 9), ("password", 61),
                                         ("call-out-timer-5", 14)])
def test_slice_start_from_inside_the_region_is_denied(case, count):
    """A slice's first entry that comes from outside the region, with its
    source moved to any region address: a run's call into the region (the
    first two) or a return into it in a slice that does not start a run."""
    if case == "call-out-timer-5":
        res, index = _call_out_run(64, 5)[0], 4
    else:
        res, index = run_scenario(ScenarioConfig(app=case, seed=1)), 1
    ar = res.verifier.config.target_ar
    entries = res.reports[index].entries
    s, d = entries[0]
    assert not ar[0] <= s <= ar[1]
    mutants = [(a, d) for a in range(ar[0], ar[1] + 1, 4)]
    assert len(mutants) == count
    assert _approved(res, index, 0, mutants) == []
