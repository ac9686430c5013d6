"""The prover's wait loop, pinned run by run.

Each run below ends with exactly the statistics, final cycle, audit lines,
device counters and channel trace recorded in ``data/wait_pins.json`` with
the wait loop that executed every 50-cycle poll.  A wait loop that skips
idle polls must charge them exactly as executed ones, so nothing here may
move.  The pins cover lossy channels, both best-effort policies, hardware
attacks that land inside a long wait, a deadlock, rejected responses and a
budget that ends mid-wait.
"""

import hashlib
import json
from pathlib import Path

import pytest

import cfasim.scenario as scenario
from cfasim.channel import PROVER, Channel, ChannelPolicy
from cfasim.device import AttackEvent, Device, DeviceEvents
from cfasim.mcu import MemoryLayout
from cfasim.monitor import ResetReason
from cfasim.scenario import ScenarioConfig, run_scenario
from cfasim.tcb import HealAction, PolicyMode, WaitPolicy

LAY = MemoryLayout()
LOSSY = ChannelPolicy(drop_prob=0.15, dup_prob=0.10, tamper_prob=0.10)
LONG_WAIT = ChannelPolicy(latency=300_000)     # the first wait lasts 300k cycles
DMA_IN_WAIT = AttackEvent(at_cycle=170_000, kind="dma", addr=LAY.metadata_base,
                          count=2, value=0xFF)
IRQ_IN_WAIT = AttackEvent(at_cycle=250_000, kind="force-irq", line=3)

RUNS = {
    "lossy-benign": ScenarioConfig(app="password", channel=LOSSY, seed=1),
    "lossy-overflow-update": ScenarioConfig(
        app="password", input_kind="overflow", heal_action=HealAction.UPDATE,
        channel=LOSSY, seed=1),
    # timeouts that are no multiple of the 10k retransmission period; the
    # resumed run loses a slice, so its next report is denied
    "resume-blackout": ScenarioConfig(
        app="loop_heavy", seed=2,
        policy=WaitPolicy(PolicyMode.BEST_EFFORT_RESUME, timeout_cycles=25_000),
        channel=ChannelPolicy(blackout_windows=((400_000, 500_000),))),
    "heal-blackout": ScenarioConfig(
        app="password", seed=3, heal_action=HealAction.REBOOT,
        policy=WaitPolicy(PolicyMode.BEST_EFFORT_HEAL, timeout_cycles=35_000),
        channel=ChannelPolicy(blackout_windows=((0, 200_000),))),
    "dma-in-wait": ScenarioConfig(app="few_branch", channel=LONG_WAIT, seed=4,
                                  events=DeviceEvents(attacks=[DMA_IN_WAIT])),
    "irq-in-wait": ScenarioConfig(app="few_branch", channel=LONG_WAIT, seed=5,
                                  events=DeviceEvents(attacks=[IRQ_IN_WAIT])),
    "blackout-deadlock": ScenarioConfig(
        app="few_branch", seed=6, cycle_budget=500_000,
        channel=ChannelPolicy(blackout_windows=((0, 10**9),))),
    # the budget ends 350 cycles into the wait for the denied report, with
    # the deny response due 50 cycles later
    "overflow-reboot-budget": ScenarioConfig(
        app="password", input_kind="overflow", heal_action=HealAction.REBOOT,
        cycle_budget=270_300, seed=7),
}

PINS = json.loads((Path(__file__).parent / "data" / "wait_pins.json").read_text())


def summary(res) -> dict:
    dev = res.device
    trace = "\n".join(res.channel.trace).encode()
    return {"kv": res.stats.kv_lines(), "cycle": dev.cycle, "audit": res.audit,
            "retransmits": dev.stats.n_retransmits,
            "rejected": dev.stats.n_rejected_responses,
            "trace_sha256": hashlib.sha256(trace).hexdigest()}


def injected_run(monkeypatch):
    """few_branch with two forged copies of the first response: a tampered
    one due before the genuine answer, and a replay due in the second wait
    (stale by then).  Both must be rejected and change nothing else."""
    cfg = ScenarioConfig(app="few_branch", seed=8)
    first = next(f for ep, f in run_scenario(cfg).channel.captured if ep == PROVER)
    tampered = bytearray(first)
    tampered[-1] ^= 0x01
    chan = Channel(ChannelPolicy(seed=cfg.seed))
    chan.inject(PROVER, bytes(tampered), 133_000)   # due 133,200; genuine at 133,512
    chan.inject(PROVER, first, 269_700)             # due 269,900, second wait
    monkeypatch.setattr(scenario, "Channel", lambda policy: chan)
    return run_scenario(cfg)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_wait_run_is_pinned(name):
    assert summary(run_scenario(RUNS[name])) == PINS[name]


def test_injected_responses_are_pinned(monkeypatch):
    got = summary(injected_run(monkeypatch))
    assert got["rejected"] == 2
    assert got == PINS["injected-responses"]


def test_idle_polls_are_skipped(monkeypatch):
    """The first wait of ``irq-in-wait`` lasts from the boot report (cycle
    133,112) to the forced interrupt at cycle 250,000: no frame arrives in
    it, so only its retransmissions and the attack need an executed poll,
    not each of its 2,338 50-cycle steps."""
    polls = []
    real = Device._wait_poll

    def counted(self, channel):
        polls.append(self.cycle)
        return real(self, channel)

    monkeypatch.setattr(Device, "_wait_poll", counted)
    res = run_scenario(RUNS["irq-in-wait"])
    first_wait = [c for c in polls if c < IRQ_IN_WAIT.at_cycle]
    assert res.device.last_reset is ResetReason.IRQ_IN_TCB
    assert 0 < len(first_wait) < 20
