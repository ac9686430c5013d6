"""Scenario runner: wires a prover device, a verifier, and an adversarial
channel under one logical clock, runs to completion (halt, shutdown, or
budget), and reports runtime statistics plus the verifier's audit trail.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, fields, replace

from .apps import FIXTURES, encode_input, overflow_input
from .asm import assemble
from .channel import Channel, ChannelPolicy, PROVER, VERIFIER
from .device import Device, DeviceEvents, DeviceMode
from .isa import INSTR_SIZE
from .mcu import MemoryLayout, ProgramImage, render_pmem
from .monitor import TriggerKind
from .tcb import RETRANSMIT_EVERY, DeviceKey, HealAction, WaitPolicy
from .verifier import Verifier, VerifierConfig
from .wire import REPORT_FIXED, TRIGGER_AT, CfaReport, decode_log, decode_report

DEFAULT_BUDGET = 3_000_000
INPUT_KINDS = ("benign", "overflow", "none")


class Outcome(enum.Enum):
    COMPLETED = "completed"        # application ran to HALT
    SHUTDOWN = "shutdown"          # remediation shut the device down
    DEADLOCK = "deadlock"          # at budget end, a retransmission went unanswered
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class ScenarioConfig:
    app: str = "few_branch"
    max_cflog_bytes: int = 512
    timer_deadline_cycles: int = 1_000_000
    policy: WaitPolicy = field(default_factory=WaitPolicy)
    channel: ChannelPolicy = field(default_factory=ChannelPolicy)
    input_kind: str = "benign"          # one of INPUT_KINDS (read by the password app)
    heal_action: HealAction = HealAction.SHUTDOWN
    seed: int = 0
    cycle_budget: int = DEFAULT_BUDGET
    events: DeviceEvents = field(default_factory=DeviceEvents)
    keep_trace: bool = False


@dataclass
class StatsReport:
    """Per-run statistics in the shape of the runtime-evaluation tables."""
    app: str
    max_cflog_bytes: int
    outcome: Outcome
    n_t1: int
    n_t2: int
    n_t3: int
    n_violation_resets: int
    n_reports: int
    cflog_bytes_total: int
    att_cycles: int
    wait_cycles: int
    heal_cycles: int
    app_cycles: int
    total_cycles: int

    @classmethod
    def collect(cls, app: str, log_size: int, outcome: Outcome,
                device: Device) -> "StatsReport":
        kinds = [frame[TRIGGER_AT] for frame in device.reports]
        st = device.stats
        return cls(app, log_size, outcome, kinds.count(TriggerKind.TIMER),
                   kinds.count(TriggerKind.LOG_FULL),
                   kinds.count(TriggerKind.BOOT) + kinds.count(TriggerKind.REGION_END),
                   st.n_violation_resets, len(kinds),
                   sum(len(frame) - REPORT_FIXED for frame in device.reports),
                   st.att_cycles, st.wait_cycles, st.heal_cycles, st.app_cycles,
                   device.cycle)

    @property
    def trigger_total(self) -> int:
        return self.n_t1 + self.n_t2 + self.n_t3 + self.n_violation_resets

    def kv_lines(self) -> list[str]:
        vals = {f.name: getattr(self, f.name) for f in fields(self)}
        vals["outcome"] = self.outcome.value
        return [f"{k}={v}" for k, v in vals.items()]

    def table_row(self) -> str:
        return (f"{self.app:<12} {self.max_cflog_bytes:>6} {self.n_t1:>5} "
                f"{self.n_t2:>5} {self.n_t3:>5} {self.n_violation_resets:>5} "
                f"{self.n_reports:>8} {self.cflog_bytes_total:>10} "
                f"{self.outcome.value}")

    TABLE_HEADER = (f"{'app':<12} {'log':>6} {'#T1':>5} {'#T2':>5} {'#T3':>5} "
                    f"{'#vio':>5} {'#report':>8} {'log-bytes':>10} outcome")


@dataclass
class ScenarioResult:
    stats: StatsReport
    outcome: Outcome
    audit: list[str]
    reports: list[CfaReport]
    device: Device
    verifier: Verifier
    channel: Channel


def _derive_key(seed: int) -> bytes:
    return hashlib.sha256(b"device-key:%d" % seed).digest()


def _instruction_region(region: tuple[int, int], layout: MemoryLayout) -> bool:
    """``(ar_min, ar_max)`` bounds a run of whole instructions in the
    application region.  The monitor fires REGION_END only when an
    instruction retires exactly at ``ar_max``, so any other bound would
    never end the region, and a run that halts would never be reported."""
    ar_min, ar_max = region
    return (layout.s_base <= ar_min <= ar_max < layout.pmem_end
            and (ar_max - ar_min) % INSTR_SIZE == 0)


def run_image(image: ProgramImage, ar: tuple[int, int], layout: MemoryLayout,
              *, key_bytes: bytes, app_name: str = "custom",
              policy: WaitPolicy | None = None,
              heal_action: HealAction = HealAction.SHUTDOWN,
              update_image: ProgramImage | None = None,
              patched_ar: tuple[int, int] | None = None,
              channel_policy: ChannelPolicy | None = None,
              events: DeviceEvents | None = None,
              input_bytes: bytes = b"",
              ivt_targets: tuple[int, ...] = (),
              timer_deadline: int = 0,
              cycle_budget: int = DEFAULT_BUDGET,
              keep_trace: bool = False) -> ScenarioResult:
    """Run an arbitrary image against a matching verifier to completion."""
    if len(input_bytes) > layout.input_size:
        raise ValueError(f"input is {len(input_bytes)} bytes; the input region "
                         f"holds {layout.input_size}")
    for name, region in (("ar", ar), ("patched_ar", patched_ar)):
        if region is not None and not _instruction_region(region, layout):
            raise ValueError(f"{name} ({region[0]:#06x}, {region[1]:#06x}) is not "
                             f"a region of instruction addresses in the "
                             f"application region [{layout.s_base:#06x}, "
                             f"{layout.pmem_end:#06x})")
    channel = Channel(channel_policy or ChannelPolicy())
    device = Device(image, layout, DeviceKey(key_bytes), policy=policy,
                    heal_action=heal_action, update_image=update_image,
                    timer_deadline=timer_deadline, events=events,
                    keep_trace=keep_trace)
    device.state.store(layout.input_base, input_bytes)

    # a heal rewrites PMEM from s_base on and keeps the trusted region
    boot_pmem = bytes(device.state.pmem)
    s_off = layout.s_base - layout.pmem_base
    vconf = VerifierConfig(
        key=key_bytes,
        expected_pmem=boot_pmem,
        layout=layout,
        target_ar=ar,
        ivt_targets=ivt_targets,
        patched_pmem=(boot_pmem[:s_off] + render_pmem(update_image, layout)[s_off:]
                      if update_image is not None else None),
        patched_ar=patched_ar,
    )
    verifier = Verifier(vconf)

    state = device.state     # the clock both endpoints share
    while device.running and state.cycle < cycle_budget:
        device.tick(channel, cycle_budget)
        while (frame := channel.deliver(VERIFIER, state.cycle)) is not None:
            resp = verifier.handle_report(frame)
            if resp is not None:
                channel.send(PROVER, resp, state.cycle)

    if device.mode is DeviceMode.HALTED:
        outcome = Outcome.COMPLETED
    elif device.mode is DeviceMode.SHUTDOWN:
        outcome = Outcome.SHUTDOWN
    elif device.mode is DeviceMode.WAIT and \
            device.cycle - device.wait_started >= RETRANSMIT_EVERY:
        outcome = Outcome.DEADLOCK
    else:
        outcome = Outcome.BUDGET_EXHAUSTED

    stats = StatsReport.collect(app_name, layout.cflog_size, outcome, device)
    # the run's record: equal entries across its reports are one tuple
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    return ScenarioResult(stats, outcome, list(verifier.audit),
                          [decode_report(f, pairs) for f in device.reports],
                          device, verifier, channel)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run one built-in fixture scenario to completion."""
    if cfg.input_kind not in INPUT_KINDS:
        raise ValueError(f"unknown input kind {cfg.input_kind!r} "
                         f"({' | '.join(INPUT_KINDS)})")
    layout = MemoryLayout(cflog_size=cfg.max_cflog_bytes)
    fixture = FIXTURES[cfg.app]
    built = assemble(fixture.source, entry=layout.tcb_min)
    ar = (built.symbols[fixture.ar_labels[0]], built.symbols[fixture.ar_labels[1]])

    patched_image = None
    patched_ar = None
    if fixture.patched_source is not None and cfg.heal_action is HealAction.UPDATE:
        patched = assemble(fixture.patched_source, entry=layout.tcb_min)
        patched_image = patched.image
        patched_ar = (patched.symbols[fixture.ar_labels[0]],
                      patched.symbols[fixture.ar_labels[1]])

    input_bytes = b""
    if cfg.input_kind != "none" and fixture.input_words:
        words = fixture.input_words if cfg.input_kind == "benign" \
            else overflow_input(built.symbols)
        input_bytes = encode_input(words)

    chan_policy = replace(cfg.channel, seed=cfg.channel.seed or cfg.seed)
    return run_image(built.image, ar, layout,
                     key_bytes=_derive_key(cfg.seed), app_name=cfg.app,
                     policy=cfg.policy, heal_action=cfg.heal_action,
                     update_image=patched_image, patched_ar=patched_ar,
                     channel_policy=chan_policy, events=cfg.events,
                     input_bytes=input_bytes,
                     timer_deadline=cfg.timer_deadline_cycles,
                     cycle_budget=cfg.cycle_budget, keep_trace=cfg.keep_trace)


def decompress_entries(entries) -> list[tuple[int, int]]:
    """Expand loop-counter entries: a counter with value n stands for n
    occurrences of the backward jump logged immediately before it."""
    out: list[tuple[int, int]] = []
    for src, dest, count in decode_log(entries):
        if count is None:
            out.append((src, dest))
        else:
            out.extend([out[-1]] * (count - 1))
    return out
