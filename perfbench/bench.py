"""Workloads, set-up and the measurement loop of the cfasim benchmark.

An operation is one complete prover-verifier run: one ``run_image`` call,
from building the device to the final verdict.  A workload is a fixed list of
operations made from the seed (a round).  The benchmark repeats whole rounds
until the run time is spent, so every run attempts the same operations and
any failure is the same share of them.

Preparation that belongs to the oracle (generating random programs, which
calibrates their interrupt schedules on the golden interpreter, and the
golden traces themselves) happens once and is not timed.  Set-up (assembling
every program and building every run's inputs) is timed separately as
``setup_s``.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import cfasim.asm
import cfasim.scenario
from cfasim.apps import FIXTURES, encode_input, overflow_input
from cfasim.channel import ChannelPolicy
from cfasim.device import AttackEvent, DeviceEvents
from cfasim.mcu import MemoryLayout
from cfasim.tcb import HealAction

from helpers.golden import GoldenMcu, golden_region_trace
from helpers.progen import SMALL_LAYOUT, GenProgram, generate

import checks
from checks import Expect, Pmem
from layers import LAYERS, LayerTracer

# Set-up runs this many times before the first round and once more after
# every round, so its samples span the run like the rounds do; the median is
# reported.
SETUP_REPEATS = 5

# oracle_corpus: interrupt handlers do not preserve the zero flag, so a
# handler that lands between a delay loop's SUB and JNZ wraps the loop
# counter: such programs retire about 131k instructions, the rest at most a
# few hundred.  A round holds a fixed number of each, so the mix does not
# vary with the seed; many short programs keep the median operation steady.
LONG_RETIRES = 10_000
ORACLE_LONG, ORACLE_SHORT = 1, 149

# report_stream: (fixture, log bytes, timer deadline or None for the seeded
# short timer).  Tiny logs give a log-full trigger every transfer or two.
REPORT_OPS = (("loop_heavy", 16, 1_000_000), ("loop_heavy", 32, 1_000_000),
              ("loop_heavy", 512, None), ("moderate", 16, 1_000_000),
              ("moderate", 32, 1_000_000), ("moderate", 512, None))
REPORT_BUDGET = 1_000_000_000     # every report_stream run completes
SHORT_TIMER = (80, 160)           # below one log fill at 512 bytes

# hostile: the password service under the acceptance suite's lossy channel.
HOSTILE_CHANNELS = 16
LOSSY = dict(drop_prob=0.15, dup_prob=0.10, tamper_prob=0.10)
PASSWORD_LOG = 256

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
# (name, offending instruction, acceptable reset reasons)
SW_ATTACKS = (
    ("s-write-cflog", "MOV &0x0200, r1", ("cflog-write",)),
    ("s-write-metadata", "MOV &0x0104, r1", ("metadata-write",)),
    ("jump-into-tcb", "JMP 0x8008", ("illegal-tcb-entry",)),
    ("timer-write-from-s", "MOV &0x0050, r1", ("timer-write",)),
)
HW_LATENCY = 300_000              # keeps the device in its first wait
HW_WINDOW = (140_000, 400_000)    # attack cycles inside that wait
# (name, AttackEvent fields besides the cycle, acceptable reset reasons)
HW_ATTACKS = (
    ("dma-write-metadata",
     dict(kind="dma", addr=MemoryLayout().metadata_base, count=2, value=0xFF),
     ("dma-metadata", "metadata-write", "dma-in-tcb")),
    ("maskable-irq-during-tcb", dict(kind="force-irq", line=3), ("irq-in-tcb",)),
)


@dataclass
class Operation:
    name: str
    kwargs: dict
    expect: Expect
    macs: tuple = ()

    def run(self):
        return cfasim.scenario.run_image(**self.kwargs)


# What a prepare_* function returns: the timed set-up of one workload.
Build = Callable[[], list[Operation]]


def _mem(layout: MemoryLayout) -> Pmem:
    return Pmem(layout.pmem_base, layout.pmem_size, layout.tcb_min, layout.tcb_max)


def _segments(image):
    return [(seg.base, bytes(seg.data)) for seg in image.segments]


def _sw_attack_source(instruction: str) -> str:
    return f"{SW_PREAMBLE}        {instruction}\n{SW_TAIL}"


def _key(*parts) -> bytes:
    return hashlib.sha256(":".join(map(str, ("perfbench",) + parts)).encode()).digest()


# ---------------------------------------------------------------------------
# oracle_corpus
# ---------------------------------------------------------------------------

def prepare_oracle(seed: int, n_long: int = ORACLE_LONG,
                   n_short: int = ORACLE_SHORT) -> Build:
    rng = random.Random(f"oracle_corpus:{seed}")
    lay, mem = SMALL_LAYOUT, _mem(SMALL_LAYOUT)
    picked: list[tuple[int, GenProgram]] = []
    goldens: list[list[tuple[int, int]]] = []
    want = {True: n_long, False: n_short}
    while want[True] or want[False]:
        pseed = rng.randrange(2**32)
        prog = generate(pseed)
        res = cfasim.asm.assemble(prog.source, entry=lay.tcb_min)
        dry = GoldenMcu(res.image, lay, prog.irq_at_retire).run(LONG_RETIRES)
        long = not dry.halted
        if want[long]:
            want[long] -= 1
            picked.append((pseed, prog))
            ar = (res.symbols["main"], res.symbols["fin"])
            goldens.append(golden_region_trace(res.image, lay, ar, prog.irq_at_retire))

    def build() -> list[Operation]:
        ops = []
        for (pseed, prog), golden in zip(picked, goldens):
            res = cfasim.asm.assemble(prog.source, entry=lay.tcb_min)
            key = _key("oracle", seed, pseed)
            ops.append(Operation(
                f"prog-{pseed:08x}",
                dict(image=res.image, ar=(res.symbols["main"], res.symbols["fin"]),
                     layout=lay, key_bytes=key,
                     events=DeviceEvents(irq_at_retire=prog.irq_at_retire),
                     ivt_targets=tuple(res.symbols[l] for l in prog.isr_labels)),
                Expect("completed", key, _segments(res.image), mem, golden=golden)))
        return ops
    return build


# ---------------------------------------------------------------------------
# report_stream
# ---------------------------------------------------------------------------

def prepare_report(seed: int, ops=REPORT_OPS) -> Build:
    rng = random.Random(f"report_stream:{seed}")
    timers = [t if t is not None else rng.randrange(*SHORT_TIMER) for _, _, t in ops]
    goldens = {}
    for app in sorted({app for app, _, _ in ops}):
        fx = FIXTURES[app]
        lay = MemoryLayout()
        res = cfasim.asm.assemble(fx.source, entry=lay.tcb_min)
        ar = (res.symbols[fx.ar_labels[0]], res.symbols[fx.ar_labels[1]])
        goldens[app] = golden_region_trace(res.image, lay, ar)

    def build() -> list[Operation]:
        out = []
        for i, ((app, log, _), timer) in enumerate(zip(ops, timers)):
            fx = FIXTURES[app]
            lay = MemoryLayout(cflog_size=log)
            res = cfasim.asm.assemble(fx.source, entry=lay.tcb_min)
            key = _key("report", seed, i)
            out.append(Operation(
                f"{app}-log{log}-timer{timer}",
                dict(image=res.image, layout=lay, key_bytes=key, app_name=app,
                     ar=(res.symbols[fx.ar_labels[0]], res.symbols[fx.ar_labels[1]]),
                     channel_policy=ChannelPolicy(seed=seed),
                     timer_deadline=timer, cycle_budget=REPORT_BUDGET),
                Expect("completed", key, _segments(res.image), _mem(lay),
                       golden=goldens[app])))
        return out
    return build


# ---------------------------------------------------------------------------
# hostile
# ---------------------------------------------------------------------------

def prepare_hostile(seed: int, n_channels: int = HOSTILE_CHANNELS) -> Build:
    rng = random.Random(f"hostile:{seed}")
    chan_seeds = [rng.randrange(2**31) for _ in range(n_channels)]
    hw_cycles = [rng.randrange(*HW_WINDOW) for _ in HW_ATTACKS]
    lay = MemoryLayout()
    sw_goldens = []
    for _, attack, _ in SW_ATTACKS:
        res = cfasim.asm.assemble(_sw_attack_source(attack), entry=lay.tcb_min)
        sw_goldens.append(golden_region_trace(
            res.image, lay, (res.symbols["main"], res.symbols["fin"])))

    def build() -> list[Operation]:
        out = []
        play = MemoryLayout(cflog_size=PASSWORD_LOG)
        pmem = _mem(play)
        fx = FIXTURES["password"]
        for cseed in chan_seeds:
            for way, heal in (("benign", HealAction.SHUTDOWN),
                              ("overflow", HealAction.UPDATE),
                              ("overflow", HealAction.SHUTDOWN)):
                built = cfasim.asm.assemble(fx.source, entry=play.tcb_min)
                sym = built.symbols
                ar = (sym[fx.ar_labels[0]], sym[fx.ar_labels[1]])
                words = fx.input_words if way == "benign" else overflow_input(sym)
                key = _key("hostile", seed, cseed, way, heal.value)
                kwargs = dict(image=built.image, ar=ar, layout=play, key_bytes=key,
                              app_name="password", heal_action=heal,
                              channel_policy=ChannelPolicy(seed=cseed, **LOSSY),
                              input_bytes=encode_input(words))
                exp = Expect("completed", key, _segments(built.image), pmem)
                if way == "overflow":
                    exp.deny_at = (sym["gexit"] + 8 * 4, sym["sense"])
                    exp.heal = heal.value
                    if heal is HealAction.SHUTDOWN:
                        exp.outcome = "shutdown"
                    else:
                        patched = cfasim.asm.assemble(fx.patched_source,
                                                      entry=play.tcb_min)
                        kwargs["update_image"] = patched.image
                        kwargs["patched_ar"] = (patched.symbols[fx.ar_labels[0]],
                                                patched.symbols[fx.ar_labels[1]])
                        exp.patched_segments = _segments(patched.image)
                name = f"password-{way}-{heal.value}-ch{cseed:08x}"
                out.append(Operation(name, kwargs, exp))

        mem = _mem(lay)
        for (name, attack, reasons), golden in zip(SW_ATTACKS, sw_goldens):
            res = cfasim.asm.assemble(_sw_attack_source(attack), entry=lay.tcb_min)
            sym = res.symbols
            key = _key("hostile", seed, name)
            out.append(Operation(
                name,
                dict(image=res.image, ar=(sym["main"], sym["fin"]), layout=lay,
                     key_bytes=key),
                Expect("completed", key, _segments(res.image), mem, golden=golden,
                       interference="sw", reset_reasons=reasons,
                       call_edge=(sym["main"] + 5 * 4, sym["work"]))))

        fx = FIXTURES["few_branch"]
        built = cfasim.asm.assemble(fx.source, entry=lay.tcb_min)
        ar = (built.symbols[fx.ar_labels[0]], built.symbols[fx.ar_labels[1]])
        for (name, fields, reasons), at in zip(HW_ATTACKS, hw_cycles):
            event = AttackEvent(at_cycle=at, **fields)
            key = _key("hostile", seed, name)
            out.append(Operation(
                f"{name}-at{at}",
                dict(image=built.image, ar=ar, layout=lay, key_bytes=key,
                     events=DeviceEvents(attacks=[event]),
                     channel_policy=ChannelPolicy(latency=HW_LATENCY)),
                Expect("completed", key, _segments(built.image), mem,
                       interference="hw", reset_reasons=reasons)))
        return out
    return build


PREPARE = {
    "oracle_corpus": prepare_oracle,
    "report_stream": prepare_report,
    "hostile": prepare_hostile,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    """What one operation produced in the first round; later rounds must
    reproduce it exactly."""
    totals: tuple
    digest: bytes
    problems: list[str]
    retained_bytes: int
    retransmits: int


@dataclass
class RunStats:
    setup_s: list[float] = field(default_factory=list)
    round_wall_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    op_names: list[str] = field(default_factory=list)
    records: list[OpRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    peak_bytes: int = 0
    tracer: LayerTracer | None = None
    setup_tracer: LayerTracer | None = None

    @property
    def rounds(self) -> int:
        return len(self.round_wall_s)


def _timed_build(build: Build, stats: RunStats) -> list[Operation]:
    gc.collect()
    t0 = time.perf_counter()
    ops = build()
    stats.setup_s.append(time.perf_counter() - t0)
    return ops


def setup(build: Build, stats: RunStats,
          repeats: int = SETUP_REPEATS) -> list[Operation]:
    """Build the operations ``repeats`` times, timing each build, and
    prepare the MAC states their checks resume from."""
    for _ in range(repeats):
        ops = _timed_build(build, stats)
    for op in ops:
        op.macs = checks.pmem_macs(op.expect)
    return ops


def _record(op: Operation, result) -> OpRecord:
    ch = result.channel
    retained = sum(len(f) for _, f in ch.captured) + sum(len(t) for t in ch.trace)
    return OpRecord(checks.totals(result), checks.digest(result),
                    checks.check_operation(result, op.expect, op.macs),
                    retained, result.device.stats.n_retransmits)


def _account(stats: RunStats, i: int, op: Operation, rec: OpRecord) -> None:
    """Count one attempted operation; compare it with its first round."""
    stats.attempted += 1
    if i >= len(stats.records):
        stats.records.append(rec)
    else:
        first = stats.records[i]
        if (rec.totals, rec.digest) != (first.totals, first.digest):
            stats.mismatches.append(f"{op.name}: behaviour changed between rounds")
    if rec.problems:
        stats.failed += 1


def run_round(ops: list[Operation], stats: RunStats) -> None:
    wall = 0.0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        result = op.run()
        dt = time.perf_counter() - t0
        wall += dt
        stats.op_s.append(dt)
        _account(stats, i, op, _record(op, result))
        del result
    stats.round_wall_s.append(wall)


def measure(build: Build, seconds: float, trace: bool,
            memory: bool = True) -> RunStats:
    """Set up, then run whole rounds until ``seconds`` have passed (at least
    one), with the layer tracer installed when ``trace`` is set.  Without
    tracing, set-up is timed again after every round, and a final untimed
    round under ``tracemalloc`` gives the peak heap of any one operation."""
    stats = RunStats()
    if trace:
        stats.setup_tracer = LayerTracer()
        with stats.setup_tracer:
            ops = setup(build, stats, repeats=1)
        stats.tracer = LayerTracer()
    else:
        ops = setup(build, stats)
    stats.op_names = [op.name for op in ops]
    start = time.perf_counter()
    while True:
        gc.collect()
        if stats.tracer is not None:
            with stats.tracer:
                run_round(ops, stats)
        else:
            run_round(ops, stats)
            _timed_build(build, stats)
        if time.perf_counter() - start >= seconds:
            break
    if memory and not trace:
        stats.peak_bytes = peak_heap(ops, stats)
    return stats


def peak_heap(ops: list[Operation], stats: RunStats) -> int:
    """Highest traced Python heap above the pre-operation level during any
    one operation."""
    peak = 0
    tracemalloc.start()
    try:
        for i, op in enumerate(ops):
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = op.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            _account(stats, i, op, _record(op, result))
            del result
    finally:
        tracemalloc.stop()
    return peak


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(stats: RunStats) -> dict[str, tuple[float, str]]:
    instr = sum(r.totals[3] for r in stats.records)
    reports = sum(r.totals[0] for r in stats.records)
    wall = statistics.median(stats.round_wall_s)
    return {
        "setup_s": (statistics.median(stats.setup_s), "s"),
        "wall_s": (wall, "s"),
        "instr_per_s": (instr / wall, "instr/s"),
        "reports_per_s": (reports / wall, "reports/s"),
        "op_ms_p50": (1e3 * statistics.median(stats.op_s), "ms"),
        "peak_mem_mib": (stats.peak_bytes / 2**20, "MiB"),
    }


def per_layer(stats: RunStats) -> dict[str, tuple[float, str]]:
    """Per-round figures from the traced rounds; ``asm`` is per set-up."""
    t, rounds = stats.tracer, stats.rounds
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        src, n = (stats.setup_tracer, 1) if layer == "asm" else (t, rounds)
        self_s, calls = src.self_s[layer] / n, src.calls[layer] / n
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.us_per_call"] = (1e6 * self_s / calls if calls else 0.0, "us")
    c = {k: v / rounds for k, v in t.counts.items()}
    for name in ("mcu.instr_retired", "monitor.records", "monitor.log_entries",
                 "tcb.bytes_measured", "wire.mac_bytes",
                 "verifier.reports_received", "verifier.verdicts",
                 "verifier.frames_dropped", "verifier.cached_resends",
                 "verifier.entries_validated", "verifier.cfg_builds",
                 "channel.frames_sent", "channel.frames_delivered",
                 "device.wait_polls"):
        out[name] = (c.get(name, 0), "bytes" if name.endswith("bytes") or
                     name.endswith("measured") else "count")

    def ratio(a, b):
        return c.get(a, 0) / c[b] if c.get(b) else 0.0
    out["verifier.useful_ratio"] = (ratio("verifier.verdicts",
                                          "verifier.reports_received"), "ratio")
    out["channel.delivered_ratio"] = (ratio("channel.frames_delivered",
                                            "channel.frames_sent"), "ratio")
    out["channel.retained_bytes"] = (max(r.retained_bytes for r in stats.records),
                                     "bytes")
    out["device.poll_hit_ratio"] = (ratio("device.responses_delivered",
                                          "device.wait_polls"), "ratio")
    out["device.retransmits"] = (sum(r.retransmits for r in stats.records), "count")
    out["device.resets"] = (c.get("device.resets", 0), "count")
    return out


def fingerprint(stats: RunStats) -> str:
    h = hashlib.sha256()
    for rec in stats.records:
        h.update(rec.digest)
    return h.hexdigest()
