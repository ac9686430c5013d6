"""The prover device: TinyMCU core, hardware monitors, active root of trust
and the functional trusted-software model, driven cycle by cycle.

Every core cycle produces a bus record that is checked *before* its effects
commit; a veto becomes a reset, and every reset (like every trigger) leads
straight into the trusted software, which measures memory, ships the report,
and pauses execution until the verifier approves.  Application cycles run in
bursts through one loop, ``Device._run``, which predicts each record, passes
it through ``_commit`` (the one commit path: veto check, cycle charge,
monitors, trace) and applies it, and returns as soon as the device leaves
RUN or opens a session.

The trusted software itself is modeled functionally: entering it charges
simulated cycle costs per phase and emits only the few bus records that the
hardware rules care about (its metadata writes, the timer re-arm, the exit
jump, heal-time program-memory patches and the heal's log-clearing jump), all
of which take the same veto-then-commit path as real instructions.

Protected memory changes at run time in exactly two places: ``CfaMonitor``
writes the log slots and ``cf_size``; ``Device._tcb_write`` lands each
trusted-software store (metadata fields, timer reload, the heal's PMEM
patches) after its store record commits.  DMEM is the only store of the
metadata: the monitor reads the region bounds and ``cf_size`` from it once
per record, and a report frame carries the metadata and log bytes exactly
as ``_session`` read them from it; both index DMEM at the fixed offsets
``mcu.MD_OFF`` and ``LOG_OFF``.  Every PMEM store, the heal's patches
included, lands through ``McuState.store``, so the core's decode cache
(``McuState.decoded``) follows that one PMEM write path: ``store`` empties it.

A pending trigger has one record, ``Device._raised``: only the trigger logic
raises the NMI line, and an ``irq_at_retire`` schedule may name the maskable
lines 1-7 alone.  After a report, each ``_wait_poll`` call is one executed
poll of the wait loop, which also charges the idle polls before it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .channel import Channel, PROVER, VERIFIER
from .isa import JMP, MOV
from .mcu import (LOG_OFF, MD_AR_MIN, MD_CF_SIZE, MD_OFF, METADATA, NMI_LINE,
                  NUM_IRQ_LINES, SLOT, TIMER, FaultError, ImageError, MemoryLayout,
                  ProgramImage, SignalBus, acceptable_line, apply_acceptance, _fetch,
                  apply_instr, load_image, predict_acceptance, predict_bus, raise_irq)
from .monitor import (CfaMonitor, MonitorEvent, ResetReason, TriggerKind,
                      boundary_check, timer_write_check)
from .rot import Mode, NMI_ACCEPT_BOUND, RotState, on_reset, rot_check
from .tcb import (AUTH_CYCLES, HEAL_CYCLES, RETRANSMIT_EVERY, WAIT_POLL_CYCLES,
                  DeviceKey, HealAction, PolicyMode, WaitPolicy,
                  authenticate_response, tcb_att)
from .wire import report_frame

TCB_EXIT_CYCLES = 8
TICK_BURST = 64         # application cycles per tick

# Read once per record; ``Mode.APP`` resolves through EnumType.__getattr__.
_APP, _TCB = Mode.APP, Mode.TCB
_STRICT, _RESUME = PolicyMode.STRICT, PolicyMode.BEST_EFFORT_RESUME


class DeviceMode(enum.Enum):
    RUN = "run"
    WAIT = "wait"
    HALTED = "halted"       # application executed HALT
    SHUTDOWN = "shutdown"   # remediation shut the device down


_RUN, _WAIT = DeviceMode.RUN, DeviceMode.WAIT


@dataclass
class AttackEvent:
    """Externally injected adversarial hardware activity."""
    at_cycle: int
    kind: str               # "dma" or "force-irq"
    addr: int = 0
    count: int = 0
    value: int = 0
    line: int = 1


@dataclass
class DeviceEvents:
    irq_at_retire: dict[int, tuple[int, ...]] = field(default_factory=dict)
    attacks: list[AttackEvent] = field(default_factory=list)   # in any order


@dataclass
class DeviceStats:
    """Counters no other record holds; report counts and log bytes are
    read from ``Device.reports``."""
    n_violation_resets: int = 0
    n_retransmits: int = 0
    n_rejected_responses: int = 0
    att_cycles: int = 0
    wait_cycles: int = 0
    heal_cycles: int = 0
    app_cycles: int = 0


class Device:
    """One prover instance with deterministic behavior under a fixed
    (image, event schedule, channel) triple."""

    def __init__(self, image: ProgramImage, layout: MemoryLayout, key: DeviceKey,
                 policy: WaitPolicy | None = None,
                 heal_action: HealAction = HealAction.SHUTDOWN,
                 update_image: ProgramImage | None = None,
                 timer_deadline: int = 0,
                 events: DeviceEvents | None = None,
                 keep_trace: bool = False):
        if update_image is not None and not layout.fits_app_region(update_image):
            raise ImageError(f"update image outside the application region "
                             f"[{layout.s_base:#06x}, {layout.pmem_end:#06x})")
        self.layout = layout
        self.key = key
        self.policy = policy or WaitPolicy()
        self.heal_action = heal_action
        self.update_image = update_image
        self.timer_deadline = timer_deadline
        self.events = events or DeviceEvents()
        for line in (n for lines in self.events.irq_at_retire.values() for n in lines):
            if not NMI_LINE < line < NUM_IRQ_LINES:     # the NMI is the trigger logic's
                raise ValueError(f"irq_at_retire names line {line}, not a maskable line")
        self.state = load_image(image, layout)
        self.monitor = CfaMonitor(self.state.dmem, layout)
        self.rot = RotState()
        self.stats = DeviceStats()
        self.mode = DeviceMode.RUN
        self.trace: list[SignalBus] | None = [] if keep_trace else None
        # each report's frame: the one record of it, sent and resent as is
        self.reports: list[bytes] = []
        self.last_reset: ResetReason | None = None

        self._pending_session: TriggerKind | None = TriggerKind.BOOT
        self._resume_ctx: tuple[int, bool, bool] = (layout.s_base, False, False)
        # the trigger raised on the NMI line and not yet accepted, with the
        # cycle it was raised at; the NMI is pending exactly while this is set
        self._raised: tuple[TriggerKind, int] | None = None
        # attacks not yet applied, the next one last; attacks due at the same
        # cycle apply in their given order
        self._attacks = sorted(self.events.attacks, key=lambda a: a.at_cycle)[::-1]
        self.wait_started = 0   # cycle the current wait began
        self._last_tx = 0
        self.retired_at_last_trigger = 0
        self.last_fault: str | None = None

    # ------------------------------------------------------------------
    # public driving surface
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.state.cycle

    @property
    def running(self) -> bool:
        # a pending trusted-software session always runs in RUN
        return self.mode is _RUN or self.mode is _WAIT

    def tick(self, channel: Channel, until: int | None = None) -> None:
        """Advance the device: a pending trusted-software session, one wait
        poll (see ``_wait_poll``), or up to ``TICK_BURST`` application
        cycles.  ``until`` is the drive loop's cycle budget, which a wait
        poll does not pass; without it a poll still stops at the next
        retransmission."""
        if self._pending_session is not None:
            self._session(channel)
        elif self.mode is _WAIT:
            self._wait_poll(channel, until)
        elif self.mode is _RUN:
            self._run(TICK_BURST)

    # ------------------------------------------------------------------
    # application execution
    # ------------------------------------------------------------------

    def _vetoed(self, bus: SignalBus) -> bool:
        """Evaluate the hardware rules on one bus record before any of its
        effects land; a veto resets the device into a violation session."""
        lay = self.layout
        reason = None
        if bus.w_en or bus.dma_en:   # these two rules fire only on a write
            reason = boundary_check(bus, lay) or timer_write_check(bus, lay)
        if reason is None:
            reason = rot_check(bus, self.rot, lay)
        if reason is not None:
            self._reset(reason)
        return reason is not None

    def _commit(self, bus: SignalBus, cycles: int) -> MonitorEvent | None:
        """The one path every bus record takes: veto check, then cycle
        charge, monitors and trace.  Returns None on a veto; otherwise the
        caller lands the record's effects, which never touch the log, and
        touch the metadata only through ``_tcb_write``, whose data lands
        after its own store record was observed."""
        # The rules run unless the record writes nothing (no w_en, dma_en or
        # irq_acc), the RoT is in application mode and neither pc nor
        # pc_next is in the TCB.  Such a record can break no rule:
        # boundary_check, timer_write_check and RoT rule (a) fire only on
        # w_en or dma_en; rules (b) and (d) only in TCB mode; rule (e) needs
        # pc in the TCB and rule (c) pc_next in the TCB.
        lo, hi = MemoryLayout.tcb_min, self.layout.tcb_max
        if (bus.w_en or bus.dma_en or bus.irq_acc or self.rot.mode is not _APP
                or lo <= bus.pc <= hi or lo <= bus.pc_next <= hi) \
                and self._vetoed(bus):
            return None
        self.state.cycle += cycles
        ev = self.monitor.observe(bus)
        if self.trace is not None:
            self.trace.append(bus)
        return ev

    def _run(self, n: int) -> None:
        """Run up to ``n`` application cycles, each an interrupt acceptance
        if a line is eligible and otherwise one retired instruction.  Every
        path that leaves RUN or opens a session returns, so the loop runs
        only while the device is in RUN with no session pending."""
        st = self.state
        decoded, commit, attacks = st.decoded, self._commit, self._attacks
        irq_at_retire, stats = self.events.irq_at_retire, self.stats
        for _ in range(n):
            if attacks:
                self._apply_due_attacks()
                if self.mode is not _RUN or self._pending_session is not None:
                    return

            line = None
            if st.pending_irq or st.halted:
                line = acceptable_line(st) if st.pending_irq else None
                if line is not None and line != NMI_LINE and st.halted:
                    line = None     # only a trigger (non-maskable) wakes a halted core
                if line is None:
                    if self._raised and st.cycle - self._raised[1] > NMI_ACCEPT_BOUND:
                        # watchdog: a trigger that failed to vector within its bound
                        self._reset(ResetReason.TRIGGER_SUPPRESSED)
                        return
                    if st.halted:
                        self.mode = DeviceMode.HALTED
                        return

            try:
                if line is None:
                    ins = decoded.get(st.pc) or _fetch(st)
                    bus = predict_bus(st, ins)
                else:
                    bus = predict_acceptance(st, line)
            except FaultError as e:
                self.last_fault = e.reason
                self._reset(ResetReason.MACHINE_FAULT)
                return
            ev = commit(bus, 0)
            if ev is None:
                return
            if line is None:
                apply_instr(st, ins, bus)
            else:
                resume_ctx = (st.pc, st.gie, st.z)
                apply_acceptance(st, line)
            stats.app_cycles += 1
            if line == NMI_LINE:
                self._enter_tcb(self._raised[0], resume_ctx)
                return
            if ev.trigger is not None:
                self._raise_trigger(ev.trigger)
            if line is None and irq_at_retire:
                for irq_line in irq_at_retire.get(st.retired, ()):
                    raise_irq(st, irq_line)

    def _raise_trigger(self, kind: TriggerKind) -> None:
        if self._raised is None:
            self._raised = (kind, self.state.cycle)
            # eligible on the very next cycle: the asserting instruction was
            # the in-flight one
            self.state.pending_irq[NMI_LINE] = self.state.retired - 1

    def _enter_tcb(self, kind: TriggerKind, resume_ctx: tuple[int, bool, bool]) -> None:
        """Open a trusted-software session; it consumes any pending trigger."""
        self.rot.mode = _TCB
        self._pending_session = kind
        self._resume_ctx = resume_ctx
        self._raised = None
        self.retired_at_last_trigger = self.state.retired

    def _reset(self, reason: ResetReason | None) -> None:
        """Hardware reset straight into a trusted-software session: a
        violation session for a vetoed ``reason``, a boot session after a
        heal (``None``)."""
        if reason is not None:
            self.stats.n_violation_resets += 1
            self.last_reset = reason
        on_reset(self.state, self.rot)
        self.monitor.hw_reset()
        self.mode = DeviceMode.RUN
        self._enter_tcb(TriggerKind.BOOT if reason is None else TriggerKind.VIOLATION,
                        (self.layout.s_base, False, False))

    # ------------------------------------------------------------------
    # adversarial hardware events
    # ------------------------------------------------------------------

    def _apply_due_attacks(self) -> None:
        attacks = self._attacks
        while attacks and attacks[-1].at_cycle <= self.state.cycle:
            ev = attacks.pop()
            st = self.state
            pc = st.pc      # tcb_min whenever the trusted software runs
            if ev.kind == "dma":
                # arming the engine is checked only; its byte writes ride on
                # the records of the cycles that follow
                bus = SignalBus(pc=pc, pc_prev=pc, pc_next=pc, inst=MOV,
                                dma_en=True, dma_addr=ev.addr)
                if self._vetoed(bus):
                    return
                st.dma.next_addr = ev.addr
                st.dma.remaining = ev.count
                st.dma.value = ev.value
            elif ev.kind == "force-irq":
                # fault injection: an interrupt controller forcing acceptance
                target = st.ivt_target(ev.line)
                bus = SignalBus(pc=pc, pc_prev=st.pc_prev, pc_next=target,
                                inst=None, irq_acc=True, irq_line=ev.line)
                if self._commit(bus, 0) is None:
                    return
                st.pending_irq.pop(ev.line, None)
                st.pc = target
                st.gie = False

    # ------------------------------------------------------------------
    # trusted-software session
    # ------------------------------------------------------------------

    def _session(self, channel: Channel) -> None:
        kind = self._pending_session
        self._pending_session = None
        st = self.state
        # the frame carries the metadata and log bytes as they lie in DMEM
        md = st.dmem[MD_OFF:MD_OFF + METADATA.size]
        log = st.dmem[LOG_OFF:LOG_OFF + SLOT.size * self.monitor.cf_size]
        h, cost = tcb_att(self.key, st.pmem, md, tuple(SLOT.iter_unpack(log)))
        st.cycle += cost
        self.stats.att_cycles += cost
        self.reports.append(report_frame(h, md, kind, log))
        channel.send(VERIFIER, self.reports[-1], st.cycle)
        self.mode = _WAIT
        self.wait_started = st.cycle
        self._last_tx = st.cycle

    def _wait_poll(self, channel: Channel, until: int | None = None) -> None:
        """One executed poll of the wait loop: ``perfbench`` counts each call
        as one ``device.wait_polls``.  It charges, with itself, the idle polls
        before the first one at which something can happen: a frame falls due
        at either endpoint (the drive loop answers a report after the poll at
        which it falls due), a retransmission, the best-effort timeout, the
        next attack or ``until``.  An idle poll costs ``state.cycle`` and
        ``wait_cycles`` what an executed one does.  The poll then applies due
        attacks, takes at most one response, and retransmits or times out
        when due."""
        st, stats, mode = self.state, self.stats, self.policy.mode
        # no timeout under the strict policy, nor under best-effort resume
        # before a response has issued a region (``ar_max`` is 0): the resumed
        # application would run unattested and unreported
        timeout = self.wait_started + self.policy.timeout_cycles
        if mode is _STRICT or (mode is _RESUME and
                               METADATA.unpack_from(st.dmem, MD_OFF)[2] == 0):
            timeout = None
        # polls land at cycle + k * WAIT_POLL_CYCLES; the first to reach the
        # earliest due cycle runs, the ones before it are idle
        first = self._last_tx + RETRANSMIT_EVERY
        for t in (channel.next_due(PROVER), channel.next_due(VERIFIER), until,
                  timeout, self._attacks[-1].at_cycle if self._attacks else None):
            if t is not None and t < first:
                first = t
        polls = max(1, (first - st.cycle - 1) // WAIT_POLL_CYCLES + 1)
        st.cycle += polls * WAIT_POLL_CYCLES
        stats.wait_cycles += polls * WAIT_POLL_CYCLES
        if self._attacks:
            self._apply_due_attacks()
            if self.mode is not _WAIT:
                return

        frame = channel.deliver(PROVER, st.cycle)
        if frame is not None:
            st.cycle += AUTH_CYCLES
            stats.wait_cycles += AUTH_CYCLES
            resp = authenticate_response(self.key, frame,
                                         METADATA.unpack_from(st.dmem, MD_OFF)[0])
            if resp is not None:
                app, chal, ar_min, ar_max = resp
                # a veto during the metadata update has already reset the device
                if self._tcb_write_metadata(chal, ar_min, ar_max):
                    if app == 1:
                        self._exit_tcb()
                    else:
                        self._heal()
                return
            stats.n_rejected_responses += 1

        if st.cycle - self._last_tx >= RETRANSMIT_EVERY:
            channel.send(VERIFIER, self.reports[-1], st.cycle)
            stats.n_retransmits += 1
            self._last_tx = st.cycle
        if timeout is not None and st.cycle >= timeout:
            if mode is _RESUME:
                self._exit_tcb()
            else:
                self._heal()

    def _tcb_write(self, addr: int, data: bytes) -> bool:
        """The trusted software's one store path: commit an in-TCB store
        record to ``addr``, then land ``data`` there; False on a veto."""
        pc = self.layout.tcb_min
        if self._commit(SignalBus(pc, pc, pc, MOV, True, addr), 1) is None:
            return False
        self.state.store(addr, data)
        return True

    def _tcb_write_metadata(self, chal: int, ar_min: int, ar_max: int) -> bool:
        """The one legal metadata write path: one in-TCB store per field
        (chal, ar_min, ar_max); ``cf_size`` stays the monitor's."""
        raw = METADATA.pack(chal, ar_min, ar_max, 0)
        base, ar_max_at = self.layout.metadata_base, MD_AR_MIN + 2
        return (self._tcb_write(base, raw[:MD_AR_MIN])
                and self._tcb_write(base + MD_AR_MIN, raw[MD_AR_MIN:ar_max_at])
                and self._tcb_write(base + ar_max_at, raw[ar_max_at:MD_CF_SIZE]))

    def _exit_jump(self, dest: int, cycles: int) -> bool:
        """Commit the exit-point jump to ``dest``, which clears the log."""
        tcb_max = self.layout.tcb_max
        return self._commit(SignalBus(tcb_max, tcb_max, dest, JMP), cycles) is not None

    def _exit_tcb(self) -> None:
        """Re-arm the periodic timer, then leave via the fixed exit point,
        which clears the log and is logged as the return into the region."""
        st, lay = self.state, self.layout
        if self.timer_deadline > 0:
            if not self._tcb_write(lay.timer_reg, TIMER.pack(self.timer_deadline)):
                return
            self.monitor.arm_timer()
        resume, gie, z = self._resume_ctx
        if not self._exit_jump(resume, TCB_EXIT_CYCLES):
            return
        st.pc = resume
        st.pc_prev = lay.tcb_max
        st.gie, st.z = gie, z
        self.rot.mode = _APP
        self.mode = _RUN

    def _heal(self) -> None:
        st, lay = self.state, self.layout
        st.cycle += HEAL_CYCLES
        self.stats.heal_cycles += HEAL_CYCLES
        action = self.heal_action

        if action is HealAction.UPDATE:
            img = self.update_image
            if img is None:
                action = HealAction.REBOOT   # no patch to apply
            else:
                # __init__ checked that img fits the application region
                self.rot.heal_latch = True
                # wipe the application region first so a shorter replacement
                # leaves no stale code behind, then write the new image
                writes = [(a, bytes(min(a + 256, lay.pmem_end) - a))
                          for a in range(lay.s_base, lay.pmem_end, 256)]
                writes += [(seg.base, seg.data) for seg in img.segments]
                for base, data in writes:
                    if not self._tcb_write(base, data):
                        return
                self.rot.heal_latch = False

        if action is HealAction.SHUTDOWN:
            self.mode = DeviceMode.SHUTDOWN
            return
        # remediation completes the trusted sequence: the exit-point jump
        # clears the already-audited log, so the post-heal boot does not
        # re-send it.  The jump stays inside the trusted region, so no rule
        # can veto it.
        self._exit_jump(lay.tcb_min, 0)
        self._reset(None)
