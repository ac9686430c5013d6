"""Per-layer tracing from outside the product.

Each layer is one module of ``src/cfasim``.  :class:`LayerTracer` wraps the
functions and methods through which other layers call into it, patching
every name where a caller looks it up (``device.py`` imports ``predict_bus``,
``rot_check`` and the rest by name, so the wrapper replaces each module
global that is bound to the original function).  A call that crosses into a
different layer opens a span; a call within the same layer runs unwrapped
in time, so a layer's ``calls`` counts entries from other layers and its
self time is its span time minus the spans it opened in other layers.

Counters record work at the same boundaries (bytes MACed, entries
validated, frames delivered, ...).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Entry points of each layer, as "function" or "Class.method".  Private names
# are listed where another layer calls them (``device`` calls ``mcu._fetch``)
# or where a counter needs them (``Device._wait_poll``).
LAYERS: dict[str, tuple[str, ...]] = {
    "scenario": ("run_image", "run_scenario"),
    "device": ("Device.__init__", "Device.tick", "Device.running",
               "Device.cycle", "Device._wait_poll"),
    "mcu": ("load_image", "render_pmem", "reset", "raise_irq",
            "acceptable_line", "_fetch", "predict_acceptance",
            "apply_acceptance", "predict_bus", "apply_instr", "step"),
    "isa": ("decode",),
    "monitor": ("CfaMonitor.__init__", "CfaMonitor.observe",
                "CfaMonitor.hw_reset", "CfaMonitor.arm_timer",
                "boundary_check", "timer_write_check", "read_metadata",
                "write_metadata", "read_log_entries"),
    "rot": ("rot_check", "on_reset"),
    "tcb": ("tcb_att", "authenticate_response"),
    "wire": ("mac", "attest_digest", "response_auth", "pack_entries",
             "encode_report", "decode_report", "encode_response",
             "decode_response"),
    "verifier": ("Verifier.__init__", "Verifier.handle_report", "build_cfg",
                 "validate_slice"),
    "channel": ("Channel.send", "Channel.deliver", "Channel.inject"),
    "asm": ("assemble", "disassemble", "disassemble_image"),
}


def _count_apply_instr(c, args, result):
    c["mcu.instr_retired"] += 1


def _count_observe(c, args, result):
    c["monitor.records"] += 1
    if result.entry is not None:
        c["monitor.log_entries"] += 1


def _count_tcb_att(c, args, result):
    _key, pmem, _md, entries = args
    c["tcb.bytes_measured"] += len(pmem) + 10 + 4 * len(entries)


def _count_mac(c, args, result):
    c["wire.mac_bytes"] += len(args[1])


def _count_handle_report(c, args, result):
    c["verifier.reports_received"] += 1
    if result is None:
        c["verifier.frames_dropped"] += 1
    else:
        c["verifier.verdicts"] += 1
        if " reason=resend " in args[0].audit[-1]:
            c["verifier.cached_resends"] += 1


def _count_validate(c, args, result):
    c["verifier.entries_validated"] += len(args[1])


def _count_build_cfg(c, args, result):
    c["verifier.cfg_builds"] += 1


def _count_send(c, args, result):
    c["channel.frames_sent"] += 1


def _count_deliver(c, args, result):
    if result is not None:
        c["channel.frames_delivered"] += 1
        if args[1] == "prv":
            c["device.responses_delivered"] += 1


def _count_wait_poll(c, args, result):
    c["device.wait_polls"] += 1


def _count_on_reset(c, args, result):
    c["device.resets"] += 1


HOOKS = {
    ("mcu", "apply_instr"): _count_apply_instr,
    ("monitor", "CfaMonitor.observe"): _count_observe,
    ("tcb", "tcb_att"): _count_tcb_att,
    ("wire", "mac"): _count_mac,
    ("verifier", "Verifier.handle_report"): _count_handle_report,
    ("verifier", "validate_slice"): _count_validate,
    ("verifier", "build_cfg"): _count_build_cfg,
    ("channel", "Channel.send"): _count_send,
    ("channel", "Channel.inject"): _count_send,
    ("channel", "Channel.deliver"): _count_deliver,
    ("device", "Device._wait_poll"): _count_wait_poll,
    ("rot", "on_reset"): _count_on_reset,
}


class LayerTracer:
    """Install with ``with LayerTracer() as t:``; read ``self_s``, ``calls``
    and ``counts`` afterwards."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []     # [layer, time spent in child spans]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn, hook):
        stack, self_s, calls, counts = self._stack, self.self_s, self.calls, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    self_s[layer] += dt - frame[1]
                    calls[layer] += 1
                    if stack:
                        stack[-1][1] += dt
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerTracer":
        modules = [m for n, m in sys.modules.items()
                   if n == "cfasim" or n.startswith("cfasim.")]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"cfasim.{layer}")
            for name in names:
                hook = HOOKS.get((layer, name))
                cls_name, _, meth = name.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    attr = cls.__dict__[meth]
                    if isinstance(attr, property):
                        new = property(self._wrap(layer, attr.fget, hook))
                    else:
                        new = self._wrap(layer, attr, hook)
                    self._set(cls, meth, new)
                    continue
                orig = getattr(mod, name)
                new = self._wrap(layer, orig, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, key, new)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
