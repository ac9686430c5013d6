"""Deterministic full-system simulator of a hybrid control-flow attestation
architecture: an emulated MCU whose per-cycle signals feed a hardware
monitor model, a trusted-software model, and a remote verifier that audits
control-flow logs over an adversarial channel.
"""

from .asm import AsmError, AsmResult, assemble, disassemble, disassemble_image
from .channel import Channel, ChannelPolicy
from .device import Device, DeviceEvents, DeviceMode
from .mcu import (ImageError, MemoryLayout, McuState, ProgramImage, Segment,
                  SignalBus, load_image, raise_irq, render_pmem, reset, step)
from .monitor import (CfaMonitor, Metadata, ResetReason, TriggerKind,
                      boundary_check)
from .scenario import (Outcome, ScenarioConfig, ScenarioResult, StatsReport,
                       decompress_entries, run_scenario)
from .tcb import DeviceKey, HealAction, PolicyMode, WaitPolicy
from .verifier import (Cfg, SliceKind, VerifierConfig, Verifier,
                       VerifySession, Violation, build_cfg, validate_slice)
from .wire import (CfaReport, CfaResponse, decode_report, decode_response,
                   encode_report, encode_response, mac)

__version__ = "0.1.0"
