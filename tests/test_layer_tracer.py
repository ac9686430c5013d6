"""The benchmark's per-layer tracer (``perfbench/layers.py``) wraps product
entry points by name, so renaming or deleting one breaks
``perfbench/run.py --trace 1``.  This runs it on one small scenario."""

import importlib.util
from pathlib import Path

import cfasim.device
import cfasim.mcu
from cfasim.scenario import ScenarioConfig, run_scenario
from cfasim.tcb import HealAction

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_counts_core_and_monitor_work():
    layers = load_layers()
    plain = run_scenario(ScenarioConfig(app="few_branch"))
    with layers.LayerTracer() as tracer:
        traced = run_scenario(ScenarioConfig(app="few_branch"))
    assert traced.audit == plain.audit
    assert tracer.counts["mcu.instr_retired"] == plain.device.state.retired
    assert tracer.counts["monitor.log_entries"] > 0
    assert tracer.calls["mcu"] > 0 and tracer.calls["monitor"] > 0
    # every wrapped name is restored on exit
    assert cfasim.device.predict_bus is cfasim.mcu.predict_bus
    assert not hasattr(cfasim.mcu.predict_bus, "__wrapped__")


def test_tracer_counts_one_call_per_record_and_retirement():
    """``monitor.records`` counts ``CfaMonitor.observe`` calls and
    ``mcu.instr_retired`` counts ``apply_instr`` calls: one per committed
    record (each lands in the trace) and one per retired instruction."""
    layers = load_layers()
    cfg = ScenarioConfig(app="password", input_kind="overflow",
                         heal_action=HealAction.UPDATE, keep_trace=True)
    with layers.LayerTracer() as tracer:
        res = run_scenario(cfg)
    assert tracer.counts["monitor.records"] == len(res.device.trace)
    assert tracer.counts["mcu.instr_retired"] == res.device.state.retired
    assert sum(b.inst is not None for b in res.device.trace) \
        > res.device.state.retired > 0


def test_round_trip_decodes_each_report_once():
    """Per report, the wire layer is entered four times: ``pack_entries``
    for the measurement, ``response_auth`` on each side, and the one
    ``decode_report`` of the run's record.  The verifier reads the frame in
    place and the prover authenticates the response frame itself, so a
    second decode of either frame fails here."""
    layers = load_layers()
    with layers.LayerTracer() as tracer:
        res = run_scenario(ScenarioConfig(app="few_branch"))
    n = len(res.device.reports)
    assert n == tracer.counts["verifier.reports_received"] == 2
    assert tracer.calls["wire"] <= 4 * n


def test_tracer_counts_the_entries_of_each_walked_report():
    """``verifier.entries_validated`` reads the entries as
    ``validate_slice``'s second argument.  On a clean run every report is
    authentic and carries the region it was issued, so every one is walked
    and the counter is the sum of their entries; an argument order that
    moves the entries breaks this count."""
    layers = load_layers()
    with layers.LayerTracer() as tracer:
        res = run_scenario(ScenarioConfig(app="few_branch"))
    assert all(" app=1 reason=ok " in line for line in res.audit)
    assert len(res.audit) == len(res.reports)
    walked = sum(len(r.entries) for r in res.reports)
    assert walked > 0
    assert tracer.counts["verifier.entries_validated"] == walked
