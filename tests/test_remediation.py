"""Remediation converges, checked over a matrix of runs.

ACFA's healing rests on an active root of trust: a device that keeps
misbehaving is denied, and a denied device is healed or shut down.  So a run
may end without completing only for a cause the audit can name.  Unless the
run's channel has a blackout window:

(i)  no run ends ``deadlock``;
(ii) no run ends ``deadlock`` or ``budget-exhausted`` without a deny.

A deny is keyed on the audit line's ``reason``: dropped frames also print
``app=0`` (``bad-frame``, ``bad-mac``, ``stale-chal``) although nothing was
judged.

The matrix: the wait-loop runs of ``test_wait.py``, the ``cfasim stats``
configurations at seeds 0 and 1, ``password`` with benign and overflow input
under each heal action, and the seed-1 operations of the benchmark's
``hostile`` workload.
"""

from pathlib import Path

import pytest

from cfasim.asm import assemble
from cfasim.mcu import MemoryLayout
from cfasim.scenario import Outcome, ScenarioConfig, _derive_key, run_image, run_scenario
from cfasim.tcb import HealAction
from test_wait import RUNS as WAIT_RUNS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAY = MemoryLayout()

# audit reasons that judge nothing: an approval, a cached answer resent, and
# the frames dropped unanswered
NOT_A_DENY = {"ok", "resend", "bad-frame", "bad-mac", "stale-chal"}

STATS_RUNS = {f"stats-{app}-{size}-seed{seed}":
              ScenarioConfig(app=app, max_cflog_bytes=size, seed=seed)
              for seed in (0, 1) for app in ("few_branch", "moderate", "loop_heavy")
              for size in (512, 1024)}
PASSWORD_RUNS = {f"password-{kind}-{heal.value}":
                 ScenarioConfig(app="password", input_kind=kind, heal_action=heal, seed=1)
                 for kind in ("benign", "overflow") for heal in HealAction}
MATRIX = {**{f"wait-{name}": cfg for name, cfg in WAIT_RUNS.items()},
          **STATS_RUNS, **PASSWORD_RUNS}

# ROADMAP fault 2: a violation that recurs on every run, each approved
VIOLATION_LOOP = """
        .org 0x9000
main:   NOP
        MOV r1, &0x5000
fin:    NOP
        HALT
"""


def denies(res) -> list[str]:
    reasons = [dict(f.split("=", 1) for f in line.split())["reason"]
               for line in res.audit]
    return [r for r in reasons if r not in NOT_A_DENY]


def assert_converges(res, name: str) -> None:
    if res.channel.policy.blackout_windows:
        return
    assert res.outcome is not Outcome.DEADLOCK, f"{name}: (i) {res.audit}"
    if res.outcome is Outcome.BUDGET_EXHAUSTED:
        assert denies(res), f"{name}: (ii) budget exhausted with no deny"


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_scenario_run_converges(name):
    assert_converges(run_scenario(MATRIX[name]), name)


def test_hostile_runs_converge(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench

    ops = bench.PREPARE["hostile"](1)()
    assert len(ops) > 40
    for op in ops:
        assert_converges(op.run(), op.name)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a repeated violation "
                   "is approved every time, so the run never heals")
def test_violation_loop_converges():
    built = assemble(VIOLATION_LOOP, entry=LAY.tcb_min)
    res = run_image(built.image, (built.symbols["main"], built.symbols["fin"]), LAY,
                    key_bytes=_derive_key(1))
    assert_converges(res, "violation-loop")
