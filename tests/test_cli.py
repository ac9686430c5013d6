import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfasim.channel import ChannelPolicy
from cfasim.cli import _CONFIG_KEYS, build_scenario_config, load_config_file, main
from test_asm import IVT_PROGRAM
from cfasim.scenario import ScenarioConfig, run_scenario
from cfasim.tcb import HealAction, PolicyMode, WaitPolicy

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_run_builtin_scenario(capsys):
    rc, out = run_cli(["run", "few_branch"], capsys)
    assert rc == 0
    assert "n_reports=2" in out
    assert "outcome=completed" in out


def test_run_with_overrides(capsys):
    rc, out = run_cli(["run", "password", "--input", "overflow",
                       "--heal", "shutdown", "--log-size", "256", "--audit"], capsys)
    assert rc == 0
    assert "outcome=shutdown" in out
    assert "ReturnMismatch" in out


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("""
# overflow attack against the password service
app = password
log_size = 256
input = overflow
heal = shutdown
drop = 0.1
seed = 3
""")
    rc, out = run_cli(["run", str(cfg)], capsys)
    assert rc == 0
    assert "outcome=shutdown" in out


@pytest.mark.parametrize("args, message", [
    (["run", "few_branch", "--log-size", "130"], "cflog size must be a multiple of 4"),
    (["run", "few_branch", "--policy", "bogus"], "bad policy 'bogus'"),
    (["run", "{cfg}"], "unknown app 'nope' (fixtures: few_branch, moderate,"),
    (["run", "few_branch", "--log-size", "0"], "cflog size must be at least 12 bytes"),
    (["run", "password", "--heal", "bogus"], "'bogus' is not a valid HealAction"),
    (["run", "password", "--input", "bogus"], "unknown input kind 'bogus'"),
], ids=["log-size", "policy", "app", "log-size-0", "heal", "input"])
def test_run_config_error_is_one_line(tmp_path, capsys, args, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("app = nope\n")
    rc = main([a.format(cfg=cfg) for a in args])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_run_flag_takes_the_config_key_syntax(capsys):
    # a flag goes through its key's parser, so it reads 0x10 as a config
    # line does
    rc_hex, out_hex = run_cli(["run", "few_branch", "--seed", "0x10"], capsys)
    rc_dec, out_dec = run_cli(["run", "few_branch", "--seed", "16"], capsys)
    assert rc_hex == rc_dec == 0
    assert out_hex == out_dec and "outcome=completed" in out_hex


@pytest.mark.parametrize("text, message", [
    ("app = password\ninput = benigm\n", "unknown input kind 'benigm'"),
    ("app = password\ninput = Benign\n", "unknown input kind 'Benign'"),
    ("app = few_branch\ninput = overflw\n", "unknown input kind 'overflw'"),
    ("app = few_branch\nlog-size = 16\n", "unknown config key 'log-size' (valid: app,"),
    ("app = few_branch\ntimer_deadline = 5\n", "unknown config key 'timer_deadline'"),
    ("app = few_branch\nlog_size\n", "bad config line: log_size"),
], ids=["typo", "case", "no-input-app", "dash-key", "long-key", "no-equals"])
def test_config_file_rejects_what_it_does_not_understand(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main(["run", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


# one line per config key: (key, value text, field it lands in, parsed value)
CONFIG_FIELDS = [
    ("app", "moderate", "app", "moderate"),
    ("log_size", "0x40", "max_cflog_bytes", 64),
    ("timer", "5000", "timer_deadline_cycles", 5000),
    ("policy", "heal:0x100", "policy", WaitPolicy(PolicyMode.BEST_EFFORT_HEAL, 256)),
    ("heal", "update", "heal_action", HealAction.UPDATE),
    ("input", "none", "input_kind", "none"),
    ("seed", "7", "seed", 7),
    ("budget", "123456", "cycle_budget", 123456),
    ("drop", "0.25", "channel.drop_prob", 0.25),
    ("dup", "0.5", "channel.dup_prob", 0.5),
    ("tamper", "0.125", "channel.tamper_prob", 0.125),
    ("latency", "0x20", "channel.latency", 32),
    ("drop_first", "3", "channel.drop_first", 3),
]


@pytest.mark.parametrize("key, text, path, want", CONFIG_FIELDS,
                         ids=[row[0] for row in CONFIG_FIELDS])
def test_config_file_key_lands_in_its_field(tmp_path, key, text, path, want):
    cfg_file = tmp_path / "one.cfg"
    cfg_file.write_text(f"{key} = {text}\n")
    got = build_scenario_config(load_config_file(str(cfg_file)))
    expect = ScenarioConfig()
    owner, _, name = path.rpartition(".")
    if owner:
        expect.channel = ChannelPolicy(**{name: want})
    else:
        setattr(expect, name, want)
    assert got == expect


def test_strict_policy_key_gives_the_default_policy(tmp_path):
    cfg_file = tmp_path / "strict.cfg"
    cfg_file.write_text("policy = strict\n")
    got = build_scenario_config(load_config_file(str(cfg_file)))
    assert got.policy == WaitPolicy() and got.policy.mode is PolicyMode.STRICT


def test_config_keys_are_listed_in_order():
    assert [row[0] for row in CONFIG_FIELDS] == list(_CONFIG_KEYS)
    with pytest.raises(ValueError) as err:
        build_scenario_config({"bogus": "1"})
    assert str(err.value).endswith(
        "(valid: app, log_size, timer, policy, heal, input, seed, budget, "
        "drop, dup, tamper, latency, drop_first)")


def test_scenario_rejects_unknown_input_kind():
    with pytest.raises(ValueError, match="unknown input kind 'Benign'"):
        run_scenario(ScenarioConfig(app="password", input_kind="Benign"))


@pytest.mark.parametrize("args, message", [
    (["dis", "{tmp}/notimage.tmcu"], "bad magic"),
    (["dis", "{tmp}/header.tmcu"], "truncated header"),
    (["dis", "{tmp}/missing.tmcu"], "No such file"),
    (["asm", "{tmp}/missing.asm", "{tmp}/out.tmcu"], "No such file"),
    (["run", "{tmp}/missing.cfg"], "No such file"),
    (["asm", "{tmp}/prog.asm", "{tmp}/out.tmcu", "--entry", "zz"], "invalid literal"),
    (["stats", "--seed", "zz"], "invalid literal"),
], ids=["dis-not-image", "dis-short-header", "dis-missing", "asm-missing",
        "run-missing", "asm-entry", "stats-seed"])
def test_command_error_is_one_line(tmp_path, capsys, args, message):
    (tmp_path / "notimage.tmcu").write_bytes(b"not an image")
    (tmp_path / "header.tmcu").write_bytes(b"TMCU\x00")
    (tmp_path / "prog.asm").write_text("        .org 0x9000\n        HALT\n")
    rc = main([a.format(tmp=tmp_path) for a in args])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_stats_sweep(capsys):
    rc, out = run_cli(["stats"], capsys)
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 7   # header + 3 apps x 2 sizes


def test_stats_seed_takes_the_run_syntax(capsys):
    assert run_cli(["stats", "--seed", "0x1"], capsys) == run_cli(["stats", "--seed", "1"],
                                                                  capsys)


def test_asm_dis_roundtrip(tmp_path, capsys):
    src = tmp_path / "prog.asm"
    src.write_text("""
        .org 0x9000
main:   MOV r0, #5
loop:   SUB r0, #1
        JNZ loop
        HALT
""")
    out_img = tmp_path / "prog.tmcu"
    rc, _ = run_cli(["asm", str(src), str(out_img)], capsys)
    assert rc == 0 and out_img.exists()
    rc, out = run_cli(["dis", str(out_img)], capsys)
    assert rc == 0
    assert "0x9000: MOV r0, #0x5" in out
    assert "JNZ 0x9004" in out


def test_asm_dis_lists_data_words(tmp_path, capsys):
    src = tmp_path / "ivt.asm"
    src.write_text(IVT_PROGRAM)
    out_img = tmp_path / "ivt.tmcu"
    rc, _ = run_cli(["asm", str(src), str(out_img)], capsys)
    assert rc == 0
    rc, out = run_cli(["dis", str(out_img)], capsys)
    assert rc == 0
    assert "0x0042: .word 0x9010, 0x9014" in out


def test_asm_error_reported(tmp_path, capsys):
    src = tmp_path / "bad.asm"
    src.write_text("        .org 0x9000\n        BOGUS r1\n")
    rc = main(["asm", str(src), str(tmp_path / "out.tmcu")])
    assert rc == 1


def test_console_script_entry_point():
    # pytest's pythonpath setting does not reach a child process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cfasim.cli", "run", "few_branch"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "n_reports=2" in proc.stdout


def test_seeded_runs_reproduce(capsys):
    a = run_scenario(ScenarioConfig(app="loop_heavy", seed=11,
                                    max_cflog_bytes=512))
    b = run_scenario(ScenarioConfig(app="loop_heavy", seed=11,
                                    max_cflog_bytes=512))
    assert a.stats == b.stats
    assert a.audit == b.audit
    assert [r.h for r in a.reports] == [r.h for r in b.reports]


def test_trace_frames_written(tmp_path, capsys):
    trace = tmp_path / "frames.txt"
    rc, _ = run_cli(["run", "few_branch", "--trace-frames", str(trace)], capsys)
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 4            # 2 reports + 2 responses
    assert all("->" in l for l in lines)


def test_policy_flag_best_effort(capsys):
    rc, out = run_cli(["run", "few_branch", "--policy", "resume:20000"], capsys)
    assert rc == 0
    assert "outcome=completed" in out
