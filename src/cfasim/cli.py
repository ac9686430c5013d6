"""Command-line surface: assemble/disassemble images, run scenarios, and
print the runtime-statistics sweep.

Scenario configs are flat key=value text files (see README); every key can
also be overridden by a flag.  A failing command prints one ``error:`` line
and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys

from .apps import FIXTURES
from .asm import assemble, disassemble_image
from .channel import ChannelPolicy
from .mcu import ImageError, LayoutError, ProgramImage
from .scenario import INPUT_KINDS, ScenarioConfig, StatsReport, run_scenario
from .tcb import HealAction, PolicyMode, WaitPolicy


def _parse_policy(text: str) -> WaitPolicy:
    if text == "strict":
        return WaitPolicy()
    for prefix, mode in (("resume:", PolicyMode.BEST_EFFORT_RESUME),
                         ("heal:", PolicyMode.BEST_EFFORT_HEAL)):
        if text.startswith(prefix):
            return WaitPolicy(mode, timeout_cycles=int(text[len(prefix):], 0))
    raise ValueError(f"bad policy {text!r} (strict | resume:<cycles> | heal:<cycles>)")


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_CONFIG_KEYS = ("app", "log_size", "timer", "policy", "heal", "input", "seed",
                "budget", "drop", "dup", "tamper", "latency", "drop_first")


def build_scenario_config(values: dict[str, str]) -> ScenarioConfig:
    for key in values:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} "
                             f"(valid: {', '.join(_CONFIG_KEYS)})")
    cfg = ScenarioConfig(app=values.get("app", "few_branch"))
    if cfg.app not in FIXTURES:
        raise ValueError(f"unknown app {cfg.app!r} (fixtures: {', '.join(FIXTURES)})")
    if "log_size" in values:
        cfg.max_cflog_bytes = int(values["log_size"], 0)
    if "timer" in values:
        cfg.timer_deadline_cycles = int(values["timer"], 0)
    if "policy" in values:
        cfg.policy = _parse_policy(values["policy"])
    if "heal" in values:
        cfg.heal_action = HealAction(values["heal"])
    if "input" in values:
        cfg.input_kind = values["input"]
    if "seed" in values:
        cfg.seed = int(values["seed"], 0)
    if "budget" in values:
        cfg.cycle_budget = int(values["budget"], 0)
    chan = {}
    for key in ("drop", "dup", "tamper"):
        if key in values:
            chan[key + "_prob"] = float(values[key])
    if "latency" in values:
        chan["latency"] = int(values["latency"], 0)
    if "drop_first" in values:
        chan["drop_first"] = int(values["drop_first"], 0)
    if chan:
        cfg.channel = ChannelPolicy(**chan)
    return cfg


def cmd_run(args) -> int:
    if args.scenario in FIXTURES:
        values: dict[str, str] = {"app": args.scenario}
    else:
        values = load_config_file(args.scenario)
    for key in ("seed", "log_size", "timer", "policy", "heal", "input", "budget"):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = str(flag)
    result = run_scenario(build_scenario_config(values))
    print(StatsReport.TABLE_HEADER)
    print(result.stats.table_row())
    print()
    for line in result.stats.kv_lines():
        print(line)
    if args.audit:
        print()
        for line in result.audit:
            print(line)
    if args.trace_frames:
        with open(args.trace_frames, "w") as fh:
            fh.write("\n".join(result.channel.trace) + "\n")
    return 0


def cmd_stats(args) -> int:
    print(StatsReport.TABLE_HEADER)
    for app in ("few_branch", "moderate", "loop_heavy"):
        for log_size in (512, 1024):
            cfg = ScenarioConfig(app=app, max_cflog_bytes=log_size, seed=args.seed)
            print(run_scenario(cfg).stats.table_row())
    return 0


def cmd_asm(args) -> int:
    with open(args.source) as fh:
        source = fh.read()
    result = assemble(source, entry=int(args.entry, 0))
    with open(args.output, "wb") as fh:
        fh.write(result.image.to_bytes())
    print(f"wrote {args.output} ({len(result.image.segments)} segments, "
          f"{len(result.symbols)} symbols)")
    return 0


def cmd_dis(args) -> int:
    with open(args.image, "rb") as fh:
        image = ProgramImage.from_bytes(fh.read())
    for addr, text in disassemble_image(image):
        print(f"{addr:#06x}: {text}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cfasim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a built-in scenario or a config file")
    run_p.add_argument("scenario", help="fixture name or key=value config path")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--log-size", dest="log_size", type=int)
    run_p.add_argument("--timer", type=int)
    run_p.add_argument("--policy")
    run_p.add_argument("--heal", choices=[a.value for a in HealAction])
    run_p.add_argument("--input", choices=INPUT_KINDS)
    run_p.add_argument("--budget", type=int)
    run_p.add_argument("--audit", action="store_true", help="print the audit log")
    run_p.add_argument("--trace-frames", metavar="FILE",
                       help="write a hex trace of all frames to FILE")
    run_p.set_defaults(func=cmd_run)

    stats_p = sub.add_parser("stats", help="trigger statistics for the sample apps")
    stats_p.add_argument("--seed", type=int, default=0)
    stats_p.set_defaults(func=cmd_stats)

    asm_p = sub.add_parser("asm", help="assemble a source file into an image")
    asm_p.add_argument("source")
    asm_p.add_argument("output")
    asm_p.add_argument("--entry", default="0x8000")
    asm_p.set_defaults(func=cmd_asm)

    dis_p = sub.add_parser("dis", help="disassemble an image file")
    dis_p.add_argument("image")
    dis_p.set_defaults(func=cmd_dis)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ImageError, LayoutError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
