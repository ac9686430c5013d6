"""Command-line surface: assemble/disassemble images, run scenarios, and
print the runtime-statistics sweep.

Scenario configs are flat key=value text files (see README); every key can
also be overridden by a flag.  A failing command prints one ``error:`` line
and exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .apps import FIXTURES
from .asm import assemble, disassemble_image
from .channel import ChannelPolicy
from .mcu import ImageError, LayoutError, ProgramImage
from .scenario import ScenarioConfig, StatsReport, run_scenario
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


# Config key -> (field, parser): the ScenarioConfig fields, then the
# ChannelPolicy fields.  Every scenario key but app is also a `run` flag.
_int = partial(int, base=0)
_SCENARIO_KEYS = {
    "app": ("app", str), "log_size": ("max_cflog_bytes", _int),
    "timer": ("timer_deadline_cycles", _int), "policy": ("policy", _parse_policy),
    "heal": ("heal_action", HealAction), "input": ("input_kind", str),
    "seed": ("seed", _int), "budget": ("cycle_budget", _int)}
_CHANNEL_KEYS = {
    "drop": ("drop_prob", float), "dup": ("dup_prob", float),
    "tamper": ("tamper_prob", float), "latency": ("latency", _int),
    "drop_first": ("drop_first", _int)}
_CONFIG_KEYS = (*_SCENARIO_KEYS, *_CHANNEL_KEYS)


def build_scenario_config(values: dict[str, str]) -> ScenarioConfig:
    for key in values:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} "
                             f"(valid: {', '.join(_CONFIG_KEYS)})")
    app = values.get("app", ScenarioConfig.app)
    if app not in FIXTURES:
        raise ValueError(f"unknown app {app!r} (fixtures: {', '.join(FIXTURES)})")
    cfg = ScenarioConfig()
    for key, (name, parse) in _SCENARIO_KEYS.items():
        if key in values:
            setattr(cfg, name, parse(values[key]))
    chan = {name: parse(values[key])
            for key, (name, parse) in _CHANNEL_KEYS.items() if key in values}
    if chan:
        cfg.channel = ChannelPolicy(**chan)
    return cfg


def cmd_run(args) -> int:
    if args.scenario in FIXTURES:
        values: dict[str, str] = {"app": args.scenario}
    else:
        values = load_config_file(args.scenario)
    for key in _SCENARIO_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
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
    seed = _int(args.seed)      # the syntax of `run --seed`
    print(StatsReport.TABLE_HEADER)
    for app in ("few_branch", "moderate", "loop_heavy"):
        for log_size in (512, 1024):
            cfg = ScenarioConfig(app=app, max_cflog_bytes=log_size, seed=seed)
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
    for key in _SCENARIO_KEYS:
        if key != "app":    # a flag's text goes to the key's parser, as a line's does
            run_p.add_argument("--" + key.replace("_", "-"))
    run_p.add_argument("--audit", action="store_true", help="print the audit log")
    run_p.add_argument("--trace-frames", metavar="FILE",
                       help="write a hex trace of all frames to FILE")
    run_p.set_defaults(func=cmd_run)

    stats_p = sub.add_parser("stats", help="trigger statistics for the sample apps")
    stats_p.add_argument("--seed", default="0")
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
