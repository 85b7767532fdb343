"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 check violations,
3 infeasible optimization.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from .crossings import analyze_crossings, apply_power_fixes, insert_sleep_pins, verify_power_intent
from .netlist import ActivityProfile, ParseError, parse_activity, parse_characterization, parse_design, serialize_design
from .pimsim import PimConfig, parse_script, pim_run_script, trace_to_vcd
from .power import DynamicPowerParams, LeakageModel, power_report
from .report import (
    emit_many,
    emit_report,
    plan_to_report,
    power_to_report,
    savings_to_report,
    taxonomy_report,
    violations_to_report,
)
from .voltage import InfeasibleError, assign_voltages, power_savings_summary

_LEAKAGE_KEYS = {f.name for f in fields(LeakageModel)}
_PIM_KEYS = {f.name for f in fields(PimConfig)}
_BOOL_KEYS = {"explicit_bit"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would sys.exit(2)
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """argparse ``type=`` for numbers that must be finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number '{text}'") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got '{text}'")
    return value


def _pin(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"bad value '{text}' (want ISLAND=VOLTS)")
    return name, _finite_float(value)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def parse_config(text: str) -> dict[str, float | bool]:
    """key=value overrides for LeakageModel / PimConfig defaults."""
    allowed = _LEAKAGE_KEYS | _PIM_KEYS
    out: dict[str, float | bool] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"config line {line_no}: expected key=value, got '{line}'")
        if key not in allowed:
            raise ValueError(f"config line {line_no}: unknown key '{key}'")
        if key in _BOOL_KEYS:
            if value not in ("0", "1"):
                raise ValueError(f"config line {line_no}: bad flag '{value}' (want 0 or 1)")
            out[key] = value == "1"
        else:
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"config line {line_no}: bad number '{value}'") from None
            if not math.isfinite(number):
                raise ValueError(f"config line {line_no}: {key} must be finite, got '{value}'")
            out[key] = number
    return out


def _load_config(path: str | None) -> dict[str, float | bool]:
    return parse_config(_read(path)) if path else {}


def _leakage_model(config: dict[str, float | bool]) -> LeakageModel:
    return LeakageModel(**{k: v for k, v in config.items() if k in _LEAKAGE_KEYS})


def _pim_config(config: dict[str, float | bool]) -> PimConfig:
    return PimConfig(**{k: v for k, v in config.items() if k in _PIM_KEYS})


def _load_design(args: argparse.Namespace):
    return parse_design(_read(args.netlist), _read(args.intent))


def _cmd_check(args: argparse.Namespace) -> int:
    violations = verify_power_intent(_load_design(args))
    sys.stdout.write(emit_report(violations_to_report(violations)))
    return 2 if violations else 0


def _cmd_fix(args: argparse.Namespace) -> int:
    design = _load_design(args)
    pinned = insert_sleep_pins(design)
    pins = sum(pin == "slpb" for net in pinned.nets for _, pin in net.raw_loads)
    pins -= sum(pin == "slpb" for net in design.nets for _, pin in net.raw_loads)
    pin_nets = {n.name for n in pinned.nets} - set(design.nets_by_name())
    del design
    issues = analyze_crossings(pinned)
    sleep_fixes = sum(issue.net in pin_nets for issue in issues)
    counts = f"{len(issues) - sleep_fixes} crossing fixes, {pins} sleep pins added, {sleep_fixes} sleep-net fixes"
    fixed = apply_power_fixes(pinned, issues)
    # the pinned design and its cached index are not needed past this point
    del pinned, issues
    netlist_text, _ = serialize_design(fixed)
    Path(args.out).write_text(netlist_text, encoding="utf-8")
    print(f"wrote {args.out}: {counts}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    design = _load_design(args)
    activity = parse_activity(_read(args.activity), args.fclk_mhz, design=design)
    params = DynamicPowerParams(f_clk_mhz=args.fclk_mhz, k=args.k)
    model = _leakage_model(_load_config(args.config))
    result = power_report(
        design, activity, params,
        sleeping=args.sleep, temp_c=args.temp_c, model=model,
    )
    sys.stdout.write(emit_report(power_to_report(result), args.format))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    design = _load_design(args)
    table = parse_characterization(_read(args.char))
    pinned = dict(args.pin)
    reqs = {i.name: args.freq_mhz for i in design.islands if i.name not in pinned}
    plan = assign_voltages(design, table, reqs, pinned, baseline_v=args.baseline_v)
    # without measured toggle data, weight islands by capacitance at full activity
    activity = ActivityProfile({n.name: 1.0 for n in design.nets})
    params = DynamicPowerParams(f_clk_mhz=args.freq_mhz)
    savings = power_savings_summary(args.baseline_v, plan, design, activity, params)
    sys.stdout.write(emit_many([plan_to_report(plan), savings_to_report(savings)], args.format))
    return 0


def _cmd_sleep_sim(args: argparse.Namespace) -> int:
    config = _pim_config(_load_config(args.config))
    trace = pim_run_script(config, parse_script(_read(args.script)))
    sys.stdout.write(trace.to_text())
    if args.vcd:
        Path(args.vcd).write_text(trace_to_vcd(trace), encoding="utf-8")
    return 0


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    sys.stdout.write(emit_report(taxonomy_report(), args.format))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="pwr", description="Multi-voltage power-island toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # options shared by several subcommands, listed first in their --help
    design = _Parser(add_help=False)
    design.add_argument("--netlist", required=True)
    design.add_argument("--intent", required=True)
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("check", parents=[design], help="verify crossings and sleep-pin completeness")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fix", parents=[design], help="insert level shifters, iso cells, and sleep pins")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fix)

    p = sub.add_parser("power", parents=[design, fmt], help="dynamic + static power report")
    p.add_argument("--activity", required=True)
    p.add_argument("--fclk-mhz", type=_finite_float, required=True)
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--temp-c", type=_finite_float, default=25.0)
    p.add_argument("--sleep", action="append", default=[], metavar="ISLAND")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("optimize", parents=[design, fmt], help="minimum-voltage plan and savings summary")
    p.add_argument("--char", required=True)
    p.add_argument("--freq-mhz", type=_finite_float, required=True)
    p.add_argument("--pin", type=_pin, action="append", default=[], metavar="ISLAND=V")
    p.add_argument("--baseline-v", type=_finite_float, default=1.2)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sleep-sim", help="run a sleep-controller script")
    p.add_argument("--script", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--vcd", default=None)
    p.set_defaults(func=_cmd_sleep_sim)

    p = sub.add_parser("taxonomy", parents=[fmt], help="leakage mechanism severity grid")
    p.set_defaults(func=_cmd_taxonomy)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"pwr: error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return args.func(args)
    except InfeasibleError as err:
        print(f"pwr: infeasible: {err}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as err:
        print(f"pwr: error: {err}", file=sys.stderr)
        return 1


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
