"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 check violations,
3 infeasible optimization.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Iterator, TextIO

from .crossings import fix_design, verify_power_intent
from .netlist import ParseError, _attrs, _flag, _float, _netlist_lines, _token_lines
from .netlist import parse_activity, parse_characterization, parse_design
from .pimsim import PimConfig, _blocks, _trace_blocks, _vcd_lines, parse_script
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

_CONFIG_FIELDS = [f for cls in (LeakageModel, PimConfig) for f in fields(cls)]
_CONFIG_KEYS = tuple(f.name for f in _CONFIG_FIELDS)
_BOOL_KEYS = {f.name for f in _CONFIG_FIELDS if isinstance(f.default, bool)}


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


@contextmanager
def _read(path: str) -> Iterator[TextIO]:
    """The UTF-8 text file at ``path``, open for a reader to stream.  A file
    that cannot seek (a pipe) is read whole first, as ``parse_design`` reads
    a file again from its start to name a fault's line.  A byte that is not
    UTF-8 fails with the decoder's error at its offset in the file."""
    with open(path, encoding="utf-8") as file:
        try:
            yield file if file.seekable() else io.StringIO(file.read())
        except UnicodeDecodeError:
            if file.seekable():  # the error counts from the block read: decode whole for the file offset
                file.seek(0)
                file.buffer.read().decode("utf-8")
            raise


def parse_config(text: str | TextIO) -> dict[str, float | bool]:
    """key=value overrides for LeakageModel / PimConfig defaults, each key
    given once, in the shared token grammar of the other input formats."""
    out: dict[str, float | bool] = {}
    for line_no, tokens in _token_lines(text):
        for key, value in _attrs("config", line_no, tokens, (), _CONFIG_KEYS).items():
            if key in out:
                raise ParseError("config", line_no, f"duplicate attribute '{key}'")
            out[key] = (_flag if key in _BOOL_KEYS else _float)("config", line_no, key, value)
    return out


def _configured(path: str | None) -> tuple[LeakageModel, PimConfig]:
    """The ``LeakageModel`` and the ``PimConfig`` of the ``--config`` file,
    both built and so both checked whichever command reads the file."""
    config: dict[str, float | bool] = {}
    if path:
        with _read(path) as file:
            config = parse_config(file)
    leakage = {f.name for f in fields(LeakageModel)}
    return (
        LeakageModel(**{k: v for k, v in config.items() if k in leakage}),
        PimConfig(**{k: v for k, v in config.items() if k not in leakage}),
    )


def _load_design(args: argparse.Namespace):
    with _read(args.intent) as intent:  # a line per island: read whole, so one file is open at a time
        intent_text = intent.read()
    with _read(args.netlist) as netlist:
        return parse_design(netlist, intent_text)


def _cmd_check(args: argparse.Namespace) -> int:
    violations = verify_power_intent(_load_design(args))
    sys.stdout.write(emit_report(violations_to_report(violations)))
    return 2 if violations else 0


def _cmd_fix(args: argparse.Namespace) -> int:
    fixed, (fixes, pins, sleep_fixes) = fix_design(_load_design(args))
    with open(args.out, "w", encoding="utf-8") as out:
        out.writelines(_netlist_lines(fixed))
    print(f"wrote {args.out}: {fixes} crossing fixes, {pins} sleep pins added, {sleep_fixes} sleep-net fixes")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    design = _load_design(args)
    with _read(args.activity) as file:
        activity = parse_activity(file, args.fclk_mhz, design=design)
    params = DynamicPowerParams(f_clk_mhz=args.fclk_mhz, k=args.k)
    model, _ = _configured(args.config)
    result = power_report(
        design, activity, params,
        sleeping=args.sleep, temp_c=args.temp_c, model=model,
    )
    sys.stdout.write(emit_report(power_to_report(result), args.format))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    design = _load_design(args)
    with _read(args.char) as file:
        table = parse_characterization(file)
    pinned: dict[str, float] = {}
    for name, vdd in args.pin:
        if name in pinned:
            raise ValueError(f"argument --pin: island '{name}' pinned twice")
        pinned[name] = vdd
    reqs = {i.name: args.freq_mhz for i in design.islands if i.name not in pinned}
    plan = assign_voltages(design, table, reqs, pinned, baseline_v=args.baseline_v)
    # without measured toggle data, weight islands by capacitance at full activity
    activity = {n.name: 1.0 for n in design.nets}
    params = DynamicPowerParams(f_clk_mhz=args.freq_mhz)
    savings = power_savings_summary(args.baseline_v, plan, design, activity, params)
    sys.stdout.write(emit_many([plan_to_report(plan), savings_to_report(savings)], args.format))
    return 0


def _cmd_sleep_sim(args: argparse.Namespace) -> int:
    _, config = _configured(args.config)
    times: list[float] = []
    changes: list[str] = []
    # a bad script fails before the first block; the VCD needs the whole run first
    with _read(args.script) as file:
        script = parse_script(file)
    sys.stdout.writelines(_trace_blocks(config, script, times, changes))
    if args.vcd:
        with open(args.vcd, "w", encoding="utf-8") as out:
            out.writelines(_blocks(_vcd_lines(times, changes)))
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
