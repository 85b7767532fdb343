import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwr

from conftest import (
    ACTIVITY_TEXT,
    CHAR_TEXT,
    GATED_INTENT,
    GATED_NETLIST,
    THREE_ISLAND_INTENT,
    THREE_ISLAND_NETLIST,
)
from helpers import VOLTAGES, random_fixed_design, soc_texts
from pwr.cli import parse_config, run_cli
from pwr.crossings import analyze_crossings, apply_power_fixes, fix_design, insert_sleep_pins, verify_power_intent
from pwr.netlist import (
    SA_MAX,
    CellInstance,
    CellKind,
    Design,
    Endpoint,
    Island,
    Net,
    ParseError,
    Port,
    parse_activity,
    parse_design,
    serialize_design,
    validate_design,
)
from pwr.power import DynamicPowerParams, LeakageModel, dynamic_power, leakage_bias_sweep
from pwr.report import (
    Report,
    emit_many,
    emit_report,
    leakage_sweep_report,
    power_to_report,
    savings_to_report,
    taxonomy_report,
    violations_to_report,
)
from pwr.voltage import assign_voltages, power_savings_summary


@pytest.fixture
def workspace(tmp_path):
    paths = {
        "netlist": tmp_path / "soc.net",
        "intent": tmp_path / "soc.intent",
        "activity": tmp_path / "soc.act",
        "char": tmp_path / "soc.char",
        "gated_netlist": tmp_path / "gated.net",
        "gated_intent": tmp_path / "gated.intent",
        "script": tmp_path / "sleep.script",
    }
    paths["netlist"].write_text(THREE_ISLAND_NETLIST)
    paths["intent"].write_text(THREE_ISLAND_INTENT)
    paths["activity"].write_text(ACTIVITY_TEXT)
    paths["char"].write_text(CHAR_TEXT)
    paths["gated_netlist"].write_text(GATED_NETLIST)
    paths["gated_intent"].write_text(GATED_INTENT)
    paths["script"].write_text("at 0 write_sleep\nat 100 read_status\n")
    return {k: str(v) for k, v in paths.items()} | {"dir": tmp_path}


# -- emit_report ------------------------------------------------------------------


def _sample_savings(soc3_design, table):
    plan = assign_voltages(soc3_design, table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    activity = {n.name: 1.0 for n in soc3_design.nets}
    return power_savings_summary(1.2, plan, soc3_design, activity, DynamicPowerParams(150.0))


def test_text_uses_four_significant_digits(soc3):
    activity = {"cpu2usb": 0.123456}
    report = power_to_report(dynamic_power(soc3, activity, DynamicPowerParams(150.0)))
    text = emit_report(report, "text")
    assert "1.422e-05" in text  # 1200 fF * 0.64 * 150 MHz * 0.123456, 4 sig figs


def test_json_and_csv_round_trip_equal_values(soc3, char_table):
    report = savings_to_report(_sample_savings(soc3, char_table))

    doc = json.loads(emit_report(report, "json"))
    assert doc["kind"] == "savings"
    for row, parsed in zip(report.rows, doc["rows"]):
        assert list(parsed.values()) == list(row)

    reader = csv.reader(io.StringIO(emit_report(report, "csv")))
    header = next(reader)
    assert tuple(header) == report.columns
    for row, parsed in zip(report.rows, reader):
        for value, text in zip(row, parsed):
            if isinstance(value, bool):
                assert text == str(value).lower()
            elif isinstance(value, float):
                assert float(text) == value  # full precision survives
            else:
                assert text == str(value)


def _src_env() -> dict[str, str]:
    """The environment with this checkout's ``pwr`` first on ``PYTHONPATH``,
    for a fresh interpreter."""
    src = str(Path(pwr.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_importing_the_cli_loads_neither_json_nor_csv():
    """Only ``emit_report``'s json and csv branches use those modules, so
    no other command loads them."""
    code = "import sys, pwr.cli; print(sorted({'json', 'csv'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=_src_env(),
                         timeout=60, check=False)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_empty_report_is_headers_only():
    report = Report("power", ("island", "dynamic_w"), ())
    assert emit_report(report, "csv") == "island,dynamic_w\n"
    text_lines = emit_report(report, "text").splitlines()
    assert text_lines[-1].split() == ["island", "dynamic_w"]


def test_taxonomy_text_grid():
    text = emit_report(taxonomy_report(), "text")
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 6  # header + five mechanisms
    assert lines[2].split()[0] == "I2"
    assert lines[2].split()[-3:] == ["minor", "major", "major+"]


def test_emit_many_json_is_an_array(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    from pwr.report import plan_to_report

    docs = json.loads(emit_many([plan_to_report(plan), savings_to_report(_sample_savings(soc3, char_table))], "json"))
    assert [d["kind"] for d in docs] == ["voltage-plan", "savings"]


def test_leakage_sweep_report_is_the_bias_sweep():
    model = LeakageModel(i0_per_gate_25c=1e-9)
    report = leakage_sweep_report(model, v_stop=-0.3, steps=7, temp_c=85.0)
    assert report.rows == leakage_bias_sweep(model, -0.3, 7, 85.0)
    assert report.assumptions == (("temp_c", 85.0),)

    reader = csv.reader(io.StringIO(emit_report(report, "csv")))
    assert tuple(next(reader)) == ("v_slp_v", "leakage_a")
    assert tuple((float(v), float(i)) for v, i in reader) == report.rows  # every float survives


def test_validate_design_findings_emit_as_violations():
    design = Design((Island("x", 1.0, retention=True),), (CellInstance("a", CellKind.STD, "nowhere"),))
    findings = validate_design(design)
    rows = json.loads(emit_report(violations_to_report(findings), "json"))["rows"]
    assert rows == [
        {"kind": "island", "subject": "x", "detail": "retention requires switchable"},
        {"kind": "cell", "subject": "a", "detail": "unknown island 'nowhere'"},
    ]
    assert [str(v) for v in findings] == [f"{r['kind']} {r['subject']}: {r['detail']}" for r in rows]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(taxonomy_report(), "xml")


# -- config files -------------------------------------------------------------------


def test_parse_config_values():
    cfg = parse_config("bias_v=-0.25\nt_save=10\nexplicit_bit=1\n# comment\n")
    assert cfg == {"bias_v": -0.25, "t_save": 10.0, "explicit_bit": True}
    # several attributes may share a line, as in every other format
    assert parse_config("t_save=10 bias_v=-0.2  # two\n") == {"t_save": 10.0, "bias_v": -0.2}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ParseError, match="config line 1: unknown attribute 'voltage'"):
        parse_config("voltage=1\n")


# -- CLI ----------------------------------------------------------------------------


def test_check_unfixed_exits_2(workspace, capsys):
    code = run_cli(["check", "--netlist", workspace["netlist"], "--intent", workspace["intent"]])
    out = capsys.readouterr().out
    assert code == 2
    assert "needs_level_shifter" in out and "cpu2usb" in out


def test_fix_then_check_exits_0(workspace, capsys):
    out_path = str(workspace["dir"] / "fixed.net")
    assert run_cli([
        "fix", "--netlist", workspace["netlist"], "--intent", workspace["intent"], "--out", out_path,
    ]) == 0
    assert run_cli(["check", "--netlist", out_path, "--intent", workspace["intent"]]) == 0
    # a netlist of only comments has no statement: its fix is one empty line
    comments = workspace["dir"] / "comments.net"
    comments.write_text("# nothing here yet\n")
    assert run_cli(["fix", "--netlist", str(comments), "--intent", workspace["intent"], "--out", out_path]) == 0
    assert Path(out_path).read_text() == "\n"
    assert run_cli(["check", "--netlist", out_path, "--intent", workspace["intent"]]) == 0


def test_fix_gated_soc_passes_check(workspace, capsys):
    out_path = str(workspace["dir"] / "gated_fixed.net")
    assert run_cli([
        "fix", "--netlist", workspace["gated_netlist"], "--intent", workspace["gated_intent"],
        "--out", out_path,
    ]) == 0
    assert "4 crossing fixes, 5 sleep pins added, 0 sleep-net fixes" in capsys.readouterr().out
    assert run_cli(["check", "--netlist", out_path, "--intent", workspace["gated_intent"]]) == 0


def test_power_subcommand_text_and_json_agree(workspace, capsys):
    args = [
        "power", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--activity", workspace["activity"], "--fclk-mhz", "150",
    ]
    assert run_cli(args) == 0
    text = capsys.readouterr().out
    assert run_cli(args + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # cpu2usb: 1200 fF at 0.8 V, 150 MHz, sa from 30 toggles / 150 cycles
    cpu = next(r for r in doc["rows"] if r["island"] == "cpu")
    assert cpu["dynamic_w"] > 0
    assert f"{cpu['dynamic_w']:.4g}" in text  # same numbers in both formats


def test_power_sleep_flag(workspace, capsys):
    config = workspace["dir"] / "model.cfg"
    config.write_text("i0_per_gate_25c=1.605e-9\n")
    args = [
        "power", "--netlist", workspace["gated_netlist"], "--intent", workspace["gated_intent"],
        "--activity", str(workspace["dir"] / "empty.act"), "--fclk-mhz", "200",
        "--sleep", "logic", "--config", str(config), "--format", "json",
    ]
    (workspace["dir"] / "empty.act").write_text("")
    assert run_cli(args) == 0
    doc = json.loads(capsys.readouterr().out)
    logic = next(r for r in doc["rows"] if r["island"] == "logic")
    manager = next(r for r in doc["rows"] if r["island"] == "(manager)")
    assert logic["static_sleep_w"] > 0 and logic["static_active_w"] == 0
    assert manager["static_sleep_w"] == pytest.approx(4.1e-6)


def test_power_rejects_sleeping_always_on(workspace, capsys):
    args = [
        "power", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--activity", workspace["activity"], "--fclk-mhz", "150", "--sleep", "usb",
    ]
    assert run_cli(args) == 1
    assert "not switchable" in capsys.readouterr().err


def test_optimize_selects_low_voltage_plan(workspace, capsys):
    args = [
        "optimize", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--char", workspace["char"], "--freq-mhz", "150", "--pin", "usb=1.2", "--format", "json",
    ]
    assert run_cli(args) == 0
    plan_doc, savings_doc = json.loads(capsys.readouterr().out)
    chosen = {r["island"]: r["vdd"] for r in plan_doc["rows"]}
    assert chosen == {"cpu": 0.8, "mem": 0.8, "usb": 1.2}
    cpu = next(r for r in savings_doc["rows"] if r["island"] == "cpu")
    assert cpu["actual_pct"] == pytest.approx(53.0, abs=0.5)


def test_optimize_infeasible_exits_3(workspace, capsys):
    args = [
        "optimize", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--char", workspace["char"], "--freq-mhz", "160", "--pin", "usb=1.2",
    ]
    assert run_cli(args) == 3
    err = capsys.readouterr().err
    assert "155" in err  # best available fmax is part of the diagnosis


def test_sleep_sim_trace_and_vcd(workspace, capsys):
    vcd_path = workspace["dir"] / "out.vcd"
    args = ["sleep-sim", "--script", workspace["script"], "--vcd", str(vcd_path)]
    assert run_cli(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "100 STATUS=sleeping"
    assert vcd_path.read_text().startswith("$timescale 1ns $end")


def test_sleep_sim_honors_config(workspace, capsys):
    config = workspace["dir"] / "pim.cfg"
    config.write_text("t_iso_on=5\nt_save=5\nt_bias_on=5\n")
    args = ["sleep-sim", "--script", workspace["script"], "--config", str(config)]
    assert run_cli(args) == 0
    assert "15 BIAS=1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config_text, script, message",
    [
        ("explicit_bit=1\n", "at 200 write_sleep\n",
         "script command 1 at 200 ns: explicit_bit mode requires a written value"),
        ("", "at 0 write_sleep 1\n", "script command 1 at 0 ns: toggle mode takes no written value"),
    ],
    ids=["explicit-without-value", "toggle-with-value"],
)
def test_sleep_sim_write_mode_mismatch_exits_1_naming_its_command(workspace, capsys, config_text, script, message):
    config = workspace["dir"] / "pim.cfg"
    config.write_text(config_text)
    (workspace["dir"] / "sleep.script").write_text(script)
    assert run_cli(["sleep-sim", "--script", workspace["script"], "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pwr: error: {message}\n")


@pytest.mark.parametrize(
    "calib, message",
    [
        ("calib nand2\n", "missing attribute 'temp'"),
        ("calib nand2 temp=hot source=spice factor=-3 bogus\n", "expected key=value, got 'bogus'"),
        ("calib nand2 temp=25 source=spice factor=2\n", "bad source 'spice' (want model or silicon)"),
    ],
    ids=["bare", "bad-token", "bad-source"],
)
def test_optimize_rejects_a_malformed_calib_line(workspace, capsys, calib, message):
    (workspace["dir"] / "soc.char").write_text(CHAR_TEXT + "# silicon factors\n" + calib)
    argv = [
        "optimize", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--char", workspace["char"], "--freq-mhz", "150", "--pin", "usb=1.2",
    ]
    assert run_cli(argv) == 1
    line = CHAR_TEXT.count("\n") + 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pwr: error: characterization line {line}: {message}\n")


def test_taxonomy_subcommand(capsys):
    assert run_cli(["taxonomy"]) == 0
    out = capsys.readouterr().out
    assert "gate oxide tunneling" in out and "major+" in out


def test_usage_errors_exit_1(workspace, capsys):
    assert run_cli(["check", "--netlist", workspace["netlist"]]) == 1
    assert run_cli(["check", "--netlist", workspace["netlist"], "--intent", workspace["intent"], "--bogus"]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["check", "--netlist", "missing.net", "--intent", workspace["intent"]]) == 1


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("power", "--fclk-mhz", "nan"),
        ("power", "--k", "inf"),
        ("power", "--temp-c", "inf"),
        ("optimize", "--freq-mhz", "nan"),
        ("optimize", "--baseline-v", "inf"),
        ("optimize", "--pin", "usb=nan"),
    ],
)
def test_non_finite_cli_numbers_exit_1(workspace, capsys, command, option, value):
    args = {
        "power": ["--activity", workspace["activity"], "--fclk-mhz", "150"],
        "optimize": ["--char", workspace["char"], "--freq-mhz", "150"],
    }[command]
    argv = [command, "--netlist", workspace["netlist"], "--intent", workspace["intent"], *args, option, value]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be finite" in captured.err


def test_power_temperature_that_overflows_the_leakage_model_exits_1(workspace, capsys):
    argv = [
        "power", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--activity", workspace["activity"], "--fclk-mhz", "150", "--temp-c", "20000",
    ]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "pwr: error: leakage current is not finite at 20000.0 C\n")


def test_power_whose_static_watts_overflow_exits_1_naming_the_island(tmp_path, capsys):
    netlist, intent, activity = tmp_path / "big.net", tmp_path / "big.intent", tmp_path / "big.act"
    netlist.write_text("cell c0 kind=std island=a gates=1000000000\nnet n0 driver=c0.z loads=c0.a\n")
    intent.write_text("island a vdd=1.2\n")
    activity.write_text("net n0 toggles=1 duration_ns=10\n")
    argv = [
        "power", "--netlist", str(netlist), "--intent", str(intent), "--activity", str(activity),
        "--fclk-mhz", "100", "--temp-c", "10200", "--format", "json",
    ]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "pwr: error: island 'a': static power is not finite at 10200.0 C\n")


def _reject_constant(name):
    raise AssertionError(f"json output holds {name}")


@pytest.mark.parametrize(
    "cell, vdd, activity, fclk_mhz, message",
    [
        ("cap_ff=1e300", "1.2", "toggles=1 duration_ns=10", "1e300", "dynamic power is not finite at 1e+300 MHz"),
        ("cap_ff=1e300", "1.2", "toggles=0 duration_ns=10", "1e300", "dynamic power is not finite at 1e+300 MHz"),
        # dynamic 1e307 W and static 1.5e308 W, each finite
        (f"cap_ff=5e101 gates={3 * 10**214}", "1e100", "toggles=2 duration_ns=1e-12", "1e15",
         "total power is not finite"),
    ],
    ids=["dynamic-infinite", "dynamic-nan", "sum-infinite"],
)
def test_power_whose_watts_overflow_exits_1_naming_the_island(
    tmp_path, capsys, cell, vdd, activity, fclk_mhz, message
):
    netlist_path, intent_path, activity_path = tmp_path / "big.net", tmp_path / "big.intent", tmp_path / "big.act"
    netlist_path.write_text(f"cell c0 kind=std island=a {cell}\nnet n0 driver=c0.z loads=c0.a\n")
    intent_path.write_text(f"island a vdd={vdd}\n")
    activity_path.write_text(f"net n0 {activity}\n")
    argv = [
        "power", "--netlist", str(netlist_path), "--intent", str(intent_path), "--activity", str(activity_path),
        "--fclk-mhz", fclk_mhz, "--format", "csv",
    ]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pwr: error: island 'a': {message}\n")


def test_power_at_a_clock_whose_cycle_count_underflows_caps_the_activity(workspace, capsys):
    assert parse_activity("net n toggles=3 duration_ns=1\nnet m toggles=0 duration_ns=1\n", 5e-324) == {
        "n": SA_MAX, "m": 0.0,
    }
    argv = [
        "power", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--activity", workspace["activity"], "--fclk-mhz", "5e-324", "--format", "json",
    ]
    assert run_cli(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


@pytest.mark.parametrize(
    "options, island, baseline",
    [
        (["--pin", "cpu=0.9", "--pin", "mem=0.9", "--pin", "usb=1.2", "--baseline-v", "1e-300"], "cpu", "1e-300"),
        (["--pin", "usb=1.7e308", "--baseline-v", "0.8"], "usb", "0.8"),
    ],
    ids=["square-raises", "ratio-infinite"],
)
def test_optimize_whose_savings_overflow_exits_1_naming_the_island(workspace, capsys, options, island, baseline):
    argv = [
        "optimize", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--char", workspace["char"], "--freq-mhz", "150", *options, "--format", "csv",
    ]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    message = f"pwr: error: island '{island}': savings against the {baseline} V baseline are not finite\n"
    assert (captured.out, captured.err) == ("", message)


def test_sleep_sim_vcd_rounds_in_the_finest_unit_that_holds_every_time(workspace, capsys):
    script, vcd = workspace["dir"] / "far.script", workspace["dir"] / "far.vcd"
    script.write_text("at 0.5 write_sleep\nat 1e308 write_sleep\nat 1.7e308 read_status\n")
    assert run_cli(["sleep-sim", "--script", str(script), "--vcd", str(vcd)]) == 0
    lines = vcd.read_text().splitlines()
    # 100ps would need 1e309 units: every time is rounded to whole ns
    assert lines[0] == "$timescale 1ns $end"
    assert [line for line in lines if line.startswith("#")] == ["#20", "#40", "#60", f"#{int(1e308)}"]


# An integer past the float range: 401 digits.
_HUGE_INT = "1" * 401


@pytest.mark.parametrize("command", ["check", "power"])
def test_a_gate_count_past_the_float_range_fails_every_command_at_its_line(workspace, capsys, command):
    netlist = workspace["dir"] / "huge.net"
    netlist.write_text(THREE_ISLAND_NETLIST.replace("gates=9000", f"gates={_HUGE_INT}"))
    argv = [command, "--netlist", str(netlist), "--intent", workspace["intent"]]
    if command == "power":
        argv += ["--activity", workspace["activity"], "--fclk-mhz", "150"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    message = "pwr: error: netlist line 3: cell usb0: gates must be >= 1 and fit a float\n"
    assert (captured.out, captured.err) == ("", message)


def test_gate_counts_that_add_up_past_the_float_range_fail_at_the_cell_that_overflows(workspace, capsys, monkeypatch):
    netlist = workspace["dir"] / "huge.net"
    big = f"gates={10**308}"
    huge = THREE_ISLAND_NETLIST.replace("gates=9000", big).replace("gates=30000", big)
    netlist.write_text(huge + f"cell usb1 kind=std island=usb {big}\nnet u1 driver=usb1.z loads=cpu0.c\n")
    argv = ["power", "--netlist", str(netlist), "--intent", workspace["intent"],
            "--activity", workspace["activity"], "--fclk-mhz", "150"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    overflow = "cell usb1: gates of island 'usb' add up to more than a float holds"
    assert (captured.out, captured.err) == ("", f"pwr: error: netlist line 8: {overflow}\n")
    # The overflowing cell before and after other cell faults: the parse names
    # the first line, and validate_design lists the overflow after every
    # other cell fault (the values of the two-loop walk this replaced).
    after = f"cell usb1 kind=std island=usb {big}\ncell none kind=std island=usb gates=0\nnet u1 driver=usb1.z loads=cpu0.c\n"
    for before, message, rules in [
        ("", f"netlist line 8: {overflow}", ["cell none: gates must be >= 1 and fit a float", overflow]),
        ("cell ghost kind=std island=nowhere\n", "netlist line 8: cell ghost: unknown island 'nowhere'",
         ["cell ghost: unknown island 'nowhere'", "cell none: gates must be >= 1 and fit a float", overflow]),
    ]:
        with pytest.raises(ParseError) as info:
            parse_design(huge + before + after, THREE_ISLAND_INTENT)
        assert str(info.value) == message
        with monkeypatch.context() as m:
            m.setattr("pwr.netlist._design_faults", lambda design: iter(()))
            design = parse_design(huge + before + after, THREE_ISLAND_INTENT)
        assert [str(v) for v in validate_design(design)] == rules


@pytest.mark.parametrize(
    "activity, message",
    [
        (f"net cpu2usb toggles={_HUGE_INT} duration_ns=1000\n",
         "activity line 1: toggles must fit a float"),
        (f"net cpu2usb toggles={10**308} duration_ns=1000\n"
         f"# again\nnet cpu2usb toggles={10**308} duration_ns=1\n",
         "activity line 3: toggles of net 'cpu2usb' add up to more than a float holds"),
    ],
    ids=["one-line", "repeated-lines"],
)
def test_a_toggle_count_past_the_float_range_fails_at_its_line(workspace, capsys, activity, message):
    (workspace["dir"] / "soc.act").write_text(activity)
    argv = ["power", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
            "--activity", workspace["activity"], "--fclk-mhz", "150"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pwr: error: {message}\n")


# numbers at the ends of the float range, an integer too long for a float
# to hold exactly and one past the float range
_EDGES = ("0", "5e-324", "1e-300", "1e308", "1.7e308", "123456789012345678901234567890", _HUGE_INT)
# the ordinary value of each number the property varies, by the command that reads it
_ORDINARY = {
    "design": {"vdd_cpu": "1.2", "vdd_mem": "0.8", "vdd_logic": "1.2", "cap_ff": "300", "gates": "21600"},
    "power": {"toggles": "30", "duration_ns": "1000", "fclk_mhz": "150", "k": "1", "temp_c": "25",
              "i0_per_gate_25c": "5e-7", "temp_doubling_c": "10", "manager_overhead_w": "4e-6"},
    "optimize": {"vdd": "1.0", "fmax_mhz": "260", "area_um2": "560", "cap_factor": "1.2",
                 "baseline_area_um2": "1000", "freq_mhz": "250", "baseline_v": "1.2", "pin": "1.2"},
    "sleep-sim": {"at_1": "0.5", "at_2": "100", "at_3": "200", "t_iso_on": "20", "t_save": "20"},
}
# the numbers given as command-line options; every other one sits in an input file
_OPTIONS = {"fclk_mhz", "k", "temp_c", "freq_mhz", "baseline_v", "pin"}
# Exit-1 faults in a file that name their subject rather than a line: a
# --config value checked by its model names its key, the script's order
# check names the time, and a result that is not finite names its island.
_SUBJECT_NAMED = re.compile(
    r"pwr: error: ((i0_per_gate_25c|temp_doubling_c|manager_overhead_w|t_iso_on|t_save) must be"
    r"|script times must be non-decreasing|island '\w+': [^\n]* not finite)"
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_numeric_edges_end_in_a_finite_answer_or_one_error_line(tmp_path_factory, data):
    """A few numbers at a time take an edge value, the rest their ordinary
    one, so that most runs get past the first check that rejects an edge."""
    work = tmp_path_factory.mktemp("edges")

    def put(name, text):
        (work / name).write_text(text)
        return str(work / name)

    command = data.draw(st.sampled_from(("check", "fix", "power", "optimize", "sleep-sim")))
    fmt = data.draw(st.sampled_from(("text", "json", "csv")))
    v = _ORDINARY.get(command, {}) | (_ORDINARY["design"] if command != "sleep-sim" else {})
    edges = data.draw(st.dictionaries(st.sampled_from(sorted(v)), st.sampled_from(_EDGES), max_size=3))
    v |= edges
    if command == "sleep-sim":
        script = f"at {v['at_1']} write_sleep\nat {v['at_2']} write_sleep\nat {v['at_3']} read_status\n"
        argv = ["sleep-sim", "--script", put("sim.script", script),
                "--config", put("pim.cfg", f"t_iso_on={v['t_iso_on']} t_save={v['t_save']}\n"),
                "--vcd", str(work / "sim.vcd")]
    else:
        netlist = GATED_NETLIST.replace("cap_ff=300.0 gates=21600", f"cap_ff={v['cap_ff']} gates={v['gates']}", 1)
        intent = (f"island cpu vdd={v['vdd_cpu']}\nisland mem vdd={v['vdd_mem']}\n"
                  f"island logic vdd={v['vdd_logic']} switchable=1\n")
        argv = [command, "--netlist", put("soc.net", netlist), "--intent", put("soc.intent", intent)]
        argv += ["--out", str(work / "fixed.net")] if command == "fix" else []
        argv += ["--format", fmt] if command in ("power", "optimize") else []
    if command == "power":
        activity = f"net l2c toggles={v['toggles']} duration_ns={v['duration_ns']}\n"
        config = "".join(f"{key}={v[key]}\n" for key in ("i0_per_gate_25c", "temp_doubling_c", "manager_overhead_w"))
        argv += ["--activity", put("soc.act", activity), "--fclk-mhz", v["fclk_mhz"], "--k", v["k"],
                 "--temp-c", v["temp_c"], "--config", put("leak.cfg", config)]
        argv += ["--sleep", "logic"] * data.draw(st.booleans())
    elif command == "optimize":
        baseline = f"vdd=1.2 fmax_mhz=300 area_um2={v['baseline_area_um2']} cap_factor=1"
        char = "".join(f"op {c} {baseline}\n" for c in ("cpu", "mem", "logic"))
        point = " ".join(f"{key}={v[key]}" for key in ("vdd", "fmax_mhz", "area_um2", "cap_factor"))
        char += f"op logic {point}\n"
        argv += ["--char", put("soc.char", char), "--freq-mhz", v["freq_mhz"], "--baseline-v", v["baseline_v"]]
        argv += ["--pin", f"logic={v['pin']}"] * data.draw(st.booleans())

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert re.fullmatch(r"pwr: error: [^\n]+\n", err.getvalue())
        if edges and not edges.keys() & _OPTIONS and not _SUBJECT_NAMED.match(err.getvalue()):
            assert re.search(r" line \d+: ", err.getvalue()), (edges, err.getvalue())
    elif code == 0 and command in ("power", "optimize") and fmt == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    elif code == 0 and command in ("power", "optimize") and fmt == "csv":
        for row in csv.reader(io.StringIO(out.getvalue())):
            for cell in row:
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), row


@pytest.mark.parametrize(
    "config_text, message",
    [("bias_v=5\n", "bias_v must be <= 0"), ("t_save=-1\n", "t_save must be finite and >= 0, got -1.0")],
    ids=["leakage-key", "pim-key"],
)
@pytest.mark.parametrize("command", ["power", "sleep-sim"])
def test_a_bad_config_value_fails_every_command_that_reads_the_file(workspace, capsys, config_text, message, command):
    config = workspace["dir"] / "bad.cfg"
    config.write_text(config_text)
    inputs = {
        "power": ["--netlist", workspace["netlist"], "--intent", workspace["intent"],
                  "--activity", workspace["activity"], "--fclk-mhz", "150"],
        "sleep-sim": ["--script", workspace["script"]],
    }
    assert run_cli([command, *inputs[command], "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pwr: error: {message}\n")


def test_config_errors_exit_1_with_their_line(workspace, capsys):
    config = workspace["dir"] / "pim.cfg"
    config.write_text("t_save=10\n\nt_save=20\n")
    assert run_cli(["sleep-sim", "--script", workspace["script"], "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "pwr: error: config line 3: duplicate attribute 't_save'\n")


def test_parse_error_exits_1(workspace, capsys):
    bad = workspace["dir"] / "bad.net"
    bad.write_text("cell a kind=std island=nowhere\n")
    assert run_cli(["check", "--netlist", str(bad), "--intent", workspace["intent"]]) == 1
    assert "unknown island" in capsys.readouterr().err


# Each reader's file, as the command that reads it names it, and a line
# that may repeat in that file.
_READER_RUNS = {
    "netlist": (["check", "--netlist", "{bad}", "--intent", "{intent}"], "cell pad{i} kind=std island=cpu\n"),
    "intent": (["check", "--netlist", "{netlist}", "--intent", "{bad}"], "island pad{i} vdd=1.0\n"),
    "activity": (
        ["power", "--netlist", "{netlist}", "--intent", "{intent}", "--activity", "{bad}", "--fclk-mhz", "150"],
        "net cpu2usb toggles=1 duration_ns=10\n",
    ),
    "char": (
        ["optimize", "--netlist", "{netlist}", "--intent", "{intent}", "--char", "{bad}", "--freq-mhz", "150"],
        "# op cpu vdd=1.2 fmax_mhz=155 area_um2=141429 cap_factor=1.0\n",
    ),
    "script": (["sleep-sim", "--script", "{bad}"], "at {i} read_status\n"),
    "config": (["sleep-sim", "--script", "{script}", "--config", "{bad}"], "# t_save=20\n"),
}


@pytest.mark.parametrize("reader", sorted(_READER_RUNS))
def test_a_file_that_stops_being_utf8_exits_1_with_one_error_line(workspace, capsys, reader):
    """Line 15,001 is not UTF-8: the reader meets it blocks into the file,
    after many lines it has already taken, and the error counts its byte
    from the start of the file."""
    argv, line = _READER_RUNS[reader]
    good = "".join(line.format(i=i) for i in range(15_000)).encode("utf-8")
    bad = workspace["dir"] / "bad.txt"
    bad.write_bytes(good + b"\xff\n")
    assert run_cli([arg.format(bad=bad, **workspace) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"pwr: error: 'utf-8' codec can't decode byte 0xff in position {len(good)}: invalid start byte\n",
    )


def test_a_bad_intent_beside_a_bad_netlist_names_the_intent_it_read_first(workspace, capsys):
    """The intent is read first and fails; the netlist, never read past its
    first block, is not decoded whole to report its own byte instead."""
    bad_intent = workspace["dir"] / "bad.intent"
    bad_intent.write_bytes(THREE_ISLAND_INTENT.encode("utf-8") + b"\xfe\n")
    bad_netlist = workspace["dir"] / "bad.net"
    bad_netlist.write_bytes(b"\xff\n" + THREE_ISLAND_NETLIST.encode("utf-8"))
    assert run_cli(["check", "--netlist", str(bad_netlist), "--intent", str(bad_intent)]) == 1
    offset = len(THREE_ISLAND_INTENT.encode("utf-8"))
    assert capsys.readouterr().err == (
        f"pwr: error: 'utf-8' codec can't decode byte 0xfe in position {offset}: invalid start byte\n"
    )


def _pwr_from_a_pipe(argv: list[str], stdin: str) -> subprocess.CompletedProcess:
    """``python -m pwr.cli`` with ``stdin`` fed through a pipe; a surrogate
    escape such as ``\\udcff`` goes through as its one byte."""
    return subprocess.run([sys.executable, "-m", "pwr.cli", *argv], input=stdin, capture_output=True,
                          encoding="utf-8", errors="surrogateescape", env=_src_env(), timeout=60, check=False)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_a_netlist_piped_to_dev_stdin_reads_as_its_file(workspace, capsys):
    argv = ["check", "--netlist", workspace["gated_netlist"], "--intent", workspace["gated_intent"]]
    assert run_cli(argv) == 2
    good = capsys.readouterr().out
    piped = _pwr_from_a_pipe(["check", "--netlist", "/dev/stdin", "--intent", workspace["gated_intent"]], GATED_NETLIST)
    assert (piped.returncode, piped.stdout, piped.stderr) == (2, good, "")
    # a duplicate cell is a design fault, whose line needs a second read of the text
    faulty = GATED_NETLIST + "cell cpu0 kind=std island=cpu\n"
    piped = _pwr_from_a_pipe(["check", "--netlist", "/dev/stdin", "--intent", workspace["gated_intent"]], faulty)
    assert (piped.returncode, piped.stdout, piped.stderr) == (1, "", "pwr: error: netlist line 15: cell cpu0: duplicate name\n")
    # the intent, read whole before the netlist opens, reads from a pipe the same way
    piped = _pwr_from_a_pipe(["check", "--netlist", workspace["gated_netlist"], "--intent", "/dev/stdin"], GATED_INTENT)
    assert (piped.returncode, piped.stdout, piped.stderr) == (2, good, "")
    piped = _pwr_from_a_pipe(["check", "--netlist", workspace["gated_netlist"], "--intent", "/dev/stdin"],
                             GATED_INTENT + "island cpu vdd=1.0\n")
    assert (piped.returncode, piped.stdout, piped.stderr) == (1, "", "pwr: error: intent line 4: island cpu: duplicate name\n")
    # a byte that is not UTF-8, blocks into the pipe, counts from the start of the stream
    good = "".join(f"cell pad{i} kind=std island=cpu\n" for i in range(15_000))
    piped = _pwr_from_a_pipe(["check", "--netlist", "/dev/stdin", "--intent", workspace["gated_intent"]],
                             good + "\udcff\n")
    assert (piped.returncode, piped.stdout, piped.stderr) == (
        1, "", f"pwr: error: 'utf-8' codec can't decode byte 0xff in position {len(good)}: invalid start byte\n",
    )


def _traced_peak(argv: list[str]) -> int:
    """The ``tracemalloc`` peak of ``run_cli(argv)`` run in process."""
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert run_cli(argv) in (0, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_check_holds_neither_its_input_text_nor_a_container_per_fix_cell(tmp_path):
    """``check`` of a fixed 3,000-cell design (0.86 MB of netlist): holding
    the text through the parse and a list per fix cell and a tuple per filed
    net in the walk peaked at 5.5 MB; streaming the file and the leaner walk
    peak at 4.7 MB."""
    netlist_text, intent_text, _ = soc_texts(random.Random(1), 3000)
    fixed, _ = fix_design(parse_design(netlist_text, intent_text))
    (tmp_path / "fixed.net").write_text(serialize_design(fixed)[0])
    (tmp_path / "soc.intent").write_text(intent_text)
    del fixed
    peak = _traced_peak(["check", "--netlist", str(tmp_path / "fixed.net"), "--intent", str(tmp_path / "soc.intent")])
    assert peak <= 5.2e6, f"{peak / 1e6:.2f} MB"


def test_power_holds_no_input_text(tmp_path):
    """``power`` on a 3,000-cell design with eight activity windows per net
    (0.97 MB of activity): holding each text through its parse and a third
    activity table peaked at 3.3 to 3.5 MB; streaming the files peaks at
    2.2 MB."""
    netlist_text, intent_text, activity_text = soc_texts(random.Random(1), 3000, windows=8)
    for name, text in (("soc.net", netlist_text), ("soc.intent", intent_text), ("soc.act", activity_text)):
        (tmp_path / name).write_text(text)
    peak = _traced_peak(["power", "--netlist", str(tmp_path / "soc.net"), "--intent", str(tmp_path / "soc.intent"),
                         "--activity", str(tmp_path / "soc.act"), "--fclk-mhz", "150"])
    assert peak <= 2.8e6, f"{peak / 1e6:.2f} MB"


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    assert "check" in capsys.readouterr().out


def test_fix_is_idempotent_on_its_own_output(workspace, capsys):
    first = workspace["dir"] / "fixed1.net"
    second = workspace["dir"] / "fixed2.net"
    run_cli(["fix", "--netlist", workspace["netlist"], "--intent", workspace["intent"], "--out", str(first)])
    run_cli(["fix", "--netlist", str(first), "--intent", workspace["intent"], "--out", str(second)])
    assert "0 crossing fixes" in capsys.readouterr().out
    assert first.read_text() == second.read_text()


def test_fix_shifts_a_sleep_net_from_a_lower_supply_manager(tmp_path, capsys):
    """The manager at 0.8 V drives the sleep pins of a 1.2 V switchable island."""
    netlist, intent = tmp_path / "soc.net", tmp_path / "soc.intent"
    netlist.write_text(
        "cell pim0 kind=pim island=aon\ncell l0 kind=std island=l\ncell l1 kind=std island=l\n"
        "net n driver=l0.z loads=l1.a\n"
    )
    intent.write_text("island aon vdd=0.8\nisland l vdd=1.2 switchable=1\n")
    first, second = tmp_path / "fixed1.net", tmp_path / "fixed2.net"
    assert run_cli(["fix", "--netlist", str(netlist), "--intent", str(intent), "--out", str(first)]) == 0
    assert capsys.readouterr().out == f"wrote {first}: 0 crossing fixes, 2 sleep pins added, 1 sleep-net fixes\n"
    assert "cell ls_slpb_l kind=levelshifter island=l" in first.read_text()
    assert run_cli(["check", "--netlist", str(first), "--intent", str(intent)]) == 0
    assert run_cli(["fix", "--netlist", str(first), "--intent", str(intent), "--out", str(second)]) == 0
    assert "0 crossing fixes, 0 sleep pins added, 0 sleep-net fixes" in capsys.readouterr().out
    assert second.read_text() == first.read_text()


def test_fix_leaves_a_plain_net_named_like_a_sleep_net_alone(tmp_path, capsys):
    """``slpb_logic`` is the user's net from a plain cell: the manager drives
    the sleep pins on a net of the next free name, which a later ``fix``
    extends."""
    netlist, intent = tmp_path / "soc.net", tmp_path / "soc.intent"
    cells = ("cell pim0 kind=pim island=aon\ncell a kind=std island=aon\n"
             "cell b kind=std island=logic\ncell c kind=std island=logic\n")
    netlist.write_text(cells + "net slpb_logic driver=a.z loads=c.d\nnet n driver=b.z loads=c.a\n")
    intent.write_text("island aon vdd=1.2\nisland logic vdd=1.2 switchable=1\n")
    first, second = tmp_path / "fixed1.net", tmp_path / "fixed2.net"
    assert run_cli(["fix", "--netlist", str(netlist), "--intent", str(intent), "--out", str(first)]) == 0
    assert capsys.readouterr().out == f"wrote {first}: 0 crossing fixes, 2 sleep pins added, 0 sleep-net fixes\n"
    nets = [line for line in first.read_text().splitlines() if line.startswith("net ")]
    assert nets == [
        "net slpb_logic driver=a.z loads=c.d",
        "net n driver=b.z loads=c.a",
        "net slpb_logic_1 driver=pim0.slpb_logic loads=b.slpb,c.slpb",
    ]
    assert run_cli(["check", "--netlist", str(first), "--intent", str(intent)]) == 0
    assert run_cli(["fix", "--netlist", str(first), "--intent", str(intent), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    # a sleepable cell added later joins the manager's net, not a third one
    first.write_text(first.read_text() + "cell e kind=std island=logic\n")
    capsys.readouterr()
    assert run_cli(["fix", "--netlist", str(first), "--intent", str(intent), "--out", str(second)]) == 0
    assert capsys.readouterr().out == f"wrote {second}: 0 crossing fixes, 1 sleep pins added, 0 sleep-net fixes\n"
    nets = [line for line in second.read_text().splitlines() if line.startswith("net ")]
    assert nets[1:] == ["net n driver=b.z loads=c.a", "net slpb_logic_1 driver=pim0.slpb_logic loads=b.slpb,c.slpb,e.slpb"]


def test_fix_counts_the_pin_of_a_flagged_cell_it_hooks(tmp_path, capsys):
    netlist, intent = tmp_path / "soc.net", tmp_path / "soc.intent"
    netlist.write_text(
        "cell block kind=std island=logic sleep=1\ncell pim0 kind=pim island=aon\n"
        "net n driver=pim0.z loads=block.a\n"
    )
    intent.write_text("island aon vdd=1.2\nisland logic vdd=1.2 switchable=1\n")
    out = tmp_path / "fixed.net"
    assert run_cli(["fix", "--netlist", str(netlist), "--intent", str(intent), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: 0 crossing fixes, 1 sleep pins added, 0 sleep-net fixes\n"
    assert "net slpb_logic driver=pim0.slpb_logic loads=block.slpb" in out.read_text()


@pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["gated-soc", "random-1", "random-2", "random-3"])
def test_fix_writes_the_bytes_of_serialize_design(tmp_path, capsys, seed):
    """``pwr fix`` streams its output; a ``random_fixed_design`` is fixed again."""
    if seed is None:
        netlist_text, intent_text = GATED_NETLIST, GATED_INTENT
    else:
        netlist_text, intent_text = serialize_design(random_fixed_design(random.Random(seed)))
    netlist, intent, out = tmp_path / "in.net", tmp_path / "in.intent", tmp_path / "fixed.net"
    netlist.write_text(netlist_text)
    intent.write_text(intent_text)
    assert run_cli(["fix", "--netlist", str(netlist), "--intent", str(intent), "--out", str(out)]) == 0
    pinned = insert_sleep_pins(parse_design(netlist_text, intent_text))
    fixed = apply_power_fixes(pinned)
    assert out.read_bytes() == serialize_design(fixed)[0].encode("utf-8")


def _tally_case(rng: random.Random) -> Design:
    """A ``random_fixed_design``, sometimes with its manager demoted to a
    plain cell (so ports drive the sleep nets), and per switchable island
    sometimes a user port, cell or net named ``slpb_<island>``."""
    design = random_fixed_design(rng)
    cells, nets, ports = list(design.cells), list(design.nets), list(design.ports)
    if rng.random() < 0.3:
        cells = [CellInstance(c.name, CellKind.STD, c.island, c.cap_ff) if c.kind is CellKind.PIM else c
                 for c in cells]
    for island in design.islands:
        name = f"slpb_{island.name}"
        if not island.switchable or any(c.name == name for c in cells) or any(n.name == name for n in nets):
            continue
        choice = rng.randrange(5)
        if choice == 1:
            ports.append(Port(name, rng.choice(("in", "out")), rng.choice(VOLTAGES)))
        elif choice == 2:
            cells.append(CellInstance(name, CellKind.STD, rng.choice(design.islands).name))
        elif choice == 3:  # a user net of that name, maybe on an slpb pin already
            load = Endpoint(rng.choice(cells).name, rng.choice(("slpb", "a")))
            nets.append(Net(name, Endpoint(rng.choice(cells).name, "y"), (load,)))
    return Design(design.islands, tuple(cells), tuple(nets), tuple(ports))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_fix_tally_counts_what_the_library_adds(tmp_path_factory, seed):
    """N + K issues of the pinned design, K of them on the nets the pin step
    adds; M is the rise in ``slpb`` loads."""
    design = _tally_case(random.Random(seed))
    assert validate_design(design) == []
    netlist_text, intent_text = serialize_design(design)
    work = tmp_path_factory.mktemp("tally")
    netlist, intent, out = work / "in.net", work / "in.intent", work / "fixed.net"
    netlist.write_text(netlist_text)
    intent.write_text(intent_text)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli(["fix", "--netlist", str(netlist), "--intent", str(intent), "--out", str(out)]) == 0
    tally = re.fullmatch(
        r"wrote (.+): (\d+) crossing fixes, (\d+) sleep pins added, (\d+) sleep-net fixes\n", stdout.getvalue()
    )
    assert tally is not None and tally[1] == str(out)
    crossing_fixes, pins, sleep_fixes = map(int, tally.groups()[1:])
    assert (crossing_fixes, pins, sleep_fixes) == fix_design(design)[1]

    pinned = insert_sleep_pins(design)
    issues = analyze_crossings(pinned)
    added_nets = {n.name for n in pinned.nets} - {n.name for n in design.nets}
    assert sleep_fixes == sum(issue.net in added_nets for issue in issues)
    assert crossing_fixes + sleep_fixes == len(issues)
    slpb_loads = [sum(ep.pin == "slpb" for n in d.nets for ep in n.loads) for d in (design, pinned)]
    assert pins == slpb_loads[1] - slpb_loads[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_fix_design_is_pins_then_splices_and_a_fixed_point(seed, tally):
    design = (_tally_case if tally else random_fixed_design)(random.Random(seed))
    fixed, _ = fix_design(design)
    assert fixed == apply_power_fixes(insert_sleep_pins(design))
    assert verify_power_intent(fixed) == []
    again, counts = fix_design(fixed)
    assert again is fixed and counts == (0, 0, 0)


def test_subcommands_are_idempotent(workspace, capsys):
    args = [
        "power", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--activity", workspace["activity"], "--fclk-mhz", "150", "--format", "csv",
    ]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    assert capsys.readouterr().out == first


# -- one list per concept ----------------------------------------------------------


@pytest.mark.parametrize("module", ["netlist", "crossings", "power", "voltage", "pimsim", "report"])
def test_package_republishes_each_modules_all(module):
    source = importlib.import_module(f"pwr.{module}")
    assert source.__all__
    for name in source.__all__:
        assert getattr(pwr, name) is getattr(source, name), name
    assert pwr.__version__ == pwr.report.TOOL_VERSION


# the shared --netlist/--intent and --format options come first
_HELP_OPTIONS = {
    "check": ["--netlist", "--intent"],
    "fix": ["--netlist", "--intent", "--out"],
    "power": ["--netlist", "--intent", "--format", "--activity", "--fclk-mhz", "--k", "--temp-c", "--sleep", "--config"],
    "optimize": ["--netlist", "--intent", "--format", "--char", "--freq-mhz", "--pin", "--baseline-v"],
    "sleep-sim": ["--script", "--config", "--vcd"],
    "taxonomy": ["--format"],
}


@pytest.mark.parametrize("command", list(_HELP_OPTIONS))
def test_subcommand_help_lists_its_options_in_order(command, capsys):
    assert run_cli([command, "--help"]) == 0
    assert re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M) == _HELP_OPTIONS[command]


@pytest.mark.parametrize(
    "command, missing",
    [
        ("check", "--netlist, --intent"),
        ("fix", "--netlist, --intent, --out"),
        ("power", "--netlist, --intent, --activity, --fclk-mhz"),
        ("optimize", "--netlist, --intent, --char, --freq-mhz"),
    ],
)
def test_missing_arguments_are_named_in_declaration_order(command, missing, capsys):
    assert run_cli([command]) == 1
    assert capsys.readouterr().err == f"pwr: error: the following arguments are required: {missing}\n"


def test_savings_columns_are_the_row_fields(soc3, char_table):
    report = savings_to_report(_sample_savings(soc3, char_table))
    assert report.columns == (
        "island", "vdd_from", "vdd_to", "theoretical_pct", "actual_pct",
        "area_delta_pct", "levelshifters_added", "iso_added", "within_theoretical",
    )
    usb = report.rows[[row[0] for row in report.rows].index("usb")]
    assert usb[1:3] == (1.2, 1.2) and usb[-1] is True


# -- rejections, each with its exact message -----------------------------------------


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--freq-mhz", "fast", "argument --freq-mhz: bad number 'fast'"),
        ("--pin", "usb", "argument --pin: bad value 'usb' (want ISLAND=VOLTS)"),
        ("--pin", "usb=high", "argument --pin: bad number 'high'"),
        ("--pin", "mem=-1", "island mem: vdd must be positive and finite, got -1.0"),
        ("--pin", "mem=0", "island mem: vdd must be positive and finite, got 0.0"),
        ("--pin", "usb=1.0", "argument --pin: island 'usb' pinned twice"),
        ("--baseline-v", "0", "baseline_v must be positive and finite, got 0.0"),
    ],
    ids=[
        "freq-not-a-number", "pin-without-equals", "pin-not-a-number", "pin-negative", "pin-zero", "pin-twice",
        "baseline-zero",
    ],
)
def test_optimize_rejections_exit_1_with_their_exact_message(workspace, capsys, option, value, message):
    argv = [
        "optimize", "--netlist", workspace["netlist"], "--intent", workspace["intent"],
        "--char", workspace["char"], "--freq-mhz", "150", "--pin", "usb=1.2", option, value,
    ]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"pwr: error: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("t_save=10\nbias_v\n", "config line 2: expected key=value, got 'bias_v'"),
        ("bias_v =\n", "config line 1: expected key=value, got 'bias_v'"),
        ("# flags\nexplicit_bit=2\n", "config line 2: bad flag for explicit_bit: '2' (want 0 or 1)"),
        ("bias_v=low\n", "config line 1: bad bias_v 'low' (want a number)"),
        ("bias_v = -0.25\n", "config line 1: expected key=value, got 'bias_v'"),
        ("t_save=10\nbias_v=-0.2\nt_save=20\n", "config line 3: duplicate attribute 't_save'"),
        ("t_save=10 t_save=20\n", "config line 1: duplicate attribute 't_save'"),
    ],
    ids=["no-equals", "no-value", "bad-flag", "bad-number", "spaced-equals", "repeated-key", "repeated-on-a-line"],
)
def test_parse_config_rejections_give_their_exact_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_config(text)
    assert str(info.value) == message


_NONE_REPORT = Report("r", ("a", "b"), (("x", None), ("yy", 1.5)))


def test_none_cells_print_as_a_dash_in_text_and_empty_in_csv():
    assert emit_report(_NONE_REPORT, "text") == "# r (pwr 0.1.0)\na   b\nx   -\nyy  1.5\n"
    assert emit_report(_NONE_REPORT, "csv") == "a,b\nx,\nyy,1.5\n"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_emit_many_joins_text_and_csv_with_a_blank_line(fmt):
    other = Report("s", ("c",), ((True,),))
    assert emit_many([_NONE_REPORT, other], fmt) == emit_report(_NONE_REPORT, fmt) + "\n" + emit_report(other, fmt)
