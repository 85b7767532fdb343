import csv
import importlib
import io
import json
import random
import re

import pytest

import pwr

from conftest import (
    ACTIVITY_TEXT,
    CHAR_TEXT,
    GATED_INTENT,
    GATED_NETLIST,
    THREE_ISLAND_INTENT,
    THREE_ISLAND_NETLIST,
)
from helpers import random_fixed_design
from pwr.cli import parse_config, run_cli
from pwr.crossings import analyze_crossings, apply_power_fixes, insert_sleep_pins
from pwr.netlist import (
    CellInstance,
    CellKind,
    Design,
    Island,
    ParseError,
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
    fixed = apply_power_fixes(pinned, analyze_crossings(pinned))
    assert out.read_bytes() == serialize_design(fixed)[0].encode("utf-8")


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
        ("--pin", "usb=-1", "island usb: vdd must be positive and finite, got -1.0"),
        ("--pin", "usb=0", "island usb: vdd must be positive and finite, got 0.0"),
        ("--baseline-v", "0", "baseline_v must be positive and finite, got 0.0"),
    ],
    ids=["freq-not-a-number", "pin-without-equals", "pin-not-a-number", "pin-negative", "pin-zero", "baseline-zero"],
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
