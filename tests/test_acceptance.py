"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import random

import pytest

from conftest import CHAR_TEXT, THREE_ISLAND_INTENT, THREE_ISLAND_NETLIST
from helpers import check_trace_safety, random_design, random_script
from pwr.crossings import IssueKind, analyze_crossings, apply_power_fixes
from pwr.netlist import parse_characterization, parse_design, validate_design
from pwr.pimsim import PimConfig, pim_advance, pim_new, pim_run_script, pim_write_sleep
from pwr.power import (
    DEFAULT_CALIBRATION,
    LEAKAGE_MECHANISMS,
    DynamicPowerParams,
    LeakageModel,
    Severity,
    fit_subthreshold_slope,
    leakage_current_per_gate,
    static_power,
    theoretical_reduction,
)
from pwr.voltage import InfeasibleError, assign_voltages, power_savings_summary, select_min_voltage


def _report(criterion: int, summary: str) -> None:
    print(f"PASS criterion {criterion}: {summary}")


def test_criterion_1_theoretical_reduction():
    r10 = theoretical_reduction(1.2, 1.0) * 100.0
    r08 = theoretical_reduction(1.2, 0.8) * 100.0
    assert abs(r10 - 30.5) <= 0.1
    assert abs(r08 - 55.5) <= 0.1
    _report(1, f"1.2->1.0 V saves {r10:.2f}% and 1.2->0.8 V saves {r08:.2f}% (bounds 30.5/55.5)")


def test_criterion_2_gate_bias_leakage_model():
    current = leakage_current_per_gate(-0.3, 25.0, LeakageModel())
    expected = 0.5e-6 / 260.0
    assert abs(current - expected) / expected <= 0.05
    slope = fit_subthreshold_slope([(0.0, 0.5e-6), (-0.3, 0.5e-6 / 260.0)])
    assert abs(slope - 124.2) <= 0.1
    assert slope == pytest.approx(300.0 / math.log10(260.0), abs=1e-9)
    _report(2, f"-0.3 V bias leaks {current * 1e9:.3f} nA (260x down), fitted slope {slope:.1f} mV/dec")


def test_criterion_3_static_power_scenario():
    design = parse_design(
        "cell block kind=std island=logic cap_ff=0.0 gates=108000 sleep=1\n"
        "cell pim0 kind=pim island=aon cap_ff=0.0 gates=1\n"
        "net n driver=pim0.z loads=block.a\n",
        "island aon vdd=1.2\nisland logic vdd=1.2 switchable=1 retention=1\n",
    )
    # 1.926 nW per gate at 1.2 V, back-computed from the 208 uW typical figure
    model = LeakageModel(i0_per_gate_25c=1.926e-9 / 1.2)

    awake = static_power(design, sleeping=(), temp_c=25.0, model=model)
    awake_w = next(r for r in awake.islands if r.island == "logic").static_active_w
    assert abs(awake_w - 208e-6) / 208e-6 <= 0.005

    asleep = static_power(design, sleeping={"logic"}, temp_c=25.0, model=model)
    sleep_w = asleep.total_static_sleep_w
    assert abs(sleep_w - 4.9e-6) / 4.9e-6 <= 0.02

    reduction = (1.0 - sleep_w / awake_w) * 100.0
    assert abs(reduction - 97.6) <= 0.2
    _report(3, f"awake {awake_w * 1e6:.1f} uW, asleep {sleep_w * 1e6:.2f} uW, saving {reduction:.2f}%")


def test_criterion_4_calibration_lookups():
    expected = {
        ("nand2", 25, "model"): 33.9,
        ("nand2", 25, "silicon"): 78.6,
        ("nand2", 125, "model"): 197.0,
        ("nand2", 125, "silicon"): 326.0,
        ("sram", 125, "model"): 8.1,
        ("sram", 125, "silicon"): 10.0,
    }
    for key, factor in expected.items():
        assert DEFAULT_CALIBRATION.factor(*key) == factor
    reduced = 719e-6 / DEFAULT_CALIBRATION.factor("sram", 125, "silicon")
    assert abs(reduced - 71.5e-6) / 71.5e-6 <= 0.01
    _report(4, "all six factors exact; 719 uA / 10.0 = 71.9 uA, within 1% of 71.5 uA")


def test_criterion_5_operating_point_selection():
    table = parse_characterization(CHAR_TEXT)
    assert select_min_voltage(table, "cpu", 150.0).vdd == 0.8
    assert select_min_voltage(table, "cpu", 152.0).vdd == 1.0
    with pytest.raises(InfeasibleError) as info:
        select_min_voltage(table, "cpu", 160.0)
    assert info.value.best_fmax_mhz == 155

    area = {r.vdd: r.area_um2 for r in table.rows_for("cpu")}
    delta_1v0 = (area[1.0] / area[1.2] - 1.0) * 100.0
    delta_0v8 = (area[0.8] / area[1.2] - 1.0) * 100.0
    # Computed from the raw characterized areas.  The overheads for this
    # dataset are quoted elsewhere as +10%/+31%; the tool reports the raw
    # ratios and leaves that discrepancy visible rather than resolved.
    assert abs(delta_1v0 - 17.0) <= 0.05
    assert abs(delta_0v8 - 29.8) <= 0.05
    _report(5, f"150->0.8 V, 152->1.0 V, 160 infeasible (best 155); areas +{delta_1v0:.1f}%/+{delta_0v8:.1f}%")


def test_criterion_6_savings_pipeline():
    design = parse_design(THREE_ISLAND_NETLIST, THREE_ISLAND_INTENT)
    table = parse_characterization(CHAR_TEXT)
    activity = {n.name: 1.0 for n in design.nets}

    low = assign_voltages(design, table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    rows = {r.island: r for r in power_savings_summary(
        1.2, low, design, activity, DynamicPowerParams(150.0)).rows}
    assert abs(rows["cpu"].actual_pct - 53.0) <= 0.5
    assert rows["cpu"].actual_pct < rows["cpu"].theoretical_pct

    mid = assign_voltages(design, table, {"cpu": 152.0, "mem": 150.0}, {"usb": 1.2})
    rows_mid = {r.island: r for r in power_savings_summary(
        1.2, mid, design, activity, DynamicPowerParams(152.0)).rows}
    assert abs(rows_mid["cpu"].actual_pct - 17.0) <= 0.5
    assert rows_mid["cpu"].actual_pct < rows_mid["cpu"].theoretical_pct
    _report(6, f"cap factors 1.1952/1.0575 give {rows_mid['cpu'].actual_pct:.2f}% and "
               f"{rows['cpu'].actual_pct:.2f}% actual savings, both below theoretical")


def test_criterion_7_crossing_analyzer():
    design = parse_design(THREE_ISLAND_NETLIST, THREE_ISLAND_INTENT)
    issues = analyze_crossings(design)
    assert len(issues) == 1
    assert issues[0].net == "cpu2usb" and issues[0].kind is IssueKind.NEEDS_LEVEL_SHIFTER
    assert {"cpu2mem", "mem2cpu", "usb2cpu"}.isdisjoint({i.net for i in issues})
    assert analyze_crossings(apply_power_fixes(design, issues)) == []

    rng = random.Random(20260810)
    for _ in range(1000):
        candidate = random_design(rng)
        assert validate_design(candidate) == []
        vdd = {i.name: i.vdd for i in candidate.islands}
        found = analyze_crossings(candidate)
        for issue in found:
            if issue.kind is IssueKind.NEEDS_LEVEL_SHIFTER:
                assert vdd[issue.driver_island] < vdd[issue.receiver_island]
        fixed = apply_power_fixes(candidate, found)
        assert analyze_crossings(fixed) == []
        assert validate_design(fixed) == []
    _report(7, "sample SoC needs exactly one shifter; 1000 random designs fix-then-check clean")


def test_criterion_8_pim_simulator():
    config = PimConfig()
    asleep, entry_events = pim_advance(pim_write_sleep(pim_new(config)), 1000.0)
    assert entry_events[-1][0] == 60.0 and asleep.fsm.value == "sleep"
    awake, exit_events = pim_advance(pim_write_sleep(asleep), 1000.0)
    assert exit_events[-1][0] - asleep.now == 60.0 and awake.fsm.value == "active"
    assert config.entry_ns == config.exit_ns == 60.0

    rng = random.Random(20260810)
    sample_traces = []
    for i in range(10_000):
        script = random_script(rng)
        trace = pim_run_script(config, script)
        check_trace_safety(trace)
        if i < 50:
            sample_traces.append((script, trace.to_text()))
    for script, text in sample_traces:
        assert pim_run_script(config, script).to_text() == text
    _report(8, "entry/exit both 60 ns; 10000 random scripts safe; traces byte-identical on replay")


def test_criterion_9_taxonomy_grid():
    grid = {
        m.id: (m.name, m.severity(180), m.severity(130), m.severity(90))
        for m in LEAKAGE_MECHANISMS
    }
    assert grid == {
        "I1": ("reverse bias junction", Severity.MINOR, Severity.MINOR, Severity.MINOR),
        "I2": ("sub-threshold", Severity.MINOR, Severity.MAJOR, Severity.MAJOR_PLUS),
        "I3": ("gate oxide tunneling", Severity.MINOR, Severity.RELEVANT, Severity.SIGNIFICANT),
        "I4": ("hot-carrier injection", Severity.MINOR, Severity.MINOR, Severity.MINOR),
        "I5": ("off state leakage", Severity.MINOR, Severity.MINOR, Severity.MINOR),
    }
    _report(9, "five-mechanism by three-node severity grid matches exactly")
