import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwr.netlist import CharRow, CharTable, parse_characterization, parse_design
from pwr.power import DynamicPowerParams
from pwr.voltage import (
    InfeasibleError,
    SavingsReport,
    assign_voltages,
    power_savings_summary,
    select_min_voltage,
)

from conftest import CHAR_TEXT, THREE_ISLAND_INTENT, THREE_ISLAND_NETLIST

_TABLE = parse_characterization(CHAR_TEXT)


def test_select_150mhz_picks_lowest_voltage(char_table):
    point = select_min_voltage(char_table, "cpu", 150.0)
    assert point.vdd == 0.8
    assert point.fmax_mhz == 151
    assert point.area_um2 == 183551


def test_select_152mhz_steps_up_to_1v(char_table):
    assert select_min_voltage(char_table, "cpu", 152.0).vdd == 1.0


def test_select_160mhz_is_infeasible(char_table):
    with pytest.raises(InfeasibleError) as info:
        select_min_voltage(char_table, "cpu", 160.0)
    assert info.value.best_fmax_mhz == 155


def test_select_breaks_vdd_tie_by_area():
    table = CharTable((
        CharRow("x", 1.0, 200.0, 500.0, 1.0),
        CharRow("x", 1.0, 210.0, 400.0, 1.0),  # same vdd, smaller area wins
    ))
    assert select_min_voltage(table, "x", 100.0).area_um2 == 400.0


def test_select_unknown_class(char_table):
    with pytest.raises(ValueError, match="no characterization rows"):
        select_min_voltage(char_table, "gpu", 100.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_select_invariant_under_row_order(seed):
    rng = random.Random(seed)
    rows = list(_TABLE.rows)
    rng.shuffle(rows)
    shuffled = CharTable(tuple(rows))
    f_req = rng.choice((100.0, 150.0, 152.0, 155.0))
    assert select_min_voltage(shuffled, "cpu", f_req) == select_min_voltage(_TABLE, "cpu", f_req)


@settings(max_examples=100, deadline=None)
@given(f_lo=st.floats(1.0, 155.0), f_hi=st.floats(1.0, 155.0))
def test_lower_requirement_never_raises_voltage(f_lo, f_hi):
    if f_lo > f_hi:
        f_lo, f_hi = f_hi, f_lo
    assert select_min_voltage(_TABLE, "cpu", f_lo).vdd <= select_min_voltage(_TABLE, "cpu", f_hi).vdd


# -- assign_voltages -----------------------------------------------------------


def test_assign_three_island_plan(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    assert {name: p.vdd for name, p in plan.choices.items()} == {"usb": 1.2, "cpu": 0.8, "mem": 0.8}
    assert plan.retargeted.islands_by_name()["cpu"].vdd == 0.8
    assert plan.retargeted.islands_by_name()["usb"].vdd == 1.2


def test_assign_all_pinned_skips_table(soc3):
    plan = assign_voltages(soc3, CharTable(), {}, {"cpu": 0.9, "mem": 1.0, "usb": 1.2})
    assert {name: p.vdd for name, p in plan.choices.items()} == {"cpu": 0.9, "mem": 1.0, "usb": 1.2}


def test_assign_memory_at_its_published_speed(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 181.0}, {"usb": 1.2})
    assert plan.choices["mem"].vdd == 0.8


def test_assign_requires_req_or_pin(soc3, char_table):
    with pytest.raises(ValueError, match="neither a frequency requirement nor a pinned voltage"):
        assign_voltages(soc3, char_table, {"cpu": 150.0}, {"usb": 1.2})


def test_assign_propagates_infeasibility(soc3, char_table):
    with pytest.raises(InfeasibleError, match="cpu"):
        assign_voltages(soc3, char_table, {"cpu": 200.0, "mem": 150.0}, {"usb": 1.2})


def test_plan_points_are_table_rows(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    assert plan.choices["cpu"] is char_table.row("cpu", 0.8)
    assert plan.baseline_points["cpu"] is char_table.row("cpu", 1.2)
    # a pinned supply that no row covers has no fmax or area
    assert plan.choices["usb"] == CharRow("usb", 1.2, None, None, 1.0)
    assert plan.baseline_points["usb"] is None


def test_assign_never_alters_pinned(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    assert plan.choices["usb"].vdd == 1.2
    assert plan.retargeted.islands_by_name()["usb"].vdd == 1.2


# -- savings -------------------------------------------------------------------


def _uniform_activity(design, f_clk):
    return {n.name: 1.0 for n in design.nets}


def test_savings_calibrated_capacitance_points(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    report = power_savings_summary(1.2, plan, soc3, _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0))
    rows = {r.island: r for r in report.rows}
    # the 1.0575 capacitance factor turns the 55.5% bound into 53% achieved
    assert rows["cpu"].actual_pct == pytest.approx(53.0, abs=0.5)
    assert rows["cpu"].theoretical_pct == pytest.approx(55.5, abs=0.1)
    assert rows["cpu"].actual_pct < rows["cpu"].theoretical_pct
    assert rows["cpu"].area_delta_pct == pytest.approx(29.8, abs=0.05)
    assert rows["usb"].actual_pct == 0.0
    assert rows["usb"].area_delta_pct == 0.0


def test_savings_at_one_volt_point(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 152.0, "mem": 150.0}, {"usb": 1.2})
    report = power_savings_summary(1.2, plan, soc3, _uniform_activity(soc3, 152.0), DynamicPowerParams(152.0))
    row = {r.island: r for r in report.rows}["cpu"]
    assert row.vdd_to == 1.0
    assert row.actual_pct == pytest.approx(17.0, abs=0.5)
    assert row.theoretical_pct == pytest.approx(30.5, abs=0.1)
    assert row.actual_pct < row.theoretical_pct
    assert row.area_delta_pct == pytest.approx(17.0, abs=0.05)


def test_savings_identity_when_nothing_changes(soc3):
    table = parse_characterization(
        "op cpu vdd=1.2 fmax_mhz=200 area_um2=100 cap_factor=1.0\n"
        "op mem vdd=1.2 fmax_mhz=200 area_um2=100 cap_factor=1.0\n"
        "op usb vdd=1.2 fmax_mhz=200 area_um2=100 cap_factor=1.0\n"
    )
    plan = assign_voltages(soc3, table, {"cpu": 150.0, "mem": 150.0, "usb": 150.0}, {})
    report = power_savings_summary(1.2, plan, soc3, _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0))
    for row in report.rows:
        assert row.actual_pct == 0.0
        assert row.area_delta_pct == 0.0
    assert report.total_actual_pct == pytest.approx(0.0)


def test_savings_counts_shifters_on_retargeted_design(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    report = power_savings_summary(1.2, plan, soc3, _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0))
    rows = {r.island: r for r in report.rows}
    # retargeting cpu/mem to 0.8 V leaves one under-driven net into usb
    assert rows["usb"].levelshifters_added == 1
    assert rows["cpu"].levelshifters_added == 0
    assert sum(r.iso_added for r in report.rows) == 0


def test_savings_missing_baseline_row_errors(soc3):
    table = parse_characterization(
        "op cpu vdd=0.8 fmax_mhz=200 area_um2=100 cap_factor=1.0\n"
        "op mem vdd=0.8 fmax_mhz=200 area_um2=100 cap_factor=1.0\n"
        "op usb vdd=0.8 fmax_mhz=200 area_um2=100 cap_factor=1.0\n"
    )
    plan = assign_voltages(soc3, table, {"cpu": 150.0, "mem": 150.0, "usb": 150.0}, {})
    with pytest.raises(ValueError, match="missing baseline row"):
        power_savings_summary(1.2, plan, soc3, _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0))


def test_savings_rejects_a_baseline_other_than_the_plans(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    with pytest.raises(ValueError, match="baseline_v 1 V differs from the plan's 1.2 V"):
        power_savings_summary(1.0, plan, soc3, _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0))


def test_savings_rejects_a_design_other_than_the_plans(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    activity, params = _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0)
    other = parse_design(THREE_ISLAND_NETLIST.replace("cap_ff=400.0", "cap_ff=401.0"), THREE_ISLAND_INTENT)
    with pytest.raises(ValueError, match="design differs from the one the plan was built for"):
        power_savings_summary(1.2, plan, other, activity, params)
    # an equal design parsed again is the same design
    again = parse_design(THREE_ISLAND_NETLIST, THREE_ISLAND_INTENT)
    assert power_savings_summary(1.2, plan, again, activity, params) == power_savings_summary(
        1.2, plan, soc3, activity, params
    )


def test_savings_weighted_total(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    report = power_savings_summary(1.2, plan, soc3, _uniform_activity(soc3, 150.0), DynamicPowerParams(150.0))
    assert 0.0 < report.planned_dynamic_w < report.baseline_dynamic_w
    assert 0.0 < report.total_actual_pct < 55.5


@settings(max_examples=100, deadline=None)
@given(cap_factor=st.floats(1.0001, 2.0), ratio=st.floats(0.3, 0.999))
def test_actual_strictly_below_theoretical_when_capacitance_grows(cap_factor, ratio):
    theoretical = (1.0 - ratio**2) * 100.0
    actual = (1.0 - cap_factor * ratio**2) * 100.0
    assert actual < theoretical


# -- rejections, each with its exact message -----------------------------------------


@pytest.mark.parametrize(
    "f_req, pinned, baseline_v, message",
    [
        ({"cpu": 150.0, "mem": 150.0, "gpu": 150.0}, {"usb": 1.2}, 1.2, "unknown island 'gpu'"),
        ({"cpu": 150.0, "mem": 150.0}, {"gpu": 1.0}, 1.2, "unknown island 'gpu'"),
        ({"cpu": 150.0, "mem": 150.0}, {"usb": 0.0}, 1.2, "island usb: vdd must be positive and finite, got 0.0"),
        ({"cpu": 150.0, "mem": 150.0}, {"usb": -1.0}, 1.2, "island usb: vdd must be positive and finite, got -1.0"),
        ({"cpu": 150.0, "mem": 150.0}, {"usb": math.nan}, 1.2, "island usb: vdd must be positive and finite, got nan"),
        ({"cpu": 150.0, "mem": 150.0}, {"usb": 1.2}, 0.0, "baseline_v must be positive and finite, got 0.0"),
        ({"cpu": 150.0, "mem": 150.0}, {"usb": 1.2}, -1.2, "baseline_v must be positive and finite, got -1.2"),
        ({"cpu": 150.0, "mem": 150.0}, {"usb": 1.2}, math.nan, "baseline_v must be positive and finite, got nan"),
    ],
    ids=[
        "unknown-required", "unknown-pinned", "pin-zero", "pin-negative", "pin-nan",
        "baseline-zero", "baseline-negative", "baseline-nan",
    ],
)
def test_assign_voltages_rejections_give_their_exact_message(soc3, char_table, f_req, pinned, baseline_v, message):
    with pytest.raises(ValueError) as info:
        assign_voltages(soc3, char_table, f_req, pinned, baseline_v=baseline_v)
    assert str(info.value) == message


def test_plan_point_rejects_an_island_it_does_not_cover(soc3, char_table):
    plan = assign_voltages(soc3, char_table, {"cpu": 150.0, "mem": 150.0}, {"usb": 1.2})
    with pytest.raises(ValueError) as info:
        plan.point("gpu")
    assert str(info.value) == "plan does not cover island 'gpu'"


def test_total_actual_pct_is_zero_without_baseline_power():
    assert SavingsReport((), 0.0, 0.0).total_actual_pct == 0.0
    assert SavingsReport((), 2.0, 1.0).total_actual_pct == 50.0
