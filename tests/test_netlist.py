import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_design
from pwr.cli import parse_config
from pwr.netlist import (
    CellKind,
    Design,
    Island,
    ParseError,
    parse_activity,
    parse_characterization,
    parse_design,
    serialize_design,
    validate_design,
)
from pwr.power import parse_calibration


def test_parse_three_island_soc(soc3):
    assert {i.name: i.vdd for i in soc3.islands} == {"cpu": 0.8, "mem": 0.8, "usb": 1.2}
    assert len(soc3.cells) == 3
    assert len(soc3.nets) == 4
    assert validate_design(soc3) == []


def test_parse_empty_netlist_one_island():
    design = parse_design("", "island solo vdd=1.0 switchable=0 retention=0\n")
    assert len(design.islands) == 1
    assert design.cells == () and design.nets == ()


def test_unknown_island_reference_errors():
    with pytest.raises(ParseError, match="unknown island"):
        parse_design("cell a kind=std island=gpu cap_ff=1 gates=1\n", "island x vdd=1.2\n")


def test_duplicate_cell_name_errors():
    text = "cell a kind=std island=x\ncell a kind=std island=x\n"
    with pytest.raises(ParseError, match="duplicate cell 'a'"):
        parse_design(text, "island x vdd=1.2\n")


def test_retention_requires_switchable():
    with pytest.raises(ParseError, match="retention requires switchable"):
        parse_design("", "island x vdd=1.0 switchable=0 retention=1\n")


def test_second_pim_cell_errors():
    text = "cell p1 kind=pim island=x\ncell p2 kind=pim island=x\n"
    with pytest.raises(ParseError, match="multiple pim cells"):
        parse_design(text, "island x vdd=1.2\n")


def test_unresolved_driver_is_reported():
    from pwr.netlist import Endpoint, Net

    design = Design(
        islands=(Island("x", 1.2),),
        nets=(Net("n1", Endpoint("ghost", "z"), (Endpoint("ghost", "a"),)),),
    )
    errors = validate_design(design)
    assert any(str(e) == "net n1: unresolved driver" for e in errors)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_design("cell a kind=std island=x\nnet n driver=ghost.z loads=a.b\n", "island x vdd=1.2\n")
    assert info.value.line_no == 2
    assert "unresolved driver" in str(info.value)


def test_net_without_loads_needs_out_port():
    netlist = "cell a kind=std island=x\nport n dir=out vdd=1.2\nnet n driver=a.z\n"
    design = parse_design(netlist, "island x vdd=1.2\n")
    assert validate_design(design) == []
    with pytest.raises(ParseError, match="no loads"):
        parse_design("cell a kind=std island=x\nnet n driver=a.z\n", "island x vdd=1.2\n")


def test_port_driven_net_parses():
    netlist = "port clk dir=in vdd=1.2\ncell a kind=std island=x\nnet nclk driver=clk.p loads=a.ck\n"
    design = parse_design(netlist, "island x vdd=1.2\n")
    assert design.nets[0].driver.cell == "clk"


def test_roundtrip_three_island(soc3):
    netlist_text, intent_text = serialize_design(soc3)
    assert parse_design(netlist_text, intent_text) == soc3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_roundtrip_random_designs(seed):
    design = random_design(random.Random(seed))
    assert validate_design(design) == []
    netlist_text, intent_text = serialize_design(design)
    assert parse_design(netlist_text, intent_text) == design


def test_sleep_attribute_roundtrips():
    netlist = "cell a kind=std island=x cap_ff=1.0 gates=2 sleep=1\nnet n driver=a.z loads=a.b\n"
    design = parse_design(netlist, "island x vdd=1.0 switchable=1 retention=0\n")
    assert design.cells[0].has_sleep_pin
    text, intent = serialize_design(design)
    assert "sleep=1" in text
    assert parse_design(text, intent) == design


# -- activity ---------------------------------------------------------------


def test_activity_basic_arithmetic():
    profile = parse_activity("net a toggles=30 duration_ns=1000\n", 150.0)
    assert profile.sa("a") == pytest.approx(0.2)


def test_activity_zero_toggles_and_default():
    profile = parse_activity("net a toggles=0 duration_ns=1000\n", 150.0)
    assert profile.sa("a") == 0.0
    assert profile.sa("missing") == 0.0  # absent nets default to zero


def test_activity_clock_like_hits_cap_boundary():
    profile = parse_activity("net clk toggles=300 duration_ns=1000\n", 150.0)
    assert profile.sa("clk") == pytest.approx(2.0)


def test_activity_errors():
    with pytest.raises(ParseError, match="toggles must be >= 0"):
        parse_activity("net a toggles=-1 duration_ns=10\n", 100.0)
    with pytest.raises(ParseError, match="duration_ns must be positive"):
        parse_activity("net a toggles=1 duration_ns=0\n", 100.0)


def test_activity_unknown_net_with_design(soc3):
    with pytest.raises(ParseError, match="unknown net 'nope'"):
        parse_activity("net nope toggles=1 duration_ns=10\n", 100.0, design=soc3)


@settings(max_examples=200, deadline=None)
@given(
    toggles=st.integers(2, 10**6),
    duration=st.floats(1.0, 1e6),
    split=st.floats(0.1, 0.9),
    f_clk=st.floats(1.0, 2000.0),
)
def test_activity_invariant_under_window_split(toggles, duration, split, f_clk):
    whole = parse_activity(f"net a toggles={toggles} duration_ns={duration}\n", f_clk)
    t1 = min(max(int(toggles * split), 1), toggles - 1)
    d1 = duration * t1 / toggles
    two = parse_activity(
        f"net a toggles={t1} duration_ns={d1}\n"
        f"net a toggles={toggles - t1} duration_ns={duration - d1}\n",
        f_clk,
    )
    assert two.sa("a") == pytest.approx(whole.sa("a"), rel=1e-9)


# -- characterization ---------------------------------------------------------


def test_parse_characterization_rows():
    table = parse_characterization(
        "op cpu vdd=1.2 fmax_mhz=155 area_um2=141429 cap_factor=1.0\n"
        "op cpu vdd=1.0 fmax_mhz=155 area_um2=165424 cap_factor=1.1952\n"
        "op cpu vdd=0.8 fmax_mhz=151 area_um2=183551 cap_factor=1.0575\n"
    )
    assert len(table.rows) == 3
    assert [r.fmax_mhz for r in table.rows_for("cpu")] == [155, 155, 151]


def test_parse_characterization_empty():
    assert parse_characterization("").rows == ()


def test_parse_characterization_duplicate_key():
    text = (
        "op cpu vdd=1.0 fmax_mhz=155 area_um2=1 cap_factor=1\n"
        "op cpu vdd=1.0 fmax_mhz=151 area_um2=2 cap_factor=1\n"
    )
    with pytest.raises(ParseError, match="duplicate row"):
        parse_characterization(text)


def test_parse_characterization_rejects_nonpositive():
    with pytest.raises(ParseError, match="must be positive"):
        parse_characterization("op x vdd=1.0 fmax_mhz=0 area_um2=1 cap_factor=1\n")


# -- non-finite numbers ------------------------------------------------------------

_CELL = "cell a kind=std island=x\n"


@pytest.mark.parametrize(
    "parse, text",
    [
        (lambda t: parse_design("", t), "island y vdd=1.0\nisland x vdd=nan\n"),
        (lambda t: parse_design(t, "island x vdd=1.0\n"), _CELL + "cell b kind=std island=x cap_ff=inf\n"),
        (lambda t: parse_design(t, "island x vdd=1.0\n"), _CELL + "port p dir=in vdd=-inf\n"),
        (lambda t: parse_activity(t, 100.0), "net n toggles=1 duration_ns=10\nnet n toggles=1 duration_ns=inf\n"),
        (parse_characterization, "# ops\nop x vdd=nan fmax_mhz=inf area_um2=1 cap_factor=1\n"),
        (parse_calibration, "# calib\ncalib nand2 temp=25 source=silicon factor=inf\n"),
        (parse_config, "t_save=10\nbias_v=nan\n"),
    ],
    ids=["intent", "netlist-cell", "netlist-port", "activity", "characterization", "calib", "config"],
)
def test_non_finite_numbers_are_rejected_with_line(parse, text):
    with pytest.raises((ParseError, ValueError), match=r"line 2: \w+ must be finite"):
        parse(text)
