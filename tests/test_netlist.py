import gc
import math
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import THREE_ISLAND_INTENT, THREE_ISLAND_NETLIST
from helpers import random_design, random_fixed_design, reference_parse_activity, reference_parse_design
from pwr import netlist
from pwr.cli import parse_config
from pwr.crossings import analyze_crossings, apply_power_fixes, insert_sleep_pins
from pwr.netlist import (
    CellInstance,
    CellKind,
    Design,
    Endpoint,
    Island,
    Net,
    ParseError,
    Port,
    parse_activity,
    parse_characterization,
    _lines,
    _make_cell,
    _make_net,
    _token_lines,
    parse_design,
    serialize_design,
    validate_design,
)


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
    with pytest.raises(ParseError, match="cell a: duplicate name") as info:
        parse_design(text, "island x vdd=1.2\n")
    assert info.value.line_no == 2


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


_INTENT = "island x vdd=1.2\n"
_CELL = "cell a kind=std island=x\n"


@pytest.mark.parametrize(
    "netlist, intent, source, line_no",
    [
        ("", "island x vdd=1.2\nisland x vdd=1.0\n", "intent", 2),
        ("", "island x vdd=0\n", "intent", 1),
        ("", "island y vdd=1.0\nisland x vdd=1.0 retention=1\n", "intent", 2),
        (_CELL + "net n driver=a.z loads=a.b\n" + _CELL, _INTENT, "netlist", 3),
        (_CELL + "cell b kind=std island=gpu\n", _INTENT, "netlist", 2),
        ("cell a kind=std island=x cap_ff=-1\n", _INTENT, "netlist", 1),
        ("cell a kind=std island=x gates=0\n", _INTENT, "netlist", 1),
        ("cell p1 kind=pim island=x\n" + _CELL + "cell p2 kind=pim island=x\n", _INTENT, "netlist", 3),
        ("port p dir=in vdd=1.2\nport p dir=out vdd=1.2\n", _INTENT, "netlist", 2),
        ("port p dir=in vdd=-1.0\n", _INTENT, "netlist", 1),
        ("port p dir=in vdd=0\n", _INTENT, "netlist", 1),
        (_CELL + "net n driver=a.z loads=a.b\nnet n driver=a.z loads=a.c\n", _INTENT, "netlist", 3),
        (_CELL + "net n driver=ghost.z loads=a.b\n", _INTENT, "netlist", 2),
        (_CELL + "net n driver=a.z loads=a.b,ghost.c\n", _INTENT, "netlist", 2),
        (_CELL + "net n driver=a.z\n", _INTENT, "netlist", 2),
        (_CELL + "port p dir=sideways vdd=1.2\n", _INTENT, "netlist", 2),
        (_CELL + "port p dir=out vdd=1.2\nnet n driver=p.p loads=a.b\n", _INTENT, "netlist", 3),
        (_CELL + "port p dir=in vdd=1.2\nnet n driver=a.z loads=a.b,p.p\n", _INTENT, "netlist", 3),
        (_CELL + "port a dir=in vdd=1.2\n", _INTENT, "netlist", 2),
        (_CELL + "cell p kind=pim island=s\n", _INTENT + "island s vdd=1.0 switchable=1\n", "netlist", 2),
    ],
    ids=[
        "duplicate-island", "island-vdd", "retention", "duplicate-cell", "unknown-island", "cap_ff",
        "gates", "second-pim", "duplicate-port", "port-vdd-negative", "port-vdd-zero", "duplicate-net",
        "unresolved-driver", "unresolved-load", "no-loads", "port-direction", "out-port-driver",
        "in-port-load", "cell-port-clash", "pim-switchable",
    ],
)
def test_each_invariant_fails_parse_at_its_line_with_the_validate_rule(netlist, intent, source, line_no, monkeypatch):
    with pytest.raises(ParseError) as info:
        parse_design(netlist, intent)
    assert (info.value.source, info.value.line_no) == (source, line_no)
    with monkeypatch.context() as m:
        # the same text read into a Design with the invariant walk switched off
        m.setattr("pwr.netlist._design_faults", lambda design: iter(()))
        design = parse_design(netlist, intent)
    [error] = validate_design(design)
    assert info.value.message == str(error)


def test_parse_reports_intent_faults_first_then_the_lowest_line():
    netlist = "net n driver=ghost.z loads=a.b\n" + _CELL + "cell b kind=std island=gpu\n"
    with pytest.raises(ParseError) as info:
        parse_design(netlist, _INTENT)
    assert (info.value.source, info.value.line_no) == ("netlist", 1)
    with pytest.raises(ParseError) as info:
        parse_design(netlist, "island y vdd=1.0\nisland x vdd=-1.2\n")
    assert (info.value.source, info.value.line_no) == ("intent", 2)


def _pim_into_switchable(design: Design, rng: random.Random) -> Design:
    """Move the pim into a random island, made switchable."""
    islands = list(design.islands)
    at = rng.randrange(len(islands))
    islands[at] = replace(islands[at], switchable=True)
    cells = tuple(replace(c, island=islands[at].name) if c.kind is CellKind.PIM else c for c in design.cells)
    return replace(design, islands=tuple(islands), cells=cells)


def _change_one(design: Design, field: str, rng: random.Random, **changes) -> Design:
    items = list(getattr(design, field))
    at = rng.randrange(len(items))
    items[at] = replace(items[at], **changes)
    return replace(design, **{field: tuple(items)})


_DEFECTS = {
    "none": lambda d, r: d,
    "duplicate-island": lambda d, r: replace(d, islands=d.islands + (r.choice(d.islands),)),
    "island-vdd": lambda d, r: _change_one(d, "islands", r, vdd=r.choice((0.0, -0.8, math.nan))),
    "retention": lambda d, r: _change_one(d, "islands", r, switchable=False, retention=True),
    "duplicate-cell": lambda d, r: replace(d, cells=d.cells + (r.choice(d.cells),)),
    "unknown-island": lambda d, r: _change_one(d, "cells", r, island="nowhere"),
    "cap_ff": lambda d, r: _change_one(d, "cells", r, cap_ff=r.choice((-1.0, math.inf))),
    "gates": lambda d, r: _change_one(d, "cells", r, gate_count=r.choice((0, -3))),
    "second-pim": lambda d, r: replace(d, cells=d.cells + (CellInstance("pim1", CellKind.PIM, d.islands[0].name),)),
    "pim-switchable": _pim_into_switchable,
    "duplicate-port": lambda d, r: replace(d, ports=d.ports + (r.choice(d.ports),)),
    "cell-port-clash": lambda d, r: replace(d, ports=d.ports + (Port(r.choice(d.cells).name, "in", 1.0),)),
    "port-vdd": lambda d, r: _change_one(d, "ports", r, vdd=r.choice((0.0, -1.2))),
    "port-direction": lambda d, r: _change_one(d, "ports", r, direction=r.choice(("sideways", "inout"))),
    "duplicate-net": lambda d, r: replace(d, nets=d.nets + (r.choice(d.nets),)),
    "unresolved-driver": lambda d, r: _change_one(d, "nets", r, driver=Endpoint("ghost", "z")),
    "unresolved-load": lambda d, r: _change_one(d, "nets", r, loads=(Endpoint("ghost", "a"),)),
    "no-loads": lambda d, r: _change_one(d, "nets", r, loads=()),
}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(sorted(_DEFECTS)))
def test_parse_rejects_exactly_what_validate_rejects(seed, defect):
    rng = random.Random(seed)
    design = _DEFECTS[defect](random_fixed_design(rng), rng)
    try:
        parsed = parse_design(*serialize_design(design))
    except ParseError:
        assert validate_design(design) != []
    else:
        assert validate_design(design) == []
        assert parsed == design


def _set_attr(tokens: list[str], key: str, value: str) -> list[str]:
    """The tokens with ``key`` set to ``value``, appended after the rest."""
    kept = [t for t in tokens[2:] if not t.startswith(key + "=")]
    return tokens[:2] + kept + [f"{key}={value}"]


def _spaced(tokens: list[str], rng: random.Random) -> str:
    gaps = [rng.choice((" ", "\t", "   ", " \t ")) for _ in tokens[1:]]
    return rng.choice(("", " ", "\t")) + tokens[0] + "".join(gap + tok for gap, tok in zip(gaps, tokens[1:]))


def _with_load(tokens: list[str], rng: random.Random, item: str) -> list[str]:
    items = next(t for t in tokens if t.startswith("loads="))[len("loads="):].split(",")
    items.insert(rng.randint(0, len(items)), item)
    return _set_attr(tokens, "loads", ",".join(items))


def _without_required(tokens: list[str], rng: random.Random) -> list[str]:
    key = rng.choice({"cell": ("kind", "island"), "net": ("driver",), "port": ("dir", "vdd")}[tokens[0]])
    return [t for t in tokens if not t.startswith(key + "=")]


def _emptied(tokens: list[str], rng: random.Random) -> list[str]:
    return _set_attr(tokens, rng.choice(tokens[2:]).partition("=")[0], "")


def _shuffled(tokens: list[str], rng: random.Random) -> list[str]:
    attrs = tokens[2:]
    rng.shuffle(attrs)
    return tokens[:2] + attrs


def _inserted(tokens: list[str], rng: random.Random, token: str) -> list[str]:
    at = rng.randint(2, len(tokens))
    return tokens[:at] + [token] + tokens[at:]


# name -> (directives it applies to, whether the line stays valid, (tokens, rng) -> line)
_PERTURBATIONS = {
    "shuffled": (("cell", "net", "port"), True, lambda t, r: " ".join(_shuffled(t, r))),
    "comment": (("cell", "net", "port"), True, lambda t, r: " ".join(t) + r.choice(("#", " # x=1", "\t#  loads="))),
    "whitespace": (("cell", "net", "port"), True, _spaced),
    "empty-load-item": (("net",), True, lambda t, r: " ".join(_with_load(t, r, ""))),
    "no-equals": (("cell", "net", "port"), False, lambda t, r: " ".join(_inserted(t, r, "stray"))),
    "unknown-key": (("cell", "net", "port"), False, lambda t, r: " ".join(_inserted(t, r, "colour=red"))),
    "duplicate-key": (("cell", "net", "port"), False, lambda t, r: " ".join(_inserted(t, r, r.choice(t[2:])))),
    "cap_ff-nan": (("cell",), False, lambda t, r: " ".join(_set_attr(t, "cap_ff", "nan"))),
    "gates-float": (("cell",), False, lambda t, r: " ".join(_set_attr(t, "gates", "1.5"))),
    "sleep-2": (("cell",), False, lambda t, r: " ".join(_set_attr(t, "sleep", "2"))),
    "kind-bogus": (("cell",), False, lambda t, r: " ".join(_set_attr(t, "kind", "bogus"))),
    "driver-no-cell": (("net",), False, lambda t, r: " ".join(_set_attr(t, "driver", ".z"))),
    "empty-loads": (("net",), False, lambda t, r: " ".join(_set_attr(t, "loads", ""))),
    "required-key-dropped": (("cell", "net", "port"), False, lambda t, r: " ".join(_without_required(t, r))),
    "empty-value": (("cell", "net", "port"), False, lambda t, r: " ".join(_emptied(t, r))),
    "bad-load": (("net",), False, lambda t, r: " ".join(_with_load(t, r, r.choice(("c.", ".a", "ca", "."))))),
    "name-with-equals": (("cell", "net", "port"), False, lambda t, r: " ".join([t[0], t[1] + "=1", *t[2:]])),
}


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.sampled_from(sorted(_PERTURBATIONS)), min_size=1, max_size=3))
def test_direct_reader_matches_the_checked_reader(seed, perturbations):
    rng = random.Random(seed)
    design = random_fixed_design(rng)
    netlist_text, intent_text = serialize_design(design)
    lines = netlist_text.splitlines()
    for name in perturbations:
        directives, _, perturb = _PERTURBATIONS[name]
        directive = rng.choice(directives)  # ports are few: pick the kind of line first
        tokens = [line.split("#", 1)[0].split() for line in lines]
        at = rng.choice([i for i, t in enumerate(tokens) if t[0] == directive and len(t) > 2])
        lines[at] = perturb(tokens[at], rng)
    text = "\n".join(lines) + "\n"
    _same_outcome(text, intent_text)
    if all(_PERTURBATIONS[name][1] for name in perturbations):
        assert parse_design(text, intent_text) == design


def _same_outcome(netlist: str, intent: str) -> None:
    """``parse_design`` gives the reference's Design, or its ParseError."""
    try:
        expected = reference_parse_design(netlist, intent)
    except ParseError as error:
        with pytest.raises(ParseError) as info:
            parse_design(netlist, intent)
        assert (info.value.source, info.value.line_no, info.value.message) == (
            error.source, error.line_no, error.message)
    else:
        assert parse_design(netlist, intent) == expected


def test_direct_reader_matches_the_checked_reader_on_every_key():
    lines = ["cell a kind=std island=x cap_ff=1.5 gates=2 sleep=1", "net n driver=a.z loads=a.b,a.c",
             "port p dir=in vdd=1.2"]
    for at, line in enumerate(lines):
        for attr in line.split()[2:]:
            key = attr.partition("=")[0]
            for edited in (
                f"{line} {attr}",  # duplicate
                line.replace(attr, f"{key}="),
                line.replace(f" {attr}", ""),
                line.replace(attr, f"{key}=?"),
                line.replace(attr, key),
            ):
                _same_outcome("\n".join(lines[:at] + [edited] + lines[at + 1:]), "island x vdd=1.2 switchable=1\n")


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


def test_parsed_endpoints_are_not_gc_tracked():
    design = parse_design(*serialize_design(random_fixed_design(random.Random(7))))
    # and so are those of the nets that fix and the builder make
    pinned = insert_sleep_pins(design)
    fixed = apply_power_fixes(pinned, analyze_crossings(pinned))
    built = _make_net("n", tuple("a.z".split(".")), tuple(tuple(ep.split(".")) for ep in ("b.a", "c.a")))
    nets = design.nets + fixed.nets + (built,)
    gc.collect()
    for net in nets:
        assert type(net.raw_driver) is tuple and not gc.is_tracked(net.raw_driver)
        assert all(type(ep) is tuple and not gc.is_tracked(ep) for ep in net.raw_loads)
    # a tuple is untracked once a collection finds its items untracked
    gc.collect()
    assert not any(gc.is_tracked(net.raw_loads) for net in nets)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_net_keeps_the_dataclass_api(seed):
    design = random_fixed_design(random.Random(seed))
    parsed = parse_design(*serialize_design(design))
    assert [f.name for f in fields(Net)] == ["name", "driver", "loads"]
    for net, read in zip(design.nets, parsed.nets):
        loads = tuple(Endpoint(*ep) for ep in net.raw_loads)
        constructed = Net(net.name, Endpoint(*net.raw_driver), loads)
        built = _make_net(net.name, net.raw_driver, net.raw_loads)
        for record in (constructed, built, read):
            assert type(record.raw_driver) is tuple and all(type(ep) is tuple for ep in record.raw_loads)
            assert record == net and hash(record) == hash(net) and repr(record) == repr(net)
            assert record.loads == loads and all(type(ep) is Endpoint for ep in record.loads)
            assert type(record.driver) is Endpoint
            assert repr(record).startswith(f"Net(name='{net.name}', driver=Endpoint(")
            moved = replace(record, loads=loads[::-1])
            assert moved.loads == loads[::-1] and moved.raw_driver == net.raw_driver
            assert (moved == net) == (loads == loads[::-1])
            assert pickle.loads(pickle.dumps(record)) == record
            with pytest.raises(FrozenInstanceError):
                record.name = "renamed"
    assert pickle.loads(pickle.dumps(design)) == design
    assert parsed == design


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_cell_instance_keeps_the_dataclass_api(seed):
    design = random_fixed_design(random.Random(seed))
    parsed = parse_design(*serialize_design(design))
    names = ["name", "kind", "island", "cap_ff", "gate_count", "has_sleep_pin"]
    assert [f.name for f in fields(CellInstance)] == names
    for cell, read in zip(design.cells, parsed.cells):
        built = _make_cell(cell.name, cell.kind, cell.island, cell.cap_ff, cell.gate_count, cell.has_sleep_pin)
        for record in (built, read):
            assert record == cell and hash(record) == hash(cell) and repr(record) == repr(cell)
            assert [getattr(record, name) for name in names] == [getattr(cell, name) for name in names]
            assert replace(record, has_sleep_pin=True) == replace(cell, has_sleep_pin=True)
            assert pickle.loads(pickle.dumps(record)) == record
            with pytest.raises(FrozenInstanceError):
                record.island = "elsewhere"
    # the sleep-pin pass flags cells through the builder
    for cell in insert_sleep_pins(design).cells:
        assert cell == CellInstance(cell.name, cell.kind, cell.island, cell.cap_ff, cell.gate_count, cell.has_sleep_pin)
    assert pickle.loads(pickle.dumps(parsed)) == parsed


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
    assert profile.get("a", 0.0) == pytest.approx(0.2)


def test_activity_zero_toggles_and_default():
    profile = parse_activity("net a toggles=0 duration_ns=1000\n", 150.0)
    assert profile.get("a", 0.0) == 0.0
    assert profile.get("missing", 0.0) == 0.0  # absent nets default to zero


def test_activity_clock_like_hits_cap_boundary():
    profile = parse_activity("net clk toggles=300 duration_ns=1000\n", 150.0)
    assert profile.get("clk", 0.0) == pytest.approx(2.0)


def test_activity_errors():
    with pytest.raises(ParseError, match="toggles must be >= 0"):
        parse_activity("net a toggles=-1 duration_ns=10\n", 100.0)
    with pytest.raises(ParseError, match="duration_ns must be positive"):
        parse_activity("net a toggles=1 duration_ns=0\n", 100.0)


@pytest.mark.parametrize("f_clk_mhz", (math.nan, math.inf))
def test_activity_rejects_non_finite_clock(f_clk_mhz):
    with pytest.raises(ValueError, match="f_clk_mhz must be finite"):
        parse_activity("net a toggles=1 duration_ns=10\n", f_clk_mhz)


def test_activity_unknown_net_with_design(soc3):
    with pytest.raises(ParseError, match="unknown net 'nope'"):
        parse_activity("net nope toggles=1 duration_ns=10\n", 100.0, design=soc3)


# Line 1 is a valid line with a trailing comment and line 2 is blank, so
# each case's own line is line 3.
_ACTIVITY_HEAD = "net cpu2usb toggles=2 duration_ns=10  # toggles=x bogus\n\n"


@pytest.mark.parametrize("with_design", (False, True), ids=("plain", "design"))
@pytest.mark.parametrize(
    "line, message",
    [
        ("net cpu2usb toggles=1", "missing attribute 'duration_ns'"),
        ("net cpu2usb toggles=1 toggles=2 duration_ns=10", "duplicate attribute 'toggles'"),
        ("net cpu2usb toggles=1 duration_ns=10 glitches=3", "unknown attribute 'glitches'"),
        ("net cpu2usb toggles= duration_ns=10", "expected key=value, got 'toggles='"),
        ("net cpu2usb toggles=1.5 duration_ns=10", "bad toggles '1.5' (want an integer)"),
        ("net cpu2usb toggles=-1 duration_ns=10", "toggles must be >= 0, got '-1'"),
        ("net cpu2usb toggles=1 duration_ns=0", "duration_ns must be positive, got '0'"),
        ("net cpu2usb toggles=1 duration_ns=nan", "duration_ns must be finite, got 'nan'"),
        ("net cpu2usb toggles=1 duration_ns=inf", "duration_ns must be finite, got 'inf'"),
        ("net cpu=usb toggles=1 duration_ns=10", "'net' statement needs a name"),
        ("net", "'net' statement needs a name"),
        ("cell cpu2usb toggles=1 duration_ns=10", "unknown directive 'cell'"),
        ("net cpu2usb toggles=1 duration_ns=10 # note\nnet cpu2usb duration_ns=10", "missing attribute 'toggles'"),
    ],
    ids=[
        "missing", "duplicate", "unknown-attribute", "empty-value", "fractional-toggles", "negative-toggles",
        "zero-duration", "nan", "inf", "name-with-equals", "one-token", "directive", "after-trailing-comment",
    ],
)
def test_activity_rejections_give_their_exact_message_and_line(soc3, with_design, line, message):
    line_no = 3 + line.count("\n")
    with pytest.raises(ParseError) as info:
        parse_activity(_ACTIVITY_HEAD + line + "\n", 100.0, design=soc3 if with_design else None)
    assert (str(info.value), info.value.line_no) == (f"activity line {line_no}: {message}", line_no)


def test_activity_unknown_net_gives_its_exact_message_and_line(soc3):
    # the net is checked before its values
    with pytest.raises(ParseError) as info:
        parse_activity(_ACTIVITY_HEAD + "net nope toggles=1.5 duration_ns=0\n", 100.0, design=soc3)
    assert (str(info.value), info.value.line_no) == ("activity line 3: unknown net 'nope'", 3)


_SOC3 = parse_design(THREE_ISLAND_NETLIST, THREE_ISLAND_INTENT)
_ACTIVITY_VALUES = ("1", "0", "-1", "1.5", "nan", "inf", "1e400", "", "+3", "1_0")


@st.composite
def _mutated_activity_line(draw) -> str:
    """A ``net`` line with each value drawn from ``_ACTIVITY_VALUES``, maybe
    a key dropped, repeated or unknown, an ``=`` in the name, a trailing
    comment or a carriage return."""
    value = st.sampled_from(_ACTIVITY_VALUES)
    attrs = [f"toggles={draw(value)}", f"duration_ns={draw(value)}"]
    mutation = draw(st.sampled_from(("none", "drop", "repeat", "unknown")))
    if mutation == "drop":
        del attrs[draw(st.integers(0, 1))]
    elif mutation == "repeat":
        attrs.append(f"{draw(st.sampled_from(('toggles', 'duration_ns')))}={draw(value)}")
    elif mutation == "unknown":
        attrs.append("glitches=3")
    name = draw(st.sampled_from([n.name for n in _SOC3.nets] + ["nope", "cpu=usb"]))
    line = " ".join(["net", name, *draw(st.permutations(attrs))])
    return line + draw(st.sampled_from(("", "  # toggles=x", "\r", " \r")))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_mutated_activity_line(), st.sampled_from(("", "# note"))), max_size=6), st.booleans())
def test_activity_reader_matches_the_checked_reader(lines, with_design):
    text = "\n".join(lines) + "\n"
    design = _SOC3 if with_design else None
    try:
        expected = reference_parse_activity(text, 100.0, design)
    except ParseError as error:
        with pytest.raises(ParseError) as info:
            parse_activity(text, 100.0, design)
        assert (str(info.value), info.value.line_no) == (str(error), error.line_no)
    else:
        assert parse_activity(text, 100.0, design) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_parsed_names_are_one_object_each(seed):
    design = random_fixed_design(random.Random(seed))
    parsed = parse_design(*serialize_design(design))
    assert parsed == design
    endpoints = {c.name: c.name for c in parsed.cells} | {p.name: p.name for p in parsed.ports}
    islands = {i.name: i.name for i in parsed.islands}
    assert all(cell.island is islands[cell.island] for cell in parsed.cells)
    pins: dict[str, str] = {}
    for net in parsed.nets:
        for cell, pin in (net.raw_driver, *net.raw_loads):
            assert cell is endpoints[cell]
            assert pin is pins.setdefault(pin, pin)
    # every net twice, the second window in reverse net order
    lines = [f"net {n.name} toggles=3 duration_ns=100" for n in parsed.nets]
    activity = parse_activity("\n".join(lines + lines[::-1]), 100.0, design=parsed)
    nets = {n.name: n.name for n in parsed.nets}
    assert len(activity) == len(nets) and all(name is nets[name] for name in activity)


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
    assert two.get("a", 0.0) == pytest.approx(whole.get("a", 0.0), rel=1e-9)


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


@pytest.mark.parametrize(
    "parse, text",
    [
        (lambda t: parse_design("", t), "island y vdd=1.0\nisland x vdd=nan\n"),
        (lambda t: parse_design(t, "island x vdd=1.0\n"), _CELL + "cell b kind=std island=x cap_ff=inf\n"),
        (lambda t: parse_design(t, "island x vdd=1.0\n"), _CELL + "port p dir=in vdd=-inf\n"),
        (lambda t: parse_activity(t, 100.0), "net n toggles=1 duration_ns=10\nnet n toggles=1 duration_ns=inf\n"),
        (parse_characterization, "# ops\nop x vdd=nan fmax_mhz=inf area_um2=1 cap_factor=1\n"),
        (parse_characterization, "# calib\ncalib nand2 temp=25 source=silicon factor=inf\n"),
        (parse_config, "t_save=10\nbias_v=nan\n"),
    ],
    ids=["intent", "netlist-cell", "netlist-port", "activity", "characterization", "calib", "config"],
)
def test_non_finite_numbers_are_rejected_with_line(parse, text):
    with pytest.raises((ParseError, ValueError), match=r"line 2: \w+ must be finite"):
        parse(text)


# -- rejections, each with its exact message -----------------------------------------


def test_blank_and_comment_lines_inside_a_netlist_are_skipped():
    net = "net n driver=a.z loads=a.b\n"
    assert parse_design(_CELL + "\n   \n# a note\n  # indented\n" + net, _INTENT) == parse_design(_CELL + net, _INTENT)
    with pytest.raises(ParseError) as info:
        parse_design(_CELL + "\n# a note\ncell b kind=std island=gpu\n", _INTENT)
    assert str(info.value) == "netlist line 4: cell b: unknown island 'gpu'"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (lambda t: parse_design(t, _INTENT), _CELL + "wire w driver=a.z\n", "netlist line 2: unknown directive 'wire'"),
        (lambda t: parse_design("", t), _INTENT + "region r vdd=1.0\n", "intent line 2: unknown directive 'region'"),
        (lambda t: parse_activity(t, 100.0), "# toggles\ncell a toggles=1\n", "activity line 2: unknown directive 'cell'"),
        (
            parse_characterization,
            "op x vdd=1.0 fmax_mhz=1 area_um2=1 cap_factor=1\npoint x vdd=0.8\n",
            "characterization line 2: unknown directive 'point'",
        ),
        (
            parse_characterization,
            "op x vdd=1.0 fmax_mhz=1 area_um2=1 cap_factor=0\n",
            "characterization line 1: cap_factor must be positive",
        ),
        (lambda t: parse_activity(t, 0.0), "net a toggles=1 duration_ns=10\n", "f_clk_mhz must be positive, got 0.0"),
        (lambda t: parse_activity(t, -150.0), "", "f_clk_mhz must be positive, got -150.0"),
    ],
    ids=[
        "netlist-directive", "intent-directive", "activity-directive", "characterization-directive",
        "cap_factor", "f_clk-zero", "f_clk-negative",
    ],
)
def test_reader_rejections_give_their_exact_message(parse, text, message):
    with pytest.raises((ParseError, ValueError)) as info:
        parse(text)
    assert str(info.value) == message


# -- the block line reader -------------------------------------------------------------

# every line break str.splitlines knows, plus comments, blanks and tokens
_LINE_PIECES = (
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "#", " ", "\t", "cell", "a=1", "x",
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=40).map("".join), st.integers(1, 5))
def test_block_reader_splits_exactly_like_splitlines(text, block):
    reference = [
        (line_no, raw.partition("#")[0].split())
        for line_no, raw in enumerate(text.splitlines(), start=1)
        if raw.partition("#")[0].split()
    ]
    with mock.patch.object(netlist, "_BLOCK", block):
        assert list(_lines(text)) == text.splitlines()
        assert list(_token_lines(text)) == reference


def test_block_reader_holds_a_block_not_the_text():
    text = "".join(f"cell c{i} kind=std island=isl{i % 8} cap_ff=12.50 gates=17\n" for i in range(40_000))
    assert len(text) > 2_000_000
    tracemalloc.start()
    try:
        for _ in _token_lines(text):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024
