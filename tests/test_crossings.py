import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import THREE_ISLAND_INTENT, THREE_ISLAND_NETLIST
from helpers import clashing_names_design, random_design, random_fixed_design, reference_apply_power_fixes
from pwr.crossings import (
    IssueKind,
    analyze_crossings,
    apply_power_fixes,
    fix_design,
    insert_sleep_pins,
    verify_power_intent,
)
from pwr.netlist import FIX_KINDS, CellKind, Endpoint, Net, parse_design, serialize_design, validate_design


def _named(records, name):
    """The net or port of ``name`` among ``records``."""
    return next(record for record in records if record.name == name)


def test_three_island_soc_needs_exactly_one_shifter(soc3):
    issues = analyze_crossings(soc3)
    assert len(issues) == 1
    issue = issues[0]
    assert issue.net == "cpu2usb"
    assert issue.kind is IssueKind.NEEDS_LEVEL_SHIFTER
    assert (issue.driver_island, issue.receiver_island) == ("cpu", "usb")
    # equal-voltage and down-hill crossings stay clean
    flagged = {i.net for i in issues}
    assert {"cpu2mem", "mem2cpu", "usb2cpu"}.isdisjoint(flagged)


def test_single_island_design_is_clean():
    design = parse_design(
        "cell a kind=std island=x\ncell b kind=std island=x\nnet n driver=a.z loads=b.a\n",
        "island x vdd=1.0\n",
    )
    assert analyze_crossings(design) == []


def test_gated_soc_issue_set(gated_soc):
    issues = analyze_crossings(gated_soc)
    by_kind = {}
    for issue in issues:
        by_kind.setdefault(issue.kind, []).append(issue.net)
    assert sorted(by_kind[IssueKind.NEEDS_ISOLATION]) == ["l2c", "l2m"]
    assert sorted(by_kind[IssueKind.NEEDS_LEVEL_SHIFTER]) == ["m2c", "m2l"]
    assert len(issues) == 4
    # every outbound net of the switchable island is isolation-flagged
    outbound = {i.net for i in issues if i.driver_island == "logic"}
    assert outbound == {"l2c", "l2m"}


def test_apply_fixes_three_island(soc3):
    fixed = apply_power_fixes(soc3)
    added = [c for c in fixed.cells if c.name not in {x.name for x in soc3.cells}]
    assert [c.name for c in added] == ["ls_cpu2usb"]
    assert added[0].kind is CellKind.LEVEL_SHIFTER
    assert added[0].island == "usb"  # shifters belong to the receiving island
    assert analyze_crossings(fixed) == []
    assert validate_design(fixed) == []


def test_apply_fixes_empty_is_identity(soc3):
    # a design with no open crossing comes back as the same object
    clean = replace(soc3, nets=tuple(n for n in soc3.nets if n.name != "cpu2usb"))
    assert analyze_crossings(clean) == []
    assert apply_power_fixes(clean) is clean
    fixed = apply_power_fixes(soc3)
    assert fixed is not soc3 and apply_power_fixes(fixed) is fixed


def test_apply_fixes_gated_soc(gated_soc):
    issues = analyze_crossings(gated_soc)
    fixed = apply_power_fixes(gated_soc)
    assert len(fixed.cells) == len(gated_soc.cells) + len(issues)
    assert analyze_crossings(fixed) == []
    assert validate_design(fixed) == []
    names = {c.name for c in fixed.cells}
    assert {"iso_l2c", "iso_l2m", "ls_m2c", "ls_m2l"} <= names
    # iso cells land outside the switchable island
    for cell in fixed.cells:
        if cell.kind is CellKind.ISO:
            assert not fixed.islands_by_name()[cell.island].switchable


def test_fixed_design_roundtrips(soc3):
    fixed = apply_power_fixes(soc3)
    netlist_text, intent_text = serialize_design(fixed)
    assert parse_design(netlist_text, intent_text) == fixed


# -- sleep pins ---------------------------------------------------------------


def test_insert_sleep_pins_counts(gated_soc):
    pinned = insert_sleep_pins(gated_soc)
    slpb = _named(pinned.nets, "slpb_logic")
    assert len(slpb.loads) == 5
    assert slpb.driver.cell == "pim0"  # manager cell drives the sleep net
    flagged = [c.name for c in pinned.cells if c.has_sleep_pin]
    assert flagged == ["logic0", "logic1", "logic2", "logic3", "logic4"]
    assert validate_design(pinned) == []


def test_insert_sleep_pins_idempotent(gated_soc):
    once = insert_sleep_pins(gated_soc)
    twice = insert_sleep_pins(once)
    assert once == twice


def test_insert_sleep_pins_without_manager(soc3):
    # no pim cell anywhere: a top-level port drives the sleep net
    design = parse_design(
        "cell a kind=std island=x\ncell b kind=std island=x\nnet n driver=a.z loads=b.a\n",
        "island x vdd=1.0 switchable=1\n",
    )
    pinned = insert_sleep_pins(design)
    assert _named(pinned.ports, "slpb_x").direction == "in"
    assert _named(pinned.nets, "slpb_x").driver.cell == "slpb_x"
    assert insert_sleep_pins(pinned) == pinned


def test_insert_sleep_pins_names_its_port_clear_of_a_cell():
    # cell slpb_x holds the port's name, so the port gets a suffix
    design = parse_design(
        "cell slpb_x kind=std island=a\ncell b kind=std island=x\nnet n driver=slpb_x.z loads=b.a\n",
        "island a vdd=1.0\nisland x vdd=1.0 switchable=1\n",
    )
    pinned = insert_sleep_pins(design)
    assert [p.name for p in pinned.ports] == ["slpb_x_1"]
    assert _named(pinned.nets, "slpb_x") == Net("slpb_x", Endpoint("slpb_x_1", "p"), (Endpoint("b", "slpb"),))
    assert validate_design(pinned) == [] and verify_power_intent(pinned) == []
    assert insert_sleep_pins(pinned) == pinned


def test_insert_sleep_pins_extends_an_existing_sleep_net():
    # a.slpb is already wired but not flagged; b is neither
    design = parse_design(
        "port slpb_x dir=in vdd=1.0\ncell a kind=std island=x\ncell b kind=std island=x\n"
        "net slpb_x driver=slpb_x.p loads=a.slpb\nnet n driver=a.z loads=b.a\n",
        "island x vdd=1.0 switchable=1\n",
    )
    pinned = insert_sleep_pins(design)
    assert _named(pinned.nets, "slpb_x").loads == (Endpoint("a", "slpb"), Endpoint("b", "slpb"))
    assert pinned.ports == design.ports and len(pinned.nets) == 2
    assert all(c.has_sleep_pin for c in pinned.cells)
    # with nothing left to hook, the wired cell still gets its flag
    only_a = replace(design, cells=design.cells[:1], nets=design.nets[:1])
    assert insert_sleep_pins(only_a).cells == (replace(design.cells[0], has_sleep_pin=True),)


def test_insert_sleep_pins_leaves_another_islands_first_name_to_it():
    # slpb_x is a plain net, and slpb_x_1 is island x_1's own name, so x steps to slpb_x_2
    design = parse_design(
        "cell d kind=std island=x\ncell f kind=std island=x\ncell e kind=std island=x_1\n"
        "net slpb_x driver=d.z loads=f.a\n",
        "island x vdd=1.0 switchable=1\nisland x_1 vdd=1.2 switchable=1\n",
    )
    pinned = insert_sleep_pins(design)
    assert pinned.nets[1:] == (
        Net("slpb_x_2", Endpoint("slpb_x_2", "p"), (Endpoint("d", "slpb"), Endpoint("f", "slpb"))),
        Net("slpb_x_1", Endpoint("slpb_x_1", "p"), (Endpoint("e", "slpb"),)),
    )
    assert [(p.name, p.vdd) for p in pinned.ports] == [("slpb_x_2", 1.0), ("slpb_x_1", 1.2)]
    assert validate_design(pinned) == [] and verify_power_intent(pinned) == []
    assert insert_sleep_pins(pinned) is pinned


def test_insert_sleep_pins_touches_only_switchable_islands(gated_soc):
    pinned = insert_sleep_pins(gated_soc)
    switchable = {i.name for i in gated_soc.islands if i.switchable}
    assert switchable == {"logic"}
    for before, after in zip(gated_soc.cells, pinned.cells):
        if before.island not in switchable:
            assert before == after
    always_on = replace(gated_soc, islands=tuple(replace(i, switchable=False, retention=False)
                                                 for i in gated_soc.islands))
    assert insert_sleep_pins(always_on) is always_on


def test_sleep_pins_skip_fix_and_manager_cells(gated_soc):
    fixed = apply_power_fixes(gated_soc)
    pinned = insert_sleep_pins(fixed)
    for cell in pinned.cells:
        if cell.kind in (CellKind.ISO, CellKind.LEVEL_SHIFTER, CellKind.PIM):
            assert not cell.has_sleep_pin
    # ls_m2l sits inside the logic island but still takes no sleep pin
    assert len(_named(pinned.nets, "slpb_logic").loads) == 5


# -- fix: sleep pins, then crossings ------------------------------------------


def _fix(design):
    return fix_design(design)[0]


def test_existing_shifter_in_an_intermediate_island():
    # a(0.8 V) -> shifter in c(1.0 V) -> b(1.2 V): the shifter's output still under-drives b
    design = parse_design(
        "cell x kind=std island=a\ncell ls0 kind=levelshifter island=c\ncell y kind=std island=b\n"
        "net n1 driver=x.z loads=ls0.a\nnet n2 driver=ls0.z loads=y.a\n",
        "island a vdd=0.8\nisland c vdd=1.0\nisland b vdd=1.2\n",
    )
    [issue] = analyze_crossings(design)
    assert (issue.net, issue.driver_island, issue.receiver_island) == ("n2", "a", "b")
    assert "swings 1 V into island 'b' at 1.2 V" in issue.rationale
    fixed = _fix(design)
    assert _named(fixed.nets, "n2").loads == (Endpoint("ls_n2", "a"),)
    assert verify_power_intent(fixed) == []
    assert _fix(fixed) == fixed


def test_existing_iso_cell_inside_the_switchable_driver_island():
    design = parse_design(
        "cell x kind=std island=a\ncell iso0 kind=iso island=a\ncell y kind=std island=b\n"
        "net n1 driver=x.z loads=iso0.a\nnet n2 driver=iso0.z loads=y.a\n",
        "island a vdd=1.0 switchable=1\nisland b vdd=1.0\n",
    )
    [issue] = analyze_crossings(design)
    assert (issue.net, issue.kind) == ("n2", IssueKind.NEEDS_ISOLATION)
    fixed = _fix(design)
    assert fixed.topology.cells_by_name["iso_n2"].island == "b"
    assert verify_power_intent(fixed) == []
    assert _fix(fixed) == fixed


@pytest.mark.parametrize(
    "extra, cell, net",
    [
        ("cell ls_cpu2usb kind=std island=usb\n", "ls_cpu2usb_1", "ls_cpu2usb_1_out"),
        ("net ls_cpu2usb_out driver=usb0.y loads=usb0.c\n", "ls_cpu2usb", "ls_cpu2usb_out_1"),
        # cells and ports share the endpoint namespace
        ("port ls_cpu2usb dir=in vdd=1.2\n", "ls_cpu2usb_1", "ls_cpu2usb_1_out"),
    ],
    ids=["cell", "net", "port"],
)
def test_generated_names_step_past_user_names(extra, cell, net):
    design = parse_design(THREE_ISLAND_NETLIST + extra, THREE_ISLAND_INTENT)
    fixed = _fix(design)
    assert _named(fixed.nets, "cpu2usb").loads == (Endpoint(cell, "a"),)
    assert _named(fixed.nets, net) == Net(net, Endpoint(cell, "z"), (Endpoint("usb0", "a"),))
    assert verify_power_intent(fixed) == []
    assert validate_design(fixed) == []
    assert _fix(fixed) == fixed


_CLASH_NETS = {"a": "net a driver=d0.z loads=rb.a,rc.a\n", "a_b": "net a_b driver=d1.z loads=rb2.a\n"}


@pytest.mark.parametrize(
    "order, names",
    [
        (("a", "a_b"), ["ls_a_b", "ls_a_c", "ls_a_b_1"]),
        (("a_b", "a"), ["ls_a_b", "ls_a_b_1", "ls_a_c"]),
    ],
    ids=["suffixed-first", "plain-first"],
)
def test_a_generated_name_steps_past_one_generated_before_it(order, names):
    # net a shifts toward b and c (ls_a_b, ls_a_c); net a_b's own shifter is ls_a_b
    design = parse_design(
        "cell d0 kind=std island=x\ncell d1 kind=std island=x\ncell rb kind=std island=b\n"
        "cell rc kind=std island=c\ncell rb2 kind=std island=b\n" + "".join(_CLASH_NETS[n] for n in order),
        "island x vdd=0.8\nisland b vdd=1.2\nisland c vdd=1.2\n",
    )
    fixed = apply_power_fixes(design)
    assert [c.name for c in fixed.cells[len(design.cells):]] == names
    assert [n.name for n in fixed.nets[len(design.nets):]] == [f"{name}_out" for name in names]
    assert fixed == reference_apply_power_fixes(design)
    assert validate_design(fixed) == [] and analyze_crossings(fixed) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_fixer_adds_what_the_one_pass_oracle_adds(seed, clashing):
    """Chains kept as lane bits per net, and ``_out`` names checked against
    the design's ``ls_``/``iso_`` nets alone, give what a plain pass over
    the reference walk gives, that checks each name against every net."""
    rng = random.Random(seed)
    design = clashing_names_design(rng) if clashing else insert_sleep_pins(random_fixed_design(rng))
    assert apply_power_fixes(design) == reference_apply_power_fixes(design)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_every_sleep_pin_hangs_on_the_manager_or_an_input_port(seed):
    """With plain nets named like sleep nets, each ``slpb`` load of the fixed
    design traces back, through the fix cells spliced onto its net, to the
    manager's ``slpb_<island>`` pin or to an input port."""
    fixed = _fix(clashing_names_design(random.Random(seed)))
    cells = fixed.topology.cells_by_name
    manager = getattr(fixed.topology.pim, "name", None)
    inputs = {p.name for p in fixed.ports if p.direction == "in"}
    feeds = {ep.cell: net for net in fixed.nets for ep in net.loads if ep.pin == "a"}
    for net in fixed.nets:
        for ep in net.loads:
            if ep.pin != "slpb":
                continue
            source = net
            while source.driver.cell in cells and cells[source.driver.cell].kind in FIX_KINDS:
                source = feeds[source.driver.cell]
            assert source.driver in ((manager, f"slpb_{cells[ep.cell].island}"),) or source.driver.cell in inputs, (
                f"{ep} hangs on {net.name}, driven from {source.driver}"
            )
    assert verify_power_intent(fixed) == []
    assert _fix(fixed) == fixed


def test_second_pin_pass_leaves_a_shifted_sleep_net_alone(gated_soc):
    # the manager at 0.8 V: slpb_logic needs a shifter, which then drives the pins
    low = gated_soc.with_supplies({"cpu": 0.8})
    fixed = _fix(low)
    assert [c.name for c in fixed.cells if c.kind is CellKind.LEVEL_SHIFTER] == ["ls_m2l", "ls_c2l", "ls_slpb_logic"]
    assert _named(fixed.nets, "slpb_logic").loads == (Endpoint("ls_slpb_logic", "a"),)
    assert insert_sleep_pins(fixed) is fixed
    assert verify_power_intent(fixed) == []


def test_fix_hooks_a_flagged_cell_that_no_sleep_net_reaches():
    # sleep=1 alone wires nothing: the pin step still hooks block.slpb
    design = parse_design(
        "cell block kind=std island=logic sleep=1\ncell pim0 kind=pim island=aon\n"
        "net n driver=pim0.z loads=block.a\n",
        "island aon vdd=1.2\nisland logic vdd=1.2 switchable=1\n",
    )
    # check sees the floating pin that fix wires
    assert [str(v) for v in verify_power_intent(design)] == [
        "missing_sleep_pin block: cell in switchable island 'logic' has a sleep pin no net drives"
    ]
    fixed = _fix(design)
    slpb = Net("slpb_logic", Endpoint("pim0", "slpb_logic"), (Endpoint("block", "slpb"),))
    assert _named(fixed.nets, "slpb_logic") == slpb
    assert verify_power_intent(fixed) == []
    assert _fix(fixed) == fixed


def test_a_net_two_walks_reach_is_reported_once_per_driver_island():
    # n1 and n2 both feed ls0 from island a, so two walks reach n3
    design = parse_design(
        "cell x1 kind=std island=a\ncell x2 kind=std island=a\ncell ls0 kind=levelshifter island=a\n"
        "cell y kind=std island=b\nnet n1 driver=x1.z loads=ls0.a\nnet n2 driver=x2.z loads=ls0.b\n"
        "net n3 driver=ls0.z loads=y.a\n",
        "island a vdd=1.0 switchable=1\nisland b vdd=1.0\n",
    )
    [issue] = analyze_crossings(design)
    assert (issue.net, issue.driver_island, issue.kind) == ("n3", "a", IssueKind.NEEDS_ISOLATION)


def test_a_shifter_fed_from_two_islands_gets_one_issue_per_island_and_one_cell():
    design = parse_design(
        "cell x1 kind=std island=a\ncell x2 kind=std island=c\ncell ls0 kind=levelshifter island=b\n"
        "cell y kind=std island=b\nnet n1 driver=x1.z loads=ls0.a\nnet n2 driver=x2.z loads=ls0.b\n"
        "net n3 driver=ls0.z loads=y.a\n",
        "island a vdd=1.0 switchable=1\nisland c vdd=1.0 switchable=1\nisland b vdd=1.0\n",
    )
    issues = analyze_crossings(design)
    assert [(i.net, i.driver_island, i.kind) for i in issues] == [
        ("n3", "a", IssueKind.NEEDS_ISOLATION), ("n3", "c", IssueKind.NEEDS_ISOLATION),
    ]
    fixed = apply_power_fixes(design)
    assert [c.name for c in fixed.cells if c.kind is CellKind.ISO] == ["iso_n3"]


def test_a_fix_driven_chain_is_walked_from_its_first_fix_cell():
    # n2 comes first in net order, but the walk from n1 (ls1 at 0.8 V) reaches it
    design = parse_design(
        "port p dir=in vdd=0.8\ncell ls1 kind=levelshifter island=c\ncell ls2 kind=levelshifter island=d\n"
        "cell y kind=std island=b\nnet n2 driver=ls2.z loads=y.a\nnet n1 driver=ls1.z loads=ls2.a\n"
        "net n0 driver=p.p loads=ls1.a\n",
        "island c vdd=0.8\nisland d vdd=1.0\nisland b vdd=1.2\n",
    )
    [issue] = analyze_crossings(design)
    assert (issue.net, issue.driver_island, issue.receiver_island) == ("n2", "c", "b")
    assert _fix(_fix(design)) == _fix(design)


# -- verify -------------------------------------------------------------------


def test_verify_clean_after_full_fix(gated_soc):
    fixed, _ = fix_design(gated_soc)
    assert verify_power_intent(fixed) == []


def test_verify_counts_both_violation_families(gated_soc):
    violations = verify_power_intent(gated_soc)
    crossings = [v for v in violations if v.kind == "crossing"]
    missing = [v for v in violations if v.kind == "missing_sleep_pin"]
    assert len(crossings) == len(analyze_crossings(gated_soc)) == 4
    assert len(missing) == 5
    assert len(violations) == 9


def test_verify_flags_single_missing_pin(gated_soc):
    fixed, _ = fix_design(gated_soc)
    # strip one sleep pin back off
    cells = tuple(
        replace(c, has_sleep_pin=False) if c.name == "logic2" else c for c in fixed.cells
    )
    broken = replace(fixed, cells=cells)
    violations = verify_power_intent(broken)
    assert len(violations) == 1 and violations[0].subject == "logic2"


# -- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_fix_then_check_is_sound(seed):
    design = random_design(random.Random(seed))
    issues = analyze_crossings(design)
    fixed = apply_power_fixes(design)
    assert analyze_crossings(fixed) == []
    assert validate_design(fixed) == []
    assert len(fixed.cells) == len(design.cells) + len(issues)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_fix_output_passes_check_and_is_a_fixed_point(seed):
    fixed = _fix(random_fixed_design(random.Random(seed)))
    assert verify_power_intent(fixed) == []
    assert _fix(fixed) == fixed
    assert parse_design(*serialize_design(fixed)) == fixed


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_no_shifter_ever_required_downhill(seed):
    design = random_design(random.Random(seed))
    vdd = {i.name: i.vdd for i in design.islands}
    for issue in analyze_crossings(design):
        if issue.kind is IssueKind.NEEDS_LEVEL_SHIFTER:
            assert vdd[issue.driver_island] < vdd[issue.receiver_island]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_fixes_preserve_islands_and_cells(seed):
    design = random_design(random.Random(seed))
    fixed = apply_power_fixes(design)
    assert fixed.islands == design.islands
    original = {c.name: c for c in design.cells}
    for cell in fixed.cells:
        if cell.name in original:
            assert cell == original[cell.name]
