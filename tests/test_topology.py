"""The per-Design topology index against uncached references."""

import math
import pickle
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    VOLTAGES,
    random_fixed_design,
    reference_crossings,
    reference_dynamic_w,
    reference_static_w,
)
from pwr.crossings import analyze_crossings, verify_power_intent
from pwr.netlist import ActivityProfile, CharRow, CharTable, Island, parse_design, validate_design
from pwr.power import DynamicPowerParams, LeakageModel, dynamic_power, static_power
from pwr.voltage import assign_voltages


def _activity(rng: random.Random, design) -> ActivityProfile:
    sa = {n.name: rng.choice((0.0, 0.1, 0.37, 1.0, 2.0)) for n in design.nets if rng.random() < 0.8}
    return ActivityProfile(sa)


def _table(rng: random.Random, design) -> CharTable:
    rows = []
    for island in design.islands:
        for vdd, fmax in zip(VOLTAGES, sorted(rng.uniform(50.0, 400.0) for _ in VOLTAGES)):
            rows.append(CharRow(island.name, vdd, fmax, 1000.0, 1.0))
    return CharTable(tuple(rows))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_crossings_match_reference(seed, transmission_gates):
    design = random_fixed_design(random.Random(seed))
    assert validate_design(design) == []
    expected = reference_crossings(design, transmission_gates)
    assert analyze_crossings(design, transmission_gates) == expected
    # a second query reads the cached walk and must not drift
    assert analyze_crossings(design, transmission_gates) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.floats(-40.0, 150.0), st.floats(0.0, 1.0))
def test_power_matches_reference_exactly(seed, temp_c, k):
    rng = random.Random(seed)
    design = random_fixed_design(rng)
    activity = _activity(rng, design)
    params = DynamicPowerParams(rng.choice((50.0, 150.0, 333.3)), k)
    dyn = dynamic_power(design, activity, params)
    assert [row.dynamic_w for row in dyn.islands] == reference_dynamic_w(design, activity, params)

    sleeping = {i.name for i in design.islands if i.switchable and rng.random() < 0.5}
    model = LeakageModel()
    stat = static_power(design, sleeping, temp_c, model)
    rows = [(row.static_active_w, row.static_sleep_w) for row in stat.islands]
    assert rows == reference_static_w(design, sleeping, temp_c, model)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_retargeted_plan_analyzes_like_a_fresh_copy(seed):
    rng = random.Random(seed)
    design = random_fixed_design(rng)
    table = _table(rng, design)
    f_mhz = rng.uniform(10.0, min(r.fmax_mhz for r in table.rows if r.vdd == 1.2))
    analyze_crossings(design)  # warm the shared walk at the original supplies
    plan = assign_voltages(design, table, {i.name: f_mhz for i in design.islands}, {})
    assert plan.retargeted.topology is design.topology
    fresh = replace(design, islands=tuple(replace(i, vdd=plan.point(i.name).vdd) for i in design.islands))
    assert fresh.topology is not design.topology
    assert plan.retargeted == fresh
    assert analyze_crossings(plan.retargeted) == analyze_crossings(fresh) == reference_crossings(fresh)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_replaced_design_never_sees_stale_walk(seed):
    rng = random.Random(seed)
    design = random_fixed_design(rng)
    analyze_crossings(design)
    dynamic_power(design, _activity(rng, design), DynamicPowerParams(150.0))
    nets = list(design.nets)
    del nets[rng.randrange(len(nets))]
    # move one cell to another island: every walk through it changes
    cells = list(design.cells)
    at = rng.randrange(len(cells))
    cells[at] = replace(cells[at], island=rng.choice(design.islands).name)
    for changed in (replace(design, nets=tuple(nets)), replace(design, cells=tuple(cells))):
        assert changed.topology is not design.topology
        assert analyze_crossings(changed) == reference_crossings(changed)
        activity = _activity(rng, changed)
        params = DynamicPowerParams(150.0)
        assert [r.dynamic_w for r in dynamic_power(changed, activity, params).islands] == (
            reference_dynamic_w(changed, activity, params)
        )


def test_index_built_under_thread_contention():
    """Threads racing to build one design's index all see the same results."""
    rng = random.Random(7)
    designs = [random_fixed_design(rng) for _ in range(20)]
    activity = ActivityProfile({})
    params = DynamicPowerParams(150.0)
    expected = [(reference_crossings(d), reference_dynamic_w(d, activity, params)) for d in designs]
    results: dict[int, list] = {}

    def worker(slot: int) -> None:
        results[slot] = [
            (analyze_crossings(d), [r.dynamic_w for r in dynamic_power(d, activity, params).islands])
            for d in designs
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[slot] for slot in range(8)] == [expected] * 8


def test_name_views_reject_assignment(gated_soc):
    analyze_crossings(gated_soc)
    views = (gated_soc.islands_by_name(), gated_soc.cells_by_name(), gated_soc.nets_by_name(),
             gated_soc.ports_by_name())
    for view in views:
        with pytest.raises(TypeError):
            view["intruder"] = None
        with pytest.raises(TypeError):
            del view[next(iter(view), "missing")]
    assert gated_soc.cells_by_name()["pim0"] is gated_soc.pim_cell()
    assert set(gated_soc.nets_by_name()) == {n.name for n in gated_soc.nets}


def test_with_supplies_shares_the_index(soc3):
    retargeted = soc3.with_supplies({"cpu": 1.2})
    assert retargeted.topology is soc3.topology
    assert [i.vdd for i in retargeted.islands] == [1.2, 0.8, 1.2]
    assert soc3.islands_by_name()["cpu"].vdd == 0.8
    # a 1.2 V cpu no longer under-drives usb, but now mem under-drives cpu
    assert [i.net for i in analyze_crossings(retargeted)] == ["mem2cpu"]
    assert [i.net for i in analyze_crossings(soc3)] == ["cpu2usb"]
    with pytest.raises(ValueError, match="unknown island 'gpu'"):
        soc3.with_supplies({"gpu": 1.0})


def test_pickled_design_drops_the_cache(gated_soc):
    analyze_crossings(gated_soc)
    copy = pickle.loads(pickle.dumps(gated_soc))
    assert copy == gated_soc
    assert "topology" not in vars(copy)
    assert analyze_crossings(copy) == analyze_crossings(gated_soc)


def test_missing_sleep_pins_in_island_then_cell_order():
    design = parse_design(
        "cell b0 kind=std island=b\ncell a1 kind=std island=a\ncell k0 kind=std island=k\n"
        "cell b1 kind=sram island=b\ncell a0 kind=retff island=a\n"
        "net n driver=a1.z loads=a0.a,b0.a,b1.a,k0.a\n",
        "island a vdd=1.0 switchable=1\nisland k vdd=1.0\nisland b vdd=1.0 switchable=1\n",
    )
    pins = [v.subject for v in verify_power_intent(design) if v.kind == "missing_sleep_pin"]
    assert pins == ["a1", "a0", "b0", "b1"]


def test_validate_flags_non_finite_values():
    design = replace(
        parse_design("cell a kind=std island=x cap_ff=1\n", "island x vdd=1.0\n"),
        islands=(Island("x", float("nan")),),
    )
    design = replace(design, cells=(replace(design.cells[0], cap_ff=float("inf")),))
    assert [(e.kind, e.subject) for e in validate_design(design)] == [("island", "x"), ("cell", "a")]


@pytest.mark.parametrize("vdd", [0.0, -1.0, math.nan, math.inf])
def test_with_supplies_rejects_a_supply_that_is_not_positive_and_finite(soc3, vdd):
    with pytest.raises(ValueError) as info:
        soc3.with_supplies({"cpu": 1.0, "usb": vdd})
    assert str(info.value) == f"island usb: vdd must be positive and finite, got {vdd}"
