"""Seeded random generators and oracles shared by the property suites."""

from __future__ import annotations

import random
from dataclasses import replace

from pwr.crossings import CrossingIssue, IssueKind
from pwr.netlist import FIX_KINDS, ActivityProfile, CellInstance, CellKind, Design, Endpoint, Island, Net, Port
from pwr.pimsim import ScriptCommand, Trace
from pwr.power import DynamicPowerParams, LeakageModel, leakage_current_per_gate

VOLTAGES = (0.8, 1.0, 1.2)


def random_design(rng: random.Random) -> Design:
    """A small valid multi-island design with only plain cells."""
    islands = tuple(
        Island(f"isl{i}", vdd=rng.choice(VOLTAGES), switchable=rng.random() < 0.4)
        for i in range(rng.randint(2, 4))
    )
    cells = tuple(
        CellInstance(
            f"c{i}",
            CellKind.STD,
            rng.choice(islands).name,
            cap_ff=round(rng.uniform(1.0, 50.0), 1),
            gate_count=rng.randint(1, 500),
        )
        for i in range(rng.randint(2, 10))
    )
    nets = tuple(
        Net(
            f"n{i}",
            Endpoint(rng.choice(cells).name, "z"),
            tuple(Endpoint(rng.choice(cells).name, f"a{j}") for j in range(rng.randint(1, 3))),
        )
        for i in range(rng.randint(1, 12))
    )
    return Design(islands, cells, nets, ())


def random_fixed_design(rng: random.Random) -> Design:
    """A ``random_design`` with level shifters and iso cells spliced onto
    existing nets (possibly onto each other's outputs), a pim, and an input
    port driving a net that also feeds an output port."""
    design = random_design(rng)
    islands = [i.name for i in design.islands]
    cells = list(design.cells)
    nets = list(design.nets)
    cells.append(CellInstance("pim0", CellKind.PIM, rng.choice(islands), cap_ff=5.0))
    nets.append(Net("pim_net", Endpoint("pim0", "z"), (Endpoint(rng.choice(cells).name, "a"),)))
    for i in range(rng.randint(0, 8)):
        at = rng.randrange(len(nets))
        net = nets[at]
        moved = [ep for ep in net.loads if rng.random() < 0.6] or [net.loads[0]]
        kept = [ep for ep in net.loads if ep not in moved]
        kind = rng.choice((CellKind.LEVEL_SHIFTER, CellKind.ISO))
        fix = CellInstance(f"fx{i}", kind, rng.choice(islands))
        cells.append(fix)
        nets[at] = replace(net, loads=tuple(kept) + (Endpoint(fix.name, "a"),))
        nets.append(Net(f"fx{i}_out", Endpoint(fix.name, "z"), tuple(moved)))
    ports = (Port("pin", "in", rng.choice(VOLTAGES)), Port("pout", "out", rng.choice(VOLTAGES)))
    nets.append(Net("pin_net", Endpoint("pin", "p"), (Endpoint(rng.choice(cells).name, "a"), Endpoint("pout", "p"))))
    return Design(design.islands, tuple(cells), tuple(nets), ports)


def reference_crossings(design: Design, assume_transmission_gates: bool = False) -> list[CrossingIssue]:
    """The crossing analysis as a fresh breadth-first walk per call, with no
    cached index: the oracle for ``analyze_crossings``."""
    islands = {i.name: i for i in design.islands}
    cells = {c.name: c for c in design.cells}
    driven: dict[str, list[Net]] = {}
    for net in design.nets:
        driven.setdefault(net.driver.cell, []).append(net)

    issues: list[CrossingIssue] = []
    seen: set[tuple[str, str, IssueKind]] = set()
    for net in design.nets:
        driver = cells.get(net.driver.cell)
        if driver is None:
            continue
        driver_island = islands[driver.island]
        frontier: list[tuple[Net, float, bool]] = [(net, driver_island.vdd, False)]
        visited = {net.name}
        terminals: list[tuple[CellInstance, float, bool]] = []
        while frontier:
            current, eff_vdd, iso_ok = frontier.pop(0)
            for ep in current.loads:
                load = cells.get(ep.cell)
                if load is None:
                    continue
                if load.kind in FIX_KINDS:
                    next_vdd = islands[load.island].vdd if load.kind is CellKind.LEVEL_SHIFTER else eff_vdd
                    next_iso = iso_ok or (load.kind is CellKind.ISO and load.island != driver.island)
                    for onward in driven.get(load.name, ()):
                        if onward.name not in visited:
                            visited.add(onward.name)
                            frontier.append((onward, next_vdd, next_iso))
                else:
                    terminals.append((load, eff_vdd, iso_ok))

        for load, eff_vdd, iso_ok in terminals:
            receiver = islands[load.island]
            if receiver.name == driver.island:
                continue
            needs_shift = eff_vdd < receiver.vdd or (assume_transmission_gates and eff_vdd > receiver.vdd)
            if needs_shift:
                key = (net.name, receiver.name, IssueKind.NEEDS_LEVEL_SHIFTER)
                if key not in seen:
                    seen.add(key)
                    issues.append(CrossingIssue(
                        net.name, driver.island, receiver.name, IssueKind.NEEDS_LEVEL_SHIFTER,
                        f"signal swings {eff_vdd:g} V into island '{receiver.name}' at {receiver.vdd:g} V"
                        " with no level shifter on the path",
                    ))
            if driver_island.switchable and not iso_ok:
                key = (net.name, receiver.name, IssueKind.NEEDS_ISOLATION)
                if key not in seen:
                    seen.add(key)
                    issues.append(CrossingIssue(
                        net.name, driver.island, receiver.name, IssueKind.NEEDS_ISOLATION,
                        f"net leaves switchable island '{driver.island}' toward '{receiver.name}'"
                        " with no isolation cell on the path",
                    ))
    return issues


def reference_dynamic_w(design: Design, activity: ActivityProfile, params: DynamicPowerParams) -> list[float]:
    """Per-island dynamic power from a per-net loop over the raw tuples."""
    islands = {i.name: i for i in design.islands}
    cells = {c.name: c for c in design.cells}
    per_island = {i.name: 0.0 for i in design.islands}
    for net in design.nets:
        driver = cells.get(net.driver.cell)
        if driver is None:
            continue
        vdd = islands[driver.island].vdd
        per_island[driver.island] += (
            params.k * driver.cap_ff * 1e-15 * vdd * vdd * params.f_clk_mhz * 1e6 * activity.sa(net.name)
        )
    return [per_island[i.name] for i in design.islands]


def reference_static_w(
    design: Design, sleeping: set[str], temp_c: float, model: LeakageModel
) -> list[tuple[float, float]]:
    """Per-island (active, sleep) leakage from an islands x cells loop."""
    i_awake = leakage_current_per_gate(0.0, temp_c, model)
    i_asleep = leakage_current_per_gate(model.bias_v, temp_c, model)
    rows = []
    for island in design.islands:
        gates = sum(c.gate_count for c in design.cells if c.island == island.name)
        if island.name in sleeping:
            rows.append((0.0, gates * i_asleep * island.vdd))
        else:
            rows.append((gates * i_awake * island.vdd, 0.0))
    return rows


def random_script(rng: random.Random, max_commands: int = 8) -> tuple[ScriptCommand, ...]:
    commands = []
    t = 0.0
    for _ in range(rng.randint(0, max_commands)):
        t += rng.choice((0, 1, 5, 19, 20, 21, 40, 60, 100))
        commands.append(ScriptCommand(float(t), rng.choice(("write_sleep", "read_status"))))
    return tuple(commands)


def check_trace_safety(trace: Trace) -> None:
    """Assert the controller's ordering invariants over a whole trace:

    1. the sleep bias is never asserted while isolation is down;
    2. retention save completes before the bias asserts;
    3. the bias drops before restore completes;
    4. restore completes before isolation drops;
    5. ready status only ever appears with every signal deasserted.
    """
    iso = bias = saved = False
    last_t = None
    for t, event in trace.events:
        if last_t is not None:
            assert t >= last_t, "trace times must be non-decreasing"
        last_t = t
        if event == "ISO=1":
            iso = True
        elif event == "ISO=0":
            assert not bias, "bias must drop before isolation"
            assert not saved, "restore must complete before isolation drops"
            iso = False
        elif event == "BIAS=1":
            assert iso, "bias asserted without isolation"
            assert saved, "bias asserted before retention save completed"
            bias = True
        elif event == "BIAS=0":
            bias = False
        elif event == "SAVE_DONE":
            saved = True
        elif event == "RESTORE_DONE":
            assert not bias, "restore ran while the bias was still asserted"
            saved = False
        elif event == "STATUS=ready":
            assert not (iso or bias or saved), "ready status outside the active state"
        if bias:
            assert iso, "bias held while isolation dropped"
