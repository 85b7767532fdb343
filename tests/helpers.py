"""Seeded random generators and oracles shared by the property suites."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

from pwr.crossings import CrossingIssue, IssueKind
from pwr.netlist import (
    _ACTIVITY_GRAMMAR,
    _INTENT_GRAMMAR,
    _KIND_BY_VALUE,
    _NETLIST_GRAMMAR,
    FIX_KINDS,
    SA_MAX,
    CellInstance,
    CellKind,
    Design,
    Endpoint,
    Island,
    Net,
    ParseError,
    Port,
    _design_error,
    _design_faults,
    _endpoint,
    _flag,
    _float,
    _int,
    _statements,
    _token_lines,
)
from pwr.pimsim import PimConfig, PimFsm, PimStatus, ScriptCommand, Trace
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
    """A ``random_design`` with a pim in an always-on island, an input port
    driving a net that also feeds an output port, level shifters and iso
    cells spliced onto existing nets (possibly onto each other's outputs or
    the port's net), and sometimes a cell or net named like one
    ``apply_power_fixes`` would generate."""
    design = random_design(rng)
    if all(i.switchable for i in design.islands):
        # the pim must sit in an always-on island
        design = replace(design, islands=(replace(design.islands[0], switchable=False),) + design.islands[1:])
    islands = [i.name for i in design.islands]
    cells = list(design.cells)
    nets = list(design.nets)
    always_on = [i.name for i in design.islands if not i.switchable]
    cells.append(CellInstance("pim0", CellKind.PIM, rng.choice(always_on), cap_ff=5.0))
    nets.append(Net("pim_net", Endpoint("pim0", "z"), (Endpoint(rng.choice(cells).name, "a"),)))
    ports = (Port("pin", "in", rng.choice(VOLTAGES)), Port("pout", "out", rng.choice(VOLTAGES)))
    nets.append(Net("pin_net", Endpoint("pin", "p"), (Endpoint(rng.choice(cells).name, "a"), Endpoint("pout", "p"))))
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
    for _ in range(rng.randint(0, 2)):
        taken = f"{rng.choice(('ls', 'iso'))}_{rng.choice(nets).name}"
        if any(n.name == f"{taken}_out" for n in nets):
            continue
        if rng.random() < 0.5:
            cells.append(CellInstance(taken, CellKind.STD, rng.choice(islands)))
        loads = (Endpoint(rng.choice(cells).name, "a"),)
        nets.append(Net(f"{taken}_out", Endpoint(rng.choice(cells).name, "y"), loads))
    return Design(design.islands, tuple(cells), tuple(nets), ports)


def reference_parse_design(netlist_text: str, intent_text: str) -> Design:
    """``parse_design`` as one loop over ``_statements`` and the checked
    converters for every format: the oracle for its direct netlist reader."""
    islands: list[Island] = []
    lines: dict[str, list[int]] = {"island": [], "cell": [], "net": [], "port": []}
    for line_no, _, name, attrs in _statements("intent", _token_lines(intent_text), _INTENT_GRAMMAR):
        islands.append(Island(
            name,
            _float("intent", line_no, "vdd", attrs["vdd"]),
            _flag("intent", line_no, "switchable", attrs.get("switchable", "0")),
            _flag("intent", line_no, "retention", attrs.get("retention", "0")),
        ))
        lines["island"].append(line_no)

    cells: list[CellInstance] = []
    nets: list[Net] = []
    ports: list[Port] = []
    for line_no, stmt, name, attrs in _statements("netlist", _token_lines(netlist_text), _NETLIST_GRAMMAR):
        if stmt == "cell":
            kind = _KIND_BY_VALUE.get(attrs["kind"])
            if kind is None:
                raise ParseError("netlist", line_no, f"unknown cell kind '{attrs['kind']}'")
            cells.append(CellInstance(
                name,
                kind,
                attrs["island"],
                _float("netlist", line_no, "cap_ff", attrs.get("cap_ff", "0")),
                _int("netlist", line_no, "gates", attrs.get("gates", "1")),
                _flag("netlist", line_no, "sleep", attrs.get("sleep", "0")),
            ))
        elif stmt == "net":
            driver = _endpoint("netlist", line_no, attrs["driver"])
            loads = [_endpoint("netlist", line_no, item) for item in attrs.get("loads", "").split(",") if item]
            nets.append(Net(name, driver, loads))
        else:
            ports.append(Port(name, attrs["dir"], _float("netlist", line_no, "vdd", attrs["vdd"])))
        lines[stmt].append(line_no)

    design = Design(tuple(islands), tuple(cells), tuple(nets), tuple(ports))
    fault = min(_design_faults(design), key=lambda f: (f[0] != "island", lines[f[0]][f[1]]), default=None)
    if fault is not None:
        category, index, _ = fault
        source = "intent" if category == "island" else "netlist"
        raise ParseError(source, lines[category][index], str(_design_error(design, *fault)))
    return design


def reference_parse_activity(activity_text: str, f_clk_mhz: float, design: Design | None = None) -> dict[str, float]:
    """``parse_activity`` as one loop over ``_statements`` and the checked
    converters: the oracle for its direct reader."""
    known = {n.name for n in design.nets} if design is not None else None
    toggles: dict[str, int] = {}
    durations: dict[str, float] = {}
    for line_no, _, name, attrs in _statements("activity", _token_lines(activity_text), _ACTIVITY_GRAMMAR):
        if known is not None and name not in known:
            raise ParseError("activity", line_no, f"unknown net '{name}'")
        count = _int("activity", line_no, "toggles", attrs["toggles"])
        if count < 0:
            raise ParseError("activity", line_no, f"toggles must be >= 0, got '{attrs['toggles']}'")
        duration = _float("activity", line_no, "duration_ns", attrs["duration_ns"])
        if duration <= 0:
            raise ParseError("activity", line_no, f"duration_ns must be positive, got '{attrs['duration_ns']}'")
        toggles[name] = toggles.get(name, 0) + count
        durations[name] = durations.get(name, 0.0) + duration
    return {name: min(toggles[name] / (durations[name] * f_clk_mhz * 1e-3), SA_MAX) for name in toggles}


def reference_crossings(design: Design) -> list[CrossingIssue]:
    """The crossing analysis as fresh breadth-first walks per call, with no
    cached index: the oracle for ``analyze_crossings``.

    Walks start at nets driven by a cell other than a shifter or iso cell,
    then at fix-driven nets no walk has reached yet: first those whose fix
    cell is no load of a fix-driven net, then the rest, each group in net
    order.  Every terminal is reported against the net whose direct load it
    is; issues are grouped per (that net, walk driver island) in order of
    first discovery, one per receiving island and kind."""
    islands = {i.name: i for i in design.islands}
    cells = {c.name: c for c in design.cells}
    driven: dict[str, list[Net]] = {}
    for net in design.nets:
        driven.setdefault(net.driver.cell, []).append(net)
    cell_driven = [n for n in design.nets if n.driver.cell in cells]
    starts = [n for n in cell_driven if cells[n.driver.cell].kind not in FIX_KINDS]
    relays = [n for n in cell_driven if cells[n.driver.cell].kind in FIX_KINDS]
    fed = {ep.cell for n in relays for ep in n.loads}
    starts += [n for n in relays if n.driver.cell not in fed] + [n for n in relays if n.driver.cell in fed]

    groups: dict[tuple[str, str], dict[tuple[str, IssueKind], CrossingIssue]] = {}
    reached: set[str] = set()
    for net in starts:
        if net.name in reached:
            continue
        driver = cells[net.driver.cell]
        driver_island = islands[driver.island]
        frontier: list[tuple[Net, float, bool]] = [(net, driver_island.vdd, False)]
        visited = {net.name}
        # (net the load hangs on, load cell, arriving swing, isolated)
        terminals: list[tuple[str, CellInstance, float, bool]] = []
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
                    terminals.append((current.name, load, eff_vdd, iso_ok))
        reached |= visited

        for splice, load, eff_vdd, iso_ok in terminals:
            receiver = islands[load.island]
            if receiver.name == driver.island:
                continue
            group = groups.setdefault((splice, driver.island), {})
            if eff_vdd < receiver.vdd:
                group.setdefault((receiver.name, IssueKind.NEEDS_LEVEL_SHIFTER), CrossingIssue(
                    splice, driver.island, receiver.name, IssueKind.NEEDS_LEVEL_SHIFTER, eff_vdd, receiver.vdd,
                ))
            if driver_island.switchable and not iso_ok:
                group.setdefault((receiver.name, IssueKind.NEEDS_ISOLATION), CrossingIssue(
                    splice, driver.island, receiver.name, IssueKind.NEEDS_ISOLATION, eff_vdd, receiver.vdd,
                ))
    return [issue for group in groups.values() for issue in group.values()]


def reference_apply_power_fixes(design: Design) -> Design:
    """The fixer as one pass over ``reference_crossings`` that chooses each
    generated name against the design's names and every name it added
    before: the oracle for the cells, nets, names and order that
    ``apply_power_fixes`` adds."""
    chains: dict[tuple[str, str], list[IssueKind]] = {}
    for issue in reference_crossings(design):
        kinds = chains.setdefault((issue.net, issue.receiver_island), [])
        if issue.kind not in kinds:
            kinds.append(issue.kind)
    # how many chains of each net need each fix
    needed = Counter((net, kind) for (net, _), kinds in chains.items() for kind in kinds)
    cells = {c.name: c for c in design.cells}
    cell_names = set(cells) | {p.name for p in design.ports}  # one endpoint namespace
    net_names = {n.name for n in design.nets}
    nets = {n.name: n for n in design.nets}  # patched in place, so in net order
    new_cells: list[CellInstance] = []
    new_nets: list[Net] = []

    def unique(name: str, taken: set[str]) -> str:
        candidate, n = name, 0
        while candidate in taken:
            n += 1
            candidate = f"{name}_{n}"
        taken.add(candidate)
        return candidate

    for (net_name, receiver), kinds in chains.items():
        net = nets[net_name]
        moved: list[Endpoint] = []
        kept: list[Endpoint] = []
        for ep in net.loads:
            load = cells.get(ep.cell)
            (moved if load is not None and load.island == receiver else kept).append(ep)
        chain: list[str] = []
        for kind, prefix, cell_kind in (
            (IssueKind.NEEDS_LEVEL_SHIFTER, "ls", CellKind.LEVEL_SHIFTER),
            (IssueKind.NEEDS_ISOLATION, "iso", CellKind.ISO),
        ):
            if kind in kinds:
                name = f"{prefix}_{net_name}" + (f"_{receiver}" if needed[net_name, kind] > 1 else "")
                chain.append(unique(name, cell_names))
                new_cells.append(CellInstance(chain[-1], cell_kind, receiver))
        nets[net_name] = Net(net_name, net.driver, (*kept, Endpoint(chain[0], "a")))
        for i, fix in enumerate(chain):
            loads = (Endpoint(chain[i + 1], "a"),) if i + 1 < len(chain) else tuple(moved)
            new_nets.append(Net(unique(f"{fix}_out", net_names), Endpoint(fix, "z"), loads))
    return Design(design.islands, design.cells + tuple(new_cells), tuple(nets.values()) + tuple(new_nets), design.ports)


def clashing_names_design(rng: random.Random) -> Design:
    """A small design whose net and cell names make the fixer's generated
    names collide: net ``a`` shifted toward islands ``b`` and ``c`` gets
    ``ls_a_b``, the plain name of net ``a_b``'s shifter, and a cell may
    already hold a name such as ``ls_a``.  Sometimes a manager sits in an
    always-on island, and a plain cell drives a net named ``slpb_<island>``
    or ``slpb_<island>_1`` after a switchable island."""
    islands = (
        Island("x", 0.8, switchable=rng.random() < 0.5),
        Island("b", 1.2),
        Island("c", 1.2, switchable=rng.random() < 0.5),
    )
    cells = [CellInstance(f"d{i}", CellKind.STD, "x") for i in range(3)]
    cells += [CellInstance(f"r{i}", CellKind.STD, rng.choice("bcx")) for i in range(4)]
    for name in rng.sample(("ls_a", "ls_a_b", "iso_a_c", "ls_a_b_1", "iso_a"), rng.randint(0, 2)):
        cells.append(CellInstance(name, CellKind.STD, rng.choice("bcx")))
    names = rng.sample(("a", "a_b", "a_c", "a_1", "a_b_1", "a_x", "b", "ls_a_out"), rng.randint(2, 6))
    nets = [
        Net(
            name,
            Endpoint(rng.choice(cells).name, "z"),
            tuple(Endpoint(rng.choice(cells).name, f"a{j}") for j in range(rng.randint(1, 3))),
        )
        for name in names
    ]
    plain = list(cells)
    if rng.random() < 0.5:
        cells.append(CellInstance("pim0", CellKind.PIM, rng.choice([i.name for i in islands if not i.switchable])))
    for island in islands:
        if island.switchable:
            for name in rng.sample((f"slpb_{island.name}", f"slpb_{island.name}_1"), rng.randint(0, 2)):
                nets.append(Net(name, Endpoint(rng.choice(plain).name, "z"), (Endpoint(rng.choice(plain).name, "d"),)))
    return Design(islands, tuple(cells), tuple(nets), ())


def soc_texts(rng: random.Random, cells: int, islands: int = 8, windows: int = 1) -> tuple[str, str, str]:
    """Netlist, intent and activity texts of a flat SoC: ``cells`` std cells
    spread over ``islands`` islands at three supplies (odd ones switchable),
    a manager cell, one net per cell with one to three random loads, and
    ``windows`` observation windows of toggles per net."""
    intent = "".join(
        f"island isl{i} vdd={VOLTAGES[i % len(VOLTAGES)]} switchable={i % 2}\n" for i in range(islands)
    )
    lines = [
        f"cell c{i} kind=std island=isl{rng.randrange(islands)} cap_ff={rng.uniform(1.0, 50.0):.2f}"
        f" gates={rng.randint(1, 64)}\n"
        for i in range(cells)
    ]
    lines.append("cell pim0 kind=pim island=isl0 cap_ff=5.00 gates=200\n")
    for i in range(cells):
        loads = ",".join(f"c{rng.randrange(cells)}.a{j}" for j in range(rng.randint(1, 3)))
        lines.append(f"net n{i} driver=c{rng.randrange(cells)}.z loads={loads}\n")
    activity = "".join(
        f"net n{i} toggles={rng.randint(0, 300)} duration_ns=1000.0\n" for _ in range(windows) for i in range(cells)
    )
    return "".join(lines), intent, activity


def reference_dynamic_w(design: Design, activity: dict[str, float], params: DynamicPowerParams) -> list[float]:
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
            params.k * driver.cap_ff * 1e-15 * vdd * vdd * params.f_clk_mhz * 1e6 * activity.get(net.name, 0.0)
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


@dataclass(frozen=True)
class ReferencePimState:
    """The controller state as eight stored fields, signals included."""

    config: PimConfig
    fsm: PimFsm = PimFsm.ACTIVE
    iso: bool = False
    slpb_bias_on: bool = False
    ret_saved: bool = False
    sleep_request: bool = False
    now: float = 0.0
    deadline: float | None = None


def reference_pim_read_status(state: ReferencePimState) -> PimStatus:
    if state.fsm is PimFsm.ACTIVE:
        return PimStatus.READY
    if state.fsm is PimFsm.SLEEP:
        return PimStatus.SLEEPING
    return PimStatus.BUSY


def _reference_begin_entry(state: ReferencePimState) -> ReferencePimState:
    return replace(state, fsm=PimFsm.ISO_ON, deadline=state.now + state.config.t_iso_on)


def _reference_begin_exit(state: ReferencePimState) -> ReferencePimState:
    return replace(state, fsm=PimFsm.BIAS_OFF, deadline=state.now + state.config.t_bias_off)


def reference_pim_write_sleep(state: ReferencePimState, value: bool | None = None) -> ReferencePimState:
    if state.config.explicit_bit:
        if value is None:
            raise ValueError("explicit_bit mode requires a written value")
        request = bool(value)
    else:
        if value is not None:
            raise ValueError("toggle mode takes no written value")
        request = not state.sleep_request
    state = replace(state, sleep_request=request)
    if state.fsm is PimFsm.ACTIVE and request:
        return _reference_begin_entry(state)
    if state.fsm is PimFsm.SLEEP and not request:
        return _reference_begin_exit(state)
    return state


def _reference_complete_step(state: ReferencePimState) -> tuple[ReferencePimState, list[tuple[float, str]]]:
    t = state.deadline
    assert t is not None
    cfg = state.config
    if state.fsm is PimFsm.ISO_ON:
        state = replace(state, now=t, iso=True, fsm=PimFsm.SAVING, deadline=t + cfg.t_save)
        events = [(t, "ISO=1")]
    elif state.fsm is PimFsm.SAVING:
        state = replace(state, now=t, ret_saved=True, fsm=PimFsm.BIAS_ON, deadline=t + cfg.t_bias_on)
        events = [(t, "SAVE_DONE")]
    elif state.fsm is PimFsm.BIAS_ON:
        state = replace(state, now=t, slpb_bias_on=True, fsm=PimFsm.SLEEP, deadline=None)
        events = [(t, "BIAS=1")]
        if not state.sleep_request:
            state = _reference_begin_exit(state)
    elif state.fsm is PimFsm.BIAS_OFF:
        state = replace(state, now=t, slpb_bias_on=False, fsm=PimFsm.RESTORING, deadline=t + cfg.t_restore)
        events = [(t, "BIAS=0")]
    elif state.fsm is PimFsm.RESTORING:
        state = replace(state, now=t, ret_saved=False, fsm=PimFsm.ISO_OFF, deadline=t + cfg.t_iso_off)
        events = [(t, "RESTORE_DONE")]
    elif state.fsm is PimFsm.ISO_OFF:
        state = replace(state, now=t, iso=False, fsm=PimFsm.ACTIVE, deadline=None)
        events = [(t, "ISO=0"), (t, "STATUS=ready")]
        if state.sleep_request:
            state = _reference_begin_entry(state)
    else:
        raise AssertionError(f"no step to complete in {state.fsm}")
    return state, events


def reference_pim_advance(state: ReferencePimState, dt: float) -> tuple[ReferencePimState, list[tuple[float, str]]]:
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    return _reference_advance_to(state, state.now + dt)


def _reference_advance_to(state: ReferencePimState, end: float) -> tuple[ReferencePimState, list[tuple[float, str]]]:
    events: list[tuple[float, str]] = []
    while state.deadline is not None and state.deadline <= end:
        state, step_events = _reference_complete_step(state)
        events.extend(step_events)
    return replace(state, now=end), events


def reference_pim_run_script(
    config: PimConfig | None, script: tuple[ScriptCommand, ...] | list[ScriptCommand]
) -> Trace:
    """The controller as six ``replace``-based branches, one ``replace`` per
    changed field set; `pimsim.pim_run_script` must give the same events."""
    state = ReferencePimState(config or PimConfig())
    events: list[tuple[float, str]] = []
    for position, command in enumerate(script, start=1):
        if command.time_ns < state.now:
            raise ValueError(f"script times must be non-decreasing (got {command.time_ns:g} ns)")
        state, due = _reference_advance_to(state, command.time_ns)  # the command's time, exactly
        events.extend(due)
        if command.op == "write_sleep":
            try:
                state = reference_pim_write_sleep(state, command.value)
            except ValueError as err:
                raise ValueError(f"script command {position} at {command.time_ns:g} ns: {err}") from None
            events.append((state.now, "WRITE_SLEEP"))
        elif command.op == "read_status":
            events.append((state.now, f"STATUS={reference_pim_read_status(state).value}"))
        else:
            raise ValueError(f"unknown script command '{command.op}'")
    return Trace(tuple(events))


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
