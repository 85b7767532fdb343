"""Domain model and parsers for the island/netlist file formats.

All input formats are line based UTF-8: ``#`` starts a comment, tokens are
whitespace separated, and attributes are ``key=value`` pairs.  Four formats
share this shape:

* intent file     -- ``island <name> vdd=<float> switchable=<0|1> retention=<0|1>``
* netlist file    -- ``cell``, ``net`` and ``port`` statements
* activity file   -- ``net <name> toggles=<int> duration_ns=<float>``
* characterization -- ``op <class> vdd=<f> fmax_mhz=<f> area_um2=<f> cap_factor=<f>``

Every parsed value is immutable after construction, so designs and profiles
can be shared freely across threads.

A ``Design`` also carries a topology index (name maps, gate sums per
island, dynamic-power terms and the crossing walk), built member by member
on first use and then kept.  Each cached member is a pure function of the
frozen fields it reads, so a thread race can compute one twice but never
get a different value.  The walk and the power terms depend only on
``cells`` and ``nets``: ``Design.with_supplies`` retargets the island
supplies and shares the index, while any other new ``Design`` builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "ParseError",
    "CellKind",
    "Endpoint",
    "Island",
    "CellInstance",
    "Net",
    "Port",
    "Design",
    "Topology",
    "DesignError",
    "ActivityProfile",
    "CharRow",
    "CharTable",
    "parse_design",
    "serialize_design",
    "parse_activity",
    "parse_characterization",
    "validate_design",
]


class ParseError(Exception):
    """Malformed input text; pinpoints the offending line and token."""

    def __init__(self, source: str, line_no: int, message: str) -> None:
        self.source = source
        self.line_no = line_no
        self.message = message
        super().__init__(f"{source} line {line_no}: {message}")


class CellKind(str, Enum):
    STD = "std"
    LEVEL_SHIFTER = "levelshifter"
    ISO = "iso"
    RET_FF = "retff"
    SRAM = "sram"
    PIM = "pim"


# Kinds spliced in by the crossing fixer; they relay signals between domains.
FIX_KINDS = frozenset((CellKind.LEVEL_SHIFTER, CellKind.ISO))
# Kinds that carry a sleep transistor and therefore take an SLPB pin.
SLEEPABLE_KINDS = frozenset((CellKind.STD, CellKind.RET_FF, CellKind.SRAM))

# Clock nets toggle twice per cycle, which bounds switching activity.
SA_MAX = 2.0


class Endpoint(NamedTuple):
    """A (cell-or-port, pin) connection point of a net."""

    cell: str
    pin: str

    def __str__(self) -> str:
        return f"{self.cell}.{self.pin}"


@dataclass(frozen=True)
class Island:
    """A supply region. ``switchable`` islands can be powered down."""

    name: str
    vdd: float
    switchable: bool = False
    retention: bool = False


@dataclass(frozen=True)
class CellInstance:
    name: str
    kind: CellKind
    island: str
    cap_ff: float = 0.0  # switched capacitance attributed to this cell's driven nets
    gate_count: int = 1  # leakage-equivalent gates
    has_sleep_pin: bool = False


@dataclass(frozen=True)
class Net:
    name: str
    driver: Endpoint
    loads: tuple[Endpoint, ...] = ()


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    vdd: float


# A load reached by walking a net through the fix cells on its path:
# (receiving island, island whose supply sets the arriving swing,
#  whether an iso cell outside the driver's island is on the path).
Terminal = tuple[str, str, bool]
# One cell-driven net's walk: (net, driver island, distinct foreign terminals).
CrossingWalk = tuple[str, str, tuple[Terminal, ...]]


class Topology:
    """Supply-independent index over one ``(cells, nets)`` pair.

    Every member is computed on first use from the tuples it was given and
    never changes afterwards.  Mappings are read-only views.
    """

    def __init__(self, cells: tuple[CellInstance, ...], nets: tuple[Net, ...]) -> None:
        self._cells = cells
        self._nets = nets

    @cached_property
    def _cell_map(self) -> dict[str, CellInstance]:
        return {c.name: c for c in self._cells}

    @cached_property
    def cells_by_name(self) -> Mapping[str, CellInstance]:
        return MappingProxyType(self._cell_map)

    @cached_property
    def nets_by_name(self) -> Mapping[str, Net]:
        return MappingProxyType({n.name: n for n in self._nets})

    @cached_property
    def gates_by_island(self) -> Mapping[str, int]:
        out: dict[str, int] = {}
        for cell in self._cells:
            out[cell.island] = out.get(cell.island, 0) + cell.gate_count
        return MappingProxyType(out)

    @cached_property
    def pim(self) -> CellInstance | None:
        return next((c for c in self._cells if c.kind is CellKind.PIM), None)

    @cached_property
    def dynamic_terms(self) -> Mapping[str, tuple[tuple[float, str], ...]]:
        """``(cap_ff, net)`` of every cell-driven net, grouped by the driver's
        island and in net order within each island."""
        cells = self._cell_map
        out: dict[str, list[tuple[float, str]]] = {}
        for net in self._nets:
            driver = cells.get(net.driver.cell)
            if driver is not None:
                out.setdefault(driver.island, []).append((driver.cap_ff, net.name))
        return MappingProxyType({island: tuple(terms) for island, terms in out.items()})

    @cached_property
    def crossing_walks(self) -> tuple[CrossingWalk, ...]:
        """Breadth-first walk of every cell-driven net through the level
        shifters and iso cells on its path, in net order.

        A shifter re-drives the signal at its own island's supply, and an iso
        cell provides isolation only outside the driving island.  Port loads
        are skipped.  Only distinct terminals outside the driver's island are
        kept, in walk order, and nets without one are dropped.
        """
        cells = self._cell_map
        # the walk only continues through fix cells, so only their nets matter
        relayed: dict[str, list[Net]] = {}
        for net in self._nets:
            relay = cells.get(net.driver.cell)
            if relay is not None and relay.kind in FIX_KINDS:
                relayed.setdefault(relay.name, []).append(net)
        # identical terminals and terminal sets are shared between nets
        shared: dict[tuple, tuple] = {}
        walks: list[CrossingWalk] = []
        for net in self._nets:
            driver = cells.get(net.driver.cell)
            if driver is None:
                continue
            home = driver.island
            frontier = [(net, home, False)]
            visited = {net.name}
            terminals: list[Terminal] = []
            for current, swing, isolated in frontier:  # grows while iterated: BFS order
                for ep in current.loads:
                    load = cells.get(ep.cell)
                    if load is None:
                        continue
                    if load.kind in FIX_KINDS:
                        next_swing = load.island if load.kind is CellKind.LEVEL_SHIFTER else swing
                        next_iso = isolated or (load.kind is CellKind.ISO and load.island != home)
                        for onward in relayed.get(load.name, ()):
                            if onward.name not in visited:
                                visited.add(onward.name)
                                frontier.append((onward, next_swing, next_iso))
                    elif load.island != home:
                        terminal = (load.island, swing, isolated)
                        if terminal not in terminals:
                            terminals.append(shared.setdefault(terminal, terminal))
            if terminals:
                found = tuple(terminals)
                walks.append((net.name, home, shared.setdefault(found, found)))
        return tuple(walks)


@dataclass(frozen=True)
class Design:
    """A flat gate-level design plus its power intent."""

    islands: tuple[Island, ...] = ()
    cells: tuple[CellInstance, ...] = ()
    nets: tuple[Net, ...] = ()
    ports: tuple[Port, ...] = ()

    def __getstate__(self) -> dict[str, object]:
        # cached members are rebuilt on demand, never pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def topology(self) -> Topology:
        """The shared index over ``cells`` and ``nets``; see ``Topology``."""
        return Topology(self.cells, self.nets)

    @cached_property
    def _islands_by_name(self) -> Mapping[str, Island]:
        return MappingProxyType({i.name: i for i in self.islands})

    @cached_property
    def _ports_by_name(self) -> Mapping[str, Port]:
        return MappingProxyType({p.name: p for p in self.ports})

    def islands_by_name(self) -> Mapping[str, Island]:
        return self._islands_by_name

    def cells_by_name(self) -> Mapping[str, CellInstance]:
        return self.topology.cells_by_name

    def nets_by_name(self) -> Mapping[str, Net]:
        return self.topology.nets_by_name

    def ports_by_name(self) -> Mapping[str, Port]:
        return self._ports_by_name

    def pim_cell(self) -> CellInstance | None:
        return self.topology.pim

    def with_supplies(self, vdd_by_island: Mapping[str, float]) -> Design:
        """A copy with the named islands retargeted to new supplies.

        Islands missing from the mapping keep their supply.  Cells and nets
        are unchanged, so the copy shares this design's topology index.
        """
        unknown = set(vdd_by_island) - set(self.islands_by_name())
        if unknown:
            raise ValueError(f"unknown island '{min(unknown)}'")
        retargeted = replace(
            self,
            islands=tuple(replace(i, vdd=vdd_by_island.get(i.name, i.vdd)) for i in self.islands),
        )
        object.__setattr__(retargeted, "topology", self.topology)
        return retargeted


@dataclass(frozen=True)
class DesignError:
    """One broken design invariant, attached to the offending object."""

    category: str
    name: str
    rule: str

    def __str__(self) -> str:
        return f"{self.category} {self.name}: {self.rule}"


@dataclass(frozen=True)
class ActivityProfile:
    """Per-net switching activity in toggles per clock cycle.

    Nets absent from the profile default to zero activity; partial coverage
    is normal for simulation-derived toggle data.
    """

    sa_by_net: Mapping[str, float]
    f_clk_mhz: float
    duration_ns: float

    def sa(self, net: str) -> float:
        return self.sa_by_net.get(net, 0.0)


@dataclass(frozen=True)
class CharRow:
    """One measured operating point of an island class."""

    island_class: str
    vdd: float
    fmax_mhz: float
    area_um2: float
    cap_factor: float  # switched-capacitance ratio vs the baseline library


@dataclass(frozen=True)
class CharTable:
    rows: tuple[CharRow, ...] = ()

    def rows_for(self, island_class: str) -> tuple[CharRow, ...]:
        return tuple(r for r in self.rows if r.island_class == island_class)

    def row(self, island_class: str, vdd: float) -> CharRow | None:
        for r in self.rows:
            if r.island_class == island_class and r.vdd == vdd:
                return r
        return None


# ---------------------------------------------------------------------------
# tokenizing helpers shared by all four formats


def _token_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield line_no, line.split()


def _attrs(
    source: str,
    line_no: int,
    tokens: Iterable[str],
    required: tuple[str, ...],
    optional: tuple[str, ...] = (),
) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise ParseError(source, line_no, f"expected key=value, got '{tok}'")
        if key not in required and key not in optional:
            raise ParseError(source, line_no, f"unknown attribute '{key}'")
        if key in out:
            raise ParseError(source, line_no, f"duplicate attribute '{key}'")
        out[key] = value
    for key in required:
        if key not in out:
            raise ParseError(source, line_no, f"missing attribute '{key}'")
    return out


def _name_token(source: str, line_no: int, tokens: list[str]) -> str:
    if len(tokens) < 2 or "=" in tokens[1]:
        raise ParseError(source, line_no, f"'{tokens[0]}' statement needs a name")
    return tokens[1]


def _float(source: str, line_no: int, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ParseError(source, line_no, f"bad number for {key}: '{value}'") from None
    if not math.isfinite(number):
        raise ParseError(source, line_no, f"{key} must be finite, got '{value}'")
    return number


def _int(source: str, line_no: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(source, line_no, f"bad integer for {key}: '{value}'") from None


def _flag(source: str, line_no: int, key: str, value: str) -> bool:
    if value not in ("0", "1"):
        raise ParseError(source, line_no, f"bad flag for {key}: '{value}' (want 0 or 1)")
    return value == "1"


def _endpoint(source: str, line_no: int, value: str) -> Endpoint:
    cell, sep, pin = value.rpartition(".")
    if not sep or not cell or not pin:
        raise ParseError(source, line_no, f"bad endpoint '{value}' (want cell.pin)")
    return Endpoint(cell, pin)


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# design parsing / validation / serialization


def parse_design(netlist_text: str, intent_text: str) -> Design:
    """Parse a netlist plus power-intent pair into a validated Design.

    Raises ParseError on bad syntax or on any violated design invariant
    (duplicate names, unknown island references, unresolved endpoints).
    """
    islands: list[Island] = []
    island_lines: dict[str, int] = {}
    for line_no, tokens in _token_lines(intent_text):
        if tokens[0] != "island":
            raise ParseError("intent", line_no, f"unknown directive '{tokens[0]}'")
        name = _name_token("intent", line_no, tokens)
        if name in island_lines:
            raise ParseError("intent", line_no, f"duplicate island '{name}'")
        attrs = _attrs("intent", line_no, tokens[2:], required=("vdd",), optional=("switchable", "retention"))
        vdd = _float("intent", line_no, "vdd", attrs["vdd"])
        if vdd <= 0:
            raise ParseError("intent", line_no, f"vdd must be positive, got '{attrs['vdd']}'")
        switchable = _flag("intent", line_no, "switchable", attrs.get("switchable", "0"))
        retention = _flag("intent", line_no, "retention", attrs.get("retention", "0"))
        if retention and not switchable:
            raise ParseError("intent", line_no, f"island '{name}': retention requires switchable")
        islands.append(Island(name, vdd, switchable, retention))
        island_lines[name] = line_no

    cells: list[CellInstance] = []
    nets: list[Net] = []
    ports: list[Port] = []
    cell_lines: dict[str, int] = {}
    net_lines: dict[str, int] = {}
    port_lines: dict[str, int] = {}
    pim_name: str | None = None

    for line_no, tokens in _token_lines(netlist_text):
        stmt = tokens[0]
        if stmt == "cell":
            name = _name_token("netlist", line_no, tokens)
            if name in cell_lines:
                raise ParseError("netlist", line_no, f"duplicate cell '{name}'")
            attrs = _attrs(
                "netlist", line_no, tokens[2:],
                required=("kind", "island"),
                optional=("cap_ff", "gates", "sleep"),
            )
            try:
                kind = CellKind(attrs["kind"])
            except ValueError:
                raise ParseError("netlist", line_no, f"unknown cell kind '{attrs['kind']}'") from None
            if attrs["island"] not in island_lines:
                raise ParseError("netlist", line_no, f"unknown island '{attrs['island']}'")
            cap_ff = _float("netlist", line_no, "cap_ff", attrs.get("cap_ff", "0"))
            if cap_ff < 0:
                raise ParseError("netlist", line_no, f"cap_ff must be >= 0, got '{attrs['cap_ff']}'")
            gates = _int("netlist", line_no, "gates", attrs.get("gates", "1"))
            if gates < 1:
                raise ParseError("netlist", line_no, f"gates must be >= 1, got '{attrs['gates']}'")
            sleep = _flag("netlist", line_no, "sleep", attrs.get("sleep", "0"))
            if kind is CellKind.PIM:
                if pim_name is not None:
                    raise ParseError("netlist", line_no, f"multiple pim cells ('{pim_name}' and '{name}')")
                pim_name = name
            cells.append(CellInstance(name, kind, attrs["island"], cap_ff, gates, sleep))
            cell_lines[name] = line_no
        elif stmt == "net":
            name = _name_token("netlist", line_no, tokens)
            if name in net_lines:
                raise ParseError("netlist", line_no, f"duplicate net '{name}'")
            attrs = _attrs("netlist", line_no, tokens[2:], required=("driver",), optional=("loads",))
            driver = _endpoint("netlist", line_no, attrs["driver"])
            loads = tuple(
                _endpoint("netlist", line_no, item)
                for item in attrs.get("loads", "").split(",")
                if item
            )
            nets.append(Net(name, driver, loads))
            net_lines[name] = line_no
        elif stmt == "port":
            name = _name_token("netlist", line_no, tokens)
            if name in port_lines:
                raise ParseError("netlist", line_no, f"duplicate port '{name}'")
            attrs = _attrs("netlist", line_no, tokens[2:], required=("dir", "vdd"))
            if attrs["dir"] not in ("in", "out"):
                raise ParseError("netlist", line_no, f"bad direction '{attrs['dir']}' (want in or out)")
            ports.append(Port(name, attrs["dir"], _float("netlist", line_no, "vdd", attrs["vdd"])))
            port_lines[name] = line_no
        else:
            raise ParseError("netlist", line_no, f"unknown directive '{stmt}'")

    # endpoint resolution needs the full symbol table, so it runs last
    endpoint_names = set(cell_lines) | set(port_lines)
    out_ports = {p.name for p in ports if p.direction == "out"}
    for net in nets:
        line_no = net_lines[net.name]
        if net.driver.cell not in endpoint_names:
            raise ParseError("netlist", line_no, f"net '{net.name}': unresolved driver '{net.driver}'")
        for ep in net.loads:
            if ep.cell not in endpoint_names:
                raise ParseError("netlist", line_no, f"net '{net.name}': unresolved load '{ep}'")
        if not net.loads and net.name not in out_ports:
            raise ParseError("netlist", line_no, f"net '{net.name}' has no loads and is not a top-level output")

    return Design(tuple(islands), tuple(cells), tuple(nets), tuple(ports))


def validate_design(design: Design) -> list[DesignError]:
    """Check every design invariant; empty result means the design is sound."""
    errors: list[DesignError] = []
    island_names: set[str] = set()
    for isl in design.islands:
        if isl.name in island_names:
            errors.append(DesignError("island", isl.name, "duplicate name"))
        island_names.add(isl.name)
        if not 0 < isl.vdd < math.inf:
            errors.append(DesignError("island", isl.name, "vdd must be positive and finite"))
        if isl.retention and not isl.switchable:
            errors.append(DesignError("island", isl.name, "retention requires switchable"))

    cell_names: set[str] = set()
    pim_count = 0
    for cell in design.cells:
        if cell.name in cell_names:
            errors.append(DesignError("cell", cell.name, "duplicate name"))
        cell_names.add(cell.name)
        if cell.island not in island_names:
            errors.append(DesignError("cell", cell.name, f"unknown island '{cell.island}'"))
        if not 0 <= cell.cap_ff < math.inf:
            errors.append(DesignError("cell", cell.name, "cap_ff must be finite and >= 0"))
        if cell.gate_count < 1:
            errors.append(DesignError("cell", cell.name, "gates must be >= 1"))
        if cell.kind is CellKind.PIM:
            pim_count += 1
            if pim_count > 1:
                errors.append(DesignError("cell", cell.name, "more than one pim cell"))

    port_names: set[str] = set()
    for port in design.ports:
        if port.name in port_names:
            errors.append(DesignError("port", port.name, "duplicate name"))
        port_names.add(port.name)

    endpoint_names = cell_names | port_names
    out_ports = {p.name for p in design.ports if p.direction == "out"}
    net_names: set[str] = set()
    for net in design.nets:
        if net.name in net_names:
            errors.append(DesignError("net", net.name, "duplicate name"))
        net_names.add(net.name)
        if net.driver.cell not in endpoint_names:
            errors.append(DesignError("net", net.name, "unresolved driver"))
        for ep in net.loads:
            if ep.cell not in endpoint_names:
                errors.append(DesignError("net", net.name, f"unresolved load '{ep}'"))
        if not net.loads and net.name not in out_ports:
            errors.append(DesignError("net", net.name, "no loads and not a top-level output"))

    return errors


def serialize_design(design: Design) -> tuple[str, str]:
    """Render a Design back into (netlist_text, intent_text).

    Round-trip stable: re-parsing the output yields a value-equal Design.
    """
    intent = [
        f"island {i.name} vdd={_num(i.vdd)} switchable={int(i.switchable)} retention={int(i.retention)}"
        for i in design.islands
    ]
    lines: list[str] = []
    for p in design.ports:
        lines.append(f"port {p.name} dir={p.direction} vdd={_num(p.vdd)}")
    for c in design.cells:
        stmt = (
            f"cell {c.name} kind={c.kind.value} island={c.island}"
            f" cap_ff={_num(c.cap_ff)} gates={c.gate_count}"
        )
        if c.has_sleep_pin:
            stmt += " sleep=1"
        lines.append(stmt)
    for n in design.nets:
        stmt = f"net {n.name} driver={n.driver}"
        if n.loads:
            stmt += " loads=" + ",".join(str(ep) for ep in n.loads)
        lines.append(stmt)
    return "\n".join(lines) + "\n", "\n".join(intent) + "\n"


# ---------------------------------------------------------------------------
# activity and characterization parsing


def parse_activity(activity_text: str, f_clk_mhz: float, design: Design | None = None) -> ActivityProfile:
    """Turn toggle counts into switching activity (toggles per clock cycle).

    sa = toggles / (duration_ns * f_clk_GHz).  Repeated lines for one net
    merge as consecutive observation windows.  Activity is capped at
    SA_MAX; nets missing from the file default to zero when queried.
    """
    if f_clk_mhz <= 0:
        raise ValueError(f"f_clk_mhz must be positive, got {f_clk_mhz}")
    known = design.nets_by_name() if design is not None else None
    toggles: dict[str, int] = {}
    durations: dict[str, float] = {}
    for line_no, tokens in _token_lines(activity_text):
        if tokens[0] != "net":
            raise ParseError("activity", line_no, f"unknown directive '{tokens[0]}'")
        name = _name_token("activity", line_no, tokens)
        if known is not None and name not in known:
            raise ParseError("activity", line_no, f"unknown net '{name}'")
        attrs = _attrs("activity", line_no, tokens[2:], required=("toggles", "duration_ns"))
        count = _int("activity", line_no, "toggles", attrs["toggles"])
        if count < 0:
            raise ParseError("activity", line_no, f"toggles must be >= 0, got '{attrs['toggles']}'")
        duration = _float("activity", line_no, "duration_ns", attrs["duration_ns"])
        if duration <= 0:
            raise ParseError("activity", line_no, f"duration_ns must be positive, got '{attrs['duration_ns']}'")
        toggles[name] = toggles.get(name, 0) + count
        durations[name] = durations.get(name, 0.0) + duration

    sa_by_net = {
        name: min(toggles[name] / (durations[name] * f_clk_mhz * 1e-3), SA_MAX)
        for name in toggles
    }
    return ActivityProfile(sa_by_net, f_clk_mhz, max(durations.values(), default=0.0))


def parse_characterization(char_text: str) -> CharTable:
    """Parse measured operating points; `calib` lines are handled elsewhere."""
    rows: list[CharRow] = []
    seen: set[tuple[str, float]] = set()
    for line_no, tokens in _token_lines(char_text):
        if tokens[0] == "calib":
            continue
        if tokens[0] != "op":
            raise ParseError("characterization", line_no, f"unknown directive '{tokens[0]}'")
        name = _name_token("characterization", line_no, tokens)
        attrs = _attrs(
            "characterization", line_no, tokens[2:],
            required=("vdd", "fmax_mhz", "area_um2", "cap_factor"),
        )
        vdd = _float("characterization", line_no, "vdd", attrs["vdd"])
        fmax = _float("characterization", line_no, "fmax_mhz", attrs["fmax_mhz"])
        area = _float("characterization", line_no, "area_um2", attrs["area_um2"])
        cap_factor = _float("characterization", line_no, "cap_factor", attrs["cap_factor"])
        if (name, vdd) in seen:
            raise ParseError("characterization", line_no, f"duplicate row for ({name}, {attrs['vdd']})")
        if fmax <= 0 or area <= 0:
            raise ParseError("characterization", line_no, "fmax_mhz and area_um2 must be positive")
        if cap_factor <= 0:
            raise ParseError("characterization", line_no, "cap_factor must be positive")
        seen.add((name, vdd))
        rows.append(CharRow(name, vdd, fmax, area, cap_factor))
    return CharTable(tuple(rows))
