"""Power-domain crossing checks and netlist repair.

Each signal is walked from its real driver (any cell but a shifter or iso
cell) through the level-shifter/isolation cells already on its path.  An
issue names the net whose direct loads are the receivers: the net where
``apply_power_fixes`` splices the new cell.  Rules, per (net, receiving island):

* a driver swinging below the receiver's supply needs a level shifter;
* a driver swinging at or above the receiver's supply is safe into plain
  gate inputs;
* any net leaving a switchable island needs an isolation cell outside
  that island;
* nets that stay inside one island are never flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Container, Iterator

from .netlist import (
    SLEEPABLE_KINDS,
    CellInstance,
    CellKind,
    Design,
    Net,
    Port,
    Violation,
    _make_cell,
    _make_net,
)

__all__ = [
    "IssueKind",
    "CrossingIssue",
    "analyze_crossings",
    "apply_power_fixes",
    "insert_sleep_pins",
    "verify_power_intent",
]


class IssueKind(str, Enum):
    NEEDS_LEVEL_SHIFTER = "needs_level_shifter"
    NEEDS_ISOLATION = "needs_isolation"


@dataclass(frozen=True, slots=True)
class CrossingIssue:
    net: str
    driver_island: str
    receiver_island: str
    kind: IssueKind
    swing_v: float  # supply of the swing arriving at the receivers
    receiver_v: float

    @property
    def rationale(self) -> str:
        if self.kind is IssueKind.NEEDS_LEVEL_SHIFTER:
            return (
                f"signal swings {self.swing_v:g} V into island '{self.receiver_island}'"
                f" at {self.receiver_v:g} V with no level shifter on the path"
            )
        return (
            f"net leaves switchable island '{self.driver_island}' toward '{self.receiver_island}'"
            " with no isolation cell on the path"
        )


def analyze_crossings(design: Design) -> list[CrossingIssue]:
    """Report every island crossing that still needs a shifter or iso cell.

    Existing level-shifter/iso cells are walked through: a shifter re-drives
    the signal at its own island's supply, and an iso cell discharges the
    isolation requirement only if it sits outside the driving island.
    Port endpoints carry no island and are skipped.  The walk itself is
    cached on the design's topology; only the supplies are read per call.
    """
    return [CrossingIssue(*issue) for issue in _crossings(design)]


def _crossings(design: Design) -> Iterator[tuple[str, str, str, IssueKind, float, float]]:
    """The fields of each ``analyze_crossings`` issue, in its order, as a
    plain tuple: for callers that only count the issues."""
    islands = design.islands_by_name()
    for net, driver_name, terminals in design.topology.crossing_walks:
        switchable = islands[driver_name].switchable
        seen: set[tuple[str, IssueKind]] = set()
        for receiver_name, swing_island, isolated in terminals:
            receiver_v = islands[receiver_name].vdd
            swing_v = islands[swing_island].vdd
            if swing_v < receiver_v and (receiver_name, IssueKind.NEEDS_LEVEL_SHIFTER) not in seen:
                seen.add((receiver_name, IssueKind.NEEDS_LEVEL_SHIFTER))
                yield net, driver_name, receiver_name, IssueKind.NEEDS_LEVEL_SHIFTER, swing_v, receiver_v
            if switchable and not isolated and (receiver_name, IssueKind.NEEDS_ISOLATION) not in seen:
                seen.add((receiver_name, IssueKind.NEEDS_ISOLATION))
                yield net, driver_name, receiver_name, IssueKind.NEEDS_ISOLATION, swing_v, receiver_v


def _unique(name: str, added: set[str], taken: Container[str], also_taken: Container[str] = ()) -> str:
    """``name``, or the first ``name_<n>`` for n = 1, 2, ... that is in none
    of ``added``, ``taken`` and ``also_taken``; put in ``added``."""
    unique, n = name, 0
    while unique in added or unique in taken or unique in also_taken:
        n += 1
        unique = f"{name}_{n}"
    added.add(unique)
    return unique


# The fixes of one chain, in splice order: the bit that marks the fix in a
# chain's set, its issue kind, its cell name prefix and its cell kind.
_FIXES = (
    (1, IssueKind.NEEDS_LEVEL_SHIFTER, "ls", CellKind.LEVEL_SHIFTER),
    (2, IssueKind.NEEDS_ISOLATION, "iso", CellKind.ISO),
)
_FIX_BIT = {kind: bit for bit, kind, _, _ in _FIXES}


def apply_power_fixes(design: Design, issues: list[CrossingIssue]) -> Design:
    """Splice level shifters / isolation cells at the receiver side of each issue.

    Inserted cells live in the receiving island and get deterministic names
    (``ls_<net>`` / ``iso_<net>``, suffixed with the island when one net needs
    the same fix toward several islands, then with ``_<n>`` if the name is
    taken).  Adds one cell per distinct (net, receiving island, kind) and
    leaves everything else untouched; re-analysis of the result is clean.

    Issues must come from ``analyze_crossings`` on this same design.
    """
    if not issues:
        return design
    cells = design.cells_by_name()
    ports = design.ports_by_name()
    nets_by_name = design.nets_by_name()

    # one fix chain per (net, receiving island): the bits of its fixes
    groups: dict[tuple[str, str], int] = {}
    # per net, the bits of the fixes any of its chains needs, and shifted up
    # by two, those that more than one of its chains needs
    net_fixes: dict[str, int] = {}
    for issue in issues:
        if issue.net not in nets_by_name:
            raise ValueError(f"issue references unknown net '{issue.net}'")
        key = (issue.net, issue.receiver_island)
        fixes, bit = groups.get(key, 0), _FIX_BIT[issue.kind]
        if not fixes & bit:
            groups[key] = fixes | bit
            seen = net_fixes.get(issue.net, 0)
            net_fixes[issue.net] = seen | (bit << 2 if seen & bit else bit)

    new_cells: list[CellInstance] = []
    added_nets: list[Net] = []
    patched: dict[str, Net] = {}
    # names this call adds; cells and ports share the endpoint namespace
    added_cell_names: set[str] = set()
    added_net_names: set[str] = set()

    for (net_name, receiver), fixes in groups.items():
        net = patched.get(net_name, nets_by_name[net_name])
        receiver_loads: list[tuple[str, str]] = []
        other_loads: list[tuple[str, str]] = []
        for ep in net.raw_loads:
            cell = cells.get(ep[0])
            (receiver_loads if cell is not None and cell.island == receiver else other_loads).append(ep)
        if not receiver_loads:  # stale issues: analyze_crossings never gives these
            raise ValueError(f"net '{net_name}' has no direct loads in island '{receiver}'")

        chain: list[CellInstance] = []
        for bit, _, prefix, cell_kind in _FIXES:
            if not fixes & bit:
                continue
            name = f"{prefix}_{net_name}"
            if net_fixes[net_name] & bit << 2:
                name += f"_{receiver}"
            name = _unique(name, added_cell_names, cells, ports)
            chain.append(_make_cell(name, cell_kind, receiver, 0.0, 1, False))
        new_cells.extend(chain)

        other_loads.append((chain[0].name, "a"))
        patched[net_name] = _make_net(net_name, net.raw_driver, tuple(other_loads))
        for i, fix_cell in enumerate(chain):
            loads = ((chain[i + 1].name, "a"),) if i + 1 < len(chain) else tuple(receiver_loads)
            out_name = _unique(f"{fix_cell.name}_out", added_net_names, nets_by_name)
            added_nets.append(_make_net(out_name, (fix_cell.name, "z"), loads))

    nets = tuple(patched.get(n.name, n) for n in design.nets) + tuple(added_nets)
    return replace(design, cells=design.cells + tuple(new_cells), nets=nets)


def insert_sleep_pins(design: Design) -> Design:
    """Hook every sleepable cell of every switchable island to its SLPB net.

    The net ``slpb_<island>`` is driven by the design's power-island manager
    cell when present, otherwise by the input port of that name or else a
    new one at the island's supply (suffixed ``_<n>`` if a cell or port
    holds the name); new nets and ports are added in island order.  Shifter,
    iso, and manager cells never take sleep pins.  A cell whose ``slpb`` pin
    is already a load of some net (say, of a spliced sleep-net shifter) only
    gets its flag set.  Idempotent.
    """
    hooked: dict[str, list[tuple[str, str]]] = {i.name: [] for i in design.islands if i.switchable}
    wired = _sleep_wired(design)
    cells = list(design.cells)
    for at, cell in enumerate(cells):
        if cell.island in hooked and cell.kind in SLEEPABLE_KINDS:
            if cell.name not in wired:
                hooked[cell.island].append((cell.name, "slpb"))
            if not cell.has_sleep_pin:
                cells[at] = _make_cell(cell.name, cell.kind, cell.island, cell.cap_ff, cell.gate_count, True)
    pending = {f"slpb_{island}": (island, loads) for island, loads in hooked.items() if loads}
    if not pending and tuple(cells) == design.cells:
        return design

    nets = list(design.nets)
    for at, net in enumerate(nets):
        if net.name in pending:
            nets[at] = _make_net(net.name, net.raw_driver, net.raw_loads + tuple(pending.pop(net.name)[1]))
    ports = list(design.ports)
    pim = design.pim_cell()
    ports_by_name = design.ports_by_name()
    added: set[str] = set()
    for net_name, (island, loads) in pending.items():
        if pim is not None:
            driver = (pim.name, net_name)
        else:
            port = ports_by_name.get(net_name)
            if port is None or port.direction != "in":
                name = _unique(net_name, added, design.cells_by_name(), ports_by_name)
                port = Port(name, "in", design.islands_by_name()[island].vdd)
                ports.append(port)
            driver = (port.name, "p")
        nets.append(_make_net(net_name, driver, tuple(loads)))
    return replace(design, cells=tuple(cells), nets=tuple(nets), ports=tuple(ports))


def _sleep_wired(design: Design) -> set[str]:
    """Names of the cells whose ``slpb`` pin is a load of some net."""
    return {cell for net in design.nets for cell, pin in net.raw_loads if pin == "slpb"}


def verify_power_intent(design: Design) -> list[Violation]:
    """Regression gate: no open crossings, and every sleepable cell of a
    switchable island has a sleep pin that some net drives (reported in
    island order, then cell order)."""
    violations = [
        Violation("crossing", issue.net, f"{issue.kind.value}: {issue.rationale}")
        for issue in analyze_crossings(design)
    ]
    order = {i.name: at for at, i in enumerate(design.islands) if i.switchable}
    wired = _sleep_wired(design)
    unpinned = [
        c for c in design.cells
        if c.island in order and c.kind in SLEEPABLE_KINDS and not (c.has_sleep_pin and c.name in wired)
    ]
    unpinned.sort(key=lambda c: order[c.island])  # stable: cell order within an island
    return violations + [
        Violation("missing_sleep_pin", c.name, f"cell in switchable island '{c.island}' has " + (
            "a sleep pin no net drives" if c.has_sleep_pin else "no sleep pin"
        ))
        for c in unpinned
    ]
