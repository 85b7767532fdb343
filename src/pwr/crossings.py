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

from collections import Counter
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
    "fix_design",
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
    ``apply_power_fixes`` and ``fix_design``'s tally read ``_crossings``.
    """
    return [CrossingIssue(*issue) for issue in _crossings(design)]


def _crossings(design: Design) -> Iterator[tuple[str, str, str, IssueKind, float, float]]:
    """The fields of each ``analyze_crossings`` issue, in its order, as a plain
    tuple: what ``apply_power_fixes`` and ``fix_design``'s tally read."""
    islands = design.islands_by_name()
    for net, driver_name, terminals in zip(*design.topology.crossing_walks):
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


def _unique(name: str, taken: Container[str], also_taken: Container[str] = (), added: Container[str] = ()) -> str:
    """``name``, or the first ``name_<n>`` for n = 1, 2, ... that is in none
    of ``taken``, ``also_taken`` and ``added``."""
    unique, n = name, 0
    while unique in taken or unique in also_taken or unique in added:
        n += 1
        unique = f"{name}_{n}"
    return unique


# The fixes of one chain, in splice order: the bit that marks the fix in a
# chain's bits, its issue kind, its cell name prefix and its cell kind.
_FIXES = (
    (1, IssueKind.NEEDS_LEVEL_SHIFTER, "ls", CellKind.LEVEL_SHIFTER),
    (2, IssueKind.NEEDS_ISOLATION, "iso", CellKind.ISO),
)
_FIX_BIT = {kind: bit for bit, kind, _, _ in _FIXES}
# how every name the fixer generates begins
_FIX_PREFIXES = tuple(f"{prefix}_" for _, _, prefix, _ in _FIXES)


def apply_power_fixes(design: Design) -> Design:
    """Splice level shifters / isolation cells at the receiver side of each
    crossing ``analyze_crossings`` reports; a clean design comes back as is.

    Inserted cells live in the receiving island and get deterministic names
    (``ls_<net>`` / ``iso_<net>``, suffixed with the island when one net needs
    the same fix toward several islands, then with ``_<n>`` if the name is
    taken).  Adds one cell per distinct (net, receiving island, kind) and
    leaves everything else untouched; re-analysis of the result is clean.
    """
    # One fix chain per (net, receiving island): its bits sit at the
    # island's lane, two bits per island, in one int per net.  The chains
    # are spliced in the order of their first issues.
    lane = {island.name: 2 * at for at, island in enumerate(design.islands)}
    fixes_of: dict[str, int] = {}
    chain_nets: list[str] = []
    chain_receivers: list[str] = []
    for net_name, _, receiver, kind, _, _ in _crossings(design):
        fixes, bit = fixes_of.get(net_name, 0), _FIX_BIT[kind] << lane[receiver]
        if not fixes & bit:
            if not fixes >> lane[receiver] & 3:
                chain_nets.append(net_name)
                chain_receivers.append(receiver)
            fixes_of[net_name] = fixes | bit
    if not fixes_of:
        return design
    # each fix's bit in every lane, to count the chains of a net that need it
    every_lane = {bit: sum(bit << at for at in lane.values()) for bit, _, _, _ in _FIXES}
    cells = design.topology.cells_by_name
    ports = {port.name for port in design.ports}
    # the design's nets that a generated net name could clash with
    fix_nets = {net.name for net in design.nets if net.name.startswith(_FIX_PREFIXES)}

    # the cells this call adds, by name, in splice order; cells and ports
    # share a namespace
    new_cells: dict[str, CellInstance] = {}
    new_nets: list[Net] = []
    patched = {net.name: net for net in design.nets if net.name in fixes_of}
    for net_name, receiver in zip(chain_nets, chain_receivers):
        net = patched[net_name]
        # every crossing's receiver is a direct cell load of its net
        receiver_ends: list[str] = []
        other_ends = list(net.raw_ends[:2])
        for load, pin in zip(net.raw_ends[2::2], net.raw_ends[3::2]):
            cell = cells.get(load)
            (receiver_ends if cell is not None and cell.island == receiver else other_ends).extend((load, pin))

        fixes = fixes_of[net_name]
        chain: list[str] = []
        for bit, _, prefix, cell_kind in _FIXES:
            if not fixes >> lane[receiver] & bit:
                continue
            name = f"{prefix}_{net_name}"
            if (fixes & every_lane[bit]).bit_count() > 1:
                name += f"_{receiver}"
            name = _unique(name, cells, ports, new_cells)
            new_cells[name] = _make_cell(name, cell_kind, receiver, 0.0, 1, False)
            chain.append(name)

        patched[net_name] = _make_net(net_name, (*other_ends, chain[0], "a"))
        for i, fix_name in enumerate(chain):
            loads = (chain[i + 1], "a") if i + 1 < len(chain) else receiver_ends
            # ``<fix>_out`` or ``<fix>_out_<n>``: distinct for distinct fix cells
            out_name = _unique(f"{fix_name}_out", fix_nets)
            new_nets.append(_make_net(out_name, (fix_name, "z", *loads)))

    del fixes_of, chain_nets, chain_receivers  # the plan is freed before the records are copied
    nets = tuple(patched.get(n.name, n) for n in design.nets) + tuple(new_nets)
    return replace(design, cells=design.cells + tuple(new_cells.values()), nets=nets)


def insert_sleep_pins(design: Design) -> Design:
    """Hook every sleepable cell of every switchable island to its SLPB net.

    An island's sleep net is the first of ``slpb_<island>``,
    ``slpb_<island>_1``, ... that is free or driven by an input port or by the
    power-island manager cell's ``slpb_<island>`` pin: a net of such a name
    with another driver keeps its loads, and another switchable island's
    ``slpb_<island>`` is left to it.  A new sleep net is driven by the manager
    when present, otherwise by the input port of its name or else a new one at
    the island's supply (suffixed ``_<n>`` if a cell or port holds the name),
    in island order.  Shifter, iso, and manager cells never take sleep pins.
    A cell whose ``slpb`` pin is already a load of some net (say, of a spliced
    sleep-net shifter) only gets its flag set.  Idempotent.
    """
    # each switchable island's new sleep-net loads, flat: cell, "slpb", ...
    hooked: dict[str, list[str]] = {i.name: [] for i in design.islands if i.switchable}
    wired = _sleep_wired(design)
    cells = list(design.cells)
    for at, cell in enumerate(cells):
        if cell.island in hooked and cell.kind in SLEEPABLE_KINDS:
            if cell.name not in wired:
                hooked[cell.island] += cell.name, "slpb"
            if not cell.has_sleep_pin:
                cells[at] = _make_cell(cell.name, cell.kind, cell.island, cell.cap_ff, cell.gate_count, True)
    if not any(hooked.values()) and tuple(cells) == design.cells:
        return design

    nets = list(design.nets)
    ports = list(design.ports)
    manager = getattr(design.topology.pim, "name", None)
    inputs = {port.name for port in ports if port.direction == "in"}
    sleep_at = {net.name: at for at, net in enumerate(nets) if net.name.startswith("slpb_")}
    for island, loads in hooked.items():
        if not loads:
            continue
        pin = f"slpb_{island}"
        name = _unique(pin, {f"slpb_{other}" for other in hooked} - {pin}, {
            taken for taken, i in sleep_at.items()
            if nets[i].raw_ends[:2] != (manager, pin) and nets[i].raw_ends[0] not in inputs
        })
        at = sleep_at.get(name, len(nets))  # the island's sleep net, or a new one at the end
        if at < len(nets):
            ends = nets[at].raw_ends  # its driver and loads, then the new loads
        elif manager is not None:
            ends = (manager, pin)
        elif name in inputs:
            ends = (name, "p")
        else:
            ends = (_unique(name, design.topology.cells_by_name, {port.name for port in ports}), "p")
            ports.append(Port(ends[0], "in", design.islands_by_name()[island].vdd))
        nets[at:at + 1] = [_make_net(name, (*ends, *loads))]
    return replace(design, cells=tuple(cells), nets=tuple(nets), ports=tuple(ports))


def fix_design(design: Design) -> tuple[Design, tuple[int, int, int]]:
    """``apply_power_fixes(insert_sleep_pins(design))`` and the ``pwr fix`` counts: crossing issues (not
    cells) on the input's nets, sleep pins added, and crossing issues on the sleep nets the pin step adds."""
    pinned = insert_sleep_pins(design)
    pins = len(_sleep_wired(pinned)) - len(_sleep_wired(design))
    pin_nets = {n.name for n in pinned.nets[len(design.nets):]}  # the pin step appends its nets
    del design  # a caller that passes its parse result in keeps no reference to it
    fixes = Counter(net in pin_nets for net, *_ in _crossings(pinned))
    return apply_power_fixes(pinned), (fixes[False], pins, fixes[True])


def _sleep_wired(design: Design) -> set[str]:
    """Names of the cells whose ``slpb`` pin is a load of some net."""
    return {cell for net in design.nets for cell, pin in zip(net.raw_ends[2::2], net.raw_ends[3::2]) if pin == "slpb"}


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
