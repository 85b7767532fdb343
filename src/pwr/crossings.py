"""Power-domain crossing checks and netlist repair.

Crossing rules, evaluated per (net, receiving island) pair by tracing each
net through any level-shifter/isolation cells already on the path:

* a driver swinging below the receiver's supply needs a level shifter;
* a driver swinging at or above the receiver's supply is safe into plain
  gate inputs (transmission-gate libraries flip this, see
  ``assume_transmission_gates``);
* any net leaving a switchable island needs an isolation cell outside
  that island;
* nets that stay inside one island are never flagged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum

from .netlist import (
    SLEEPABLE_KINDS,
    CellInstance,
    CellKind,
    Design,
    Endpoint,
    Net,
    Port,
)

__all__ = [
    "IssueKind",
    "CrossingIssue",
    "Violation",
    "analyze_crossings",
    "apply_power_fixes",
    "insert_sleep_pins",
    "verify_power_intent",
]


class IssueKind(str, Enum):
    NEEDS_LEVEL_SHIFTER = "needs_level_shifter"
    NEEDS_ISOLATION = "needs_isolation"


@dataclass(frozen=True)
class CrossingIssue:
    net: str
    driver_island: str
    receiver_island: str
    kind: IssueKind
    rationale: str


@dataclass(frozen=True)
class Violation:
    kind: str  # "crossing" | "missing_sleep_pin"
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.subject}: {self.detail}"


def analyze_crossings(design: Design, assume_transmission_gates: bool = False) -> list[CrossingIssue]:
    """Report every island crossing that still needs a shifter or iso cell.

    Existing level-shifter/iso cells are walked through: a shifter re-drives
    the signal at its own island's supply, and an iso cell discharges the
    isolation requirement only if it sits outside the driving island.
    Port endpoints carry no island and are skipped.  The walk itself is
    cached on the design's topology; only the supplies are read per call.
    """
    islands = design.islands_by_name()
    issues: list[CrossingIssue] = []
    for net, driver_name, terminals in design.topology.crossing_walks:
        driver_island = islands[driver_name]
        seen: set[tuple[str, IssueKind]] = set()
        for receiver_name, swing_island, isolated in terminals:
            receiver = islands[receiver_name]
            eff_vdd = islands[swing_island].vdd
            needs_shift = eff_vdd < receiver.vdd or (assume_transmission_gates and eff_vdd > receiver.vdd)
            if needs_shift and (receiver_name, IssueKind.NEEDS_LEVEL_SHIFTER) not in seen:
                seen.add((receiver_name, IssueKind.NEEDS_LEVEL_SHIFTER))
                issues.append(CrossingIssue(
                    net, driver_name, receiver_name, IssueKind.NEEDS_LEVEL_SHIFTER,
                    f"signal swings {eff_vdd:g} V into island '{receiver_name}' at {receiver.vdd:g} V"
                    " with no level shifter on the path",
                ))
            if driver_island.switchable and not isolated and (receiver_name, IssueKind.NEEDS_ISOLATION) not in seen:
                seen.add((receiver_name, IssueKind.NEEDS_ISOLATION))
                issues.append(CrossingIssue(
                    net, driver_name, receiver_name, IssueKind.NEEDS_ISOLATION,
                    f"net leaves switchable island '{driver_name}' toward '{receiver_name}'"
                    " with no isolation cell on the path",
                ))
    return issues


def _fix_cell_name(prefix: str, net: str, receiver: str, unique_for_net: bool) -> str:
    return f"{prefix}_{net}" if unique_for_net else f"{prefix}_{net}_{receiver}"


def apply_power_fixes(design: Design, issues: list[CrossingIssue]) -> Design:
    """Splice level shifters / isolation cells at the receiver side of each issue.

    Inserted cells live in the receiving island and get deterministic names
    (``ls_<net>`` / ``iso_<net>``, suffixed with the island when one net needs
    the same fix toward several islands).  Adds exactly one cell per issue and
    leaves everything else untouched; re-analysis of the result is clean.

    Issues must come from ``analyze_crossings`` on this same design; in
    particular the flagged nets must still have direct loads in the
    receiving island.
    """
    if not issues:
        return design
    cells = design.cells_by_name()
    nets_by_name = design.nets_by_name()
    for issue in issues:
        if issue.net not in nets_by_name:
            raise ValueError(f"issue references unknown net '{issue.net}'")

    # one fix chain per (net, receiving island), level shifter ahead of iso
    groups: dict[tuple[str, str], list[IssueKind]] = {}
    for issue in issues:
        kinds = groups.setdefault((issue.net, issue.receiver_island), [])
        if issue.kind not in kinds:
            kinds.append(issue.kind)
    kind_counts = Counter((issue.net, issue.kind) for issue in issues)

    new_cells: list[CellInstance] = []
    added_nets: list[Net] = []
    patched: dict[str, Net] = {}
    taken_cell_names = set(cells)
    taken_net_names = set(nets_by_name)

    for (net_name, receiver), kinds in groups.items():
        net = patched.get(net_name, nets_by_name[net_name])
        receiver_loads: list[Endpoint] = []
        other_loads: list[Endpoint] = []
        for ep in net.loads:
            cell = cells.get(ep.cell)
            if cell is not None and cell.island == receiver:
                receiver_loads.append(ep)
            else:
                other_loads.append(ep)
        if not receiver_loads:
            raise ValueError(
                f"net '{net_name}' has no direct loads in island '{receiver}'; re-run the analysis"
            )

        chain: list[CellInstance] = []
        for kind in (IssueKind.NEEDS_LEVEL_SHIFTER, IssueKind.NEEDS_ISOLATION):
            if kind not in kinds:
                continue
            prefix = "ls" if kind is IssueKind.NEEDS_LEVEL_SHIFTER else "iso"
            cell_kind = CellKind.LEVEL_SHIFTER if kind is IssueKind.NEEDS_LEVEL_SHIFTER else CellKind.ISO
            name = _fix_cell_name(prefix, net_name, receiver, kind_counts[(net_name, kind)] == 1)
            if name in taken_cell_names:
                raise ValueError(f"generated cell name '{name}' collides with an existing cell")
            taken_cell_names.add(name)
            chain.append(CellInstance(name, cell_kind, receiver))
        new_cells.extend(chain)

        patched[net_name] = replace(net, loads=tuple(other_loads) + (Endpoint(chain[0].name, "a"),))
        for i, fix_cell in enumerate(chain):
            out_name = f"{fix_cell.name}_out"
            if out_name in taken_net_names:
                raise ValueError(f"generated net name '{out_name}' collides with an existing net")
            taken_net_names.add(out_name)
            loads = (Endpoint(chain[i + 1].name, "a"),) if i + 1 < len(chain) else tuple(receiver_loads)
            added_nets.append(Net(out_name, Endpoint(fix_cell.name, "z"), loads))

    nets = tuple(patched.get(n.name, n) for n in design.nets) + tuple(added_nets)
    return replace(design, cells=design.cells + tuple(new_cells), nets=nets)


def insert_sleep_pins(design: Design, island_name: str) -> Design:
    """Hook every sleepable cell of a switchable island to its SLPB net.

    The net ``slpb_<island>`` is driven by the design's power-island manager
    cell when present, otherwise by a new top-level input port.  Shifter,
    iso, and manager cells never take sleep pins.  Idempotent.
    """
    islands = design.islands_by_name()
    if island_name not in islands:
        raise ValueError(f"island unknown: '{island_name}'")
    if not islands[island_name].switchable:
        raise ValueError(f"island not switchable: '{island_name}'")

    targets = [c for c in design.cells if c.island == island_name and c.kind in SLEEPABLE_KINDS]
    if not targets:
        return design

    net_name = f"slpb_{island_name}"
    existing = design.nets_by_name().get(net_name)
    ports = design.ports
    if existing is not None:
        driver = existing.driver
    else:
        pim = design.pim_cell()
        if pim is not None:
            driver = Endpoint(pim.name, net_name)
        else:
            if net_name not in design.ports_by_name():
                ports = ports + (Port(net_name, "in", islands[island_name].vdd),)
            driver = Endpoint(net_name, "p")

    loads = list(existing.loads) if existing is not None else []
    connected = {ep.cell for ep in loads}
    for cell in targets:
        if cell.name not in connected:
            loads.append(Endpoint(cell.name, "slpb"))
    slpb_net = Net(net_name, driver, tuple(loads))

    if existing is not None:
        nets = tuple(slpb_net if n.name == net_name else n for n in design.nets)
    else:
        nets = design.nets + (slpb_net,)
    cells = tuple(
        replace(c, has_sleep_pin=True)
        if c.island == island_name and c.kind in SLEEPABLE_KINDS
        else c
        for c in design.cells
    )
    return replace(design, cells=cells, nets=nets, ports=ports)


def verify_power_intent(design: Design) -> list[Violation]:
    """Regression gate: no open crossings, no sleep-pin-less cells in
    switchable islands (reported in island order, then cell order)."""
    violations = [
        Violation("crossing", issue.net, f"{issue.kind.value}: {issue.rationale}")
        for issue in analyze_crossings(design)
    ]
    unpinned: dict[str, list[Violation]] = {i.name: [] for i in design.islands if i.switchable}
    for cell in design.cells:
        if cell.island in unpinned and cell.kind in SLEEPABLE_KINDS and not cell.has_sleep_pin:
            unpinned[cell.island].append(Violation(
                "missing_sleep_pin", cell.name,
                f"cell in switchable island '{cell.island}' has no sleep pin",
            ))
    for island in design.islands:
        if island.switchable:
            violations.extend(unpinned[island.name])
    return violations
