"""Minimum-voltage selection and savings rollup against a characterization table.

Feasibility comes straight from measured post-route operating points, not
from a parametric delay law: achieved clock speed is an empirical outcome
of the flow, so the table is authoritative.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .crossings import IssueKind, _crossings
from .netlist import CharRow, CharTable, Design
from .power import DynamicPowerParams, dynamic_power

__all__ = [
    "VoltagePlan",
    "SavingsRow",
    "SavingsReport",
    "InfeasibleError",
    "select_min_voltage",
    "assign_voltages",
    "power_savings_summary",
]


class InfeasibleError(Exception):
    """No characterized operating point meets the frequency requirement."""

    def __init__(self, island_class: str, f_req_mhz: float, best_fmax_mhz: float) -> None:
        self.island_class = island_class
        self.f_req_mhz = f_req_mhz
        self.best_fmax_mhz = best_fmax_mhz
        super().__init__(
            f"island class '{island_class}': required {f_req_mhz:g} MHz exceeds"
            f" best available {best_fmax_mhz:g} MHz"
        )


@dataclass(frozen=True)
class VoltagePlan:
    """Chosen per-island operating points plus the retargeted design copy."""

    choices: Mapping[str, CharRow]
    f_req_mhz: Mapping[str, float | None]
    baseline_v: float
    baseline_points: Mapping[str, CharRow | None]
    retargeted: Design

    def point(self, island: str) -> CharRow:
        try:
            return self.choices[island]
        except KeyError:
            raise ValueError(f"plan does not cover island '{island}'") from None


@dataclass(frozen=True)
class SavingsRow:
    island: str
    vdd_from: float
    vdd_to: float
    theoretical_pct: float
    actual_pct: float
    area_delta_pct: float
    levelshifters_added: int
    iso_added: int
    within_theoretical: bool


@dataclass(frozen=True)
class SavingsReport:
    rows: tuple[SavingsRow, ...]
    baseline_dynamic_w: float
    planned_dynamic_w: float

    @property
    def total_actual_pct(self) -> float:
        if self.baseline_dynamic_w <= 0:
            return 0.0
        return 100.0 * (1.0 - self.planned_dynamic_w / self.baseline_dynamic_w)


def select_min_voltage(table: CharTable, island_class: str, f_req_mhz: float) -> CharRow:
    """Lowest-voltage operating point that still meets f_req; ties fall to
    the smaller area.  Independent of table row order."""
    rows = table.rows_for(island_class)
    if not rows:
        raise ValueError(f"no characterization rows for class '{island_class}'")
    feasible = [r for r in rows if r.fmax_mhz >= f_req_mhz]
    if not feasible:
        raise InfeasibleError(island_class, f_req_mhz, max(r.fmax_mhz for r in rows))
    return min(feasible, key=lambda r: (r.vdd, r.area_um2))


def assign_voltages(
    design: Design,
    table: CharTable,
    f_req_mhz: Mapping[str, float],
    pinned: Mapping[str, float],
    baseline_v: float = 1.2,
) -> VoltagePlan:
    """Pick a supply for every island: pinned islands keep their voltage,
    the rest get the minimum feasible table entry for their class (the
    island name doubles as the class key).

    The returned plan carries a copy of the design retargeted to the chosen
    voltages so crossing analysis can price the level-shifter bill of
    materials; the copy shares the design's topology index.
    """
    if not 0 < baseline_v < math.inf:
        raise ValueError(f"baseline_v must be positive and finite, got {baseline_v}")
    islands = design.islands_by_name()
    for name in list(f_req_mhz) + list(pinned):
        if name not in islands:
            raise ValueError(f"unknown island '{name}'")

    choices: dict[str, CharRow] = {}
    freqs: dict[str, float | None] = {}
    baseline_points: dict[str, CharRow | None] = {}
    for island in design.islands:
        if island.name in pinned:
            vdd = pinned[island.name]
            choices[island.name] = table.row(island.name, vdd) or CharRow(island.name, vdd, None, None, 1.0)
            freqs[island.name] = f_req_mhz.get(island.name)
        elif island.name in f_req_mhz:
            choices[island.name] = select_min_voltage(table, island.name, f_req_mhz[island.name])
            freqs[island.name] = f_req_mhz[island.name]
        else:
            raise ValueError(
                f"island '{island.name}' has neither a frequency requirement nor a pinned voltage"
            )
        baseline_points[island.name] = table.row(island.name, baseline_v)

    retargeted = design.with_supplies({name: point.vdd for name, point in choices.items()})
    return VoltagePlan(choices, freqs, baseline_v, baseline_points, retargeted)


def power_savings_summary(
    baseline_v: float,
    plan: VoltagePlan,
    design: Design,
    activity: Mapping[str, float],
    params: DynamicPowerParams,
) -> SavingsReport:
    """Per-island and SoC-level dynamic savings versus a single-voltage baseline.

    actual = 1 - cap_factor * (vdd / baseline)^2, which trails the pure-V^2
    theoretical bound whenever the slower library costs extra capacitance
    (cap_factor > 1).  Area deltas come from the raw characterized areas.
    ``baseline_v`` and ``design`` must be the plan's own baseline and design.
    """
    if baseline_v != plan.baseline_v:
        raise ValueError(f"baseline_v {baseline_v:g} V differs from the plan's {plan.baseline_v:g} V")
    planned = plan.retargeted
    for mine, theirs in ((design.cells, planned.cells), (design.nets, planned.nets)):
        if mine is not theirs and mine != theirs:
            raise ValueError("design differs from the one the plan was built for")
    # fix cells per (receiving island, kind), counted without building issues
    added = Counter((receiver, kind) for _, _, receiver, kind, _, _ in _crossings(planned))

    baseline_design = design.with_supplies(dict.fromkeys(design.islands_by_name(), baseline_v))
    base = dynamic_power(baseline_design, activity, params)
    base_by_island = {row.island: row.dynamic_w for row in base.islands}

    rows: list[SavingsRow] = []
    total_base = 0.0
    total_planned = 0.0
    for island in design.islands:
        point = plan.point(island.name)
        # ``**`` raises where a square overflows; a ratio under 1e150 keeps the square finite
        ratio_sq = (point.vdd / baseline_v) ** 2 if point.vdd < baseline_v * 1e150 else math.inf
        theoretical = (1.0 - ratio_sq) * 100.0
        actual = (1.0 - point.cap_factor * ratio_sq) * 100.0
        if point.area_um2 is None:
            area_delta = 0.0
        else:
            baseline_point = plan.baseline_points.get(island.name)
            if baseline_point is None or baseline_point.area_um2 is None:
                raise ValueError(
                    f"missing baseline row ({island.name}, {baseline_v:g} V) in characterization table"
                )
            area_delta = (point.area_um2 / baseline_point.area_um2 - 1.0) * 100.0
        rows.append(SavingsRow(
            island=island.name,
            vdd_from=baseline_v,
            vdd_to=point.vdd,
            theoretical_pct=theoretical,
            actual_pct=actual,
            area_delta_pct=area_delta,
            levelshifters_added=added[island.name, IssueKind.NEEDS_LEVEL_SHIFTER],
            iso_added=added[island.name, IssueKind.NEEDS_ISOLATION],
            within_theoretical=actual <= theoretical + 1e-9,
        ))
        base_w = base_by_island.get(island.name, 0.0)
        total_base += base_w
        total_planned += base_w * point.cap_factor * ratio_sq
        if not all(map(math.isfinite, (actual, area_delta, total_base, total_planned))):
            raise ValueError(f"island '{island.name}': savings against the {baseline_v:g} V baseline are not finite")

    return SavingsReport(tuple(rows), total_base, total_planned)
