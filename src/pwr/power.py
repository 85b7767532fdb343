"""Dynamic and static power models.

Dynamic power per net:  P = k * C * V^2 * F * SA, with C the switched
capacitance attributed to the driving cell, V the driving island's supply,
F the clock frequency, and SA the per-cycle switching activity.

Gate-bias leakage per gate (sub-threshold, exponential in the sleep-gate
voltage, doubling with temperature every ``temp_doubling_c`` degrees):

    I(v_slp, T) = i0 * 2^((T - 25) / temp_doubling_c) * 10^(v_slp / S)

with S the sub-threshold slope in volts per decade.  Driving the sleep
gate to -0.3 V cuts the 0.5 uA zero-bias device leakage by about 260x.
Measured-silicon reduction factors for whole gates and SRAM ship in
``DEFAULT_CALIBRATION``; they are deliberately kept separate from the
device-level curve.  A characterization file's ``calib`` lines give a
table of the same shape (``parse_characterization(text).calibration``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .netlist import CalibrationEntry, CalibrationTable, Design

__all__ = [
    "DynamicPowerParams",
    "LeakageModel",
    "DEFAULT_CALIBRATION",
    "Severity",
    "LeakageMechanism",
    "LEAKAGE_MECHANISMS",
    "IslandPower",
    "PowerReport",
    "dynamic_power",
    "theoretical_reduction",
    "leakage_current_per_gate",
    "leakage_bias_sweep",
    "fit_subthreshold_slope",
    "static_power",
    "power_report",
]


@dataclass(frozen=True)
class DynamicPowerParams:
    f_clk_mhz: float
    k: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.k <= 1.0:
            raise ValueError(f"k must be within [0, 1], got {self.k}")
        if not math.isfinite(self.f_clk_mhz):
            raise ValueError(f"f_clk_mhz must be finite, got {self.f_clk_mhz}")
        if self.f_clk_mhz <= 0:
            raise ValueError(f"f_clk_mhz must be positive, got {self.f_clk_mhz}")


@dataclass(frozen=True)
class LeakageModel:
    """Sub-threshold leakage parameters plus the manager's own draw."""

    i0_per_gate_25c: float = 0.5e-6  # amperes at zero sleep-gate bias
    slope_mv_per_decade: float = 124.2
    temp_doubling_c: float = 10.0
    manager_overhead_w: float = 4.1e-6
    bias_v: float = -0.3

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(value := getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.i0_per_gate_25c <= 0:
            raise ValueError("i0_per_gate_25c must be positive")
        if self.slope_mv_per_decade <= 0:
            raise ValueError("slope_mv_per_decade must be positive")
        if self.temp_doubling_c <= 0:
            raise ValueError("temp_doubling_c must be positive")
        if self.manager_overhead_w < 0:
            raise ValueError("manager_overhead_w must be >= 0")
        if self.bias_v > 0:
            raise ValueError("bias_v must be <= 0")


def theoretical_reduction(v_from: float, v_to: float) -> float:
    """Best-case dynamic power reduction when retargeting v_from -> v_to.

    Pure V^2 scaling: 1 - (v_to / v_from)^2.  Real designs fall short of
    this because the slower library adds gates and routing capacitance.
    """
    if v_to <= 0:
        raise ValueError(f"v_to must be positive, got {v_to}")
    if v_to > v_from:
        raise ValueError(f"v_to ({v_to}) exceeds v_from ({v_from})")
    return 1.0 - (v_to / v_from) ** 2


def leakage_current_per_gate(v_slp_v: float, temp_c: float = 25.0, model: LeakageModel | None = None) -> float:
    """Per-gate leakage in amperes at the given sleep-gate bias and temperature."""
    model = model or LeakageModel()
    if not (math.isfinite(v_slp_v) and math.isfinite(temp_c)):
        raise ValueError(f"bias and temperature must be finite, got {v_slp_v} V, {temp_c} C")
    if v_slp_v > 0:
        raise ValueError(f"sleep-gate bias must be <= 0 V, got {v_slp_v}")
    try:
        temp_factor = 2.0 ** ((temp_c - 25.0) / model.temp_doubling_c)
    except OverflowError:
        temp_factor = math.inf
    bias_factor = 10.0 ** (v_slp_v / (model.slope_mv_per_decade / 1000.0))
    current = model.i0_per_gate_25c * temp_factor * bias_factor
    if not math.isfinite(current):
        raise ValueError(f"leakage current is not finite at {temp_c} C")
    return current


def leakage_bias_sweep(
    model: LeakageModel | None = None,
    v_stop: float = -0.4,
    steps: int = 9,
    temp_c: float = 25.0,
) -> tuple[tuple[float, float], ...]:
    """(bias, amperes) samples from 0 V down to v_stop, for plot data."""
    model = model or LeakageModel()
    if v_stop > 0 or steps < 2:
        raise ValueError("v_stop must be <= 0 and steps >= 2")
    points = []
    for i in range(steps):
        v = v_stop * i / (steps - 1)
        points.append((v, leakage_current_per_gate(v, temp_c, model)))
    return tuple(points)


def fit_subthreshold_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares sub-threshold slope in mV/decade from (bias, amperes) points.

    Fits log10(I) against bias and returns the voltage swing per decade of
    current, e.g. two points one decade apart over 100 mV give 100 mV/dec.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    if len({v for v, _ in pts}) < 2:
        raise ValueError("bias voltages must be distinct")
    for v, current in pts:
        if current <= 0:
            raise ValueError(f"currents must be positive, got {current}")
    import statistics  # here, so that no command that never fits pays for the import

    fit = statistics.linear_regression([v for v, _ in pts], [math.log10(i) for _, i in pts])
    if fit.slope <= 0:
        raise ValueError("degenerate points: current must fall as the bias goes negative")
    return 1000.0 / fit.slope


# ---------------------------------------------------------------------------
# leakage mechanism taxonomy


class Severity(str, Enum):
    MINOR = "minor"
    RELEVANT = "relevant"
    SIGNIFICANT = "significant"
    MAJOR = "major"
    MAJOR_PLUS = "major+"


@dataclass(frozen=True)
class LeakageMechanism:
    id: str
    name: str
    severity_by_node: tuple[tuple[int, Severity], ...]  # (node in nm, severity)

    def severity(self, node_nm: int) -> Severity:
        for node, sev in self.severity_by_node:
            if node == node_nm:
                return sev
        raise ValueError(f"no severity recorded for {node_nm} nm")


def _mech(id: str, name: str, s180: Severity, s130: Severity, s90: Severity) -> LeakageMechanism:
    return LeakageMechanism(id, name, ((180, s180), (130, s130), (90, s90)))


LEAKAGE_MECHANISMS: tuple[LeakageMechanism, ...] = (
    _mech("I1", "reverse bias junction", Severity.MINOR, Severity.MINOR, Severity.MINOR),
    _mech("I2", "sub-threshold", Severity.MINOR, Severity.MAJOR, Severity.MAJOR_PLUS),
    _mech("I3", "gate oxide tunneling", Severity.MINOR, Severity.RELEVANT, Severity.SIGNIFICANT),
    _mech("I4", "hot-carrier injection", Severity.MINOR, Severity.MINOR, Severity.MINOR),
    _mech("I5", "off state leakage", Severity.MINOR, Severity.MINOR, Severity.MINOR),
)


# ---------------------------------------------------------------------------
# silicon calibration factors

# Leakage-reduction factors for the gate-bias test chip: Spice-model
# prediction next to the measured silicon, per device class and temperature.
DEFAULT_CALIBRATION = CalibrationTable((
    CalibrationEntry("nand2", 25, "model", 33.9),
    CalibrationEntry("nand2", 25, "silicon", 78.6),
    CalibrationEntry("nand2", 125, "model", 197.0),
    CalibrationEntry("nand2", 125, "silicon", 326.0),
    CalibrationEntry("sram", 125, "model", 8.1),
    CalibrationEntry("sram", 125, "silicon", 10.0),
))


# ---------------------------------------------------------------------------
# power reports


@dataclass(frozen=True)
class IslandPower:
    island: str
    dynamic_w: float = 0.0
    static_active_w: float = 0.0
    static_sleep_w: float = 0.0

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.static_active_w + self.static_sleep_w


@dataclass(frozen=True)
class PowerReport:
    islands: tuple[IslandPower, ...] = ()
    manager_w: float = 0.0
    assumptions: tuple[tuple[str, object], ...] = ()

    @property
    def total_dynamic_w(self) -> float:
        return sum(row.dynamic_w for row in self.islands)

    @property
    def total_static_active_w(self) -> float:
        return sum(row.static_active_w for row in self.islands)

    @property
    def total_static_sleep_w(self) -> float:
        return sum(row.static_sleep_w for row in self.islands) + self.manager_w

    @property
    def total_w(self) -> float:
        return self.total_dynamic_w + self.total_static_active_w + self.total_static_sleep_w


def dynamic_power(design: Design, activity: Mapping[str, float], params: DynamicPowerParams) -> PowerReport:
    """Per-island dynamic power; a net is charged to its driving island.

    Summation runs in net declaration order so results are reproducible.
    Port-driven nets carry no cell capacitance and contribute nothing, nor
    do nets missing from ``activity`` (zero switching activity).  The
    terms come from the design's cached topology; only supplies and
    activity are read per call.
    """
    vdd_by_island = {island.name: island.vdd for island in design.islands}
    per_island = dict.fromkeys(vdd_by_island, 0.0)
    k, f_clk_mhz, sa = params.k, params.f_clk_mhz, activity.get
    for island, (caps, nets) in design.topology.dynamic_terms.items():
        vdd = vdd_by_island[island]
        total = 0.0
        for cap_ff, net in zip(caps, nets):
            total += k * cap_ff * 1e-15 * vdd * vdd * f_clk_mhz * 1e6 * sa(net, 0.0)
        if not math.isfinite(total):
            raise ValueError(f"island '{island}': dynamic power is not finite at {f_clk_mhz} MHz")
        per_island[island] = total
    rows = tuple(IslandPower(i.name, dynamic_w=per_island[i.name]) for i in design.islands)
    return PowerReport(rows, assumptions=(("k", params.k), ("f_clk_mhz", params.f_clk_mhz)))


def static_power(
    design: Design,
    sleeping: Iterable[str],
    temp_c: float = 25.0,
    model: LeakageModel | None = None,
) -> PowerReport:
    """Per-island leakage power: gates * I(bias, T) * vdd.

    Awake islands leak at zero sleep-gate bias; sleeping ones at the model's
    bias voltage.  The manager overhead is reported separately and only
    counted while something actually sleeps under a manager cell.
    """
    model = model or LeakageModel()
    islands = design.islands_by_name()
    asleep = set(sleeping)
    for name in sorted(asleep):
        if name not in islands:
            raise ValueError(f"unknown island '{name}'")
        if not islands[name].switchable:
            raise ValueError(f"island '{name}' is not switchable")

    i_awake = leakage_current_per_gate(0.0, temp_c, model)
    i_asleep = leakage_current_per_gate(model.bias_v, temp_c, model)
    gates_by_island = design.topology.gates_by_island
    rows = []
    for island in design.islands:
        asleep_now = island.name in asleep
        watts = gates_by_island.get(island.name, 0) * (i_asleep if asleep_now else i_awake) * island.vdd
        if not math.isfinite(watts):
            raise ValueError(f"island '{island.name}': static power is not finite at {temp_c} C")
        if asleep_now:
            rows.append(IslandPower(island.name, static_sleep_w=watts))
        else:
            rows.append(IslandPower(island.name, static_active_w=watts))
    manager_w = model.manager_overhead_w if asleep and design.pim_cell() is not None else 0.0
    assumptions = (
        ("temp_c", temp_c),
        ("bias_v", model.bias_v),
        ("sleeping", ",".join(sorted(asleep)) or "none"),
    )
    return PowerReport(tuple(rows), manager_w=manager_w, assumptions=assumptions)


def power_report(
    design: Design,
    activity: Mapping[str, float],
    params: DynamicPowerParams,
    sleeping: Iterable[str] = (),
    temp_c: float = 25.0,
    model: LeakageModel | None = None,
) -> PowerReport:
    """Combined dynamic + static report for one operating scenario."""
    dyn = dynamic_power(design, activity, params)
    stat = static_power(design, sleeping, temp_c, model)
    rows = tuple(
        IslandPower(d.island, d.dynamic_w, s.static_active_w, s.static_sleep_w)
        for d, s in zip(dyn.islands, stat.islands)
    )
    for row in rows:
        if not math.isfinite(row.total_w):
            raise ValueError(f"island '{row.island}': total power is not finite")
    return PowerReport(rows, manager_w=stat.manager_w, assumptions=dyn.assumptions + stat.assumptions)
