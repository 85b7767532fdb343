"""Reference results the benchmark computes itself, independent of `pwr`'s
own arithmetic: crossing counts, power sums, voltage choices and the sleep
controller's ordering invariants."""

from __future__ import annotations

import hashlib
import math

REL_TOL = 1e-9

# LeakageModel defaults, restated so the reference does not read them back
# from the program under test.
I0_PER_GATE_25C = 0.5e-6
SLOPE_V_PER_DECADE = 0.1242
TEMP_DOUBLING_C = 10.0
BIAS_V = -0.3
MANAGER_W = 4.1e-6
SA_MAX = 2.0


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def crossing_reference(design) -> tuple[int, float]:
    """(issues analyze_crossings must report, share of loads that cross).

    Valid for designs without level-shifter or iso cells: one issue per
    (net, foreign receiving island, kind), a level shifter when the driver
    swings below the receiver, isolation when the driver can power down.
    """
    islands = {i.name: i for i in design.islands}
    home = {c.name: c.island for c in design.cells}
    issues = loads = crossing = 0
    for net in design.nets:
        src = islands[home[net.driver.cell]]
        receivers = set()
        for ep in net.loads:
            loads += 1
            dst = home[ep.cell]
            if dst != src.name:
                crossing += 1
                receivers.add(dst)
        for dst in receivers:
            issues += (src.vdd < islands[dst].vdd) + src.switchable
    return issues, crossing / loads


def sa_by_net(activity_text: str, f_clk_mhz: float) -> dict[str, float]:
    """Switching activity from one toggle line per net."""
    out = {}
    for line in activity_text.splitlines():
        _, name, toggles, duration = line.split()
        cycles = float(duration.partition("=")[2]) * f_clk_mhz * 1e-3
        out[name] = min(int(toggles.partition("=")[2]) / cycles, SA_MAX)
    return out


def dynamic_reference(design, sa: dict[str, float], f_clk_mhz: float, k: float = 1.0) -> float:
    """Sum of k * C * V^2 * F * SA over cell-driven nets."""
    cells = {c.name: c for c in design.cells}
    vdd = {i.name: i.vdd for i in design.islands}
    total = 0.0
    for net in design.nets:
        cell = cells.get(net.driver.cell)
        if cell is not None:
            v = vdd[cell.island]
            total += k * cell.cap_ff * 1e-15 * v * v * f_clk_mhz * 1e6 * sa.get(net.name, 0.0)
    return total


def static_reference(design, sleeping: frozenset[str], temp_c: float) -> tuple[float, float]:
    """(active leakage, sleep leakage incl. manager) as gates * I(bias, T) * vdd."""
    gates = {i.name: 0 for i in design.islands}
    for cell in design.cells:
        gates[cell.island] += cell.gate_count
    temp = 2.0 ** ((temp_c - 25.0) / TEMP_DOUBLING_C)
    active = asleep = 0.0
    for island in design.islands:
        if island.name in sleeping:
            asleep += gates[island.name] * I0_PER_GATE_25C * temp * 10.0 ** (BIAS_V / SLOPE_V_PER_DECADE) * island.vdd
        else:
            active += gates[island.name] * I0_PER_GATE_25C * temp * island.vdd
    has_pim = any(c.kind.value == "pim" for c in design.cells)
    return active, asleep + (MANAGER_W if sleeping and has_pim else 0.0)


def power_rows_match(rows: list[dict], dynamic: float, static: tuple[float, float]) -> bool:
    """Compare a power report's rows (json form) with reference totals."""
    got = (
        sum(r["dynamic_w"] for r in rows),
        sum(r["static_active_w"] for r in rows),
        sum(r["static_sleep_w"] for r in rows),
    )
    return all(math.isclose(g, w, rel_tol=REL_TOL) for g, w in zip(got, (dynamic,) + static))


def voltage_reference(char_text: str, f_req_mhz: float) -> dict[str, float]:
    """Per island class: lowest characterized vdd meeting f_req, ties to
    the smaller area."""
    best: dict[str, tuple[float, float]] = {}
    for line in char_text.splitlines():
        tokens = line.split()
        attrs = dict(tok.split("=") for tok in tokens[2:])
        vdd, fmax, area = float(attrs["vdd"]), float(attrs["fmax_mhz"]), float(attrs["area_um2"])
        if fmax >= f_req_mhz and (vdd, area) < best.get(tokens[1], (math.inf, math.inf)):
            best[tokens[1]] = (vdd, area)
    return {name: vdd for name, (vdd, _) in best.items()}


_SIGNALS = {"ISO=1", "ISO=0", "BIAS=1", "BIAS=0", "SAVE_DONE", "RESTORE_DONE"}


def trace_breaks(events) -> int:
    """Count breaks of the controller's ordering invariants over a trace:

    1. the sleep bias is never asserted while isolation is down;
    2. retention save completes before the bias asserts;
    3. the bias drops before restore completes;
    4. restore completes before isolation drops;
    5. ready status only ever appears with every signal deasserted.

    Times must also be non-decreasing.
    """
    iso = bias = saved = False
    last_t = -math.inf
    breaks = 0
    for t, event in events:
        breaks += t < last_t
        last_t = t
        if event == "ISO=1":
            iso = True
        elif event == "ISO=0":
            breaks += bias + saved
            iso = False
        elif event == "BIAS=1":
            breaks += (not iso) + (not saved)
            bias = True
        elif event == "BIAS=0":
            bias = False
        elif event == "SAVE_DONE":
            saved = True
        elif event == "RESTORE_DONE":
            breaks += bias
            saved = False
        elif event == "STATUS=ready":
            breaks += iso or bias or saved
        breaks += bias and not iso
    return breaks


def signal_events(events) -> int:
    return sum(event in _SIGNALS for _, event in events)


def vcd_value_changes(vcd_text: str) -> int:
    """Value-change lines after the initial $dumpvars block."""
    lines = vcd_text.splitlines()
    start = lines.index("$dumpvars")
    end = lines.index("$end", start)
    return sum(line[:1] in ("0", "1") for line in lines[end + 1:])
