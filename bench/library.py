"""Worker process for the parts of a pass that run `pwr` as a library.

    python3 bench/library.py reference WORKLOAD WORKDIR OUT.json
    python3 bench/library.py session WORKLOAD WORKDIR OUT.json [--trace]

``reference`` checks the generated inputs (valid, round-trip through
``serialize_design``) and computes the reference results the runner holds
the CLI outputs against.  ``session`` runs the workload's library loop, the
way the README's "Library use" does: parse once, then query.  Only the loop
is timed; its oracles run afterwards, on the original functions, and also
cover the CLI outputs of the same pass.  ``--trace`` installs the span
tracer before the loop.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

import oracles
from gen import SWEEP_FCLK_MHZ as FCLK_MHZ
from tracer import Tracer

import pwr
from pwr.crossings import analyze_crossings
from pwr.netlist import parse_design, serialize_design, validate_design

SWEEP_TEMPS_C = (25.0, 85.0, 125.0)
PLAN_FREQS_MHZ = (150.0, 250.0, 350.0)


def sleep_sets(design) -> list[frozenset[str]]:
    """None asleep, every switchable island (as the CLI pass runs it), every
    other one, and one."""
    switchable = [i.name for i in design.islands if i.switchable]
    return [frozenset(), frozenset(switchable), frozenset(switchable[::2]), frozenset(switchable[:1])]


def _read(workdir: Path, name: str) -> str:
    return (workdir / name).read_text(encoding="utf-8")


def reference(workload: str, workdir: Path) -> dict:
    """Self-check of the generated inputs plus the counts `fix` must reach."""
    if workload == "sleep_sim":
        return {"notes": [], "commands": len(pwr.parse_script(_read(workdir, "sleep.script")))}
    notes = []
    design = parse_design(_read(workdir, "design.net"), _read(workdir, "design.intent"))
    errors = validate_design(design)
    if errors:
        notes.append(f"generated design invalid: {errors[0]}")
    if parse_design(*serialize_design(design)) != design:
        notes.append("generated design does not round-trip through serialize_design")
    issues, cross_share = oracles.crossing_reference(design)
    if workload == "fix_check" and len(analyze_crossings(design)) != issues:
        notes.append("analyze_crossings disagrees with the reference crossing count")
    switchable = {i.name for i in design.islands if i.switchable}
    return {
        "notes": notes,
        "cross_share": cross_share,
        "issues": issues,
        "switchable": len(switchable),
        "sleep_pins": sum(c.kind.value == "std" and c.island in switchable for c in design.cells),
    }


def power_sweep_session(workdir: Path) -> tuple[dict, list]:
    """Scenario grid of power_report, then voltage plans, on one parsed design."""
    t0 = time.perf_counter()
    design = pwr.parse_design(_read(workdir, "design.net"), _read(workdir, "design.intent"))
    activity = pwr.parse_activity(_read(workdir, "design.act"), FCLK_MHZ, design=design)
    table = pwr.parse_characterization(_read(workdir, "design.char"))
    params = pwr.DynamicPowerParams(FCLK_MHZ)
    t1 = time.perf_counter()
    scenarios = []
    for asleep in sleep_sets(design):
        for temp_c in SWEEP_TEMPS_C:
            report = pwr.power_report(design, activity, params, sleeping=asleep, temp_c=temp_c)
            scenarios.append((asleep, temp_c, pwr.emit_report(pwr.report.power_to_report(report), "json")))
    t2 = time.perf_counter()
    plans = []
    for f_mhz in PLAN_FREQS_MHZ:
        plan = pwr.assign_voltages(design, table, {i.name: f_mhz for i in design.islands}, {})
        savings = pwr.power_savings_summary(1.2, plan, design, activity, params)
        plans.append((f_mhz, {k: p.vdd for k, p in plan.choices.items()}, savings))
    t3 = time.perf_counter()

    notes = []
    sa = oracles.sa_by_net(_read(workdir, "design.act"), FCLK_MHZ)
    dynamic = oracles.dynamic_reference(design, sa, FCLK_MHZ)
    char_text = _read(workdir, "design.char")
    cli_scenario = (sleep_sets(design)[1], 25.0)
    failed = 0
    for asleep, temp_c, text in scenarios:
        rows = json.loads(text)["rows"]
        failed += not oracles.power_rows_match(rows, dynamic, oracles.static_reference(design, asleep, temp_c))
        if (asleep, temp_c) == cli_scenario and text != _read(workdir, "power.json"):
            notes.append("pwr power output differs from power_report on the same scenario")
    for f_mhz, choices, savings in plans:
        failed += choices != oracles.voltage_reference(char_text, f_mhz)
        failed += not all(row.within_theoretical for row in savings.rows)
    if failed:
        notes.append(f"{failed} scenarios or plans disagree with the reference")
    cli_plan = json.loads(_read(workdir, "optimize.json"))[0]["rows"]
    if {r["island"]: r["vdd"] for r in cli_plan} != oracles.voltage_reference(char_text, FCLK_MHZ):
        notes.append("pwr optimize picked other voltages than the reference")
    return {
        "session_s": t3 - t0,
        "sweep_s": t2 - t1,
        "scenarios": len(scenarios),
        "attempted": len(scenarios) + len(plans),
        "failed": failed,
    }, notes


def sleep_sim_session(workdir: Path) -> tuple[dict, list]:
    """Parse the register script, simulate it and render the trace."""
    t0 = time.perf_counter()
    script = pwr.parse_script(_read(workdir, "sleep.script"))
    t1 = time.perf_counter()
    trace = pwr.pim_run_script(None, script)
    t2 = time.perf_counter()
    text = trace.to_text()
    t3 = time.perf_counter()

    notes = []
    breaks = oracles.trace_breaks(trace.events)
    if breaks:
        notes.append(f"{breaks} controller invariant breaks in the trace")
    if text != _read(workdir, "trace.txt"):
        notes.append("pwr sleep-sim trace differs from pim_run_script on the same script")
    changes = oracles.vcd_value_changes(_read(workdir, "sim.vcd"))
    if changes != oracles.signal_events(trace.events):
        notes.append(f"VCD has {changes} value changes for {oracles.signal_events(trace.events)} signal events")
    return {
        "session_s": t3 - t0,
        "sim_s": t2 - t1,
        "events": len(trace.events),
        "attempted": len(script),
        "failed": min(breaks, len(script)),
    }, notes


SESSIONS = {"power_sweep": power_sweep_session, "sleep_sim": sleep_sim_session}


def main(argv: list[str]) -> int:
    mode, workload, workdir, out_path = argv[0], argv[1], Path(argv[2]), Path(argv[3])
    if mode == "reference":
        result = reference(workload, workdir)
    else:
        session = SESSIONS[workload]
        tracer = None
        if "--trace" in argv:
            tracer = Tracer()
            tracer.install()
            session = tracer.wrap("bench.session", session)
        gc.collect()
        timings, notes = session(workdir)
        result = {"timings": timings, "notes": notes}
        if tracer is not None:
            result["trace"] = tracer.dump()
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
