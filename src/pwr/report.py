"""Tabular report emission in text, json, and csv.

Text output rounds to 4 significant digits for reading; json and csv carry
full precision so the machine formats round-trip exactly.
"""

from __future__ import annotations

import io
from dataclasses import astuple, dataclass, fields

from .netlist import Violation
from .power import LEAKAGE_MECHANISMS, LeakageModel, PowerReport, leakage_bias_sweep
from .voltage import SavingsReport, SavingsRow, VoltagePlan

TOOL_VERSION = "0.1.0"

__all__ = [
    "TOOL_VERSION",
    "Report",
    "emit_report",
    "emit_many",
    "power_to_report",
    "savings_to_report",
    "plan_to_report",
    "violations_to_report",
    "taxonomy_report",
    "leakage_sweep_report",
]


@dataclass(frozen=True)
class Report:
    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    assumptions: tuple[tuple[str, object], ...] = ()


def _text_cell(value: object) -> str:
    if isinstance(value, bool) or value is None:
        return "-" if value is None else str(value).lower()
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _raw_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "text":
        header = [f"# {report.kind} (pwr {TOOL_VERSION})"]
        header += [f"# {key} = {_text_cell(value)}" for key, value in report.assumptions]
        grid = [report.columns] + [tuple(_text_cell(v) for v in row) for row in report.rows]
        widths = [max(len(r[i]) for r in grid) for i in range(len(report.columns))]
        body = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid]
        return "\n".join(header + body) + "\n"
    if fmt == "json":
        import json  # here and csv below, so that no other format pays for the import

        doc = {
            "kind": report.kind,
            "version": TOOL_VERSION,
            "assumptions": {key: value for key, value in report.assumptions},
            "rows": [dict(zip(report.columns, row)) for row in report.rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_raw_cell(v) for v in row])
        return buf.getvalue()
    raise ValueError(f"unknown format '{fmt}'")


def emit_many(reports: list[Report], fmt: str = "text") -> str:
    """Emit several reports as one document (a JSON array in json mode)."""
    if fmt == "json":
        return "[\n" + ",\n".join(emit_report(r, "json").rstrip("\n") for r in reports) + "\n]\n"
    return "\n".join(emit_report(r, fmt) for r in reports)


def power_to_report(pr: PowerReport) -> Report:
    columns = ("island", "dynamic_w", "static_active_w", "static_sleep_w", "total_w")
    rows = [
        (row.island, row.dynamic_w, row.static_active_w, row.static_sleep_w, row.total_w)
        for row in pr.islands
    ]
    if pr.manager_w > 0:
        rows.append(("(manager)", 0.0, 0.0, pr.manager_w, pr.manager_w))
    return Report("power", columns, tuple(rows), pr.assumptions)


_SAVINGS_COLUMNS = tuple(f.name for f in fields(SavingsRow))


def savings_to_report(sr: SavingsReport) -> Report:
    rows = tuple(map(astuple, sr.rows))
    assumptions = (
        ("baseline_dynamic_w", sr.baseline_dynamic_w),
        ("planned_dynamic_w", sr.planned_dynamic_w),
        ("total_actual_pct", sr.total_actual_pct),
    )
    return Report("savings", _SAVINGS_COLUMNS, rows, assumptions)


def plan_to_report(plan: VoltagePlan) -> Report:
    columns = ("island", "vdd", "fmax_mhz", "area_um2", "cap_factor", "f_req_mhz")
    rows = tuple(
        (name, pt.vdd, pt.fmax_mhz, pt.area_um2, pt.cap_factor, plan.f_req_mhz.get(name))
        for name, pt in plan.choices.items()
    )
    return Report("voltage-plan", columns, rows, (("baseline_v", plan.baseline_v),))


def violations_to_report(violations: list[Violation]) -> Report:
    rows = tuple((v.kind, v.subject, v.detail) for v in violations)
    return Report("violations", ("kind", "subject", "detail"), rows, (("count", len(violations)),))


def taxonomy_report() -> Report:
    columns = ("id", "mechanism", "severity_180nm", "severity_130nm", "severity_90nm")
    rows = tuple(
        (m.id, m.name, m.severity(180).value, m.severity(130).value, m.severity(90).value)
        for m in LEAKAGE_MECHANISMS
    )
    return Report("leakage-taxonomy", columns, rows)


def leakage_sweep_report(
    model: LeakageModel | None = None,
    v_stop: float = -0.4,
    steps: int = 9,
    temp_c: float = 25.0,
) -> Report:
    rows = tuple(leakage_bias_sweep(model, v_stop, steps, temp_c))
    return Report(
        "leakage-vs-bias", ("v_slp_v", "leakage_a"), rows,
        (("temp_c", temp_c),),
    )
