"""Multi-voltage power-island toolkit.

Analyzes and repairs island crossings (level shifters, isolation cells,
sleep pins), estimates dynamic and gate-bias leakage power, selects
minimum per-island operating voltages from characterization tables, and
simulates the sleep-controller protocol.
"""

from .report import TOOL_VERSION as __version__  # noqa: F401

from .netlist import (  # noqa: F401
    ActivityProfile,
    CellInstance,
    CellKind,
    CharRow,
    CharTable,
    Design,
    Endpoint,
    Island,
    Net,
    ParseError,
    Port,
    Violation,
    parse_activity,
    parse_characterization,
    parse_design,
    serialize_design,
    validate_design,
)
from .crossings import (  # noqa: F401
    CrossingIssue,
    IssueKind,
    analyze_crossings,
    apply_power_fixes,
    insert_sleep_pins,
    verify_power_intent,
)
from .power import (  # noqa: F401
    DEFAULT_CALIBRATION,
    CalibrationEntry,
    CalibrationTable,
    DynamicPowerParams,
    IslandPower,
    LEAKAGE_MECHANISMS,
    LeakageMechanism,
    LeakageModel,
    PowerReport,
    Severity,
    dynamic_power,
    fit_subthreshold_slope,
    leakage_bias_sweep,
    leakage_current_per_gate,
    parse_calibration,
    power_report,
    static_power,
    theoretical_reduction,
)
from .voltage import (  # noqa: F401
    InfeasibleError,
    SavingsReport,
    SavingsRow,
    VoltagePlan,
    assign_voltages,
    power_savings_summary,
    select_min_voltage,
)
from .pimsim import (  # noqa: F401
    PimConfig,
    PimFsm,
    PimState,
    PimStatus,
    ScriptCommand,
    Trace,
    parse_script,
    pim_advance,
    pim_new,
    pim_read_status,
    pim_run_script,
    pim_write_sleep,
    trace_to_vcd,
)
from .report import Report, emit_many, emit_report  # noqa: F401
