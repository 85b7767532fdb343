"""Deterministic discrete-time simulator of the power-island manager.

The manager sequences three signals around a CPU-visible sleep register:
isolation (iso), retention save/restore (ret_saved), and the negative
sleep-gate bias (slpb_bias_on).  Entering sleep runs iso-on, save, bias-on;
leaving runs bias-off, restore, iso-off.  With the default 20 ns per step
each direction takes 60 ns.  Register writes that land mid-transition are
latched and honored once the transition completes.

A `PimState` holds only the config, the FSM state, the latched sleep
request, the current time and the deadline of the in-flight step.  The
three signals are a function of the FSM state (`_SIGNALS`), read through
properties, so they cannot disagree with it.  One step table (`_STEPS`)
drives the controller: for each in-flight state, the events its completion
fires, the state it moves to and the `PimConfig` field that times the next
step.  Landing in ACTIVE or SLEEP re-examines the latched request
(`_LEAVE`).  Each completed step builds one new `PimState`.
`pim_advance`, `pim_write_sleep` and `pim_read_status` are the only
implementation of the FSM; `pim_run_script` loops over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .netlist import ParseError, _float, _token_lines

__all__ = [
    "PimConfig",
    "PimFsm",
    "PimStatus",
    "PimState",
    "ScriptCommand",
    "Trace",
    "pim_new",
    "pim_write_sleep",
    "pim_read_status",
    "pim_advance",
    "pim_run_script",
    "parse_script",
    "trace_to_vcd",
]


@dataclass(frozen=True)
class PimConfig:
    t_iso_on: float = 20.0
    t_save: float = 20.0
    t_bias_on: float = 20.0
    t_bias_off: float = 20.0
    t_restore: float = 20.0
    t_iso_off: float = 20.0
    # write-1 enters / write-0 leaves instead of toggling on every write
    explicit_bit: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("t_") and not 0 <= value < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")

    @property
    def entry_ns(self) -> float:
        return self.t_iso_on + self.t_save + self.t_bias_on

    @property
    def exit_ns(self) -> float:
        return self.t_bias_off + self.t_restore + self.t_iso_off


class PimFsm(Enum):
    ACTIVE = "active"
    ISO_ON = "iso_on"
    SAVING = "saving"
    BIAS_ON = "bias_on"
    SLEEP = "sleep"
    BIAS_OFF = "bias_off"
    RESTORING = "restoring"
    ISO_OFF = "iso_off"


class PimStatus(str, Enum):
    READY = "ready"
    BUSY = "busy"
    SLEEPING = "sleeping"


@dataclass(frozen=True, slots=True)
class PimState:
    config: PimConfig
    fsm: PimFsm = PimFsm.ACTIVE
    sleep_request: bool = False  # the latched register value
    now: float = 0.0
    deadline: float | None = None  # absolute time the in-flight step completes

    @property
    def iso(self) -> bool:
        return _SIGNALS[self.fsm][0]

    @property
    def slpb_bias_on(self) -> bool:
        return _SIGNALS[self.fsm][1]

    @property
    def ret_saved(self) -> bool:
        return _SIGNALS[self.fsm][2]


# fsm -> (iso, slpb_bias_on, ret_saved) asserted in that state.
_SIGNALS = {
    PimFsm.ACTIVE: (False, False, False),
    PimFsm.ISO_ON: (False, False, False),
    PimFsm.SAVING: (True, False, False),
    PimFsm.BIAS_ON: (True, False, True),
    PimFsm.SLEEP: (True, True, True),
    PimFsm.BIAS_OFF: (True, True, True),
    PimFsm.RESTORING: (True, False, True),
    PimFsm.ISO_OFF: (True, False, False),
}

# In-flight fsm -> (events fired when its step completes, next fsm,
# PimConfig field that times the next step, or None on landing at rest).
_STEPS = {
    PimFsm.ISO_ON: (("ISO=1",), PimFsm.SAVING, "t_save"),
    PimFsm.SAVING: (("SAVE_DONE",), PimFsm.BIAS_ON, "t_bias_on"),
    PimFsm.BIAS_ON: (("BIAS=1",), PimFsm.SLEEP, None),
    PimFsm.BIAS_OFF: (("BIAS=0",), PimFsm.RESTORING, "t_restore"),
    PimFsm.RESTORING: (("RESTORE_DONE",), PimFsm.ISO_OFF, "t_iso_off"),
    PimFsm.ISO_OFF: (("ISO=0", "STATUS=ready"), PimFsm.ACTIVE, None),
}

# At-rest fsm -> (request that leaves it, fsm it starts, PimConfig field
# that times that first step).
_LEAVE = {
    PimFsm.ACTIVE: (True, PimFsm.ISO_ON, "t_iso_on"),
    PimFsm.SLEEP: (False, PimFsm.BIAS_OFF, "t_bias_off"),
}


@dataclass(frozen=True, slots=True)
class ScriptCommand:
    time_ns: float
    op: str  # "write_sleep" | "read_status"
    value: bool | None = None


@dataclass(frozen=True)
class Trace:
    events: tuple[tuple[float, str], ...] = ()

    def to_text(self) -> str:
        return "".join(f"{_fmt_ns(t)} {event}\n" for t, event in self.events)


def _fmt_ns(t: float) -> str:
    return str(int(t)) if t == int(t) else repr(t)


def pim_new(config: PimConfig | None = None) -> PimState:
    """Fresh controller: active, all signals deasserted, status ready."""
    return PimState(config=config or PimConfig())


def pim_read_status(state: PimState) -> PimStatus:
    if state.fsm is PimFsm.ACTIVE:
        return PimStatus.READY
    if state.fsm is PimFsm.SLEEP:
        return PimStatus.SLEEPING
    return PimStatus.BUSY


def _land(config: PimConfig, fsm: PimFsm, request: bool, t: float) -> PimState:
    """The state on coming to rest in ACTIVE or SLEEP at time t: a latched
    request that disagrees with the rest state starts the next sequence."""
    leave_on, start, timer = _LEAVE[fsm]
    if request == leave_on:
        return PimState(config, start, request, t, t + getattr(config, timer))
    return PimState(config, fsm, request, t, None)


def pim_write_sleep(state: PimState, value: bool | None = None) -> PimState:
    """CPU write to the sleep register.

    Toggle semantics by default; with ``explicit_bit`` the written value is
    the request.  A write mid-transition only updates the latched request,
    which is re-examined when the transition lands in SLEEP or ACTIVE.
    """
    config = state.config
    if config.explicit_bit:
        if value is None:
            raise ValueError("explicit_bit mode requires a written value")
        request = bool(value)
    else:
        if value is not None:
            raise ValueError("toggle mode takes no written value")
        request = not state.sleep_request
    if state.deadline is None:
        return _land(config, state.fsm, request, state.now)
    return PimState(config, state.fsm, request, state.now, state.deadline)


def _complete_step(state: PimState) -> tuple[PimState, tuple[str, ...]]:
    """The state once the in-flight step completes at its deadline, and the
    events that completion fires."""
    fired, fsm, timer = _STEPS[state.fsm]
    config, t = state.config, state.deadline
    if timer is None:
        return _land(config, fsm, state.sleep_request, t), fired
    return PimState(config, fsm, state.sleep_request, t, t + getattr(config, timer)), fired


def pim_advance(state: PimState, dt: float) -> tuple[PimState, list[tuple[float, str]]]:
    """Advance simulated time by dt, firing every transition that falls due."""
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    end = state.now + dt
    events: list[tuple[float, str]] = []
    while state.deadline is not None and state.deadline <= end:
        t = state.deadline
        state, fired = _complete_step(state)
        events += [(t, event) for event in fired]
    return PimState(state.config, state.fsm, state.sleep_request, end, state.deadline), events


def pim_run_script(config: PimConfig | None, script: tuple[ScriptCommand, ...] | list[ScriptCommand]) -> Trace:
    """Drive the register interface from a timed command list."""
    state = pim_new(config)
    events: list[tuple[float, str]] = []
    for position, command in enumerate(script, start=1):
        if command.time_ns < state.now:
            raise ValueError(f"script times must be non-decreasing (got {command.time_ns:g} ns)")
        state, due = pim_advance(state, command.time_ns - state.now)
        events.extend(due)
        if command.op == "write_sleep":
            try:
                state = pim_write_sleep(state, command.value)
            except ValueError as err:
                raise ValueError(f"script command {position} at {command.time_ns:g} ns: {err}") from None
            events.append((state.now, "WRITE_SLEEP"))
        elif command.op == "read_status":
            events.append((state.now, f"STATUS={pim_read_status(state).value}"))
        else:
            raise ValueError(f"unknown script command '{command.op}'")
    return Trace(tuple(events))


def parse_script(text: str) -> tuple[ScriptCommand, ...]:
    """Parse ``at <ns> write_sleep [0|1]`` / ``at <ns> read_status`` lines."""
    commands: list[ScriptCommand] = []
    for line_no, tokens in _token_lines(text):
        if tokens[0] != "at" or len(tokens) < 3:
            raise ParseError("script", line_no, f"expected 'at <ns> <command>', got '{' '.join(tokens)}'")
        time_ns = _float("script", line_no, "time", tokens[1])
        if time_ns < 0:
            raise ParseError("script", line_no, f"time must be >= 0, got '{tokens[1]}'")
        op = tokens[2]
        if op not in ("write_sleep", "read_status"):
            raise ParseError("script", line_no, f"unknown command '{op}'")
        value: bool | None = None
        if len(tokens) > 3:
            if op != "write_sleep" or tokens[3] not in ("0", "1"):
                raise ParseError("script", line_no, f"unexpected token '{tokens[3]}'")
            if len(tokens) > 4:
                raise ParseError("script", line_no, f"unexpected token '{tokens[4]}'")
            value = tokens[3] == "1"
        commands.append(ScriptCommand(time_ns, op, value))
    return tuple(commands)


# ---------------------------------------------------------------------------
# VCD emission

_VCD_VARS = (("iso", "!"), ("slpb_bias_on", '"'), ("ret_saved", "#"))
# event -> the value change it writes: new bit, then the signal's VCD id
_EVENT_TO_CHANGE = {
    "ISO=1": "1!",
    "ISO=0": "0!",
    "BIAS=1": '1"',
    "BIAS=0": '0"',
    "SAVE_DONE": "1#",
    "RESTORE_DONE": "0#",
}
# VCD time units, coarsest first, with the number of units per ns
_TIMESCALES = (("1ns", 1), ("100ps", 10), ("10ps", 100), ("1ps", 1000))


def _timescale(times: list[float]) -> tuple[str, int]:
    """The coarsest unit in which every time is a whole number of units, to
    1e-9 relative; else the finest unit that holds every time as a float
    (1ps unless a time overflows it), with times rounded."""
    if all(map(float.is_integer, map(float, times))):  # whole ns, tested at C speed
        return _TIMESCALES[0]
    latest = max(times)  # times are >= 0
    fits = [scale for scale in _TIMESCALES if latest * scale[1] < math.inf]
    for unit, per_ns in fits:
        if all(abs(x - round(x)) <= 1e-9 * x for x in [t * per_ns for t in times]):
            return unit, per_ns
    return fits[-1]


def trace_to_vcd(trace: Trace) -> str:
    """Minimal value-change dump of the three controller signals, in the
    coarsest timescale that keeps every event time exact."""
    unit, per_ns = _timescale([t for t, event in trace.events if event in _EVENT_TO_CHANGE])
    lines = [f"$timescale {unit} $end", "$scope module pim $end"]
    lines += [f"$var wire 1 {vid} {name} $end" for name, vid in _VCD_VARS]
    lines += ["$upscope $end", "$enddefinitions $end", "$dumpvars"]
    lines += [f"0{vid}" for _, vid in _VCD_VARS]
    lines.append("$end")

    last_time: int | None = None
    for t, event in trace.events:
        change = _EVENT_TO_CHANGE.get(event)
        if change is None:
            continue
        time = int(round(t * per_ns))
        if time != last_time:
            lines.append(f"#{time}")
            last_time = time
        lines.append(change)
    return "\n".join(lines) + "\n"
