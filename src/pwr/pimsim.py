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
`pim_advance` (through `_advance_to`), `pim_write_sleep` and
`pim_read_status` are the only implementation of the FSM.

One event loop, `_events`, drives them from a timed script, after
`_check_script` has rejected a bad script whole.  `pim_run_script` collects
its events into a `Trace`; `pwr sleep-sim` writes them as they fire, through
the same line generators that `Trace.to_text` and `trace_to_vcd` join.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from enum import Enum
from itertools import islice
from typing import TextIO

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
        return "".join(_trace_lines(self.events))


def _fmt_ns(t: float) -> str:
    return str(int(t)) if t == int(t) else repr(t)


def _trace_lines(events: Iterable[tuple[float, str]]) -> Iterator[str]:
    """One ``<ns> <event>`` line per event."""
    for t, event in events:
        yield f"{_fmt_ns(t)} {event}\n"


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
    fault = _mode_fault(config, value)
    if fault:
        raise ValueError(fault)
    request = bool(value) if config.explicit_bit else not state.sleep_request
    if state.deadline is None:
        return _land(config, state.fsm, request, state.now)
    return PimState(config, state.fsm, request, state.now, state.deadline)


def _mode_fault(config: PimConfig, value: bool | None) -> str | None:
    """Why a write of ``value`` does not suit the register's mode, if it does not."""
    if config.explicit_bit and value is None:
        return "explicit_bit mode requires a written value"
    if not config.explicit_bit and value is not None:
        return "toggle mode takes no written value"
    return None


def _complete_step(state: PimState) -> tuple[PimState, tuple[str, ...]]:
    """The state once the in-flight step completes at its deadline, and the
    events that completion fires."""
    fired, fsm, timer = _STEPS[state.fsm]
    config, t = state.config, state.deadline
    if timer is None:
        return _land(config, fsm, state.sleep_request, t), fired
    return PimState(config, fsm, state.sleep_request, t, t + getattr(config, timer)), fired


def _checked_dt(dt: float) -> float:
    if not 0.0 <= dt < math.inf:
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    return dt


def pim_advance(state: PimState, dt: float) -> tuple[PimState, list[tuple[float, str]]]:
    """Advance simulated time by dt, firing every transition that falls due."""
    return _advance_to(state, state.now + _checked_dt(dt))


def _advance_to(state: PimState, end: float) -> tuple[PimState, list[tuple[float, str]]]:
    """Advance simulated time to ``end``, not before ``state.now``, exactly."""
    events: list[tuple[float, str]] = []
    while state.deadline is not None and state.deadline <= end:
        t = state.deadline
        state, fired = _complete_step(state)
        events += [(t, event) for event in fired]
    return PimState(state.config, state.fsm, state.sleep_request, end, state.deadline), events


def _check_script(config: PimConfig, script: Iterable[ScriptCommand]) -> None:
    """Raise the error that running ``script`` would raise, before it fires
    any event: the first command, in script order, whose time goes back or
    is not finite, whose write does not suit the register's mode, or whose
    op is unknown."""
    last = 0.0
    for position, command in enumerate(script, start=1):
        if command.time_ns < last:
            raise ValueError(f"script times must be non-decreasing (got {command.time_ns:g} ns)")
        _checked_dt(command.time_ns - last)
        last = command.time_ns
        if command.op == "write_sleep":
            fault = _mode_fault(config, command.value)
            if fault:
                raise ValueError(f"script command {position} at {command.time_ns:g} ns: {fault}")
        elif command.op != "read_status":
            raise ValueError(f"unknown script command '{command.op}'")


# status -> the event a read of it fires, one shared string each
_STATUS_EVENTS = {status: f"STATUS={status.value}" for status in PimStatus}


def _events(config: PimConfig, script: Iterable[ScriptCommand]) -> Iterator[tuple[float, str]]:
    """The one event loop: each ``(time, event)`` of a checked script as the
    register interface fires it, standing at each command's time exactly."""
    state = pim_new(config)
    for command in script:
        state, due = _advance_to(state, command.time_ns)
        yield from due
        if command.op == "write_sleep":
            state = pim_write_sleep(state, command.value)
            yield state.now, "WRITE_SLEEP"
        else:
            yield state.now, _STATUS_EVENTS[pim_read_status(state)]


def pim_run_script(config: PimConfig | None, script: tuple[ScriptCommand, ...] | list[ScriptCommand]) -> Trace:
    """Drive the register interface from a timed command list."""
    config, script = config or PimConfig(), tuple(script)
    _check_script(config, script)
    return Trace(tuple(_events(config, script)))


# Each command's op, as one shared string rather than a copy per line.
_OPS = {op: op for op in ("write_sleep", "read_status")}


def parse_script(text: str | TextIO) -> tuple[ScriptCommand, ...]:
    """Parse ``at <ns> write_sleep [0|1]`` / ``at <ns> read_status`` lines
    from a str or an open text file; no line's time is below the one before."""
    commands: list[ScriptCommand] = []
    last, last_text = 0.0, "0"
    for line_no, tokens in _token_lines(text):
        if tokens[0] != "at" or len(tokens) < 3:
            raise ParseError("script", line_no, f"expected 'at <ns> <command>', got '{' '.join(tokens)}'")
        time_ns = _float("script", line_no, "time", tokens[1])
        if time_ns < 0:
            raise ParseError("script", line_no, f"time must be >= 0, got '{tokens[1]}'")
        if time_ns < last:
            raise ParseError("script", line_no, f"time must be >= the previous line's '{last_text}', got '{tokens[1]}'")
        last, last_text = time_ns, tokens[1]
        op = _OPS.get(tokens[2])
        if op is None:
            raise ParseError("script", line_no, f"unknown command '{tokens[2]}'")
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
# event -> the value-change line it writes: new bit, then the signal's VCD id
_EVENT_TO_CHANGE = {
    "ISO=1": "1!\n",
    "ISO=0": "0!\n",
    "BIAS=1": '1"\n',
    "BIAS=0": '0"\n',
    "SAVE_DONE": "1#\n",
    "RESTORE_DONE": "0#\n",
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


def _tap_signals(
    events: Iterable[tuple[float, str]], times: list[float], changes: list[str]
) -> Iterator[tuple[float, str]]:
    """Pass ``events`` on, appending the time and value-change line of each
    signal event to ``times`` and ``changes``."""
    for t, event in events:
        change = _EVENT_TO_CHANGE.get(event)
        if change is not None:
            times.append(t)
            changes.append(change)
        yield t, event


def _vcd_lines(times: list[float], changes: list[str]) -> Iterator[str]:
    """The lines of `trace_to_vcd` for the signal events at ``times``, whose
    value-change lines are ``changes``: the timescale needs every time
    before the first line."""
    unit, per_ns = _timescale(times)
    yield f"$timescale {unit} $end\n$scope module pim $end\n"
    for name, vid in _VCD_VARS:
        yield f"$var wire 1 {vid} {name} $end\n"
    yield "$upscope $end\n$enddefinitions $end\n$dumpvars\n"
    for _, vid in _VCD_VARS:
        yield f"0{vid}\n"
    yield "$end\n"

    last_time: int | None = None
    for t, change in zip(times, changes):
        time = int(round(t * per_ns))
        if time != last_time:
            yield f"#{time}\n"
            last_time = time
        yield change


def trace_to_vcd(trace: Trace) -> str:
    """Minimal value-change dump of the three controller signals, in the
    coarsest timescale that keeps every event time exact."""
    times: list[float] = []
    changes: list[str] = []
    for _ in _tap_signals(trace.events, times, changes):
        pass
    return "".join(_vcd_lines(times, changes))


# ---------------------------------------------------------------------------
# streamed output of `pwr sleep-sim`

_BLOCK_LINES = 4096  # lines joined into each block written


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined into one string per ``_BLOCK_LINES`` lines."""
    lines = iter(lines)
    while block := "".join(islice(lines, _BLOCK_LINES)):
        yield block


def _trace_blocks(
    config: PimConfig, script: tuple[ScriptCommand, ...], times: list[float], changes: list[str]
) -> Iterator[str]:
    """The trace text of ``script`` in blocks, made as its events fire, with
    the signal events tapped into ``times`` and ``changes`` for the VCD.  The
    script is checked whole here, before the first block exists."""
    _check_script(config, script)
    return _blocks(_trace_lines(_tap_signals(_events(config, script), times, changes)))
