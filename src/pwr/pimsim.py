"""Deterministic discrete-time simulator of the power-island manager.

The manager sequences three signals around a CPU-visible sleep register:
isolation (iso), retention save/restore (ret_saved), and the negative
sleep-gate bias (slpb_bias_on).  Entering sleep runs iso-on, save, bias-on;
leaving runs bias-off, restore, iso-off.  With the default 20 ns per step
each direction takes 60 ns.  Register writes that land mid-transition are
latched and honored once the transition completes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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
            if f.name.startswith("t_") and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")

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


@dataclass(frozen=True)
class PimState:
    config: PimConfig
    fsm: PimFsm = PimFsm.ACTIVE
    iso: bool = False
    slpb_bias_on: bool = False
    ret_saved: bool = False
    sleep_request: bool = False
    now: float = 0.0
    deadline: float | None = None  # absolute time the in-flight step completes

    @property
    def status_ready(self) -> bool:
        return self.fsm is PimFsm.ACTIVE


@dataclass(frozen=True)
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


def _begin_entry(state: PimState) -> PimState:
    return replace(state, fsm=PimFsm.ISO_ON, deadline=state.now + state.config.t_iso_on)


def _begin_exit(state: PimState) -> PimState:
    return replace(state, fsm=PimFsm.BIAS_OFF, deadline=state.now + state.config.t_bias_off)


def pim_write_sleep(state: PimState, value: bool | None = None) -> PimState:
    """CPU write to the sleep register.

    Toggle semantics by default; with ``explicit_bit`` the written value is
    the request.  A write mid-transition only updates the latched request,
    which is re-examined when the transition lands in SLEEP or ACTIVE.
    """
    if state.config.explicit_bit:
        if value is None:
            raise ValueError("explicit_bit mode requires a written value")
        request = bool(value)
    else:
        if value is not None:
            raise ValueError("toggle mode takes no written value")
        request = not state.sleep_request
    state = replace(state, sleep_request=request)
    if state.fsm is PimFsm.ACTIVE and request:
        return _begin_entry(state)
    if state.fsm is PimFsm.SLEEP and not request:
        return _begin_exit(state)
    return state


def _complete_step(state: PimState) -> tuple[PimState, list[tuple[float, str]]]:
    t = state.deadline
    assert t is not None
    cfg = state.config
    events: list[tuple[float, str]]
    if state.fsm is PimFsm.ISO_ON:
        state = replace(state, now=t, iso=True, fsm=PimFsm.SAVING, deadline=t + cfg.t_save)
        events = [(t, "ISO=1")]
    elif state.fsm is PimFsm.SAVING:
        state = replace(state, now=t, ret_saved=True, fsm=PimFsm.BIAS_ON, deadline=t + cfg.t_bias_on)
        events = [(t, "SAVE_DONE")]
    elif state.fsm is PimFsm.BIAS_ON:
        state = replace(state, now=t, slpb_bias_on=True, fsm=PimFsm.SLEEP, deadline=None)
        events = [(t, "BIAS=1")]
        if not state.sleep_request:  # latched wake-up request
            state = _begin_exit(state)
    elif state.fsm is PimFsm.BIAS_OFF:
        state = replace(state, now=t, slpb_bias_on=False, fsm=PimFsm.RESTORING, deadline=t + cfg.t_restore)
        events = [(t, "BIAS=0")]
    elif state.fsm is PimFsm.RESTORING:
        state = replace(state, now=t, ret_saved=False, fsm=PimFsm.ISO_OFF, deadline=t + cfg.t_iso_off)
        events = [(t, "RESTORE_DONE")]
    elif state.fsm is PimFsm.ISO_OFF:
        state = replace(state, now=t, iso=False, fsm=PimFsm.ACTIVE, deadline=None)
        events = [(t, "ISO=0"), (t, "STATUS=ready")]
        if state.sleep_request:  # latched sleep request
            state = _begin_entry(state)
    else:  # pragma: no cover - ACTIVE/SLEEP never hold a deadline
        raise AssertionError(f"no step to complete in {state.fsm}")
    return state, events


def pim_advance(state: PimState, dt: float) -> tuple[PimState, list[tuple[float, str]]]:
    """Advance simulated time by dt, firing every transition that falls due."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    end = state.now + dt
    events: list[tuple[float, str]] = []
    while state.deadline is not None and state.deadline <= end:
        state, step_events = _complete_step(state)
        events.extend(step_events)
    return replace(state, now=end), events


def pim_run_script(config: PimConfig | None, script: tuple[ScriptCommand, ...] | list[ScriptCommand]) -> Trace:
    """Drive the register interface from a timed command list."""
    state = pim_new(config)
    events: list[tuple[float, str]] = []
    for command in script:
        if command.time_ns < state.now:
            raise ValueError(f"script times must be non-decreasing (got {command.time_ns:g} ns)")
        state, due = pim_advance(state, command.time_ns - state.now)
        events.extend(due)
        if command.op == "write_sleep":
            state = pim_write_sleep(state, command.value)
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
            if op != "write_sleep" or tokens[3] not in ("0", "1") or len(tokens) > 4:
                raise ParseError("script", line_no, f"unexpected token '{tokens[3]}'")
            value = tokens[3] == "1"
        commands.append(ScriptCommand(time_ns, op, value))
    return tuple(commands)


# ---------------------------------------------------------------------------
# VCD emission

_VCD_VARS = (("iso", "!"), ("slpb_bias_on", '"'), ("ret_saved", "#"))
_EVENT_TO_SIGNAL = {
    "ISO=1": ("iso", 1),
    "ISO=0": ("iso", 0),
    "BIAS=1": ("slpb_bias_on", 1),
    "BIAS=0": ("slpb_bias_on", 0),
    "SAVE_DONE": ("ret_saved", 1),
    "RESTORE_DONE": ("ret_saved", 0),
}


def trace_to_vcd(trace: Trace) -> str:
    """Minimal value-change dump of the three controller signals, 1 ns timescale."""
    ids = dict(_VCD_VARS)
    lines = ["$timescale 1ns $end", "$scope module pim $end"]
    lines += [f"$var wire 1 {vid} {name} $end" for name, vid in _VCD_VARS]
    lines += ["$upscope $end", "$enddefinitions $end", "$dumpvars"]
    lines += [f"0{vid}" for _, vid in _VCD_VARS]
    lines.append("$end")

    last_time: int | None = None
    for t, event in trace.events:
        change = _EVENT_TO_SIGNAL.get(event)
        if change is None:
            continue
        time = int(round(t))
        if time != last_time:
            lines.append(f"#{time}")
            last_time = time
        name, bit = change
        lines.append(f"{bit}{ids[name]}")
    return "\n".join(lines) + "\n"
