import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferencePimState,
    check_trace_safety,
    random_script,
    reference_pim_advance,
    reference_pim_run_script,
    reference_pim_write_sleep,
)
from pwr.netlist import ParseError
from pwr.pimsim import (
    PimConfig,
    PimFsm,
    PimStatus,
    ScriptCommand,
    parse_script,
    pim_advance,
    pim_new,
    pim_read_status,
    pim_run_script,
    pim_write_sleep,
    trace_to_vcd,
)


def test_fresh_state_is_active_and_ready():
    state = pim_new()
    assert state.fsm is PimFsm.ACTIVE
    assert pim_read_status(state) is PimStatus.READY
    assert not (state.iso or state.slpb_bias_on or state.ret_saved)
    assert state.now == 0.0


def test_zero_step_config_still_starts_ready():
    state = pim_new(PimConfig(0, 0, 0, 0, 0, 0))
    assert pim_read_status(state) is PimStatus.READY


def test_negative_step_time_rejected():
    with pytest.raises(ValueError, match="t_save"):
        PimConfig(t_save=-1)


def test_nan_step_time_rejected():
    # a NaN deadline never falls due, so the controller would stay busy forever
    with pytest.raises(ValueError, match="t_save must be finite"):
        PimConfig(t_save=float("nan"))


def test_infinite_step_time_rejected():
    with pytest.raises(ValueError, match="t_iso_on must be finite"):
        PimConfig(t_iso_on=float("inf"))


def test_write_starts_entry_and_drops_ready():
    state = pim_write_sleep(pim_new())
    assert state.fsm is PimFsm.ISO_ON
    assert pim_read_status(state) is PimStatus.BUSY


def test_entry_completes_in_exactly_60ns():
    state, events = pim_advance(pim_write_sleep(pim_new()), 60.0)
    assert state.fsm is PimFsm.SLEEP
    assert state.now == 60.0
    assert events == [(20.0, "ISO=1"), (40.0, "SAVE_DONE"), (60.0, "BIAS=1")]
    assert state.iso and state.slpb_bias_on and state.ret_saved


def test_exit_completes_in_exactly_60ns():
    asleep, _ = pim_advance(pim_write_sleep(pim_new()), 60.0)
    awake, events = pim_advance(pim_write_sleep(asleep), 60.0)
    assert awake.fsm is PimFsm.ACTIVE
    assert [e for _, e in events] == ["BIAS=0", "RESTORE_DONE", "ISO=0", "STATUS=ready"]
    assert [t for t, _ in events] == [80.0, 100.0, 120.0, 120.0]


def test_advance_zero_is_a_no_op():
    state = pim_write_sleep(pim_new())
    same, events = pim_advance(state, 0.0)
    assert events == [] and same == state


def test_advance_59ns_leaves_bias_pending():
    state, events = pim_advance(pim_write_sleep(pim_new()), 59.0)
    assert state.fsm is PimFsm.BIAS_ON  # save finished, bias still pending
    assert state.ret_saved and not state.slpb_bias_on
    assert pim_read_status(state) is PimStatus.BUSY
    assert [e for _, e in events] == ["ISO=1", "SAVE_DONE"]


def test_advance_rejects_negative_dt():
    with pytest.raises(ValueError):
        pim_advance(pim_new(), -1.0)


def test_advance_rejects_nan_dt():
    with pytest.raises(ValueError, match="dt must be finite"):
        pim_advance(pim_new(), float("nan"))


def test_read_status_three_values():
    assert pim_read_status(pim_new()) is PimStatus.READY
    mid, _ = pim_advance(pim_write_sleep(pim_new()), 30.0)
    assert mid.fsm is PimFsm.SAVING
    assert pim_read_status(mid) is PimStatus.BUSY
    asleep, _ = pim_advance(pim_write_sleep(pim_new()), 60.0)
    assert pim_read_status(asleep) is PimStatus.SLEEPING


def test_write_during_entry_latches_exit():
    trace = pim_run_script(PimConfig(), [
        ScriptCommand(0.0, "write_sleep"),
        ScriptCommand(1.0, "write_sleep"),
        ScriptCommand(200.0, "read_status"),
    ])
    text = trace.to_text()
    assert "60 BIAS=1" in text      # the entry still completes
    assert "80 BIAS=0" in text      # then the latched wake request runs
    assert text.endswith("200 STATUS=ready\n")
    check_trace_safety(trace)


def test_script_enter_then_exit_then_ready():
    trace = pim_run_script(PimConfig(), [
        ScriptCommand(0.0, "write_sleep"),
        ScriptCommand(70.0, "write_sleep"),
        ScriptCommand(200.0, "read_status"),
    ])
    events = dict((e, t) for t, e in trace.events)
    assert events["ISO=0"] == 130.0  # exit finished 60 ns after the wake write
    assert trace.events[-1] == (200.0, "STATUS=ready")


def test_script_read_while_sleeping():
    trace = pim_run_script(PimConfig(), [
        ScriptCommand(0.0, "write_sleep"),
        ScriptCommand(100.0, "read_status"),
    ])
    assert trace.events[-1] == (100.0, "STATUS=sleeping")


def test_empty_script_empty_trace():
    assert pim_run_script(PimConfig(), []).events == ()
    assert pim_run_script(PimConfig(), []).to_text() == ""


def test_script_rejects_decreasing_times():
    with pytest.raises(ValueError, match="non-decreasing"):
        pim_run_script(PimConfig(), [
            ScriptCommand(10.0, "read_status"),
            ScriptCommand(5.0, "read_status"),
        ])


def test_custom_step_times():
    config = PimConfig(t_iso_on=5, t_save=10, t_bias_on=15, t_bias_off=1, t_restore=2, t_iso_off=3)
    state, events = pim_advance(pim_write_sleep(pim_new(config)), 30.0)
    assert state.fsm is PimFsm.SLEEP
    assert [t for t, _ in events] == [5.0, 15.0, 30.0]
    assert config.entry_ns == 30 and config.exit_ns == 6


def test_explicit_bit_mode():
    config = PimConfig(explicit_bit=True)
    state = pim_write_sleep(pim_new(config), True)
    assert state.fsm is PimFsm.ISO_ON
    # writing 1 again while asleep must not wake the island
    asleep, _ = pim_advance(state, 60.0)
    still = pim_write_sleep(asleep, True)
    assert still.fsm is PimFsm.SLEEP
    awake, _ = pim_advance(pim_write_sleep(still, False), 60.0)
    assert awake.fsm is PimFsm.ACTIVE
    with pytest.raises(ValueError, match="explicit_bit"):
        pim_write_sleep(pim_new(config))


def test_toggle_mode_rejects_value():
    with pytest.raises(ValueError, match="toggle mode"):
        pim_write_sleep(pim_new(), True)


@pytest.mark.parametrize(
    "explicit_bit, text, message",
    [
        (True, "at 0 write_sleep 1\nat 200 write_sleep\n",
         "script command 2 at 200 ns: explicit_bit mode requires a written value"),
        (False, "at 0 read_status\nat 0.5 write_sleep 1\n",
         "script command 2 at 0.5 ns: toggle mode takes no written value"),
    ],
    ids=["explicit-without-value", "toggle-with-value"],
)
def test_run_script_write_mode_mismatch_names_its_command(explicit_bit, text, message):
    with pytest.raises(ValueError) as info:
        pim_run_script(PimConfig(explicit_bit=explicit_bit), parse_script(text))
    assert str(info.value) == message


# -- script files ---------------------------------------------------------------


def test_parse_script_lines():
    script = parse_script("# wake test\nat 0 write_sleep\nat 100 read_status\n")
    assert script == (
        ScriptCommand(0.0, "write_sleep", None),
        ScriptCommand(100.0, "read_status", None),
    )


def test_parse_script_explicit_value():
    assert parse_script("at 5 write_sleep 1\n")[0].value is True


def test_parse_script_errors():
    with pytest.raises(ParseError, match="unknown command"):
        parse_script("at 0 jump\n")
    with pytest.raises(ParseError, match="bad time"):
        parse_script("at soon write_sleep\n")
    with pytest.raises(ParseError, match="line 2: time must be finite"):
        parse_script("at 0 write_sleep\nat nan read_status\n")
    with pytest.raises(ParseError, match="line 1: time must be >= 0"):
        parse_script("at -5 write_sleep\n")


# -- trace / vcd ------------------------------------------------------------------


def test_trace_text_is_deterministic():
    script = [
        ScriptCommand(0.0, "write_sleep"),
        ScriptCommand(61.0, "read_status"),
        ScriptCommand(61.0, "write_sleep"),
        ScriptCommand(500.0, "read_status"),
    ]
    first = pim_run_script(PimConfig(), script).to_text()
    second = pim_run_script(PimConfig(), script).to_text()
    assert first == second


def test_vcd_emission():
    trace = pim_run_script(PimConfig(), [
        ScriptCommand(0.0, "write_sleep"),
        ScriptCommand(100.0, "read_status"),
    ])
    vcd = trace_to_vcd(trace)
    assert vcd.startswith("$timescale 1ns $end\n")
    assert "$var wire 1 ! iso $end" in vcd
    assert "#20\n1!" in vcd
    assert vcd.count("$var wire 1") == 3


def test_vcd_timescale_keeps_sub_ns_steps_apart():
    script = [ScriptCommand(0.0, "write_sleep"), ScriptCommand(5.0, "read_status")]
    trace = pim_run_script(PimConfig(*[0.4] * 6), script)
    vcd = trace_to_vcd(trace)
    assert vcd.startswith("$timescale 100ps $end\n")
    assert vcd.endswith("#4\n1!\n#8\n1#\n#12\n1\"\n")


# -- properties -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_random_scripts_respect_safety_invariants(seed):
    script = random_script(random.Random(seed))
    check_trace_safety(pim_run_script(PimConfig(), script))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_liveness_with_final_runout(seed):
    rng = random.Random(seed)
    script = list(random_script(rng))
    writes = sum(1 for c in script if c.op == "write_sleep")
    if writes % 2 == 1:  # leave the request cleared
        last = script[-1].time_ns if script else 0.0
        script.append(ScriptCommand(last, "write_sleep"))
    end = (script[-1].time_ns if script else 0.0) + 300.0
    script.append(ScriptCommand(end, "read_status"))
    trace = pim_run_script(PimConfig(), script)
    assert trace.events[-1] == (end, "STATUS=ready")


# -- the step table against the replace-based reference ----------------------------

_STEP_NS = st.sampled_from([0.0, 0.1, 0.4, 0.5, 1.0, 2.5, 7.0, 20.0])


@st.composite
def configs_and_scripts(draw):
    """Unequal step times (zero and fractional among them) and scripts whose
    times coincide or land exactly on step deadlines; a few commands carry
    a value of the wrong register mode, an unknown op or a time that goes back."""
    steps = [draw(_STEP_NS) for _ in range(6)]
    config = PimConfig(*steps, explicit_bit=draw(st.booleans()))
    gap = st.one_of(
        st.just(0.0),
        st.sampled_from(steps),
        st.sampled_from([config.entry_ns, config.exit_ns, steps[0] + steps[1]]),
        st.floats(0.0, 50.0),
        st.just(-0.5),
    )
    values = [True, False] * 3 + [None] if config.explicit_bit else [None] * 6 + [True]
    t, script = 0.0, []
    for _ in range(draw(st.integers(0, 14))):
        t += draw(gap)
        op = draw(st.sampled_from(["write_sleep"] * 4 + ["read_status"] * 3 + ["jump"]))
        script.append(ScriptCommand(t, op, draw(st.sampled_from(values)) if op == "write_sleep" else None))
    return config, script


def _outcome(run, config, script):
    try:
        return run(config, script).events
    except ValueError as error:
        return f"ValueError: {error}"


@settings(max_examples=400, deadline=None)
@given(configs_and_scripts())
def test_run_script_matches_reference(case):
    config, script = case
    assert _outcome(pim_run_script, config, script) == _outcome(reference_pim_run_script, config, script)


def _assert_same_state(state, ref):
    assert (state.fsm, state.sleep_request, state.now, state.deadline) == (
        ref.fsm, ref.sleep_request, ref.now, ref.deadline,
    )
    assert (state.iso, state.slpb_bias_on, state.ret_saved) == (ref.iso, ref.slpb_bias_on, ref.ret_saved)
    assert (pim_read_status(state) is PimStatus.READY) == (ref.fsm is PimFsm.ACTIVE)


@settings(max_examples=300, deadline=None)
@given(configs_and_scripts())
def test_derived_signals_match_reference_states(case):
    config, script = case
    state, ref = pim_new(config), ReferencePimState(config)
    for command in script:
        if command.time_ns < state.now or command.op == "jump":
            break
        state, events = pim_advance(state, command.time_ns - state.now)
        ref, ref_events = reference_pim_advance(ref, command.time_ns - ref.now)
        assert events == ref_events
        _assert_same_state(state, ref)
        if command.op == "write_sleep":
            try:
                state = pim_write_sleep(state, command.value)
            except ValueError:
                break
            ref = reference_pim_write_sleep(ref, command.value)
            _assert_same_state(state, ref)


# -- rejections, each with its exact message -----------------------------------------


@pytest.mark.parametrize(
    "text, message",
    [
        ("at 0 read_status\nwrite_sleep 1\n", "script line 2: expected 'at <ns> <command>', got 'write_sleep 1'"),
        ("# one line\nat 5\n", "script line 2: expected 'at <ns> <command>', got 'at 5'"),
        ("at 0 read_status now\n", "script line 1: unexpected token 'now'"),
        ("at 0 write_sleep maybe\n", "script line 1: unexpected token 'maybe'"),
        ("at 0 write_sleep maybe 1\n", "script line 1: unexpected token 'maybe'"),
        ("at 0 write_sleep 1 2\n", "script line 1: unexpected token '2'"),
    ],
    ids=["no-at", "no-command", "read_status-token", "write_sleep-token", "bad-value-then-token", "value-then-token"],
)
def test_parse_script_rejections_give_their_exact_message(text, message):
    with pytest.raises(ParseError) as info:
        parse_script(text)
    assert str(info.value) == message


def test_vcd_timescale_falls_back_to_rounded_picoseconds():
    script = [ScriptCommand(0.0, "write_sleep"), ScriptCommand(1.0, "read_status")]
    vcd = trace_to_vcd(pim_run_script(PimConfig(*[0.0004] * 6), script))
    # 0.4, 0.8 and 1.2 ps are whole in no unit, so 1ps rounds them
    assert vcd.startswith("$timescale 1ps $end\n")
    assert vcd.endswith("$end\n#0\n1!\n#1\n1#\n1\"\n")
