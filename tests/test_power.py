import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwr.netlist import ActivityProfile, ParseError, parse_design
from pwr.power import (
    DEFAULT_CALIBRATION,
    LEAKAGE_MECHANISMS,
    DynamicPowerParams,
    LeakageModel,
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


def _one_net_design(vdd: float, cap_ff: float):
    return parse_design(
        f"cell a kind=std island=x cap_ff={cap_ff} gates=1\n"
        "cell b kind=std island=x cap_ff=0.0 gates=1\n"
        "net n driver=a.z loads=b.a\n",
        f"island x vdd={vdd}\n",
    )


def _profile(sa: float, f_clk: float) -> ActivityProfile:
    return ActivityProfile({"n": sa})


# -- dynamic ------------------------------------------------------------------


def test_dynamic_power_hand_value():
    # 10 fF * (1.2 V)^2 * 150 MHz * 0.2 = 0.432 uW
    design = _one_net_design(1.2, 10.0)
    report = dynamic_power(design, _profile(0.2, 150.0), DynamicPowerParams(150.0, k=1.0))
    assert report.total_dynamic_w == pytest.approx(4.32e-7, rel=1e-12)


def test_dynamic_power_zero_activity(soc3):
    report = dynamic_power(soc3, ActivityProfile({}), DynamicPowerParams(150.0))
    assert report.total_w == 0.0


def test_dynamic_power_voltage_ratio():
    lo = dynamic_power(_one_net_design(1.0, 10.0), _profile(0.2, 150.0), DynamicPowerParams(150.0))
    hi = dynamic_power(_one_net_design(1.2, 10.0), _profile(0.2, 150.0), DynamicPowerParams(150.0))
    assert lo.total_w / hi.total_w == pytest.approx((1.0 / 1.2) ** 2)


@pytest.mark.parametrize("scale", [2.0, 3.0, 10.0])
def test_dynamic_power_linearities(scale):
    base = dynamic_power(_one_net_design(1.0, 10.0), _profile(0.1, 100.0), DynamicPowerParams(100.0)).total_w
    in_sa = dynamic_power(_one_net_design(1.0, 10.0), _profile(0.1 * scale, 100.0), DynamicPowerParams(100.0)).total_w
    in_cap = dynamic_power(_one_net_design(1.0, 10.0 * scale), _profile(0.1, 100.0), DynamicPowerParams(100.0)).total_w
    in_f = dynamic_power(_one_net_design(1.0, 10.0), _profile(0.1, 100.0), DynamicPowerParams(100.0 * scale)).total_w
    assert in_sa == pytest.approx(scale * base)
    assert in_cap == pytest.approx(scale * base)
    assert in_f == pytest.approx(scale * base)


def test_dynamic_power_quadratic_in_voltage():
    v1 = dynamic_power(_one_net_design(0.6, 10.0), _profile(0.1, 100.0), DynamicPowerParams(100.0)).total_w
    v2 = dynamic_power(_one_net_design(1.2, 10.0), _profile(0.1, 100.0), DynamicPowerParams(100.0)).total_w
    assert v2 == pytest.approx(4.0 * v1)


def test_dynamic_params_validation():
    with pytest.raises(ValueError):
        DynamicPowerParams(150.0, k=1.5)
    with pytest.raises(ValueError):
        DynamicPowerParams(0.0)


_NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("value", _NON_FINITE)
def test_dynamic_params_reject_non_finite(value):
    with pytest.raises(ValueError, match="f_clk_mhz must be finite"):
        DynamicPowerParams(value)
    with pytest.raises(ValueError, match="k must be within"):
        DynamicPowerParams(150.0, k=value)


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("field", [f.name for f in fields(LeakageModel)])
def test_leakage_model_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LeakageModel(**{field: value})


@pytest.mark.parametrize("value", _NON_FINITE)
def test_leakage_rejects_non_finite_arguments(soc3, value):
    with pytest.raises(ValueError, match="bias and temperature must be finite"):
        leakage_current_per_gate(value)
    with pytest.raises(ValueError, match="bias and temperature must be finite"):
        leakage_current_per_gate(0.0, temp_c=value)
    with pytest.raises(ValueError, match="bias and temperature must be finite"):
        static_power(soc3, (), temp_c=value)


# -- theoretical reduction ------------------------------------------------------


def test_theoretical_reduction_published_points():
    assert theoretical_reduction(1.2, 1.0) == pytest.approx(0.305, abs=1e-3)
    assert theoretical_reduction(1.2, 0.8) == pytest.approx(0.555, abs=1e-3)
    assert theoretical_reduction(1.0, 1.0) == 0.0


def test_theoretical_reduction_rejects_upscale():
    with pytest.raises(ValueError):
        theoretical_reduction(1.0, 1.2)


@settings(max_examples=200, deadline=None)
@given(
    v_from=st.floats(0.1, 5.0),
    ratio=st.floats(0.01, 1.0),
)
def test_theoretical_reduction_identity(v_from, ratio):
    v_to = v_from * ratio
    assert theoretical_reduction(v_from, v_to) + (v_to / v_from) ** 2 == pytest.approx(1.0)


# -- leakage ------------------------------------------------------------------


def test_leakage_zero_bias_default():
    assert leakage_current_per_gate(0.0, 25.0) == pytest.approx(0.5e-6)


def test_leakage_at_default_bias_is_260x_down():
    current = leakage_current_per_gate(-0.3, 25.0)
    assert current == pytest.approx(0.5e-6 / 260.0, rel=0.05)
    assert 0.5e-6 / current == pytest.approx(260.0, rel=0.01)


def test_leakage_midpoint_bias():
    assert leakage_current_per_gate(-0.15, 25.0) == pytest.approx(0.5e-6 / math.sqrt(260.0), rel=0.01)


def test_leakage_temperature_doubling():
    cold = leakage_current_per_gate(0.0, 25.0)
    assert leakage_current_per_gate(0.0, 35.0) == pytest.approx(2.0 * cold)
    assert leakage_current_per_gate(0.0, 125.0) == pytest.approx(2.0**10 * cold)


def test_leakage_rejects_positive_bias():
    with pytest.raises(ValueError):
        leakage_current_per_gate(0.1)


@settings(max_examples=200, deadline=None)
@given(
    v1=st.floats(-0.5, -0.001),
    dv=st.floats(0.001, 0.3),
    temp=st.floats(-40.0, 150.0),
    i0=st.floats(1e-9, 1e-3),
)
def test_leakage_monotone_and_separable(v1, dv, temp, i0):
    model = LeakageModel(i0_per_gate_25c=i0)
    v2 = min(v1 + dv, 0.0)
    lower = leakage_current_per_gate(v1, temp, model)
    higher = leakage_current_per_gate(v2, temp, model)
    assert lower < higher or v1 == v2
    # the reduction factor depends only on bias and slope
    base = leakage_current_per_gate(v1, 25.0) / leakage_current_per_gate(0.0, 25.0)
    assert lower / leakage_current_per_gate(0.0, temp, model) == pytest.approx(base, rel=1e-9)


def test_leakage_bias_sweep_is_monotone():
    points = leakage_bias_sweep(steps=9)
    assert points[0][0] == 0.0 and points[-1][0] == -0.4
    currents = [i for _, i in points]
    assert currents == sorted(currents, reverse=True)


# -- slope fitting ---------------------------------------------------------------


def test_fit_slope_on_anchor_points():
    slope = fit_subthreshold_slope([(0.0, 0.5e-6), (-0.3, 0.5e-6 / 260.0)])
    assert slope == pytest.approx(300.0 / math.log10(260.0), abs=1e-9)
    assert slope == pytest.approx(124.2, abs=0.1)


def test_fit_slope_one_decade_per_100mv():
    assert fit_subthreshold_slope([(0.0, 1e-6), (-0.1, 1e-7)]) == pytest.approx(100.0)


def test_fit_slope_errors():
    with pytest.raises(ValueError):
        fit_subthreshold_slope([(0.0, 1e-6)])
    with pytest.raises(ValueError):
        fit_subthreshold_slope([(0.0, 1e-6), (0.0, 1e-7)])
    with pytest.raises(ValueError):
        fit_subthreshold_slope([(0.0, 1e-6), (-0.1, -1.0)])
    with pytest.raises(ValueError, match="degenerate"):
        fit_subthreshold_slope([(0.0, 1e-7), (-0.1, 1e-6)])


@settings(max_examples=100, deadline=None)
@given(
    slope_mv=st.floats(50.0, 300.0),
    i0=st.floats(1e-9, 1e-5),
)
def test_fit_recovers_generating_slope(slope_mv, i0):
    model = LeakageModel(i0_per_gate_25c=i0, slope_mv_per_decade=slope_mv)
    points = [(v, leakage_current_per_gate(v, 25.0, model)) for v in (0.0, -0.1, -0.2, -0.3)]
    assert fit_subthreshold_slope(points) == pytest.approx(slope_mv, rel=1e-6)


# -- static power ---------------------------------------------------------------


def _static_scenario():
    """108k gates in a switchable 1.2 V island plus an always-on manager.

    i0 is back-computed so the awake block leaks 1.926 nW per gate at 1.2 V
    (208 uW total), which the published typical numbers imply.
    """
    design = parse_design(
        "cell block kind=std island=logic cap_ff=0.0 gates=108000 sleep=1\n"
        "cell pim0 kind=pim island=aon cap_ff=0.0 gates=1\n"
        "net n driver=pim0.z loads=block.a\n",
        "island aon vdd=1.2\nisland logic vdd=1.2 switchable=1 retention=1\n",
    )
    model = LeakageModel(i0_per_gate_25c=1.926e-9 / 1.2)
    return design, model


def test_static_power_awake_208uw():
    design, model = _static_scenario()
    report = static_power(design, sleeping=(), temp_c=25.0, model=model)
    logic = next(r for r in report.islands if r.island == "logic")
    assert logic.static_active_w == pytest.approx(208e-6, rel=0.005)
    assert report.manager_w == 0.0


def test_static_power_asleep_4p9uw_and_reduction():
    design, model = _static_scenario()
    awake = static_power(design, sleeping=(), temp_c=25.0, model=model)
    asleep = static_power(design, sleeping={"logic"}, temp_c=25.0, model=model)
    awake_w = next(r for r in awake.islands if r.island == "logic").static_active_w
    sleep_w = asleep.total_static_sleep_w  # biased block plus manager overhead
    assert asleep.manager_w == pytest.approx(4.1e-6)
    assert sleep_w == pytest.approx(4.9e-6, rel=0.02)
    reduction = 1.0 - sleep_w / awake_w
    assert reduction * 100 == pytest.approx(97.6, abs=0.2)


def test_static_power_empty_design():
    from pwr.netlist import Design

    report = static_power(Design(), sleeping=())
    assert report.total_w == 0.0


def test_static_power_rejects_sleeping_non_switchable(soc3):
    with pytest.raises(ValueError, match="not switchable"):
        static_power(soc3, sleeping={"usb"})
    with pytest.raises(ValueError, match="unknown island"):
        static_power(soc3, sleeping={"nope"})


def test_power_report_totals_are_sums(gated_soc):
    activity = ActivityProfile({n.name: 0.3 for n in gated_soc.nets})
    report = power_report(
        gated_soc, activity, DynamicPowerParams(200.0), sleeping={"logic"},
        model=LeakageModel(i0_per_gate_25c=1e-9),
    )
    assert report.total_w == pytest.approx(
        sum(r.dynamic_w + r.static_active_w + r.static_sleep_w for r in report.islands)
        + report.manager_w
    )
    assert all(r.total_w >= 0 for r in report.islands)


# -- calibration ------------------------------------------------------------------


@pytest.mark.parametrize(
    "key,expected",
    [
        (("nand2", 25, "model"), 33.9),
        (("nand2", 25, "silicon"), 78.6),
        (("nand2", 125, "model"), 197.0),
        (("nand2", 125, "silicon"), 326.0),
        (("sram", 125, "model"), 8.1),
        (("sram", 125, "silicon"), 10.0),
    ],
)
def test_calibration_lookups(key, expected):
    assert DEFAULT_CALIBRATION.factor(*key) == expected


def test_calibration_unknown_key():
    with pytest.raises(ValueError, match="no calibration entry"):
        DEFAULT_CALIBRATION.factor("sram", 25, "silicon")


def test_calibration_temperature_matches_exactly():
    assert DEFAULT_CALIBRATION.factor("nand2", 25.0, "silicon") == 78.6
    with pytest.raises(ValueError, match="no calibration entry"):
        DEFAULT_CALIBRATION.factor("nand2", 25.9, "silicon")


def test_calibration_sram_application():
    reduced = 719e-6 / DEFAULT_CALIBRATION.factor("sram", 125, "silicon")
    assert reduced == pytest.approx(71.5e-6, rel=0.01)


def test_calibration_override_file():
    table = parse_calibration("calib nand2 temp=25 source=silicon factor=80.0\n")
    assert table.factor("nand2", 25, "silicon") == 80.0


def test_char_and_calib_lines_share_one_file():
    from pwr.netlist import parse_characterization

    text = "op cpu vdd=1.2 fmax_mhz=155 area_um2=1 cap_factor=1\ncalib nand2 temp=25 source=silicon factor=80\n"
    assert [r.island_class for r in parse_characterization(text).rows] == ["cpu"]
    assert [e.device_class for e in parse_calibration(text).entries] == ["nand2"]


def test_calibration_file_rejects_bad_rows():
    from pwr.netlist import ParseError

    with pytest.raises(ParseError, match="factor must exceed 1"):
        parse_calibration("calib nand2 temp=25 source=model factor=0.5\n")
    with pytest.raises(ParseError, match="line 1: bad temp '25.9'"):
        parse_calibration("calib nand2 temp=25.9 source=model factor=2\n")
    with pytest.raises(ParseError, match="duplicate calibration"):
        parse_calibration(
            "calib nand2 temp=25 source=model factor=2\ncalib nand2 temp=25 source=model factor=3\n"
        )


# -- taxonomy ------------------------------------------------------------------


def test_taxonomy_grid():
    grid = {m.id: [m.severity(n) for n in (180, 130, 90)] for m in LEAKAGE_MECHANISMS}
    assert len(LEAKAGE_MECHANISMS) == 5
    assert grid["I1"] == [Severity.MINOR, Severity.MINOR, Severity.MINOR]
    assert grid["I2"] == [Severity.MINOR, Severity.MAJOR, Severity.MAJOR_PLUS]
    assert grid["I3"] == [Severity.MINOR, Severity.RELEVANT, Severity.SIGNIFICANT]
    assert grid["I4"] == [Severity.MINOR, Severity.MINOR, Severity.MINOR]
    assert grid["I5"] == [Severity.MINOR, Severity.MINOR, Severity.MINOR]


# -- rejections, each with its exact message -----------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LeakageModel(i0_per_gate_25c=0.0), "i0_per_gate_25c must be positive"),
        (lambda: LeakageModel(slope_mv_per_decade=-1.0), "slope_mv_per_decade must be positive"),
        (lambda: LeakageModel(temp_doubling_c=0.0), "temp_doubling_c must be positive"),
        (lambda: LeakageModel(manager_overhead_w=-1e-6), "manager_overhead_w must be >= 0"),
        (lambda: LeakageModel(bias_v=0.1), "bias_v must be <= 0"),
        (lambda: theoretical_reduction(1.2, 0.0), "v_to must be positive, got 0.0"),
        (lambda: leakage_bias_sweep(v_stop=0.1), "v_stop must be <= 0 and steps >= 2"),
        (lambda: leakage_bias_sweep(steps=1), "v_stop must be <= 0 and steps >= 2"),
        (lambda: LEAKAGE_MECHANISMS[0].severity(65), "no severity recorded for 65 nm"),
        (
            lambda: parse_calibration("calib nand2 temp=25 source=spice factor=2\n"),
            "characterization line 1: bad source 'spice' (want model or silicon)",
        ),
    ],
    ids=[
        "i0", "slope", "temp_doubling", "manager_overhead", "bias_v", "v_to", "v_stop", "steps",
        "severity-node", "calib-source",
    ],
)
def test_power_rejections_give_their_exact_message(call, message):
    with pytest.raises((ParseError, ValueError)) as info:
        call()
    assert str(info.value) == message
