"""The README's "Library use" code runs as written against the public API,
and its ``--config`` example parses as written."""

import re
from pathlib import Path

import pytest

import pwr
from conftest import GATED_INTENT, GATED_NETLIST
from pwr.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"

# nets of the gated SoC, all kept by `fix`
ACTIVITY = """\
net l2c toggles=30 duration_ns=1000
net m2c toggles=120 duration_ns=1000
net c2l toggles=60 duration_ns=1000
net l_int toggles=300 duration_ns=1000
"""

# every class meets 250 MHz and has its 1.2 V baseline row
CHAR = """\
op cpu vdd=1.2 fmax_mhz=300 area_um2=1000 cap_factor=1.0
op cpu vdd=0.8 fmax_mhz=200 area_um2=1300 cap_factor=1.1
op mem vdd=1.2 fmax_mhz=300 area_um2=2000 cap_factor=1.0
op mem vdd=0.8 fmax_mhz=260 area_um2=2400 cap_factor=1.05
op logic vdd=1.2 fmax_mhz=300 area_um2=500 cap_factor=1.0
op logic vdd=1.0 fmax_mhz=260 area_um2=560 cap_factor=1.2
calib nand2 temp=25 source=silicon factor=80
"""


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    scope = {
        "pwr": pwr,
        "netlist_text": GATED_NETLIST,
        "intent_text": GATED_INTENT,
        "activity_text": ACTIVITY,
        "char_text": CHAR,
    }
    for block in blocks:
        exec(compile(block, str(README), "exec"), scope)

    assert capsys.readouterr().out.startswith("island,dynamic_w,")
    assert scope["profile"]["l2c"] == pytest.approx(0.2)
    assert {row.island for row in scope["savings"].rows} == {"cpu", "mem", "logic"}
    assert scope["silicon"] == 80.0


def test_readme_config_example_parses():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"# config file for --config .*?\n(.*?)```", text, re.S).group(1)
    assert parse_config(example) == {
        "i0_per_gate_25c": 1.605e-9, "bias_v": -0.3, "t_iso_on": 20.0, "explicit_bit": False,
    }
