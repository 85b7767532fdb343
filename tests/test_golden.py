"""Golden digests: the benchmark's seed-1 inputs, run through the benchmark's
CLI commands in process, give the six outputs whose sha256 ROADMAP item 3
records.  A change to any output fails here unless its digest is updated on
purpose (and the change is listed in CHANGES.md as a data change).  The
benchmark's own reference results, which read designs through the public
records, must agree with the library on the same inputs."""

import hashlib
import json
import types
from pathlib import Path

import pytest

from pwr.cli import run_cli
from pwr.crossings import analyze_crossings
from pwr.netlist import parse_activity, parse_design
from pwr.power import DynamicPowerParams, power_report
from pwr.report import emit_report, power_to_report

_BENCH = Path(__file__).resolve().parent.parent / "bench"

GOLDEN_SEED_1 = {
    "fix_check": {
        "fixed.net": "0d08c27f20260d16e73890aaa938ee3c5b4643aea204a778c188b04a4a78e616",
        "check.out": "964e2ed18795f6218f75b23a17fd527218759797316f8d925b910e457e05cb7c",
    },
    "power_sweep": {
        "power.json": "86edc517ead5fa48e923e534a4c3ea10640b1772f8c92dac65c89ea7ffb24dd6",
        "optimize.json": "c3ac485652c16978332aed0e8427fc2202af4ecd6310cecd3c0c6f3955b134ff",
    },
    "sleep_sim": {
        "trace.txt": "707c52714d921477e1e63022cf58b876a521a5b69f5a1979715dd36702b9a286",
        "sim.vcd": "2e36adb45f126f8a7f57d393a9d2734f3e9f6b9f0719b945a23cc8d1c7b24362",
    },
}


def _bench(name: str) -> types.ModuleType:
    """``bench/<name>.py``, run from its source text, so that nothing is
    written under ``bench/`` (no bytecode cache) and ``bench/`` is not put on
    the import path."""
    path = _BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _commands(gen) -> dict[str, list[tuple[list[str], str | None]]]:
    """Per workload, each command of ``bench/run.py``'s pass with the name of
    the output its stdout goes to (None: not digested)."""
    design = ["--netlist", "design.net", "--intent", "design.intent"]
    fclk = str(gen.SWEEP_FCLK_MHZ)
    asleep = [arg for i in range(1, gen.SWEEP_ISLANDS, 2) for arg in ("--sleep", f"isl{i}")]
    return {
        "fix_check": [
            (["fix", *design, "--out", "fixed.net"], None),
            (["check", "--netlist", "fixed.net", "--intent", "design.intent"], "check.out"),
        ],
        "power_sweep": [
            (["power", *design, "--activity", "design.act", "--fclk-mhz", fclk, *asleep, "--format", "json"],
             "power.json"),
            (["optimize", *design, "--char", "design.char", "--freq-mhz", fclk, "--format", "json"],
             "optimize.json"),
        ],
        "sleep_sim": [(["sleep-sim", "--script", "sleep.script", "--vcd", "sim.vcd"], "trace.txt")],
    }


@pytest.mark.parametrize("workload", sorted(GOLDEN_SEED_1))
def test_seed_1_outputs_keep_their_digests(workload, tmp_path, monkeypatch, capsys):
    gen = _bench("gen")
    for name, text in gen.GENERATORS[workload](1).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv, stdout_name in _commands(gen)[workload]:
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        if stdout_name is not None:
            (tmp_path / stdout_name).write_text(out, encoding="utf-8")
    golden = GOLDEN_SEED_1[workload]
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in golden} == golden


def test_the_benchmark_oracles_agree_with_the_library_on_seed_1():
    """``bench/oracles.py`` walks ``net.driver`` and ``net.loads``: its
    crossing count on the ``fix_check`` design and its power sums on the
    ``power_sweep`` design match ``analyze_crossings`` and ``power_report``."""
    gen, oracles = _bench("gen"), _bench("oracles")
    texts = gen.fix_check(1)
    design = parse_design(texts["design.net"], texts["design.intent"])
    issues, _ = oracles.crossing_reference(design)
    assert issues == len(analyze_crossings(design)) > 0

    texts = gen.power_sweep(1)
    design = parse_design(texts["design.net"], texts["design.intent"])
    fclk = gen.SWEEP_FCLK_MHZ
    activity = parse_activity(texts["design.act"], fclk, design=design)
    dynamic = oracles.dynamic_reference(design, oracles.sa_by_net(texts["design.act"], fclk), fclk)
    switchable = frozenset(i.name for i in design.islands if i.switchable)
    for asleep, temp_c in ((frozenset(), 25.0), (switchable, 125.0)):
        report = power_report(design, activity, DynamicPowerParams(fclk), sleeping=asleep, temp_c=temp_c)
        rows = json.loads(emit_report(power_to_report(report), "json"))["rows"]
        assert oracles.power_rows_match(rows, dynamic, oracles.static_reference(design, asleep, temp_c))
