"""Seeded input generators for the three benchmark workloads.

Each generator returns ``{file name: text}``; the same seed gives the same
bytes.  Generation writes the `pwr` file formats directly, so set-up time
does not depend on the program under test.
"""

from __future__ import annotations

import random

VOLTAGES = (0.8, 1.0, 1.2)

FIX_CELLS = 8_000
FIX_ISLANDS = 8
SWEEP_CELLS = 15_000
SWEEP_ISLANDS = 32
SWEEP_LOCAL_SHARE = 0.9
SWEEP_FCLK_MHZ = 150.0
ACTIVITY_WINDOW_NS = 1000.0
SIM_COMMANDS = 25_000
# Gaps cluster around the controller's 20 ns step so that many writes land
# mid-transition and get latched.
SIM_GAPS_NS = (0, 1, 5, 10, 19, 20, 21, 30, 40, 59, 60, 61, 80, 120)

# Characterized operating points per island class: (vdd, fmax scale,
# area scale, cap_factor).  The 1.2 V row is the optimize baseline.
CHAR_POINTS = ((0.8, 0.40, 1.25, 1.12), (1.0, 0.70, 1.10, 1.05), (1.2, 1.00, 1.00, 1.00))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512, so inputs do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _intent(islands: list[tuple[str, float, bool]]) -> str:
    return "".join(
        f"island {name} vdd={vdd!r} switchable={int(sw)} retention={int(sw)}\n"
        for name, vdd, sw in islands
    )


def _islands(rng: random.Random, count: int) -> list[tuple[str, float, bool]]:
    """Odd islands are switchable (with retention); even ones are always on.

    Supplies are a shuffled, evenly filled multiset of VOLTAGES, so the seed
    moves which islands cross upward but hardly how many crossings there are.
    """
    supplies = [VOLTAGES[i % len(VOLTAGES)] for i in range(count)]
    rng.shuffle(supplies)
    return [(f"isl{i}", vdd, i % 2 == 1) for i, vdd in enumerate(supplies)]


def _cells(rng: random.Random, count: int, islands: int) -> tuple[list[str], list[int]]:
    lines, homes = [], []
    for i in range(count):
        home = rng.randrange(islands)
        homes.append(home)
        lines.append(
            f"cell c{i} kind=std island=isl{home} cap_ff={rng.uniform(1.0, 50.0):.2f}"
            f" gates={rng.randint(1, 64)}\n"
        )
    return lines, homes


def _pim(rng: random.Random, islands: list[tuple[str, float, bool]]) -> str:
    home = rng.choice([name for name, _, sw in islands if not sw])
    return f"cell pim0 kind=pim island={home} cap_ff=5.00 gates=200\n"


def fix_check(seed: int) -> dict[str, str]:
    """8 islands, N std cells and N nets with 1-3 uniformly random loads."""
    rng = _rng("fix_check", seed)
    islands = _islands(rng, FIX_ISLANDS)
    cells, _ = _cells(rng, FIX_CELLS, FIX_ISLANDS)
    cells.append(_pim(rng, islands))
    nets = []
    for i in range(FIX_CELLS):
        loads = ",".join(f"c{rng.randrange(FIX_CELLS)}.a{j}" for j in range(rng.randint(1, 3)))
        nets.append(f"net n{i} driver=c{rng.randrange(FIX_CELLS)}.z loads={loads}\n")
    return {"design.net": "".join(cells + nets), "design.intent": _intent(islands)}


def power_sweep(seed: int) -> dict[str, str]:
    """32 islands; most loads stay in the driver's island; full activity and
    a three-point characterization table per island."""
    rng = _rng("power_sweep", seed)
    islands = _islands(rng, SWEEP_ISLANDS)
    cells, homes = _cells(rng, SWEEP_CELLS, SWEEP_ISLANDS)
    cells.append(_pim(rng, islands))
    members: list[list[int]] = [[] for _ in islands]
    for i, home in enumerate(homes):
        members[home].append(i)
    nets, activity = [], []
    for i in range(SWEEP_CELLS):
        driver = rng.randrange(SWEEP_CELLS)
        local = members[homes[driver]]
        loads = ",".join(
            f"c{rng.choice(local) if rng.random() < SWEEP_LOCAL_SHARE else rng.randrange(SWEEP_CELLS)}.a{j}"
            for j in range(rng.randint(1, 3))
        )
        nets.append(f"net n{i} driver=c{driver}.z loads={loads}\n")
        activity.append(f"net n{i} toggles={rng.randint(0, 300)} duration_ns={ACTIVITY_WINDOW_NS!r}\n")
    char = []
    for name, _, _ in islands:
        fmax, area = rng.uniform(400.0, 600.0), rng.uniform(50.0, 200.0)
        for vdd, f_scale, a_scale, cap_factor in CHAR_POINTS:
            char.append(
                f"op {name} vdd={vdd!r} fmax_mhz={fmax * f_scale:.1f}"
                f" area_um2={area * a_scale:.2f} cap_factor={cap_factor!r}\n"
            )
    return {
        "design.net": "".join(cells + nets),
        "design.intent": _intent(islands),
        "design.act": "".join(activity),
        "design.char": "".join(char),
    }


def sleep_sim(seed: int) -> dict[str, str]:
    """A toggle-mode register script of write_sleep/read_status commands."""
    rng = _rng("sleep_sim", seed)
    t, lines = 0, []
    for _ in range(SIM_COMMANDS):
        t += rng.choice(SIM_GAPS_NS)
        lines.append(f"at {t} {'write_sleep' if rng.random() < 0.5 else 'read_status'}\n")
    return {"sleep.script": "".join(lines)}


GENERATORS = {"fix_check": fix_check, "power_sweep": power_sweep, "sleep_sim": sleep_sim}
