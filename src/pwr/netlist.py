"""Domain model and parsers for the island/netlist file formats.

All input formats are line based UTF-8: ``#`` starts a comment, tokens are
whitespace separated, and attributes are ``key=value`` pairs.  Every reader
takes a str or an open text file, and its lines from the one tokenizer,
``_token_lines``, which splits the text exactly as ``str.splitlines`` does
but one block at a time (``_lines``), so a reader never holds a list of all
the lines of its text, nor a file's whole text.  One checked
reader, ``_statements``, turns each ``<directive> <name> key=value ...`` line
into its name and attributes through ``_attrs``, given the directive's
required and optional keys:

* intent file     -- ``island <name> vdd=<float> switchable=<0|1> retention=<0|1>``
* netlist file    -- ``cell``, ``net`` and ``port`` statements
* activity file   -- ``net <name> toggles=<int> duration_ns=<float>``
* characterization -- ``op <class> vdd=<f> fmax_mhz=<f> area_um2=<f> cap_factor=<f>``
  and ``calib <class> temp=<int> source=<model|silicon> factor=<f>``

Each parser then converts the values and applies its format's range rules.
The ``--config`` file (``pwr.cli.parse_config``) has no directive: each of
its lines is a run of ``key=value`` tokens that go straight to ``_attrs`` and
the checked converters, with no ``_statements``.

The netlist is the one large input, so ``parse_design`` reads its ``cell``
and ``net`` lines in one direct pass instead: it splits each line once,
matches each key against the statement's keys, converts the values with the
bare ``float``/``int`` and appends each record to its list, with no
attribute dict per line.  Any such line it rejects goes to
``_netlist_fault``, which reads it again by ``_statements`` and the checked
converters and returns the ``ParseError`` they always gave, so the values and
errors are those of the checked reader.
The few ``port`` lines go through the checked reader directly.
``parse_design`` checks no design invariant itself: it runs the same walk
as ``validate_design`` and reports the first fault at its line.  It keeps
no line numbers while reading: only a design with a fault scans the texts
again to find the line of each statement.
``parse_activity`` reads its ``net`` lines the same direct way, and any
line it rejects goes to ``_activity_fault`` for its error.  Both ``*_fault``
functions return the checked reader's error and raise ``AssertionError``
if the checked reader accepts the line.

Every parsed record is immutable after construction, so designs and tables
can be shared freely across threads.  ``parse_activity`` returns a plain
dict, which the power stages only read.

The records are kept cheap for the garbage collector.  ``Island``,
``CellInstance``, ``Net`` and ``Port`` have slots.  A net is
``Net(name, raw_ends)``, its endpoints flat in one exact str tuple
``(driver cell, driver pin, load cell, load pin, ...)``, which CPython stops
tracking after its first collection (an ``Endpoint``, being a tuple
subclass, is tracked for life).  ``Net.driver`` and ``Net.loads`` are
read-only ``Endpoint`` views built on each read; the stages read
``raw_ends``.  The parser and the fixer build ``Net`` and ``CellInstance``
records from values they have already checked by writing straight into the
slots (``_make_net``, ``_make_cell``).  Each name
is stored once: ``parse_design`` passes every cell, port, island and pin text
through one table local to the call, seeded with the ``Island.name`` objects,
so an endpoint's cell is its ``CellInstance.name`` or ``Port.name`` and a
cell's island its ``Island.name``; ``parse_activity`` with ``design=`` keys
its result by the design's ``Net.name`` objects.  The table is a plain dict
dropped after the line loop, not ``sys.intern``: interned strings are
immortal on CPython 3.12, so a process that parses many designs would keep
every name it ever read.  A second such table gives each distinct ``cap_ff``
text one float (a fixed netlist repeats ``cap_ff=0.0`` for every fix cell);
it is keyed by text, not value, so ``-0.0`` keeps its sign.

A ``Design`` also carries a topology index (the cell map, the manager
cell, gate sums per island, dynamic-power terms and the crossing walk),
built member by member on first use and then kept.  Each cached member is
a pure function of the frozen fields it reads, so a thread race can compute
one twice but never get a different value.  The walk and the power terms
depend only on ``cells`` and ``nets``: ``Design.with_supplies`` retargets
the island supplies and shares the index, while any other new ``Design``
builds its own.  The walk keeps its entries as three columns, not a tuple
each, and frees its scratch before it copies them into tuples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property, partial
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

__all__ = [
    "ParseError",
    "CellKind",
    "Endpoint",
    "Island",
    "CellInstance",
    "Net",
    "Port",
    "Design",
    "Topology",
    "Violation",
    "CharRow",
    "CalibrationEntry",
    "CalibrationTable",
    "CharTable",
    "parse_design",
    "serialize_design",
    "parse_activity",
    "parse_characterization",
    "validate_design",
]


class ParseError(Exception):
    """Malformed input text; pinpoints the offending line and token."""

    def __init__(self, source: str, line_no: int, message: str) -> None:
        self.source = source
        self.line_no = line_no
        self.message = message
        super().__init__(f"{source} line {line_no}: {message}")


class CellKind(str, Enum):
    STD = "std"
    LEVEL_SHIFTER = "levelshifter"
    ISO = "iso"
    RET_FF = "retff"
    SRAM = "sram"
    PIM = "pim"


_KIND_BY_VALUE = {kind.value: kind for kind in CellKind}
_KIND_TEXT = {kind: kind.value for kind in CellKind}

# Kinds spliced in by the crossing fixer; they relay signals between domains.
FIX_KINDS = frozenset((CellKind.LEVEL_SHIFTER, CellKind.ISO))
# Kinds that carry a sleep transistor and therefore take an SLPB pin.
SLEEPABLE_KINDS = frozenset((CellKind.STD, CellKind.RET_FF, CellKind.SRAM))

# Clock nets toggle twice per cycle, which bounds switching activity.
SA_MAX = 2.0
# The largest gate or toggle count, or sum of them: the largest integer a
# float holds, so the power arithmetic never overflows converting a count.
_MAX_COUNT = int(sys.float_info.max)


class Endpoint(NamedTuple):
    """A (cell-or-port, pin) connection point of a net."""

    cell: str
    pin: str


@dataclass(frozen=True, slots=True)
class Island:
    """A supply region. ``switchable`` islands can be powered down."""

    name: str
    vdd: float
    switchable: bool = False
    retention: bool = False


@dataclass(frozen=True, slots=True)
class CellInstance:
    name: str
    kind: CellKind
    island: str
    cap_ff: float = 0.0  # switched capacitance attributed to this cell's driven nets
    gate_count: int = 1  # leakage-equivalent gates
    has_sleep_pin: bool = False


@dataclass(frozen=True, slots=True)
class Net:
    """A named wire from one driver endpoint to its load endpoints, kept in
    one exact tuple ``raw_ends``: ``(driver cell, driver pin, load cell,
    load pin, ...)``."""

    name: str
    raw_ends: tuple[str, ...]

    @property
    def driver(self) -> Endpoint:
        return Endpoint._make(self.raw_ends[:2])

    @property
    def loads(self) -> tuple[Endpoint, ...]:
        return tuple(map(Endpoint, self.raw_ends[2::2], self.raw_ends[3::2]))


# The builders below write trusted values straight into the records' slots
# through the slot descriptors, which a frozen class's __setattr__ cannot
# block: no field-by-field setattr lookup and no copy of the endpoints.
_new = object.__new__
_cell_name, _cell_kind, _cell_island, _cell_cap_ff, _cell_gates, _cell_sleep = (
    CellInstance.__dict__[slot].__set__
    for slot in ("name", "kind", "island", "cap_ff", "gate_count", "has_sleep_pin")
)
_net_name, _net_ends = (Net.__dict__[slot].__set__ for slot in ("name", "raw_ends"))


def _make_cell(name: str, kind: CellKind, island: str, cap_ff: float, gate_count: int,
               has_sleep_pin: bool) -> CellInstance:
    """``CellInstance(...)`` for values of exactly the field types."""
    cell = _new(CellInstance)
    _cell_name(cell, name)
    _cell_kind(cell, kind)
    _cell_island(cell, island)
    _cell_cap_ff(cell, cap_ff)
    _cell_gates(cell, gate_count)
    _cell_sleep(cell, has_sleep_pin)
    return cell


def _make_net(name: str, raw_ends: tuple[str, ...]) -> Net:
    """``Net(name, raw_ends)``, the tuple stored as given: an exact str
    tuple ``(driver cell, driver pin, load cell, load pin, ...)``."""
    net = _new(Net)
    _net_name(net, name)
    _net_ends(net, raw_ends)
    return net


@dataclass(frozen=True, slots=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    vdd: float


# A load reached by walking a net through the fix cells on its path:
# (receiving island, island whose supply sets the arriving swing,
#  whether an iso cell outside the driver's island is on the path).
Terminal = tuple[str, str, bool]
# The nets reached by the walks as three columns of equal length: each
# net, the island of its walk's driver, and the distinct foreign terminals
# among the net's direct loads.
CrossingWalks = tuple[tuple[str, ...], tuple[str, ...], tuple[tuple[Terminal, ...], ...]]


class Topology:
    """Supply-independent index over one ``(cells, nets)`` pair.

    Every member is computed on first use from the tuples it was given and
    never changes afterwards.  Mappings are read-only views.
    """

    def __init__(self, cells: tuple[CellInstance, ...], nets: tuple[Net, ...]) -> None:
        self._cells = cells
        self._nets = nets

    @cached_property
    def _cell_map(self) -> dict[str, CellInstance]:
        return {c.name: c for c in self._cells}

    @cached_property
    def cells_by_name(self) -> Mapping[str, CellInstance]:
        return MappingProxyType(self._cell_map)

    @cached_property
    def gates_by_island(self) -> Mapping[str, int]:
        out: dict[str, int] = {}
        for cell in self._cells:
            out[cell.island] = out.get(cell.island, 0) + cell.gate_count
        return MappingProxyType(out)

    @cached_property
    def pim(self) -> CellInstance | None:
        return next((c for c in self._cells if c.kind is CellKind.PIM), None)

    @cached_property
    def dynamic_terms(self) -> Mapping[str, tuple[tuple[float, ...], tuple[str, ...]]]:
        """The driving cell's ``cap_ff`` and the name of every cell-driven
        net, as two parallel tuples per driving island, in net order."""
        cells = self._cell_map
        out: dict[str, tuple[list[float], list[str]]] = {}
        for net in self._nets:
            driver = cells.get(net.raw_ends[0])
            if driver is not None:
                caps, nets = out.get(driver.island) or out.setdefault(driver.island, ([], []))
                caps.append(driver.cap_ff)
                nets.append(net.name)
        return MappingProxyType({island: (tuple(caps), tuple(nets)) for island, (caps, nets) in out.items()})

    @cached_property
    def crossing_walks(self) -> CrossingWalks:
        """Breadth-first walks from each signal's real driver through the
        level shifters and iso cells on its path.

        A walk starts at every net driven by a cell that is not a shifter or
        iso cell, in net order.  Then each fix-driven net no walk has reached
        starts its own: first those whose fix cell is no load of a fix-driven
        net, then the rest, each in net order (sorted only once the
        real-driver walks are done, and only over the nets they missed).  A
        shifter re-drives at its own island's supply; an iso cell isolates
        only outside the driving island.  Port loads are skipped.  Each net a
        walk reaches files, in walk order, the distinct terminals outside the
        driver's island among its own direct loads (that net is where a fix
        must splice), if any, once per driver island: later walks from that
        island add theirs to its entry.  The entries come as three columns
        (see ``CrossingWalks``), with no tuple per entry.
        """
        # the walk's scratch is freed before its columns are copied
        walked, homes, found_at = self._walk()
        return tuple(walked), tuple(homes), tuple(found_at)

    def _walk(self) -> tuple[list[str], list[str], list[tuple[Terminal, ...]]]:
        """The three columns of ``crossing_walks``, as lists."""
        cells = self._cell_map
        nets = self._nets
        # The walk only continues through fix cells, so only their nets
        # matter: each fix cell's first net, and a chain from each net to
        # the next of its fix cell, for the rare cell that drives several.
        relayed: dict[str, Net] = {}
        next_relay: dict[str, Net] = {}
        for net in reversed(nets):
            cell = net.raw_ends[0]
            driver = cells.get(cell)
            if driver is not None and driver.kind in FIX_KINDS:
                if cell in relayed:
                    next_relay[net.name] = relayed[cell]
                relayed[cell] = net

        def relay_starts() -> Iterator[Net]:
            # A walk that reaches a fix-driven net reaches every net of each
            # fix cell on it, so the missed nets' own loads decide which fix
            # cells are fed; those that are not go first.
            missed = [net for net in nets if net.raw_ends[0] in relayed and net.name not in reached]
            fed = {cell for net in missed for cell in net.raw_ends[2::2]}
            missed.sort(key=lambda net: net.raw_ends[0] in fed)
            yield from missed

        # the nets driven by a cell that is not a fix cell, in net order
        starts = (net for net in nets if net.raw_ends[0] in cells and net.raw_ends[0] not in relayed)
        # identical terminals and terminal sets are shared between nets
        shared: dict[tuple, tuple] = {}
        walked: list[str] = []
        homes: list[str] = []
        found_at: list[tuple[Terminal, ...]] = []
        # Each fix-driven net some walk reached or started, with the index of
        # its first entry (-1 while it has none); ``refiled`` links each entry
        # of a net filed for several walk driver islands to its next one.  A
        # dict of 11.3k str keys takes 415 KB on CPython 3.11, a set of them
        # 525 KB: a set keeps a 16 B entry in every slot of its table, a dict
        # a 2 B index per slot and 16 B entries for two slots in three.
        reached: dict[str, int] = {}
        refiled: dict[int, int] = {}
        for net in chain(starts, relay_starts()):
            if net.name in reached:
                continue
            home = cells[net.raw_ends[0]].island
            frontier = [(net, home, False)]
            visited = {net.name}
            for current, swing, isolated in frontier:  # grows while iterated: BFS order
                terminals: list[Terminal] = []
                for cell in current.raw_ends[2::2]:
                    load = cells.get(cell)
                    if load is None:
                        continue
                    if load.kind in FIX_KINDS:
                        next_swing = load.island if load.kind is CellKind.LEVEL_SHIFTER else swing
                        next_iso = isolated or (load.kind is CellKind.ISO and load.island != home)
                        onward = relayed.get(load.name)
                        while onward is not None:
                            if onward.name not in visited:
                                visited.add(onward.name)
                                reached.setdefault(onward.name, -1)
                                frontier.append((onward, next_swing, next_iso))
                            onward = next_relay.get(onward.name)
                    elif load.island != home:
                        terminal = (load.island, swing, isolated)
                        if terminal not in terminals:
                            terminals.append(shared.setdefault(terminal, terminal))
                if not terminals:
                    continue
                # the net's entry for this driver island, if another walk filed it
                before, at = -1, -1
                if current.raw_ends[0] in relayed:
                    at = reached.get(current.name, -1)
                    while at >= 0 and homes[at] != home:
                        before, at = at, refiled.get(at, -1)
                    if at < 0 and before < 0:
                        reached[current.name] = len(walked)
                    elif at < 0:
                        refiled[before] = len(walked)
                if at >= 0:  # merge, keeping the earlier walk's terminals first
                    terminals = [*found_at[at], *(t for t in terminals if t not in found_at[at])]
                found = tuple(terminals)
                found = shared.setdefault(found, found)
                if at >= 0:
                    found_at[at] = found
                else:
                    walked.append(current.name)
                    homes.append(home)
                    found_at.append(found)
        return walked, homes, found_at


@dataclass(frozen=True)
class Design:
    """A flat gate-level design plus its power intent."""

    islands: tuple[Island, ...] = ()
    cells: tuple[CellInstance, ...] = ()
    nets: tuple[Net, ...] = ()
    ports: tuple[Port, ...] = ()

    def __getstate__(self) -> dict[str, object]:
        # cached members are rebuilt on demand, never pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def topology(self) -> Topology:
        """The shared index over ``cells`` and ``nets``; see ``Topology``."""
        return Topology(self.cells, self.nets)

    def islands_by_name(self) -> Mapping[str, Island]:
        return MappingProxyType({i.name: i for i in self.islands})

    def with_supplies(self, vdd_by_island: Mapping[str, float]) -> Design:
        """A copy with the named islands retargeted to new supplies.

        Islands missing from the mapping keep their supply.  Cells and nets
        are unchanged, so the copy shares this design's topology index.
        """
        unknown = set(vdd_by_island) - set(self.islands_by_name())
        if unknown:
            raise ValueError(f"unknown island '{min(unknown)}'")
        for name, vdd in vdd_by_island.items():
            if not 0 < vdd < math.inf:
                raise ValueError(f"island {name}: vdd must be positive and finite, got {vdd}")
        retargeted = replace(
            self,
            islands=tuple(replace(i, vdd=vdd_by_island.get(i.name, i.vdd)) for i in self.islands),
        )
        object.__setattr__(retargeted, "topology", self.topology)
        return retargeted


@dataclass(frozen=True)
class Violation:
    """One finding on a named object: a broken design invariant (``kind`` is
    its category, e.g. ``"cell"``) or an open power-intent rule."""

    kind: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} {self.subject}: {self.detail}"


@dataclass(frozen=True)
class CharRow:
    """One operating point of an island class: a measured row, or a pinned
    supply that no row covers (no fmax or area, cap_factor 1)."""

    island_class: str
    vdd: float
    fmax_mhz: float | None
    area_um2: float | None
    cap_factor: float  # switched-capacitance ratio vs the baseline library


@dataclass(frozen=True)
class CalibrationEntry:
    device_class: str
    temp_c: int
    source: str  # "model" | "silicon"
    reduction_factor: float


@dataclass(frozen=True)
class CalibrationTable:
    entries: tuple[CalibrationEntry, ...] = ()

    def factor(self, device_class: str, temp_c: float, source: str) -> float:
        for entry in self.entries:
            if (entry.device_class, entry.temp_c, entry.source) == (device_class, temp_c, source):
                return entry.reduction_factor
        raise ValueError(f"no calibration entry for ({device_class}, {temp_c} C, {source})")


@dataclass(frozen=True)
class CharTable:
    """The ``op`` rows and ``calib`` entries of one characterization file."""

    rows: tuple[CharRow, ...] = ()
    calibration: CalibrationTable = CalibrationTable()

    def rows_for(self, island_class: str) -> tuple[CharRow, ...]:
        return tuple(r for r in self.rows if r.island_class == island_class)

    def row(self, island_class: str, vdd: float) -> CharRow | None:
        return next((r for r in self.rows if r.island_class == island_class and r.vdd == vdd), None)


# ---------------------------------------------------------------------------
# tokenizing helpers shared by all formats

# directive -> (required keys, optional keys)
_Grammar = Mapping[str, tuple[tuple[str, ...], tuple[str, ...]]]


# Characters read per block by ``_lines``.
_BLOCK = 1 << 16


def _lines(source: str | TextIO) -> Iterator[str]:
    r"""The lines of ``source``, a str or an open text file read from where
    it stands, exactly those of ``str.splitlines()`` over its text, split one
    block at a time so that no list of every line is held.

    Each block of ``_BLOCK`` characters is cut just after its last ``\n``
    and the rest carried into the next, so a line may span blocks but no
    line break ``str.splitlines`` knows is cut (``\r\n`` ends at its
    ``\n``).
    """
    if isinstance(source, str):
        blocks: Iterable[str] = (source[at:at + _BLOCK] for at in range(0, len(source), _BLOCK))
    else:
        blocks = iter(partial(source.read, _BLOCK), "")
    carry = ""
    for block in blocks:
        cut = block.rfind("\n") + 1
        if cut:
            yield from (carry + block[:cut]).splitlines()
            carry = block[cut:]
        else:
            carry += block
    yield from carry.splitlines()


def _token_lines(source: str | TextIO) -> Iterator[tuple[int, list[str]]]:
    """``(line_no, tokens)`` of every line of ``source`` (see ``_lines``) that
    has a token: the text before any ``#``, split at whitespace."""
    for line_no, raw in enumerate(_lines(source), start=1):
        tokens = (raw[:raw.index("#")] if "#" in raw else raw).split()
        if tokens:
            yield line_no, tokens


def _statements(source: str, lines: Iterable[tuple[int, list[str]]],
                grammar: _Grammar) -> Iterator[tuple[int, str, str, dict[str, str]]]:
    """``(line_no, directive, name, attrs)`` of every ``<directive> <name>
    key=value ...`` line out of ``_token_lines``; ``grammar`` gives each
    directive's keys."""
    for line_no, tokens in lines:
        directive = tokens[0]
        if directive not in grammar:
            raise ParseError(source, line_no, f"unknown directive '{directive}'")
        if len(tokens) < 2 or "=" in tokens[1]:
            raise ParseError(source, line_no, f"'{directive}' statement needs a name")
        yield line_no, directive, tokens[1], _attrs(source, line_no, tokens[2:], *grammar[directive])


def _attrs(source: str, line_no: int, tokens: Iterable[str],
           required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            raise ParseError(source, line_no, f"expected key=value, got '{tok}'")
        if key not in required and key not in optional:
            raise ParseError(source, line_no, f"unknown attribute '{key}'")
        if key in out:
            raise ParseError(source, line_no, f"duplicate attribute '{key}'")
        out[key] = value
    for key in required:
        if key not in out:
            raise ParseError(source, line_no, f"missing attribute '{key}'")
    return out


def _float(source: str, line_no: int, key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ParseError(source, line_no, f"bad {key} '{value}' (want a number)") from None
    if not math.isfinite(number):
        raise ParseError(source, line_no, f"{key} must be finite, got '{value}'")
    return number


def _int(source: str, line_no: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(source, line_no, f"bad {key} '{value}' (want an integer)") from None


def _flag(source: str, line_no: int, key: str, value: str) -> bool:
    if value not in ("0", "1"):
        raise ParseError(source, line_no, f"bad flag for {key}: '{value}' (want 0 or 1)")
    return value == "1"


def _endpoint(source: str, line_no: int, value: str) -> tuple[str, str]:
    cell, sep, pin = value.rpartition(".")
    if not sep or not cell or not pin:
        raise ParseError(source, line_no, f"bad endpoint '{value}' (want cell.pin)")
    return cell, pin


# ---------------------------------------------------------------------------
# design parsing / validation / serialization


_INTENT_GRAMMAR = {"island": (("vdd",), ("switchable", "retention"))}
_NETLIST_GRAMMAR = {
    "cell": (("kind", "island"), ("cap_ff", "gates", "sleep")),
    "net": (("driver",), ("loads",)),
    "port": (("dir", "vdd"), ()),
}


def parse_design(netlist_text: str | TextIO, intent_text: str | TextIO) -> Design:
    """Parse a netlist plus power-intent pair, each a str or an open text
    file, into a validated Design.  A file is read once from where it
    stands, and read again from there only to find a fault's line; a file
    that cannot seek (a pipe) is read whole first.  Line numbers count from
    where each file stands.

    Raises ParseError on bad syntax, or at the line of the first invariant
    ``validate_design`` would report (intent before netlist, then by line).
    """
    # a file that cannot seek is read whole, as a fault's line needs a second read
    texts = [t if isinstance(t, str) or t.seekable() else t.read() for t in (intent_text, netlist_text)]
    intent_text, netlist_text = texts
    # where each file stands, to read it again from there for a fault's line
    starts = [0 if isinstance(text, str) else text.tell() for text in texts]
    islands: list[Island] = []
    for line_no, _, name, attrs in _statements("intent", _token_lines(intent_text), _INTENT_GRAMMAR):
        islands.append(Island(
            name,
            _float("intent", line_no, "vdd", attrs["vdd"]),
            _flag("intent", line_no, "switchable", attrs.get("switchable", "0")),
            _flag("intent", line_no, "retention", attrs.get("retention", "0")),
        ))

    cells: list[CellInstance] = []
    nets: list[Net] = []
    ports: list[Port] = []
    # one str object per distinct cell, port, island and pin text, and one
    # float per distinct cap_ff text (texts as keys keep the sign of -0.0)
    name_of = {island.name: island.name for island in islands}.setdefault
    cap_of = {}.setdefault
    kinds = _KIND_BY_VALUE
    isfinite = math.isfinite
    for line_no, tokens in _token_lines(netlist_text):
        # Every cell and net check below raises ValueError, and only on a line
        # the checked reader rejects too; ``_netlist_fault`` then names the fault.
        # Reading (a file that is not UTF-8) raises outside the ``try``.
        try:
            directive, name, *attrs = tokens
            if "=" in name:
                raise ValueError
            if directive == "cell":
                kind = island = cap_ff = gates = sleep = None
                for attr in attrs:
                    key, _, value = attr.partition("=")
                    if not value:
                        raise ValueError
                    if key == "kind" and kind is None:
                        kind = value
                    elif key == "island" and island is None:
                        island = value
                    elif key == "cap_ff" and cap_ff is None:
                        cap_ff = value
                    elif key == "gates" and gates is None:
                        gates = value
                    elif key == "sleep" and sleep is None:
                        sleep = value
                    else:
                        raise ValueError
                cap = 0.0 if cap_ff is None else cap_of(cap_ff, float(cap_ff))
                if kind not in kinds or island is None or not isfinite(cap) or sleep not in (None, "0", "1"):
                    raise ValueError
                cells.append(_make_cell(
                    name_of(name, name), kinds[kind], name_of(island, island), cap,
                    1 if gates is None else int(gates), sleep == "1",
                ))
            elif directive == "net":
                driver = loads = None
                for attr in attrs:
                    key, _, value = attr.partition("=")
                    if key == "driver" and driver is None and value:
                        driver = value
                    elif key == "loads" and loads is None and value:
                        loads = value
                    else:
                        raise ValueError
                if driver is None:
                    raise ValueError
                # rpartition(".") gives an empty cell or pin where one is missing
                cell, _, pin = driver.rpartition(".")
                if not cell or not pin:
                    raise ValueError
                ends = [name_of(cell, cell), name_of(pin, pin)]
                if loads is not None:
                    for item in loads.split(","):
                        if item:
                            cell, _, pin = item.rpartition(".")
                            if not cell or not pin:
                                raise ValueError
                            ends += name_of(cell, cell), name_of(pin, pin)
                nets.append(_make_net(name, tuple(ends)))
            elif directive == "port":
                # a handful per design: the checked reader raises its own ParseError
                _, _, _, port = next(_statements("netlist", [(line_no, tokens)], _NETLIST_GRAMMAR))
                ports.append(Port(name_of(name, name), port["dir"], _float("netlist", line_no, "vdd", port["vdd"])))
            else:
                raise ValueError
        except ValueError:
            raise _netlist_fault(line_no, tokens) from None
    del name_of, cap_of  # the tables are not needed past the line loop

    design = Design(tuple(islands), tuple(cells), tuple(nets), tuple(ports))
    faults = list(_design_faults(design))
    if faults:
        lines = _statement_lines(texts, starts)
        fault = min(faults, key=lambda f: (f[0] != "island", lines[f[0]][f[1]]))
        category, index, _ = fault
        source = "intent" if category == "island" else "netlist"
        raise ParseError(source, lines[category][index], str(_design_error(design, *fault)))
    return design


def _statement_lines(texts: Iterable[str | TextIO], starts: Iterable[int]) -> dict[str, list[int]]:
    """The line number of every statement, by directive and in file order,
    of texts ``parse_design`` has read, each file read again from its place
    in ``starts``: the index of a fault in a category (``_design_faults``)
    is an index into its list."""
    lines: dict[str, list[int]] = {"island": [], "cell": [], "net": [], "port": []}
    for text, start in zip(texts, starts):
        if not isinstance(text, str):
            text.seek(start)
        for line_no, tokens in _token_lines(text):
            lines[tokens[0]].append(line_no)
    return lines


def _netlist_fault(line_no: int, tokens: list[str]) -> ParseError:
    """The ``ParseError`` of a netlist line that ``parse_design`` rejected,
    as the checked reader finds it: ``_statements`` over the tokens in line
    order, then the value converters in a fixed order."""
    try:
        for _, stmt, _, attrs in _statements("netlist", [(line_no, tokens)], _NETLIST_GRAMMAR):
            if stmt == "cell":
                if attrs["kind"] not in _KIND_BY_VALUE:
                    raise ParseError("netlist", line_no, f"unknown cell kind '{attrs['kind']}'")
                _float("netlist", line_no, "cap_ff", attrs.get("cap_ff", "0"))
                _int("netlist", line_no, "gates", attrs.get("gates", "1"))
                _flag("netlist", line_no, "sleep", attrs.get("sleep", "0"))
            elif stmt == "net":
                for item in [attrs["driver"], *attrs.get("loads", "").split(",")]:
                    if item:
                        _endpoint("netlist", line_no, item)
    except ParseError as error:
        return error
    raise AssertionError(f"netlist line {line_no}: the checked reader accepts what parse_design rejected")


def _design_faults(design: Design) -> Iterator[tuple[str, int, str]]:
    """Every broken design invariant as ``(category, index, rule)``, where
    ``index`` points into the category's tuple: islands, cells, ports, nets."""
    island_names: set[str] = set()
    switchable: set[str] = set()
    for i, isl in enumerate(design.islands):
        if isl.name in island_names:
            yield "island", i, "duplicate name"
        island_names.add(isl.name)
        if isl.switchable:
            switchable.add(isl.name)
        if not 0 < isl.vdd < math.inf:
            yield "island", i, "vdd must be positive and finite"
        if isl.retention and not isl.switchable:
            yield "island", i, "retention requires switchable"

    cell_names: set[str] = set()
    pim_seen = False
    # an island's gates may add up past a float: reported after every other cell fault
    totals: dict[str, int] = {}
    overflows: list[tuple[str, int, str]] = []
    for i, cell in enumerate(design.cells):
        if cell.name in cell_names:
            yield "cell", i, "duplicate name"
        cell_names.add(cell.name)
        if cell.island not in island_names:
            yield "cell", i, f"unknown island '{cell.island}'"
        if not 0 <= cell.cap_ff < math.inf:
            yield "cell", i, "cap_ff must be finite and >= 0"
        if not 1 <= cell.gate_count <= _MAX_COUNT:
            yield "cell", i, "gates must be >= 1 and fit a float"
        else:
            total = totals[cell.island] = totals.get(cell.island, 0) + cell.gate_count
            if total - cell.gate_count <= _MAX_COUNT < total:
                overflows.append(("cell", i, f"gates of island '{cell.island}' add up to more than a float holds"))
        if cell.kind is CellKind.PIM:
            if pim_seen:
                yield "cell", i, "multiple pim cells"
            pim_seen = True
            # an island manager that powers itself down cannot wake its island
            if cell.island in switchable:
                yield "cell", i, f"pim in switchable island '{cell.island}'"
    yield from overflows

    # cells and ports share one endpoint namespace
    direction: dict[str, str] = {}
    for i, port in enumerate(design.ports):
        if port.name in direction:
            yield "port", i, "duplicate name"
        elif port.name in cell_names:
            yield "port", i, "name taken by a cell"
        direction.setdefault(port.name, port.direction)
        if port.direction not in ("in", "out"):
            yield "port", i, "direction must be in or out"
        if not 0 < port.vdd < math.inf:
            yield "port", i, "vdd must be positive and finite"

    net_names: set[str] = set()
    for i, net in enumerate(design.nets):
        if net.name in net_names:
            yield "net", i, "duplicate name"
        net_names.add(net.name)
        ends = net.raw_ends
        driver = ends[0]
        if driver not in cell_names and driver not in direction:
            yield "net", i, "unresolved driver"
        elif driver not in cell_names and direction[driver] == "out":
            yield "net", i, f"driver '{driver}.{ends[1]}' is an output port"
        for cell, pin in zip(ends[2::2], ends[3::2]):
            if cell in cell_names:
                continue
            if cell not in direction:
                yield "net", i, f"unresolved load '{cell}.{pin}'"
            elif direction[cell] == "in":
                yield "net", i, f"load '{cell}.{pin}' is an input port"
        if len(ends) == 2 and direction.get(net.name) != "out":
            yield "net", i, "no loads and not a top-level output"


def _design_error(design: Design, category: str, index: int, rule: str) -> Violation:
    return Violation(category, getattr(design, category + "s")[index].name, rule)


def validate_design(design: Design) -> list[Violation]:
    """Check every design invariant; empty result means the design is sound."""
    return [_design_error(design, *fault) for fault in _design_faults(design)]


def serialize_design(design: Design) -> tuple[str, str]:
    """Render a Design back into (netlist_text, intent_text).

    Round-trip stable: re-parsing the output yields a value-equal Design.
    """
    intent = [
        f"island {i.name} vdd={float(i.vdd)!r} switchable={int(i.switchable)} retention={int(i.retention)}"
        for i in design.islands
    ]
    return "".join(_netlist_lines(design)), "\n".join(intent) + "\n"


def _netlist_lines(design: Design) -> Iterator[str]:
    r"""Each ``port``, ``cell`` and ``net`` line of ``serialize_design``'s
    netlist text with its ``\n``, one at a time, for writing the text out
    without holding it."""
    if not (design.ports or design.cells or design.nets):
        yield "\n"  # a netlist with no statement is one empty line
    for p in design.ports:
        yield f"port {p.name} dir={p.direction} vdd={float(p.vdd)!r}\n"
    for c in design.cells:
        yield (f"cell {c.name} kind={_KIND_TEXT[c.kind]} island={c.island} cap_ff={float(c.cap_ff)!r}"
               f" gates={c.gate_count}{' sleep=1' if c.has_sleep_pin else ''}\n")
    for n in design.nets:
        ends = n.raw_ends
        loads = f" loads={','.join(map('.'.join, zip(ends[2::2], ends[3::2])))}" if len(ends) > 2 else ""
        yield f"net {n.name} driver={ends[0]}.{ends[1]}{loads}\n"


# ---------------------------------------------------------------------------
# activity and characterization parsing


_ACTIVITY_GRAMMAR = {"net": (("toggles", "duration_ns"), ())}


def parse_activity(activity_text: str | TextIO, f_clk_mhz: float, design: Design | None = None) -> dict[str, float]:
    """Turn toggle counts into switching activity: toggles per clock cycle of
    ``f_clk_mhz``, by net name (with ``design``, by the design's own
    ``Net.name`` strings).

    sa = toggles / (duration_ns * f_clk_GHz).  Repeated lines for one net
    merge as consecutive observation windows.  Activity is capped at
    SA_MAX.  Nets missing from the file have zero activity; partial
    coverage is normal for simulation-derived toggle data.
    """
    if not math.isfinite(f_clk_mhz):
        raise ValueError(f"f_clk_mhz must be finite, got {f_clk_mhz}")
    if f_clk_mhz <= 0:
        raise ValueError(f"f_clk_mhz must be positive, got {f_clk_mhz}")
    # the design's own name object for each net name, for this call only
    known = {net.name: net.name for net in design.nets} if design is not None else None
    toggles: dict[str, int] = {}
    durations: dict[str, float] = {}
    inf = math.inf
    for line_no, tokens in _token_lines(activity_text):
        # Every check below raises ValueError or KeyError, and only on a line
        # the checked reader rejects too; ``_activity_fault`` then names the fault.
        try:
            directive, name, *attrs = tokens
            if directive != "net" or "=" in name:
                raise ValueError
            count = duration = None
            for attr in attrs:
                key, _, value = attr.partition("=")
                if key == "toggles" and count is None:
                    count = int(value)
                elif key == "duration_ns" and duration is None:
                    duration = float(value)
                else:
                    raise ValueError
            if count is None or not 0 <= count <= _MAX_COUNT or duration is None or not 0 < duration < inf:
                raise ValueError
            if known is not None:
                name = known[name]
        except (ValueError, KeyError):
            raise _activity_fault(line_no, tokens, known) from None
        count += toggles.get(name, 0)
        if count > _MAX_COUNT:
            raise ParseError("activity", line_no, f"toggles of net '{name}' add up to more than a float holds")
        toggles[name] = count
        durations[name] = durations.get(name, 0.0) + duration

    # Each net's activity replaces its duration, in the same order, so no
    # third table is built.  Cycles that underflow to 0.0 are fewer than
    # 5e-324: one toggle over them exceeds SA_MAX.
    for name, count in toggles.items():
        durations[name] = min(count / (durations[name] * f_clk_mhz * 1e-3 or 5e-324), SA_MAX)
    return durations


def _activity_fault(line_no: int, tokens: list[str], known: Mapping[str, str] | None) -> ParseError:
    """The ``ParseError`` of an activity line that ``parse_activity``
    rejected, as the checked reader finds it: ``_statements`` over the
    tokens, then the net lookup and the value converters in a fixed order."""
    try:
        _, _, name, attrs = next(_statements("activity", [(line_no, tokens)], _ACTIVITY_GRAMMAR))
        if known is not None and name not in known:
            raise ParseError("activity", line_no, f"unknown net '{name}'")
        count = _int("activity", line_no, "toggles", attrs["toggles"])
        if count < 0:
            raise ParseError("activity", line_no, f"toggles must be >= 0, got '{attrs['toggles']}'")
        if count > _MAX_COUNT:
            raise ParseError("activity", line_no, "toggles must fit a float")
        if _float("activity", line_no, "duration_ns", attrs["duration_ns"]) <= 0:
            raise ParseError("activity", line_no, f"duration_ns must be positive, got '{attrs['duration_ns']}'")
    except ParseError as error:
        return error
    raise AssertionError(f"activity line {line_no}: the checked reader accepts what parse_activity rejected")


def parse_characterization(char_text: str | TextIO) -> CharTable:
    """Parse measured operating points (``op``) and silicon calibration
    factors (``calib``) in one pass."""
    rows: list[CharRow] = []
    entries: list[CalibrationEntry] = []
    seen: set[tuple] = set()  # (class, vdd) of op rows, (class, temp, source) of calib entries
    src = "characterization"
    grammar = {"op": (("vdd", "fmax_mhz", "area_um2", "cap_factor"), ()), "calib": (("temp", "source", "factor"), ())}
    for line_no, directive, name, attrs in _statements(src, _token_lines(char_text), grammar):
        if directive == "calib":
            temp = _int(src, line_no, "temp", attrs["temp"])
            if attrs["source"] not in ("model", "silicon"):
                raise ParseError(src, line_no, f"bad source '{attrs['source']}' (want model or silicon)")
            factor = _float(src, line_no, "factor", attrs["factor"])
            if factor <= 1:
                raise ParseError(src, line_no, f"factor must exceed 1, got '{attrs['factor']}'")
            key = (name, temp, attrs["source"])
            if key in seen:
                raise ParseError(src, line_no, f"duplicate calibration entry {key}")
            seen.add(key)
            entries.append(CalibrationEntry(name, temp, attrs["source"], factor))
            continue
        vdd = _float(src, line_no, "vdd", attrs["vdd"])
        fmax = _float(src, line_no, "fmax_mhz", attrs["fmax_mhz"])
        area = _float(src, line_no, "area_um2", attrs["area_um2"])
        cap_factor = _float(src, line_no, "cap_factor", attrs["cap_factor"])
        if (name, vdd) in seen:
            raise ParseError(src, line_no, f"duplicate row for ({name}, {attrs['vdd']})")
        if vdd <= 0:
            raise ParseError(src, line_no, f"vdd must be positive, got '{attrs['vdd']}'")
        if fmax <= 0 or area <= 0:
            raise ParseError(src, line_no, "fmax_mhz and area_um2 must be positive")
        if cap_factor <= 0:
            raise ParseError(src, line_no, "cap_factor must be positive")
        seen.add((name, vdd))
        rows.append(CharRow(name, vdd, fmax, area, cap_factor))
    return CharTable(tuple(rows), CalibrationTable(tuple(entries)))
