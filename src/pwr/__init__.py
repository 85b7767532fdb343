"""Multi-voltage power-island toolkit.

Analyzes and repairs island crossings (level shifters, isolation cells,
sleep pins), estimates dynamic and gate-bias leakage power, selects
minimum per-island operating voltages from characterization tables, and
simulates the sleep-controller protocol.

The package republishes every name in each module's ``__all__``.
"""

from .report import TOOL_VERSION as __version__  # noqa: F401

from .netlist import *  # noqa: F401,F403
from .crossings import *  # noqa: F401,F403
from .power import *  # noqa: F401,F403
from .voltage import *  # noqa: F401,F403
from .pimsim import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
