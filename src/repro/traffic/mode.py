"""Traffic-mode selection: the columnar fast path vs the pinned legacy loop.

The open-loop driver has two spellings of the same simulation. ``legacy``
is the original per-event Python loop, retained verbatim as the reference;
``batch`` consumes the schedule as columnar :class:`~repro.traffic.workload.EventBlock`
slabs and replays verified pure-reject streaks arithmetically. Both are
bit-identical on every observable (``TrafficResult`` including
``mem_stats``) — ``tests/test_traffic_batch_equivalence.py`` pins that —
so the mode only selects host-side speed, exactly like
``REPRO_SCAN_BATCH`` before it.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.errors import ConfigurationError

#: Environment variable selecting the open-loop driver's event loop.
TRAFFIC_BATCH_ENV = "REPRO_TRAFFIC_BATCH"

#: The columnar fast path is on unless an argument or the env disables it.
DEFAULT_TRAFFIC_BATCH = True

#: Catalogue for ``repro list`` (mirrors the prefetcher-mode table).
TRAFFIC_MODES = (
    ("batch", "columnar EventBlock loop + verified reject-streak replay (default)"),
    ("legacy", "the original per-event loop, retained verbatim as the reference"),
)


def resolve_traffic_batch(value: Optional[Union[bool, str]] = None) -> bool:
    """Resolve the traffic mode: argument beats environment beats default.

    Accepts booleans or the strings ``"on"``/``"off"`` (the CLI and
    environment spelling, mirroring ``resolve_scan_batch`` precedence).
    """
    if value is None:
        value = os.environ.get(TRAFFIC_BATCH_ENV) or DEFAULT_TRAFFIC_BATCH
    if isinstance(value, bool):
        return value
    if value == "on":
        return True
    if value == "off":
        return False
    raise ConfigurationError(
        f"unknown traffic-batch mode {value!r}; expected 'on' or 'off'"
    )


def traffic_mode_label(value: Optional[Union[bool, str]] = None) -> str:
    """The resolved mode as its catalogue name (benchmarks, artifacts)."""
    return "batch" if resolve_traffic_batch(value) else "legacy"
