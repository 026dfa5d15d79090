"""The name of the open-loop driver's one event loop.

:meth:`~repro.traffic.driver.TrafficDriver.run_open` handles each arrival
of the schedule in turn through the full matching and memory path; this
module names that loop for callers that report which one a run used.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError

#: The per-event loop in :meth:`repro.traffic.driver.TrafficDriver.run_open`.
EVENT_LOOP = "per-event"


def traffic_mode_label(value: Optional[str] = None) -> str:
    """The event loop a run uses: always ``"per-event"``.

    Any other non-None *value* raises :class:`ConfigurationError`.
    """
    if value is not None and value != EVENT_LOOP:
        raise ConfigurationError(
            f"unknown traffic event loop {value!r}; the only loop is {EVENT_LOOP!r}"
        )
    return EVENT_LOOP
