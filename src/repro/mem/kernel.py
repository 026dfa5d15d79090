"""The name of the simulator's one cache kernel.

:class:`~repro.mem.cache.SetAssociativeCache` (dict-per-set plus a recency
list) is the only cache-level implementation; this module names it for
callers that report which kernel a run used.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError

#: The dict-per-set kernel in :mod:`repro.mem.cache`.
KERNEL_REFERENCE = "reference"


def resolve_kernel(name: Optional[str] = None) -> str:
    """The kernel a run uses: always ``"reference"``.

    Any other non-None *name* raises :class:`ConfigurationError`.
    """
    if name is not None and name != KERNEL_REFERENCE:
        raise ConfigurationError(
            f"unknown memory kernel {name!r}; the only kernel is {KERNEL_REFERENCE!r}"
        )
    return KERNEL_REFERENCE
