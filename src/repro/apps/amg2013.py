"""AMG2013 proxy (paper section 4.4.1, Figure 8).

    "AMG is a weak-scaling code ... very memory intensive and requires
    occasional large message bandwidth. ... we have used the configuration
    recommended by the US DOE ... AMG is more bandwidth sensitive than
    message rate sensitive."

Workload shape: short match lists that grow slowly (communication partners
per rank rise logarithmically with scale on an unstructured multigrid
hierarchy), large messages, matches near the front of the list. Compute per
rank is constant under weak scaling, so runtimes stay flat-ish and matching
improvements land in the single-percent range (the paper reports 2.9% at
1024 ranks).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.analysis.series import Sweep
from repro.apps.base import AppConfig, PhaseShape, ProxyApp
from repro.arch.presets import BROADWELL

#: Figure 8's x axis.
FIG8_SCALES = (128, 256, 512, 1024)


class Amg2013(ProxyApp):
    """AMG2013 workload profile: weak scaling, short lists, front matches."""
    name = "amg2013"

    #: Multigrid V-cycles x levels over the run.
    base_phases = 160

    #: Compute seconds per rank under weak scaling (constant by design,
    #: with a mild surface-to-volume growth).
    base_compute_s = 11.0

    def phase_shape(self, cfg: AppConfig, rng: np.random.Generator) -> PhaseShape:
        # Coarse multigrid levels concentrate traffic onto few ranks, so the
        # neighbour set (and match list) grows with scale.
        """The matching workload of one communication phase."""
        depth = int(16 + cfg.nranks / 8)
        return PhaseShape(
            prq_depth=depth,
            # Most messages are small coarse-level exchanges; the occasional
            # large-bandwidth messages are folded into the compute model
            # (they are wire-bound either way).
            messages=350,
            msg_bytes=2 * 1024,
            match_position_low=0.0,
            match_position_high=1.0,
        )

    def phases_total(self, cfg: AppConfig) -> int:
        """Number of communication phases over the whole run."""
        return self.base_phases

    def compute_seconds(self, cfg: AppConfig) -> float:
        # Weak scaling: constant per-rank work plus a small communication-
        # irregularity overhead that grows with scale.
        """Total non-communication compute time for the run."""
        return self.base_compute_s * (1.0 + 0.02 * math.log2(max(1, cfg.nranks / 128)))


def fig8_plan(
    *,
    arch=BROADWELL,
    scales: Sequence[int] = FIG8_SCALES,
    families: Tuple[str, ...] = ("baseline", "lla-2"),
    seed: int = 0,
):
    """Figure 8's grid (scenario ``fig8-amg``): one point per (family, scale)."""
    from repro.scenarios import get_scenario
    from repro.scenarios.builtins import fig8_variants

    return (
        get_scenario("fig8-amg")
        .with_overrides(
            base={"arch": arch},
            matrix={
                "variant": fig8_variants(families),
                "nranks": [int(n) for n in scales],
            },
            seed=seed,
        )
        .expand()
    )


def fig8_amg_scaling(
    *,
    arch=BROADWELL,
    scales: Sequence[int] = FIG8_SCALES,
    families: Tuple[str, ...] = ("baseline", "lla-2"),
    seed: int = 0,
    runner=None,
) -> Sweep:
    """Figure 8: AMG2013 execution time vs process count on Broadwell."""
    from repro.exp import Runner

    plan = fig8_plan(arch=arch, scales=scales, families=families, seed=seed)
    return (runner or Runner()).run_sweep(plan)
