"""MiniFE proxy (paper section 4.4.2, Figure 9).

    "MiniFE is an unstructured implicit finite elements simulation
    mini-application that's primary computation is a conjugate gradient
    solver. This mini-application is representative of the common
    bulk-synchronous halo-exchange communication pattern."

Figure 9 fixes the scale (512 ranks, 1320^3 problem) and varies the posted
receive queue length (the paper's modified mini-apps "allow different
receive queue lengths to assess the impact of locality on future
communication patterns"). Matching is predictable — "a limited number and
frequency of messages with a relatively predictable ordering" — so most
matches land near the front and the locality gain is small (2.3% at 2048).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.analysis.series import Sweep
from repro.apps.base import AppConfig, PhaseShape, ProxyApp
from repro.arch.presets import BROADWELL

#: Figure 9's x axis.
FIG9_LENGTHS = (128, 512, 2048)

FIG9_NRANKS = 512


class MiniFE(ProxyApp):
    """MiniFE workload profile: halo CG with a tunable match-list length."""
    name = "minife"

    #: CG iterations with one halo exchange (plus dot-product syncs) each.
    base_phases = 1600

    #: Fixed-size problem at 512 ranks: constant compute.
    base_compute_s = 43.0

    def __init__(self, match_list_length: int = 128) -> None:
        self.match_list_length = match_list_length

    def phase_shape(self, cfg: AppConfig, rng: np.random.Generator) -> PhaseShape:
        """The matching workload of one communication phase."""
        depth = self.match_list_length
        return PhaseShape(
            prq_depth=depth,
            messages=140,
            msg_bytes=8 * 1024,
            # Predictable halo ordering: matches are front-loaded, with a
            # tail of deeper searches from the artificially lengthened list.
            match_position_low=0.0,
            match_position_high=0.35,
        )

    def phases_total(self, cfg: AppConfig) -> int:
        """Number of communication phases over the whole run."""
        return self.base_phases

    def compute_seconds(self, cfg: AppConfig) -> float:
        """Total non-communication compute time for the run."""
        return self.base_compute_s


def fig9_plan(
    *,
    arch=BROADWELL,
    lengths: Sequence[int] = FIG9_LENGTHS,
    families: Tuple[str, ...] = ("baseline", "lla-2"),
    nranks: int = FIG9_NRANKS,
    seed: int = 0,
):
    """Figure 9's grid (scenario ``fig9-minife``): (family, list length)."""
    from repro.scenarios import get_scenario
    from repro.scenarios.builtins import fig9_variants

    return (
        get_scenario("fig9-minife")
        .with_overrides(
            base={"arch": arch, "nranks": int(nranks)},
            matrix={
                "variant": fig9_variants(families),
                "match_list_length": [int(n) for n in lengths],
            },
            seed=seed,
        )
        .expand()
    )


def fig9_minife_lengths(
    *,
    arch=BROADWELL,
    lengths: Sequence[int] = FIG9_LENGTHS,
    families: Tuple[str, ...] = ("baseline", "lla-2"),
    nranks: int = FIG9_NRANKS,
    seed: int = 0,
    runner=None,
) -> Sweep:
    """Figure 9: MiniFE execution time at 512 ranks vs match list length."""
    from repro.exp import Runner

    plan = fig9_plan(arch=arch, lengths=lengths, families=families, nranks=nranks, seed=seed)
    return (runner or Runner()).run_sweep(plan)
