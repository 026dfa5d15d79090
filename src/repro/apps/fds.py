"""Fire Dynamics Simulator proxy (paper section 4.5, Figure 10).

    "It builds up large match lists and does not typically match the first
    element in the list. This type of behavior is more representative of
    what would be expected when using many unsynchronized threads for
    compute and communication."

Workload shape: the match list grows with scale (each rank exchanges with a
growing set of mesh interfaces), matches land deep in the list
(uniform over the back two thirds), and the per-rank compute shrinks as the
fixed-size fire scenario is strong-scaled — so matching becomes the dominant
runtime term at large process counts, which is what lets LLA reach its 2x
factor at 4k ranks (Nehalem) and LLA-Large at 8k.

Variants reproduced from the figure: HC / LLA / HC+LLA on Nehalem,
LLA on Broadwell, and the early "linked list of large arrays" (LLA-Large,
MVAPICH2 2.0) on Nehalem.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.analysis.series import Sweep
from repro.analysis.stats import factor_speedup
from repro.apps.base import AppConfig, PhaseShape, ProxyApp
from repro.arch.presets import BROADWELL, NEHALEM
from repro.net.link import MELLANOX_QDR, OMNIPATH

#: Figure 10's x axis.
FIG10_SCALES = (128, 256, 512, 1024, 2048, 4096, 8192)

#: The figure's five lines: (label, arch, queue family, heated).
FIG10_VARIANTS = (
    ("HC Nehalem", "nehalem", "baseline", True),
    ("LLA Nehalem", "nehalem", "lla-2", False),
    ("HC+LLA Nehalem", "nehalem", "lla-2", True),
    ("LLA Broadwell", "broadwell", "lla-2", False),
    ("LLA-Large", "nehalem", "lla-large", False),
)


class FireDynamicsSimulator(ProxyApp):
    """FDS workload profile: scale-growing lists, deep matches, high churn."""
    name = "fds"

    #: Pressure/velocity iteration count of the fixed scenario.
    base_phases = 400

    #: Total compute of the fixed-size scenario, strong-scaled across ranks.
    total_compute_s = 3600.0

    #: Match list growth with scale: interfaces per rank rise with the mesh
    #: count, which tracks the process count in SPEC FDS inputs.
    depth_factor = 1.0
    depth_cap = 6000

    def phase_shape(self, cfg: AppConfig, rng: np.random.Generator) -> PhaseShape:
        """The matching workload of one communication phase."""
        depth = int(min(self.depth_cap, max(24, self.depth_factor * cfg.nranks)))
        return PhaseShape(
            prq_depth=depth,
            messages=30,
            msg_bytes=16 * 1024,
            # "does not typically match the first element"
            match_position_low=0.30,
            match_position_high=1.0,
            # Unsynchronized threads keep posting/retiring receives; the
            # churn grows with the match list.
            churn_ops_per_message=depth / 512.0,
        )

    def phases_total(self, cfg: AppConfig) -> int:
        """Number of communication phases over the whole run."""
        return self.base_phases

    def compute_seconds(self, cfg: AppConfig) -> float:
        """Total non-communication compute time for the run."""
        return self.total_compute_s / cfg.nranks


def _config(arch_name: str, family: str, heated: bool, nranks: int, seed: int) -> AppConfig:
    arch = NEHALEM if arch_name == "nehalem" else BROADWELL
    link = MELLANOX_QDR if arch_name == "nehalem" else OMNIPATH
    return AppConfig(
        arch=arch,
        nranks=nranks,
        link=link,
        queue_family=family,
        heated=heated,
        # FDS lists are long-lived: the baseline's heap is churned.
        fragmented=family == "baseline",
        seed=seed,
    )


def fig10_plan(
    *,
    scales: Sequence[int] = FIG10_SCALES,
    variants=FIG10_VARIANTS,
    seed: int = 0,
):
    """Figure 10's grid: per-platform baselines first, then the variants.

    The baseline points carry ``baseline/<arch>`` series labels; the driver
    reduces them into factor speedups rather than plotting them directly.
    """
    from repro.scenarios import get_scenario
    from repro.scenarios.builtins import fig10_platforms, fig10_variant_values

    return (
        get_scenario("fig10-fds")
        .with_overrides(
            matrix={
                # nranks appears in both grids, so this hits baselines and
                # variants alike; platform/variant each hit their own grid.
                "nranks": [int(n) for n in scales],
                "platform": fig10_platforms(variants),
                "variant": fig10_variant_values(variants),
            },
            seed=seed,
        )
        .expand()
    )


def fig10_fds_speedups(
    *,
    scales: Sequence[int] = FIG10_SCALES,
    variants=FIG10_VARIANTS,
    seed: int = 0,
    runner=None,
) -> Sweep:
    """Figure 10: FDS factor speedup over each platform's baseline."""
    from repro.exp import Runner

    plan = fig10_plan(scales=scales, variants=variants, seed=seed)
    results = (runner or Runner()).run(plan)
    sweep = Sweep(
        title=plan.title,
        xlabel=plan.xlabel,
        ylabel=plan.ylabel,
    )
    baselines: Dict[tuple, float] = {}
    by_label: Dict[str, Dict[float, float]] = {}
    for spec, result in zip(plan.points, results):
        if spec.series.startswith("baseline/"):
            arch_name = spec.series.split("/", 1)[1]
            baselines[(arch_name, int(spec.x))] = result.y
        else:
            by_label.setdefault(spec.series, {})[spec.x] = result.y
    for label, arch_name, _family, _heated in variants:
        series = sweep.series_for(label)
        for nranks in scales:
            runtime = by_label[label][float(nranks)]
            series.add(nranks, factor_speedup(baselines[(arch_name, nranks)], runtime))
    return sweep
