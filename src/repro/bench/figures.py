"""Figure drivers: panels 4a-c, 5a-c (spatial) and 6a-c, 7a-c (temporal).

Each panel's grid is a built-in scenario (:mod:`repro.scenarios.builtins`:
``spatial-msg-size``, ``spatial-search-length``, ``temporal-msg-size``,
``temporal-search-length``); the ``plan_*`` builders here are thin
parameter adapters that apply the caller's arch/grid overrides and expand
the scenario into an :class:`~repro.exp.plan.ExperimentPlan`. The
expansions are pinned repr-identical to the historical hand-rolled
builders by ``tests/test_scenarios.py``, so the reduced
:class:`~repro.analysis.series.Sweep` objects — point seeds, variant-major
reduction order, ``meta["mem_stats"]`` merge order — are bit-for-bit what
the serial nested-loop drivers produced. Architectures select the figure:
Sandy Bridge gives Figures 4/6, Broadwell gives Figures 5/7.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.analysis.series import Sweep
from repro.arch.spec import ArchSpec
from repro.exp import ExperimentPlan, Runner
from repro.net.link import LinkSpec, OMNIPATH, QLOGIC_QDR

#: The spatial-locality line-up (Figures 4 and 5).
SPATIAL_VARIANTS: Tuple[Tuple[str, str, bool], ...] = (
    ("baseline", "baseline", False),
    ("LLA - 2", "lla-2", False),
    ("LLA - 4", "lla-4", False),
    ("LLA - 8", "lla-8", False),
    ("LLA - 16", "lla-16", False),
    ("LLA - 32", "lla-32", False),
)

#: The temporal-locality line-up (Figures 6 and 7).
TEMPORAL_VARIANTS: Tuple[Tuple[str, str, bool], ...] = (
    ("baseline", "baseline", False),
    ("HC", "baseline", True),
    ("LLA", "lla-2", False),
    ("HC+LLA", "lla-2", True),
)

#: Queue depth used by the (a) panels.
PANEL_A_DEPTH = 1024

#: Message sizes used by the (b) and (c) panels.
PANEL_B_BYTES = 1
PANEL_C_BYTES = 4096


def default_link(arch: ArchSpec) -> LinkSpec:
    """The fabric each system in the paper is attached to."""
    return OMNIPATH if arch.name == "broadwell" else QLOGIC_QDR


def _expand_panel(
    scenario: str,
    arch: ArchSpec,
    *,
    base: dict,
    x_axis: str,
    xs: Optional[Sequence[int]],
    variants: Optional[Sequence[Tuple[str, str, bool]]],
    seed: int,
) -> ExperimentPlan:
    """Apply a panel's overrides to its built-in scenario and expand."""
    from repro.scenarios import get_scenario
    from repro.scenarios.builtins import figure_variants

    base = {"arch": arch, **base}
    matrix = {}
    if xs is not None:
        matrix[x_axis] = list(xs)
    if variants is not None:
        matrix["variant"] = figure_variants(variants)
    return (
        get_scenario(scenario)
        .with_overrides(base=base, matrix=matrix or None, seed=seed)
        .expand()
    )


def plan_spatial_msg_size(
    arch: ArchSpec,
    *,
    depth: int = PANEL_A_DEPTH,
    msg_sizes: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    variants: Optional[Sequence[Tuple[str, str, bool]]] = None,
) -> ExperimentPlan:
    """The grid behind Figures 4a / 5a (scenario ``spatial-msg-size``)."""
    return _expand_panel(
        "spatial-msg-size",
        arch,
        base={"search_depth": depth, "iterations": iterations},
        x_axis="msg_bytes",
        xs=msg_sizes,
        variants=variants,
        seed=seed,
    )


def plan_spatial_search_length(
    arch: ArchSpec,
    *,
    msg_bytes: int = PANEL_B_BYTES,
    depths: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    variants: Optional[Sequence[Tuple[str, str, bool]]] = None,
) -> ExperimentPlan:
    """The grid behind Figures 4b/c and 5b/c (``spatial-search-length``)."""
    return _expand_panel(
        "spatial-search-length",
        arch,
        base={"msg_bytes": msg_bytes, "iterations": iterations},
        x_axis="search_depth",
        xs=depths,
        variants=variants,
        seed=seed,
    )


def plan_temporal_msg_size(
    arch: ArchSpec,
    *,
    depth: int = PANEL_A_DEPTH,
    msg_sizes: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    variants: Optional[Sequence[Tuple[str, str, bool]]] = None,
) -> ExperimentPlan:
    """The grid behind Figures 6a / 7a (scenario ``temporal-msg-size``)."""
    return _expand_panel(
        "temporal-msg-size",
        arch,
        base={"search_depth": depth, "iterations": iterations},
        x_axis="msg_bytes",
        xs=msg_sizes,
        variants=variants,
        seed=seed,
    )


def plan_temporal_search_length(
    arch: ArchSpec,
    *,
    msg_bytes: int = PANEL_B_BYTES,
    depths: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    variants: Optional[Sequence[Tuple[str, str, bool]]] = None,
) -> ExperimentPlan:
    """The grid behind Figures 6b/c / 7b/c (``temporal-search-length``)."""
    return _expand_panel(
        "temporal-search-length",
        arch,
        base={"msg_bytes": msg_bytes, "iterations": iterations},
        x_axis="search_depth",
        xs=depths,
        variants=variants,
        seed=seed,
    )


def _run(plan: ExperimentPlan, runner: Optional[Runner]) -> Sweep:
    return (runner or Runner()).run_sweep(plan)


def fig_spatial_msg_size(
    arch: ArchSpec,
    *,
    depth: int = PANEL_A_DEPTH,
    msg_sizes: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> Sweep:
    """Figures 4a / 5a: bandwidth vs message size at queue depth 1024."""
    return _run(
        plan_spatial_msg_size(
            arch, depth=depth, msg_sizes=msg_sizes, iterations=iterations, seed=seed
        ),
        runner,
    )


def fig_spatial_search_length(
    arch: ArchSpec,
    *,
    msg_bytes: int = PANEL_B_BYTES,
    depths: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> Sweep:
    """Figures 4b/c and 5b/c: bandwidth vs PRQ search length at fixed size."""
    return _run(
        plan_spatial_search_length(
            arch, msg_bytes=msg_bytes, depths=depths, iterations=iterations, seed=seed
        ),
        runner,
    )


def fig_temporal_msg_size(
    arch: ArchSpec,
    *,
    depth: int = PANEL_A_DEPTH,
    msg_sizes: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> Sweep:
    """Figures 6a / 7a: baseline vs HC vs LLA vs HC+LLA over message size."""
    return _run(
        plan_temporal_msg_size(
            arch, depth=depth, msg_sizes=msg_sizes, iterations=iterations, seed=seed
        ),
        runner,
    )


def fig_temporal_search_length(
    arch: ArchSpec,
    *,
    msg_bytes: int = PANEL_B_BYTES,
    depths: Optional[Sequence[int]] = None,
    iterations: int = 10,
    seed: int = 0,
    runner: Optional[Runner] = None,
) -> Sweep:
    """Figures 6b/c / 7b/c: temporal line-up over PRQ search length."""
    return _run(
        plan_temporal_search_length(
            arch, msg_bytes=msg_bytes, depths=depths, iterations=iterations, seed=seed
        ),
        runner,
    )
