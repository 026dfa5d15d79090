"""Scenario registry: legacy-equivalence pins, schema validation, loading.

The equivalence classes embed *frozen copies* of the hand-rolled plan
builders the scenario built-ins replaced (taken verbatim from the
pre-refactor modules). Every refactored ``plan_*`` builder and CLI plan
must expand ``repr``-identical to its frozen reference — PointSpec sorts
its params, so repr equality pins kinds, series labels, x values, seeds,
and the exact parameter-key *presence* of every point.
"""

import json
from pathlib import Path

import pytest

from repro.arch import BROADWELL, NEHALEM, SANDY_BRIDGE
from repro.bench.osu import MSG_SIZE_SWEEP, SEARCH_LENGTH_SWEEP
from repro.errors import ConfigurationError, ScenarioError
from repro.exp import ExperimentPlan, encode_arch
from repro.net.link import MELLANOX_QDR, OMNIPATH, QLOGIC_QDR
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    iter_axes,
    iter_scenarios,
    load_scenario,
    toml_available,
)

# ---------------------------------------------------------------------------
# Frozen legacy constructions (pre-refactor builder bodies, copied verbatim).
# ---------------------------------------------------------------------------

SPATIAL_VARIANTS = (
    ("baseline", "baseline", False),
    ("LLA - 2", "lla-2", False),
    ("LLA - 4", "lla-4", False),
    ("LLA - 8", "lla-8", False),
    ("LLA - 16", "lla-16", False),
    ("LLA - 32", "lla-32", False),
)

TEMPORAL_VARIANTS = (
    ("baseline", "baseline", False),
    ("HC", "baseline", True),
    ("LLA", "lla-2", False),
    ("HC+LLA", "lla-2", True),
)


def legacy_variant_grid_plan(
    arch, variants, *, title, xlabel, x_axis, msg_bytes, depth, xs, iterations, seed
):
    link = OMNIPATH if arch.name == "broadwell" else QLOGIC_QDR
    plan = ExperimentPlan(title=title, xlabel=xlabel, ylabel="bandwidth (MiBps)")
    arch_enc = encode_arch(arch)
    for label, family, heated in variants:
        for x in xs:
            plan.add_point(
                "osu",
                label,
                float(x),
                seed=seed,
                arch=arch_enc,
                link=link.name,
                queue_family=family,
                heated=heated,
                msg_bytes=int(x) if x_axis == "msg_bytes" else msg_bytes,
                search_depth=int(x) if x_axis == "depth" else depth,
                iterations=iterations,
            )
    return plan


def legacy_spatial_msg_size(arch, *, msg_sizes=None, iterations=10, seed=0, depth=1024):
    return legacy_variant_grid_plan(
        arch,
        SPATIAL_VARIANTS,
        title=f"Impact of spatial locality ({arch.name}), queue depth {depth}",
        xlabel="msg size per process (B)",
        x_axis="msg_bytes",
        msg_bytes=1,
        depth=depth,
        xs=msg_sizes if msg_sizes is not None else MSG_SIZE_SWEEP,
        iterations=iterations,
        seed=seed,
    )


def legacy_spatial_search_length(arch, *, msg_bytes=1, depths=None, iterations=10, seed=0):
    return legacy_variant_grid_plan(
        arch,
        SPATIAL_VARIANTS,
        title=f"Impact of spatial locality ({arch.name}), {msg_bytes} B messages",
        xlabel="Posted Receive Queue Search Length",
        x_axis="depth",
        msg_bytes=msg_bytes,
        depth=0,
        xs=depths if depths is not None else SEARCH_LENGTH_SWEEP,
        iterations=iterations,
        seed=seed,
    )


def legacy_temporal_msg_size(arch, *, msg_sizes=None, iterations=10, seed=0, depth=1024):
    return legacy_variant_grid_plan(
        arch,
        TEMPORAL_VARIANTS,
        title=f"Impact of temporal locality ({arch.name}), queue depth {depth}",
        xlabel="msg size per process (B)",
        x_axis="msg_bytes",
        msg_bytes=1,
        depth=depth,
        xs=msg_sizes if msg_sizes is not None else MSG_SIZE_SWEEP,
        iterations=iterations,
        seed=seed,
    )


def legacy_temporal_search_length(arch, *, msg_bytes=1, depths=None, iterations=10, seed=0):
    return legacy_variant_grid_plan(
        arch,
        TEMPORAL_VARIANTS,
        title=f"Impact of temporal locality ({arch.name}), {msg_bytes} B messages",
        xlabel="Posted Receive Queue Search Length",
        x_axis="depth",
        msg_bytes=msg_bytes,
        depth=0,
        xs=depths if depths is not None else SEARCH_LENGTH_SWEEP,
        iterations=iterations,
        seed=seed,
    )


def legacy_fig8_plan(*, arch=BROADWELL, scales=(128, 256, 512, 1024),
                     families=("baseline", "lla-2"), seed=0):
    plan = ExperimentPlan(
        title="AMG2013 scaling (Broadwell)",
        xlabel="Process Count",
        ylabel="Execution Time (s)",
    )
    arch_enc = encode_arch(arch)
    for family in families:
        label = "Baseline" if family == "baseline" else "LLA"
        for nranks in scales:
            plan.add_point(
                "app",
                label,
                float(nranks),
                seed=seed,
                app="amg2013",
                arch=arch_enc,
                link=OMNIPATH.name,
                nranks=int(nranks),
                queue_family=family,
                fragmented=family == "baseline",
            )
    return plan


def legacy_fig9_plan(*, arch=BROADWELL, lengths=(128, 512, 2048),
                     families=("baseline", "lla-2"), nranks=512, seed=0):
    plan = ExperimentPlan(
        title=f"MiniFE at {nranks} processes (Broadwell)",
        xlabel="Match list Length",
        ylabel="Execution Time (s)",
    )
    arch_enc = encode_arch(arch)
    for family in families:
        label = "Baseline" if family == "baseline" else "LLA"
        for length in lengths:
            plan.add_point(
                "app",
                label,
                float(length),
                seed=seed,
                app="minife",
                match_list_length=int(length),
                arch=arch_enc,
                link=OMNIPATH.name,
                nranks=int(nranks),
                queue_family=family,
            )
    return plan


FIG10_SCALES = (128, 256, 512, 1024, 2048, 4096, 8192)
FIG10_VARIANTS = (
    ("HC Nehalem", "nehalem", "baseline", True),
    ("LLA Nehalem", "nehalem", "lla-2", False),
    ("HC+LLA Nehalem", "nehalem", "lla-2", True),
    ("LLA Broadwell", "broadwell", "lla-2", False),
    ("LLA-Large", "nehalem", "lla-large", False),
)


def _legacy_fig10_params(arch_name, family, heated, nranks):
    arch = NEHALEM if arch_name == "nehalem" else BROADWELL
    link = MELLANOX_QDR if arch_name == "nehalem" else OMNIPATH
    return dict(
        app="fds",
        arch=encode_arch(arch),
        link=link.name,
        nranks=int(nranks),
        queue_family=family,
        heated=heated,
        fragmented=family == "baseline",
    )


def legacy_fig10_plan(*, scales=FIG10_SCALES, variants=FIG10_VARIANTS, seed=0):
    plan = ExperimentPlan(
        title="Fire Dynamics Simulator scaling",
        xlabel="Process Count",
        ylabel="Factor Speedup Over Baseline",
    )
    arch_names = list(dict.fromkeys(v[1] for v in variants))
    for nranks in scales:
        for arch_name in arch_names:
            plan.add_point(
                "app",
                f"baseline/{arch_name}",
                float(nranks),
                seed=seed,
                **_legacy_fig10_params(arch_name, "baseline", False, nranks),
            )
    for label, arch_name, family, heated in variants:
        for nranks in scales:
            plan.add_point(
                "app",
                label,
                float(nranks),
                seed=seed,
                **_legacy_fig10_params(arch_name, family, heated, nranks),
            )
    return plan


def legacy_colocated_plan(arch, *, rank_counts=(1, 2, 4, 8),
                          mechanisms=("none", "hot-caching", "cat-partition"),
                          depth=2048, working_set_bytes=4 * 1024 * 1024,
                          iterations=2, seed=0):
    plan = ExperimentPlan(
        title=f"Co-located capacity pressure ({arch.name})",
        xlabel="co-located ranks",
        ylabel="cycles/search",
    )
    arch_enc = encode_arch(arch)
    for mechanism in mechanisms:
        for nranks in rank_counts:
            plan.add_point(
                "colocated",
                mechanism,
                float(nranks),
                seed=seed,
                arch=arch_enc,
                mechanism=mechanism,
                ranks=int(nranks),
                depth=depth,
                working_set_bytes=working_set_bytes,
                iterations=iterations,
            )
    return plan


def legacy_heater_micro_plan(archs, *, region_bytes=4 * 1024 * 1024, samples=2048, seed=0):
    plan = ExperimentPlan(
        title="Section 4.3 cache-heater random-access micro-benchmark",
        xlabel="arch",
        ylabel="ns / iteration (cold)",
    )
    for i, arch in enumerate(archs):
        plan.add_point(
            "heater-micro",
            arch.name,
            float(i),
            seed=seed,
            arch=encode_arch(arch),
            region_bytes=region_bytes,
            samples=samples,
        )
    return plan


_ABLATION_VARIANTS = (
    ("baseline", {}),
    ("hot caching", {"heated": True}),
    ("CAT partition (4 ways)", {"partition_ways": 4}),
    ("dedicated net cache 2KiB", {"network_cache_bytes": 2048}),
)


def legacy_ablation_plan(*, quick=False, seed=0):
    plan = ExperimentPlan(
        title="Semi-permanent cache occupancy proposals (section 4.6)",
        xlabel="occupancy mechanism",
        ylabel="bandwidth (MiBps), 1B msgs",
    )
    for arch in (SANDY_BRIDGE, BROADWELL):
        link = OMNIPATH if arch.name == "broadwell" else QLOGIC_QDR
        for label, extra in _ABLATION_VARIANTS:
            plan.add_point(
                "osu",
                f"{arch.name}: {label}",
                0.0,
                seed=seed,
                arch=encode_arch(arch),
                link=link.name,
                queue_family="baseline",
                msg_bytes=1,
                search_depth=64 if quick else 512,
                iterations=3 if quick else 10,
                **extra,
            )
    return plan


def legacy_offload_plan(*, quick=False, seed=0):
    depths = (64, 1024, 4000, 16384) if not quick else (64, 4000)
    plan = ExperimentPlan(
        title="Hardware matching offload and its capacity cliff (section 2.2)",
        xlabel="queue depth",
        ylabel="cycles/search",
    )
    for nic_label in ("software-only", "psm2-like", "bxi-like"):
        for depth in depths:
            plan.add_point(
                "offload",
                nic_label,
                float(depth),
                seed=seed,
                arch="sandy-bridge",
                nic=nic_label,
                depth=int(depth),
            )
    return plan


def assert_plans_identical(got, want):
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Equivalence: refactored builders vs the frozen legacy constructions.
# ---------------------------------------------------------------------------


class TestFigureEquivalence:
    @pytest.mark.parametrize("arch", [SANDY_BRIDGE, BROADWELL], ids=lambda a: a.name)
    def test_spatial_msg_size(self, arch):
        from repro.bench.figures import plan_spatial_msg_size

        assert_plans_identical(plan_spatial_msg_size(arch), legacy_spatial_msg_size(arch))

    @pytest.mark.parametrize("arch", [SANDY_BRIDGE, BROADWELL], ids=lambda a: a.name)
    def test_spatial_search_length(self, arch):
        from repro.bench.figures import plan_spatial_search_length

        for msg_bytes in (1, 4096):
            assert_plans_identical(
                plan_spatial_search_length(arch, msg_bytes=msg_bytes),
                legacy_spatial_search_length(arch, msg_bytes=msg_bytes),
            )

    def test_temporal_msg_size(self):
        from repro.bench.figures import plan_temporal_msg_size

        assert_plans_identical(
            plan_temporal_msg_size(SANDY_BRIDGE), legacy_temporal_msg_size(SANDY_BRIDGE)
        )

    def test_temporal_search_length(self):
        from repro.bench.figures import plan_temporal_search_length

        assert_plans_identical(
            plan_temporal_search_length(BROADWELL, msg_bytes=4096),
            legacy_temporal_search_length(BROADWELL, msg_bytes=4096),
        )

    def test_overridden_grid_and_seed(self):
        from repro.bench.figures import plan_spatial_msg_size

        assert_plans_identical(
            plan_spatial_msg_size(SANDY_BRIDGE, msg_sizes=[1, 64], iterations=3, seed=7),
            legacy_spatial_msg_size(SANDY_BRIDGE, msg_sizes=[1, 64], iterations=3, seed=7),
        )

    def test_quick_scenario_matches_legacy_quick_lists(self):
        # The CLI --quick path: scenario quick() == the historical hardcoded
        # quick lists (sizes/depths/iterations) the fig commands passed.
        plan = (
            get_scenario("spatial-msg-size")
            .quick()
            .with_overrides(base={"arch": "broadwell"})
            .expand()
        )
        assert_plans_identical(
            plan,
            legacy_spatial_msg_size(
                BROADWELL, msg_sizes=[1, 64, 1024, 65536, 1 << 20], iterations=3
            ),
        )
        plan = (
            get_scenario("temporal-search-length")
            .quick()
            .with_overrides(base={"arch": "sandy-bridge", "msg_bytes": 4096})
            .expand()
        )
        assert_plans_identical(
            plan,
            legacy_temporal_search_length(
                SANDY_BRIDGE, msg_bytes=4096, depths=[1, 8, 64, 512, 1024, 4096],
                iterations=3,
            ),
        )


class TestAppEquivalence:
    def test_fig8(self):
        from repro.apps.amg2013 import fig8_plan

        assert_plans_identical(fig8_plan(), legacy_fig8_plan())
        assert_plans_identical(
            fig8_plan(scales=(128, 512), seed=3), legacy_fig8_plan(scales=(128, 512), seed=3)
        )

    def test_fig9(self):
        from repro.apps.minife import fig9_plan

        assert_plans_identical(fig9_plan(), legacy_fig9_plan())
        assert_plans_identical(
            fig9_plan(lengths=(128,), families=("baseline",)),
            legacy_fig9_plan(lengths=(128,), families=("baseline",)),
        )

    def test_fig10(self):
        from repro.apps.fds import fig10_plan

        assert_plans_identical(fig10_plan(), legacy_fig10_plan())
        assert_plans_identical(
            fig10_plan(scales=(1024, 4096, 8192), seed=1),
            legacy_fig10_plan(scales=(1024, 4096, 8192), seed=1),
        )


class TestStudyEquivalence:
    def test_colocated(self):
        from repro.bench.colocated import colocated_plan

        assert_plans_identical(colocated_plan(BROADWELL), legacy_colocated_plan(BROADWELL))
        assert_plans_identical(
            colocated_plan(SANDY_BRIDGE, rank_counts=(1, 4), iterations=1),
            legacy_colocated_plan(SANDY_BRIDGE, rank_counts=(1, 4), iterations=1),
        )

    def test_colocated_core_budget_still_enforced(self):
        from repro.bench.colocated import colocated_plan

        with pytest.raises(ConfigurationError, match="cores"):
            colocated_plan(SANDY_BRIDGE)  # 8 ranks + heater > 8 cores

    def test_heater_micro(self):
        from repro.bench.heater_micro import heater_micro_plan

        assert_plans_identical(
            heater_micro_plan((SANDY_BRIDGE, BROADWELL)),
            legacy_heater_micro_plan((SANDY_BRIDGE, BROADWELL)),
        )
        assert_plans_identical(
            heater_micro_plan((BROADWELL,), samples=512, seed=2),
            legacy_heater_micro_plan((BROADWELL,), samples=512, seed=2),
        )

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_ablation(self, quick):
        spec = get_scenario("ablation")
        if quick:
            spec = spec.quick()
        assert_plans_identical(spec.expand(), legacy_ablation_plan(quick=quick))

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_offload(self, quick):
        spec = get_scenario("offload")
        if quick:
            spec = spec.quick()
        assert_plans_identical(
            spec.with_overrides(seed=5).expand(), legacy_offload_plan(quick=quick, seed=5)
        )


# ---------------------------------------------------------------------------
# Schema validation: config mistakes fail loudly, with the legal values.
# ---------------------------------------------------------------------------

_MINIMAL = {
    "name": "t",
    "kind": "osu",
    "x": "msg_bytes",
    "base": {"arch": "sandy-bridge", "link": "auto"},
    "matrix": {"msg_bytes": [1, 64]},
}


def _spec(**overrides):
    mapping = {**_MINIMAL, **overrides}
    return ScenarioSpec.from_mapping(mapping)


class TestSchemaValidation:
    def test_unknown_axis_lists_registered_ones(self):
        with pytest.raises(ScenarioError, match="unknown scenario axis 'msg_size'"):
            _spec(matrix={"msg_size": [1]})
        # The open-loop driver has one event loop, so a spec cannot choose one.
        with pytest.raises(ScenarioError, match="unknown scenario axis 'traffic_batch'"):
            _spec(matrix={"traffic_batch": [True]})

    def test_mem_kernel_is_not_an_axis(self):
        # The simulator has one cache kernel, so a spec cannot choose one.
        with pytest.raises(ConfigurationError, match="unknown scenario axis 'mem_kernel'"):
            _spec(base={**_MINIMAL["base"], "mem_kernel": "soa"}).expand()

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            ScenarioSpec.from_mapping({**_MINIMAL, "serie": "{msg_bytes}"})

    def test_bad_matrix_value_type(self):
        with pytest.raises(ScenarioError, match="non-empty list"):
            _spec(matrix={"msg_bytes": 64})

    def test_bad_axis_value_reports_expectation(self):
        spec = _spec(base={"arch": "sandy-bridge", "link": "auto",
                           "queue_family": "lla-banana"})
        with pytest.raises(ScenarioError, match="axis 'queue_family': bad value"):
            spec.expand()

    def test_unknown_arch_lists_presets(self):
        spec = _spec(base={"arch": "zen5"})
        with pytest.raises(ScenarioError, match="broadwell"):
            spec.expand()

    def test_missing_producer_kind(self):
        spec = _spec(kind="fpga")
        with pytest.raises(ScenarioError, match="no producer registered for point kind 'fpga'"):
            spec.expand()

    def test_missing_matrix(self):
        with pytest.raises(ScenarioError, match="matrix"):
            ScenarioSpec.from_mapping({"name": "t", "kind": "osu", "x": "msg_bytes"})

    def test_matrix_and_grids_exclusive(self):
        with pytest.raises(ScenarioError, match="mutually exclusive"):
            ScenarioSpec.from_mapping({**_MINIMAL, "grids": []})

    def test_bad_series_template(self):
        spec = _spec(series="{queue_family}")
        with pytest.raises(ScenarioError, match="series.*template"):
            spec.expand()

    def test_x_must_be_an_axis_of_the_grid(self):
        spec = _spec(x="search_depth")
        with pytest.raises(ScenarioError, match="x = 'search_depth'"):
            spec.expand()

    def test_override_must_hit_a_grid(self):
        with pytest.raises(ScenarioError, match="no grid of scenario"):
            get_scenario("ablation").with_overrides(matrix={"nranks": [1]})

    def test_unknown_scenario_lists_registered(self):
        with pytest.raises(ScenarioError, match="unknown scenario 'nope'"):
            get_scenario("nope")

    def test_auto_link_requires_arch(self):
        spec = ScenarioSpec.from_mapping({
            "name": "t", "kind": "osu", "x": "msg_bytes",
            "base": {"link": "auto"}, "matrix": {"msg_bytes": [1]},
        })
        with pytest.raises(ScenarioError, match="'auto' needs an 'arch'"):
            spec.expand()

    def test_variant_value_requires_label(self):
        spec = _spec(matrix={"variant": [{"queue_family": "baseline"}],
                             "msg_bytes": [1]})
        with pytest.raises(ScenarioError, match="label"):
            spec.expand()

    def test_scenario_error_is_a_configuration_error(self):
        # Existing guards that catch ConfigurationError keep working.
        assert issubclass(ScenarioError, ConfigurationError)


# ---------------------------------------------------------------------------
# Registry and axis enumeration (what `repro list` renders).
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        names = {s.name for s in iter_scenarios()}
        assert {
            "spatial-msg-size", "spatial-search-length",
            "temporal-msg-size", "temporal-search-length",
            "fig8-amg", "fig9-minife", "fig10-fds",
            "heater-micro", "colocated", "ablation", "offload",
            "traffic-overload", "prefetch-chase",
        } <= names

    def test_total_points_matches_expansion(self):
        for spec in iter_scenarios():
            assert spec.total_points() == len(spec.expand().points)

    def test_axes_enumerable(self):
        axes = {a.name: a for a in iter_axes()}
        assert "arch" in axes and "queue_family" in axes and "msg_bytes" in axes
        assert all(a.help and a.values for a in axes.values())

    def test_overrides_do_not_mutate_the_registered_spec(self):
        spec = get_scenario("offload")
        before = repr(spec.expand())
        spec.with_overrides(matrix={"depth": [64]}, seed=9).expand()
        assert repr(get_scenario("offload").expand()) == before


# ---------------------------------------------------------------------------
# The pointer-chase prefetcher ablation scenario.
# ---------------------------------------------------------------------------


class TestPrefetchChaseScenario:
    def test_builtin_registered_and_expands(self):
        spec = get_scenario("prefetch-chase")
        plan = spec.quick().expand()
        assert len(plan.points) == 24  # 8 variants x 3 depths
        labels = {p.series for p in plan.points}
        assert "baseline" in labels and "baseline+chase" in labels
        assert "LLA - 8" in labels and "LLA - 8 +chase" in labels
        # Every point carries the prefetcher mode and the churned heap.
        assert {p.kwargs["prefetcher"] for p in plan.points} == {"default", "chase"}
        assert all(p.kwargs["fragmented"] for p in plan.points)

    def test_bad_prefetcher_value_lists_modes(self):
        spec = get_scenario("prefetch-chase").with_overrides(
            base={"prefetcher": "psychic"})
        with pytest.raises(ScenarioError, match="chase-only"):
            spec.expand()

    def test_runs_end_to_end_and_chase_beats_default_at_small_depth(self):
        from repro.exp import Runner

        spec = get_scenario("prefetch-chase").with_overrides(
            base={"iterations": 3},
            matrix={
                "variant": [
                    {"label": "baseline", "queue_family": "baseline",
                     "prefetcher": "default"},
                    {"label": "baseline+chase", "queue_family": "baseline",
                     "prefetcher": "chase"},
                ],
                "search_depth": [64],
            },
        )
        plan = spec.expand()
        for p in plan.points:
            assert dict(p.params)["search_depth"] == 64
        sweep = Runner().run_sweep(plan)
        y = {name: series.y[0] for name, series in sweep.series.items()}
        # At a depth well inside the successor table, the chase unit's
        # run-ahead must beat the spatial units on a churned-heap list.
        assert y["baseline+chase"] > y["baseline"]


# ---------------------------------------------------------------------------
# The open-loop traffic scenario: axes, validation, end-to-end run.
# ---------------------------------------------------------------------------

_TRAFFIC_MINIMAL = {
    "name": "tt",
    "kind": "traffic",
    "x": "arrival_rate",
    "base": {
        "arch": "sandy-bridge",
        "n_warmup": 5,
        "n_measured": 20,
        "n_tags": 8,
        "queue_capacity": 16,
    },
    "matrix": {"arrival_rate": [0.2]},
}


def _traffic_spec(**overrides):
    return ScenarioSpec.from_mapping({**_TRAFFIC_MINIMAL, **overrides})


class TestTrafficScenario:
    def test_builtin_registered_and_expands(self):
        spec = get_scenario("traffic-overload")
        plan = spec.quick().expand()
        assert len(plan.points) == 12  # 4 variants x 3 rates
        assert {p.series for p in plan.points} == {
            "baseline", "HC", "LLA - 8", "HC+LLA - 8",
        }
        assert all(p.kind == "traffic" for p in plan.points)

    def test_bad_arrival_rate_is_actionable(self):
        spec = _traffic_spec(matrix={"arrival_rate": [0.0]})
        with pytest.raises(
            ScenarioError, match="arrivals per simulated microsecond"
        ):
            spec.expand()
        spec = _traffic_spec(matrix={"arrival_rate": [-1.5]})
        with pytest.raises(ScenarioError, match="axis 'arrival_rate'"):
            spec.expand()

    def test_bad_zipf_alpha_is_actionable(self):
        spec = _traffic_spec(base={**_TRAFFIC_MINIMAL["base"], "zipf_alpha": -0.5})
        with pytest.raises(ScenarioError, match="Zipf popularity exponent"):
            spec.expand()

    def test_non_numeric_rate_rejected(self):
        spec = _traffic_spec(matrix={"arrival_rate": ["fast"]})
        with pytest.raises(ScenarioError, match="axis 'arrival_rate'"):
            spec.expand()

    def test_unknown_metric_lists_choices(self):
        spec = _traffic_spec(base={**_TRAFFIC_MINIMAL["base"], "metric": "latency"})
        with pytest.raises(ScenarioError, match="p99_sojourn_us"):
            spec.expand()

    def test_unknown_admission_policy_rejected(self):
        spec = _traffic_spec(base={**_TRAFFIC_MINIMAL["base"], "admission": "random"})
        with pytest.raises(ScenarioError, match="drop-tail"):
            spec.expand()

    def test_runs_end_to_end_and_capacity_zero_is_unbounded(self):
        from repro.exp import Runner

        plan = _traffic_spec(
            base={**_TRAFFIC_MINIMAL["base"], "queue_capacity": 0},
            matrix={"arrival_rate": [0.2, 1.2]},
            series="cap0",
        ).expand()
        sweep = Runner().run_sweep(plan)
        (series,) = sweep.series.values()
        assert series.x == [0.2, 1.2]
        assert all(y >= 0 for y in series.y)
        # capacity 0 in a spec means unbounded (TOML has no null): nothing
        # may be rejected even at the overloaded rate.
        from repro.exp.producers import producer_for

        for point in plan.points:
            result = producer_for("traffic")(dict(point.params), seed=0)
            assert result.extras["rejected"] == 0.0


# ---------------------------------------------------------------------------
# File loading (JSON everywhere; TOML where a parser exists).
# ---------------------------------------------------------------------------


class TestLoader:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(_MINIMAL), encoding="utf-8")
        spec = load_scenario(path)
        assert spec.name == "t"
        assert len(spec.expand().points) == 2

    def test_name_defaults_to_stem(self, tmp_path):
        mapping = {k: v for k, v in _MINIMAL.items() if k != "name"}
        path = tmp_path / "my_sweep.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        assert load_scenario(path).name == "my_sweep"

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("x: 1", encoding="utf-8")
        with pytest.raises(ScenarioError, match="unknown scenario suffix"):
            load_scenario(path)

    @pytest.mark.skipif(not toml_available(), reason="no TOML parser on this Python")
    def test_toml_roundtrip(self, tmp_path):
        path = tmp_path / "mini.toml"
        path.write_text(
            'name = "t"\nkind = "osu"\nx = "msg_bytes"\n'
            '[base]\narch = "sandy-bridge"\nlink = "auto"\n'
            "[matrix]\nmsg_bytes = [1, 64]\n",
            encoding="utf-8",
        )
        spec = load_scenario(path)
        json_spec = ScenarioSpec.from_mapping(dict(_MINIMAL))
        assert repr(spec.expand()) == repr(json_spec.expand())

    @pytest.mark.skipif(not toml_available(), reason="no TOML parser on this Python")
    def test_scenario_wrapper_table(self, tmp_path):
        path = tmp_path / "wrapped.toml"
        path.write_text(
            '[scenario]\nname = "t"\nkind = "osu"\nx = "msg_bytes"\n'
            '[scenario.base]\narch = "sandy-bridge"\nlink = "auto"\n'
            "[scenario.matrix]\nmsg_bytes = [1]\n",
            encoding="utf-8",
        )
        assert load_scenario(path).name == "t"


# ---------------------------------------------------------------------------
# The shipped examples expand (and the new-variant one runs end-to-end).
# ---------------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


class TestExamples:
    def test_fig4_quick_example_is_a_subset_of_the_figure(self):
        spec = load_scenario(f"{EXAMPLES}/fig4_quick.toml") if toml_available() else None
        if spec is None:
            pytest.skip("no TOML parser on this Python")
        plan = spec.expand()
        reference = {
            repr(p)
            for p in legacy_spatial_msg_size(
                SANDY_BRIDGE, msg_sizes=[1, 64, 1024, 65536, 1 << 20], iterations=3
            ).points
        }
        assert len(plan.points) == 20
        assert {repr(p) for p in plan.points} <= reference

    def test_fig6_quick_json_example(self):
        spec = load_scenario(f"{EXAMPLES}/fig6_quick.json")
        plan = spec.expand()
        assert len(plan.points) == 12
        assert {p.series for p in plan.points} == {"baseline", "HC", "LLA", "HC+LLA"}

    def test_traffic_overload_example_matches_builtin(self):
        # The shipped TOML spec is the builtin scenario, loadable from file
        # on Pythons that have a TOML parser (3.9 CI uses the builtin).
        if not toml_available():
            pytest.skip("no TOML parser on this Python")
        spec = load_scenario(f"{EXAMPLES}/traffic_overload.toml")
        builtin = get_scenario("traffic-overload")
        assert len(spec.expand().points) == len(builtin.expand().points) == 24
        strip = lambda plan: {  # noqa: E731 - local one-liner
            repr(p).replace(spec.name, builtin.name) for p in plan.points
        }
        assert strip(spec.expand()) == strip(builtin.expand())
        assert len(spec.quick().expand().points) == 12

    def test_queue_arch_matrix_runs_end_to_end(self):
        # The acceptance scenario: a queue-family x arch grid no bespoke
        # driver ever existed for, runnable purely from config.
        if not toml_available():
            pytest.skip("no TOML parser on this Python")
        from repro.exp import Runner

        spec = load_scenario(f"{EXAMPLES}/queue_arch_matrix.toml")
        plan = spec.with_overrides(matrix={"search_depth": [64]}).expand()
        assert len(plan.points) == 8
        sweep = Runner().run_sweep(plan)
        assert set(sweep.series) == {
            f"{family}/{arch}"
            for family in ("baseline", "lla-4", "hash-64", "fourd")
            for arch in ("sandy-bridge", "broadwell")
        }
        for series in sweep.series.values():
            assert series.x == [64.0]
            assert series.y[0] > 0
