"""The declarative scenario schema and its cartesian expansion.

A **scenario** is a plain mapping (hand-written TOML/JSON, or a built-in
registered by :mod:`repro.scenarios.builtins`) that *describes* an
experiment grid instead of coding it:

.. code-block:: toml

    name = "fig4a-quick"
    kind = "osu"                     # which point producer runs each cell
    title = "Impact of spatial locality ({arch}), queue depth {search_depth}"
    xlabel = "msg size per process (B)"
    ylabel = "bandwidth (MiBps)"
    series = "{variant}"             # legend label per point
    x = "msg_bytes"                  # which axis provides the x value

    [base]                           # scalars applied to every point
    arch = "sandy-bridge"
    link = "auto"
    search_depth = 1024
    iterations = 3

    [matrix]                         # cartesian axes, first axis outermost
    variant = [
        { label = "baseline", queue_family = "baseline", heated = false },
        { label = "LLA - 8", queue_family = "lla-8", heated = false },
    ]
    msg_bytes = [1, 1024, 1048576]

:meth:`ScenarioSpec.expand` compiles this into the existing frozen
:class:`~repro.exp.plan.ExperimentPlan` — the same object the ``plan_*``
builders used to hand-construct — so everything downstream (Runner,
process pools, the content-addressed store, fault supervision) is
unchanged. Expansion order is deterministic: grids in declaration order,
matrix axes first-declared-outermost, which is exactly the variant-major
order the historical drivers produced (pinned by the equivalence suite in
``tests/test_scenarios.py``).

Multi-block grids (Figure 10's baselines-then-variants layout) use a
``grids`` list instead of a single top-level ``matrix``; each grid may
override ``kind``/``series``/``x`` and add its own ``base`` scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, Iterable, List, Optional

from repro.errors import ScenarioError
from repro.scenarios.axes import (
    axis_raw_number,
    expand_variant_value,
    get_axis,
    has_axis,
    is_variant_values,
    resolve_auto_link,
)

#: ``x`` spelling for "the point's ordinal within its grid" (enumeration
#: figures like the heater micro-benchmark, whose x axis is categorical).
X_INDEX = "@index"

_SCENARIO_KEYS = frozenset(
    ("name", "kind", "title", "xlabel", "ylabel", "seed", "description",
     "base", "matrix", "series", "x", "grids", "quick")
)
_GRID_KEYS = frozenset(("kind", "base", "matrix", "series", "x"))
_QUICK_KEYS = frozenset(("base", "matrix", "seed"))


def _require_mapping(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: frozenset, what: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        raise ScenarioError(
            f"{what} has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _check_matrix(matrix: dict, what: str) -> Dict[str, list]:
    _require_mapping(matrix, f"{what}.matrix")
    checked: Dict[str, list] = {}
    for name, values in matrix.items():
        if isinstance(values, tuple):
            values = list(values)
        if not isinstance(values, list) or not values:
            raise ScenarioError(
                f"{what}: matrix axis {name!r} must be a non-empty list, "
                f"got {type(values).__name__}"
            )
        # A matrix key must be a registered axis — except a pure variant
        # axis (every value a labelled mapping), which users may name
        # freely; its sub-keys are still validated per value.
        if not has_axis(name) and not is_variant_values(values):
            get_axis(name)  # raises the canonical unknown-axis error
        checked[name] = values
    return checked


@dataclass
class GridSpec:
    """One cartesian block of a scenario (most scenarios have exactly one)."""

    matrix: Dict[str, list]
    series: str
    x: object
    kind: Optional[str] = None
    base: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: dict, *, what: str, default_series: bool = True) -> "GridSpec":
        _require_mapping(mapping, what)
        _check_keys(mapping, _GRID_KEYS, what)
        if "matrix" not in mapping:
            raise ScenarioError(f"{what} must define a 'matrix' section")
        matrix = _check_matrix(mapping["matrix"], what)
        series = mapping.get("series")
        if series is None:
            if not default_series:
                raise ScenarioError(f"{what} must set 'series'")
            series = "{" + next(iter(matrix)) + "}"
        if not isinstance(series, str):
            raise ScenarioError(f"{what}: 'series' must be a string template")
        if "x" not in mapping:
            raise ScenarioError(
                f"{what} must set 'x' (an axis name, '{X_INDEX}', or a number)"
            )
        x = mapping["x"]
        if not (isinstance(x, str) or isinstance(x, (int, float))):
            raise ScenarioError(f"{what}: bad 'x' {x!r}")
        base = _require_mapping(mapping.get("base", {}), f"{what}.base")
        return cls(matrix=matrix, series=series, x=x, kind=mapping.get("kind"), base=dict(base))


@dataclass
class ScenarioSpec:
    """A validated scenario: metadata, shared scalars, and its grid(s)."""

    name: str
    kind: Optional[str]
    title: str
    xlabel: str = "x"
    ylabel: str = "y"
    seed: int = 0
    description: str = ""
    base: Dict[str, object] = field(default_factory=dict)
    grids: List[GridSpec] = field(default_factory=list)
    quick_overrides: Optional[dict] = None
    source: str = "builtin"

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict, *, source: str = "inline") -> "ScenarioSpec":
        """Validate a raw scenario mapping (the file/builtin entry point)."""
        _require_mapping(mapping, "scenario")
        _check_keys(mapping, _SCENARIO_KEYS, "scenario")
        name = mapping.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError("scenario must set a non-empty 'name'")
        if "matrix" in mapping and "grids" in mapping:
            raise ScenarioError("scenario: 'matrix' and 'grids' are mutually exclusive")
        if "matrix" not in mapping and "grids" not in mapping:
            raise ScenarioError("scenario must define a 'matrix' (or a 'grids' list)")
        if "grids" in mapping:
            raw_grids = mapping["grids"]
            if not isinstance(raw_grids, list) or not raw_grids:
                raise ScenarioError("scenario: 'grids' must be a non-empty list")
            grids = [
                GridSpec.from_mapping(g, what=f"grids[{i}]", default_series=False)
                for i, g in enumerate(raw_grids)
            ]
        else:
            grids = [
                GridSpec.from_mapping(
                    {k: mapping[k] for k in ("matrix", "series", "x") if k in mapping},
                    what="scenario",
                )
            ]
        seed = mapping.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ScenarioError(f"scenario: 'seed' must be an integer, got {seed!r}")
        quick = mapping.get("quick")
        if quick is not None:
            _require_mapping(quick, "scenario.quick")
            _check_keys(quick, _QUICK_KEYS, "scenario.quick")
        return cls(
            name=name,
            kind=mapping.get("kind"),
            title=mapping.get("title", name),
            xlabel=mapping.get("xlabel", "x"),
            ylabel=mapping.get("ylabel", "y"),
            seed=seed,
            description=mapping.get("description", ""),
            base=dict(_require_mapping(mapping.get("base", {}), "scenario.base")),
            grids=grids,
            quick_overrides=quick,
            source=source,
        )

    # -- overrides ------------------------------------------------------------

    def with_overrides(
        self,
        *,
        base: Optional[Dict[str, object]] = None,
        matrix: Optional[Dict[str, list]] = None,
        seed: Optional[int] = None,
    ) -> "ScenarioSpec":
        """A copy with base scalars merged, matrix axis values replaced,
        and/or the root seed swapped. A ``matrix`` override applies to every
        grid that declares the axis; naming an axis no grid has is an error
        (the override would silently do nothing)."""
        spec = replace(
            self,
            base={**self.base, **(base or {})},
            grids=[replace(g, matrix=dict(g.matrix), base=dict(g.base)) for g in self.grids],
        )
        if seed is not None:
            spec.seed = int(seed)
        for axis_name, values in (matrix or {}).items():
            if isinstance(values, tuple):
                values = list(values)
            if not isinstance(values, list) or not values:
                raise ScenarioError(
                    f"matrix override for axis {axis_name!r} must be a non-empty list"
                )
            hit = False
            for grid in spec.grids:
                if axis_name in grid.matrix:
                    grid.matrix[axis_name] = values
                    hit = True
            if not hit:
                raise ScenarioError(
                    f"matrix override names axis {axis_name!r}, but no grid of "
                    f"scenario {self.name!r} declares it"
                )
        return spec

    def quick(self) -> "ScenarioSpec":
        """The scenario's reduced (``--quick``) form, if it declares one."""
        if not self.quick_overrides:
            return self
        q = self.quick_overrides
        return self.with_overrides(
            base=q.get("base"), matrix=q.get("matrix"), seed=q.get("seed")
        )

    # -- expansion ------------------------------------------------------------

    def _format(self, template: str, labels: Dict[str, str], what: str) -> str:
        try:
            return template.format(**labels)
        except (KeyError, IndexError) as exc:
            raise ScenarioError(
                f"scenario {self.name!r}: {what} template {template!r} references "
                f"{exc} which is not a base or matrix axis of this grid"
            ) from None

    def expand(self) -> "ExperimentPlan":
        """Compile the scenario into an :class:`~repro.exp.plan.ExperimentPlan`.

        Deterministic: grids in declaration order; within a grid the first
        matrix axis is outermost. Every point gets the scenario's root seed
        (the paper-figure convention).
        """
        from repro.exp import ExperimentPlan, producer_kinds

        base_params: Dict[str, object] = {}
        base_labels: Dict[str, str] = {}
        base_raw: Dict[str, object] = {}
        for key, value in self.base.items():
            axis = get_axis(key)
            base_params.update(axis.expand(value))
            base_labels[key] = axis.label(value)
            base_raw[key] = value
        plan = ExperimentPlan(
            title=self._format(self.title, base_labels, "title"),
            xlabel=self.xlabel,
            ylabel=self.ylabel,
        )
        for gi, grid in enumerate(self.grids):
            kind = grid.kind or self.kind
            if kind is None:
                raise ScenarioError(
                    f"scenario {self.name!r}: grids[{gi}] has no 'kind' and the "
                    "scenario sets none"
                )
            kinds = producer_kinds()
            if kind not in kinds:
                raise ScenarioError(
                    f"scenario {self.name!r}: no producer registered for point "
                    f"kind {kind!r}; known kinds: {', '.join(kinds)}"
                )
            grid_params = dict(base_params)
            grid_labels = dict(base_labels)
            grid_raw = dict(base_raw)
            for key, value in grid.base.items():
                axis = get_axis(key)
                grid_params.update(axis.expand(value))
                grid_labels[key] = axis.label(value)
                grid_raw[key] = value
            axes = []
            for axis_name, values in grid.matrix.items():
                if has_axis(axis_name):
                    axes.append((axis_name, get_axis(axis_name), values))
                elif is_variant_values(values):
                    axes.append((axis_name, None, values))
                else:
                    get_axis(axis_name)  # raises
            for index, combo in enumerate(product(*(values for _, _, values in axes))):
                params = dict(grid_params)
                labels = dict(grid_labels)
                raw = dict(grid_raw)
                for (axis_name, axis, _values), value in zip(axes, combo):
                    if axis is None:
                        params.update(expand_variant_value(axis_name, value))
                        labels[axis_name] = str(value["label"])
                    else:
                        params.update(axis.expand(value))
                        labels[axis_name] = axis.label(value)
                    raw[axis_name] = value
                resolve_auto_link(params)
                if "link" in labels and "link" in params:
                    labels["link"] = str(params["link"])
                series = self._format(grid.series, labels, "series")
                plan.add_point(
                    kind, series, self._grid_x(grid, gi, raw, index), seed=self.seed, **params
                )
        return plan

    def _grid_x(self, grid: GridSpec, gi: int, raw: Dict[str, object], index: int) -> float:
        x = grid.x
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return float(x)
        if x == X_INDEX:
            return float(index)
        value = raw.get(x)
        if value is None:
            raise ScenarioError(
                f"scenario {self.name!r}: grids[{gi}] sets x = {x!r}, which is "
                "not a base or matrix axis of that grid"
            )
        number = axis_raw_number(x, value)
        if number is None:
            raise ScenarioError(
                f"scenario {self.name!r}: x axis {x!r} has non-numeric value {value!r}"
            )
        return number

    def total_points(self) -> int:
        """Number of points the scenario expands to (without expanding)."""
        total = 0
        for grid in self.grids:
            cells = 1
            for values in grid.matrix.values():
                cells *= len(values)
            total += cells
        return total


# -- registry ------------------------------------------------------------------

_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Install (or replace) a named scenario."""
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario; unknown names list the known ones."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; registered: {', '.join(sorted(_SCENARIOS))}"
        ) from None


def iter_scenarios() -> Iterable[ScenarioSpec]:
    """All registered scenarios in name order."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]
