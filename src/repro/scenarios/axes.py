"""Named axis factories: how one scenario key becomes point parameters.

A scenario spec never talks to simulation classes directly — every key in
its ``base`` and ``matrix`` sections names an **axis** registered here, and
the axis is what validates the raw TOML/JSON value and turns it into the
flat scalar parameters a :class:`~repro.exp.plan.PointSpec` carries:

* choice axes (``arch``, ``link``, ``queue_family``, ``app``, ``nic``,
  ``mechanism``) validate against the live registries —
  the arch presets, link presets, queue factory, proxy apps — so a typo in
  a config file fails at expansion time with the registry's legal values,
  not three minutes into a sweep;
* integer axes (``msg_bytes``, ``search_depth``, ``nranks``, ...) are the
  workload grid: any of them can be a ``matrix`` list and serve as the
  figure's x axis;
* flag axes (``heated``, ``fragmented``, ``prefetch_enabled``) are the
  heater/hotcache and layout policy switches;
* *variant* axes take labelled mappings (``{label = "HC", heated = true}``)
  whose remaining keys are resolved through this same registry, which is
  how a figure's legend line bundles several parameters under one name.

Axes also carry a *label* for each value — the fragment series/title
templates interpolate (``series = "{variant}"``, ``title = "... ({arch})"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ScenarioError

#: Sentinel ``link`` value: resolve the platform's default fabric per point
#: (after the arch axis has been applied; see :func:`platform_link_name`).
AUTO_LINK = "auto"


@dataclass(frozen=True)
class Axis:
    """One named scenario axis.

    ``expand`` maps a validated raw value to the point parameters it
    contributes; ``label`` maps the value to the fragment used by series
    and title templates. ``values`` is the human-readable legal-value
    description shown by ``repro list`` and embedded in error messages.
    """

    name: str
    help: str
    values: str
    expand: Callable[[object], Dict[str, object]]
    label: Callable[[object], str] = str


_AXES: Dict[str, Axis] = {}


def register_axis(axis: Axis) -> Axis:
    """Install (or replace) an axis factory under its name."""
    _AXES[axis.name] = axis
    return axis


def get_axis(name: str) -> Axis:
    """Look up an axis; unknown names list the registered ones."""
    try:
        return _AXES[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario axis {name!r}; registered axes: {', '.join(sorted(_AXES))}"
        ) from None


def has_axis(name: str) -> bool:
    """Whether *name* is a registered axis."""
    return name in _AXES


def iter_axes() -> Iterable[Axis]:
    """All registered axes in name order (``repro list``)."""
    return [_AXES[name] for name in sorted(_AXES)]


def _bad(axis: str, value, expected: str) -> ScenarioError:
    return ScenarioError(
        f"axis {axis!r}: bad value {value!r} — expected {expected}"
    )


# -- concrete axes -------------------------------------------------------------


def platform_link_name(arch_name: str) -> str:
    """The fabric each platform of the paper is attached to (by name)."""
    if arch_name == "broadwell":
        return "omnipath"
    if arch_name == "nehalem":
        return "mellanox-qdr"
    return "qlogic-ib-qdr"


def _expand_arch(value) -> Dict[str, object]:
    from repro.arch.spec import ArchSpec
    from repro.exp.producers import encode_arch

    if isinstance(value, ArchSpec):
        return {"arch": encode_arch(value)}
    if isinstance(value, str):
        from repro.arch.presets import get_arch

        try:
            return {"arch": encode_arch(get_arch(value))}
        except Exception:
            from repro.arch.presets import ALL_ARCHS

            raise _bad("arch", value, f"one of {', '.join(sorted(ALL_ARCHS))}") from None
    raise _bad("arch", value, "an architecture preset name or ArchSpec")


def _arch_label(value) -> str:
    from repro.arch.spec import ArchSpec

    return value.name if isinstance(value, ArchSpec) else str(value)


def _expand_link(value) -> Dict[str, object]:
    if value == AUTO_LINK:
        return {"link": AUTO_LINK}
    if isinstance(value, str):
        from repro.errors import ConfigurationError
        from repro.net.link import get_link

        try:
            return {"link": get_link(value).name}
        except ConfigurationError:
            pass
    raise _bad(
        "link", value,
        f"'{AUTO_LINK}' or one of aries, mellanox-qdr, omnipath, qlogic-ib-qdr",
    )


def _expand_queue_family(value) -> Dict[str, object]:
    from repro.matching.factory import QUEUE_FAMILY_DOC, is_queue_family

    if isinstance(value, str) and is_queue_family(value):
        return {"queue_family": value}
    raise _bad("queue_family", value, QUEUE_FAMILY_DOC)


def _expand_app(value) -> Dict[str, object]:
    from repro.apps import APP_CLASSES

    if isinstance(value, str) and value in APP_CLASSES:
        return {"app": value}
    raise _bad("app", value, f"one of {', '.join(sorted(APP_CLASSES))}")


def _expand_nic(value) -> Dict[str, object]:
    nics = ("software-only", "psm2-like", "bxi-like")
    if value in nics:
        return {"nic": value}
    raise _bad("nic", value, f"one of {', '.join(nics)}")


def _expand_mechanism(value) -> Dict[str, object]:
    mechanisms = ("none", "hot-caching", "cat-partition")
    if value in mechanisms:
        return {"mechanism": value}
    raise _bad("mechanism", value, f"one of {', '.join(mechanisms)}")


def _expand_prefetcher(value) -> Dict[str, object]:
    from repro.mem.prefetch import PREFETCHER_MODES

    modes = tuple(name for name, _ in PREFETCHER_MODES)
    if value in modes:
        return {"prefetcher": value}
    raise _bad("prefetcher", value, f"one of {', '.join(modes)}")


def _bool_axis(name: str, help_text: str) -> Axis:
    def expand(value, _name=name) -> Dict[str, object]:
        if isinstance(value, bool):
            return {_name: value}
        raise _bad(_name, value, "a boolean")

    return Axis(name=name, help=help_text, values="true | false", expand=expand)


def _int_axis(name: str, help_text: str, *, minimum: int = 0) -> Axis:
    def expand(value, _name=name, _min=minimum) -> Dict[str, object]:
        if isinstance(value, bool) or not isinstance(value, int) or value < _min:
            raise _bad(_name, value, f"an integer >= {_min}")
        return {_name: int(value)}

    return Axis(name=name, help=help_text, values=f"integer >= {minimum}", expand=expand)


def _float_axis(
    name: str,
    help_text: str,
    *,
    minimum: float = 0.0,
    exclusive: bool = False,
    expected: Optional[str] = None,
) -> Axis:
    """A finite-number axis with a lower bound (strict when *exclusive*).

    *expected* overrides the error-message description — spell out the unit
    and the fix, so a bad value in a scenario file is actionable on sight.
    """
    bound = f"> {minimum:g}" if exclusive else f">= {minimum:g}"
    legal = expected if expected is not None else f"a finite number {bound}"

    def expand(value, _name=name) -> Dict[str, object]:
        import math

        ok = (
            not isinstance(value, bool)
            and isinstance(value, (int, float))
            and math.isfinite(value)
            and (value > minimum if exclusive else value >= minimum)
        )
        if not ok:
            raise _bad(_name, value, legal)
        return {_name: float(value)}

    return Axis(name=name, help=help_text, values=f"number {bound}", expand=expand)


def _choice_axis(name: str, help_text: str, choices: Tuple[str, ...]) -> Axis:
    def expand(value, _name=name) -> Dict[str, object]:
        if value in choices:
            return {_name: value}
        raise _bad(_name, value, f"one of {', '.join(choices)}")

    return Axis(name=name, help=help_text, values=" | ".join(choices), expand=expand)


def _variant_axis(name: str, help_text: str) -> Axis:
    return Axis(
        name=name,
        help=help_text,
        values='{ label = "...", <axis> = <value>, ... }',
        expand=lambda value: expand_variant_value(name, value),
        label=lambda value: str(value["label"]),
    )


def expand_variant_value(axis_name: str, value) -> Dict[str, object]:
    """Expand one labelled-mapping value through the sub-axes it names."""
    if not isinstance(value, dict) or "label" not in value:
        raise _bad(axis_name, value, 'a mapping with a "label" key')
    params: Dict[str, object] = {}
    for key, sub in value.items():
        if key == "label":
            continue
        params.update(get_axis(key).expand(sub))
    return params


def is_variant_values(values) -> bool:
    """Whether every value of a matrix axis is a labelled mapping."""
    return bool(values) and all(
        isinstance(v, dict) and "label" in v for v in values
    )


_CHOICE_AXES: Tuple[Axis, ...] = (
    Axis("arch", "architecture preset (cache geometry, latencies, clocks)",
         "nehalem | sandy-bridge | haswell | broadwell | knl | ArchSpec",
         _expand_arch, _arch_label),
    Axis("link", "fabric preset; 'auto' picks the platform's paper fabric",
         "auto | qlogic-ib-qdr | omnipath | mellanox-qdr | aries",
         _expand_link),
    Axis("queue_family", "match-queue organization",
         "baseline | lla-<k> | lla-large | openmpi | hashmap | hash-<n> | fourd | ch4 | adaptive",
         _expand_queue_family),
    Axis("app", "proxy application (kind = 'app' points)",
         "amg2013 | minife | minimd | fds", _expand_app),
    Axis("nic", "hardware matching offload model (kind = 'offload' points)",
         "software-only | psm2-like | bxi-like", _expand_nic),
    Axis("mechanism", "co-located occupancy mechanism (kind = 'colocated')",
         "none | hot-caching | cat-partition", _expand_mechanism),
    Axis("prefetcher", "prefetch-unit configuration (default: arch units)",
         "default | none | chase | chase-only", _expand_prefetcher),
)

_FLAG_AXES: Tuple[Axis, ...] = (
    _bool_axis("heated", "software cache heater (hot caching) on/off"),
    _bool_axis("fragmented", "churned (long-running-app) heap layout"),
    _bool_axis("prefetch_enabled", "hardware prefetcher model on/off"),
)

_INT_AXES: Tuple[Axis, ...] = (
    _int_axis("msg_bytes", "message payload size in bytes", minimum=0),
    _int_axis("search_depth", "posted-receive-queue search length"),
    _int_axis("iterations", "measured benchmark iterations", minimum=1),
    _int_axis("warmup", "warmup iterations before measurement"),
    _int_axis("nranks", "simulated MPI ranks", minimum=1),
    _int_axis("match_list_length", "MiniFE tunable match-list length", minimum=1),
    _int_axis("ranks", "co-located compute ranks", minimum=0),
    _int_axis("depth", "queue depth (posted entries)", minimum=0),
    _int_axis("working_set_bytes", "per-rank compute working set", minimum=0),
    _int_axis("samples", "random-access samples (heater micro)", minimum=1),
    _int_axis("region_bytes", "heated region size (heater micro)", minimum=1),
    _int_axis("partition_ways", "CAT-reserved LLC ways", minimum=1),
    _int_axis("network_cache_bytes", "dedicated network-cache capacity", minimum=1),
)

_VARIANT_AXES: Tuple[Axis, ...] = (
    _variant_axis("variant", "labelled parameter bundle (a figure legend line)"),
    _variant_axis("platform", "labelled arch+link bundle (a hardware platform)"),
)


def _traffic_metric_axis() -> Axis:
    from repro.traffic.stats import TRAFFIC_METRICS

    return _choice_axis(
        "metric",
        "which measured-phase statistic is the point's y value (kind = 'traffic')",
        TRAFFIC_METRICS,
    )


#: Open-loop traffic axes (kind = 'traffic' points; see repro.traffic).
_TRAFFIC_AXES: Tuple[Axis, ...] = (
    _float_axis(
        "arrival_rate",
        "open-loop offered load (Poisson arrivals)",
        minimum=0.0,
        exclusive=True,
        expected="a finite number > 0: mean arrivals per simulated "
        "microsecond (e.g. 0.4)",
    ),
    _float_axis(
        "zipf_alpha",
        "tag-popularity skew (Zipf exponent; 0 = uniform)",
        minimum=0.0,
        expected="a finite number >= 0: Zipf popularity exponent "
        "(0 = uniform, ~1 = web-like skew)",
    ),
    _int_axis("n_warmup", "warmup events before the measured phase"),
    _int_axis("n_measured", "measured-phase events", minimum=1),
    _int_axis("queue_capacity", "UMQ admission capacity (0 = unbounded)"),
    _int_axis("n_tags", "distinct message tags (popularity universe)", minimum=1),
    _int_axis("recv_window", "max outstanding pre-posted receives", minimum=1),
    _int_axis("flush_every", "cache flush period in arrivals (0 = never)"),
    _choice_axis(
        "admission",
        "full-queue policy: reject newcomers or evict the FIFO head",
        ("drop-tail", "drop-head"),
    ),
)

for _axis in (
    _CHOICE_AXES + _FLAG_AXES + _INT_AXES + _VARIANT_AXES + _TRAFFIC_AXES
    + (_traffic_metric_axis(),)
):
    register_axis(_axis)


def resolve_auto_link(params: Dict[str, object]) -> None:
    """Resolve an ``AUTO_LINK`` placeholder against the point's arch (in place)."""
    if params.get("link") != AUTO_LINK:
        return
    encoded = params.get("arch")
    if encoded is None:
        raise ScenarioError("axis 'link': 'auto' needs an 'arch' on the same point")
    from repro.exp.producers import resolve_arch

    params["link"] = platform_link_name(resolve_arch(encoded).name)


def axis_raw_number(name: str, value) -> Optional[float]:
    """The numeric x-coordinate a raw axis value provides, if any."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)
