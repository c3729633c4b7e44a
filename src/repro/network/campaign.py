"""Monte-Carlo campaigns over a control-network graph.

The analytic side (:mod:`repro.network.paths`) computes each switch's exact
steady-state control-path availability from per-element availabilities
under independence.  This module runs the same graph through the
discrete-event simulator — every node, link, and shared-risk group becomes
a :class:`~repro.sim.entities.Component`, links depend on their endpoints
and SRG, and one binary signal per switch (``cp:<switch>``) integrates the
"reaches an up controller site" predicate over simulated time.

With no hazards attached the simulated per-switch availabilities must
match the analytic exact values within confidence intervals (the
degenerate-campaign invariant, asserted by the cross-validation suite);
link-flap and SRG hazards (:mod:`repro.faults.hazards`) then break
independence in controlled ways the analytic side cannot express.

Determinism follows the :func:`repro.faults.campaign.run_campaign`
discipline exactly: replication seeds derive from the root seed, results
merge in index order, and the outcome is bit-identical for any worker
count and with telemetry on or off.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.errors import NetworkError, ParameterError
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.obs.manifest import params_hash
from repro.faults.hazards import (
    HazardSpec,
    attach_hazards,
    hazard_from_dict,
    hazard_to_dict,
)
from repro.network.graph import NetworkGraph, NetworkLink
from repro.network.paths import exact_control_path_unavailability
from repro.perf.parallel import map_chunked
from repro.sim.engine import AvailabilitySimulator
from repro.sim.entities import Component, ComponentKind
from repro.sim.measures import ConfidenceInterval, batch_means_interval
from repro.sim.rng import derive_seeds
from repro.units import mttr_from_availability

__all__ = [
    "NetworkCampaignSpec",
    "NetworkRunResult",
    "NetworkCampaignResult",
    "build_network_simulator",
    "run_network_campaign",
    "analytic_per_switch",
]

_NODE_KIND_MAP = {
    "switch": ComponentKind.SWITCH,
    "router": ComponentKind.ROUTER,
    "site": ComponentKind.SITE,
}


@dataclass(frozen=True)
class NetworkCampaignSpec:
    """A frozen, JSON-serializable network simulation campaign.

    Per-element failure rates come from each element's steady-state
    availability plus a per-class MTBF (hours): ``failure_rate = 1/MTBF``
    and ``MTTR = MTBF * (1 - A) / A``, so the long-run availability of the
    simulated on/off process equals the graph's declared availability.
    Elements with availability 1.0 never fail intrinsically.

    Attributes:
        graph: the network graph to simulate.
        sites: controller sites serving the fleet; empty means every
            ``"site"`` node in the graph.
        horizon_hours: simulated time per replication.
        replications: independent replications (seeds derived from
            ``seed``).
        seed: root seed.
        batches: batch-means windows per replication.
        hazards: hazard specs (e.g. link-flap / SRG failures) attached to
            every replication.
        node_mtbf_hours / link_mtbf_hours / srg_mtbf_hours: per-class MTBF
            used to convert availabilities into rates.
    """

    graph: NetworkGraph
    sites: tuple[str, ...] = ()
    horizon_hours: float = 5_000.0
    replications: int = 4
    seed: int = 20190324
    batches: int = 4
    hazards: tuple[HazardSpec, ...] = field(default_factory=tuple)
    node_mtbf_hours: float = 1_000.0
    link_mtbf_hours: float = 500.0
    srg_mtbf_hours: float = 2_000.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "hazards", tuple(self.hazards))
        if self.horizon_hours <= 0:
            raise NetworkError(
                f"horizon_hours must be > 0, got {self.horizon_hours}"
            )
        if self.replications < 1:
            raise NetworkError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.batches < 1:
            raise NetworkError(f"batches must be >= 1, got {self.batches}")
        for name in ("node_mtbf_hours", "link_mtbf_hours", "srg_mtbf_hours"):
            if getattr(self, name) <= 0:
                raise NetworkError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        node_names = {node.name for node in self.graph.nodes}
        for site in self.sites:
            if site not in node_names:
                raise NetworkError(
                    f"campaign site {site!r} is not a node of graph "
                    f"{self.graph.name!r}"
                )
        if not self.resolved_sites:
            raise NetworkError(
                f"graph {self.graph.name!r} has no controller sites"
            )
        if not self.graph.switches:
            raise NetworkError(
                f"graph {self.graph.name!r} has no switches to observe"
            )
        for element in (*self.graph.nodes, *self.graph.links, *self.graph.srgs):
            if element.availability <= 0.0:
                raise NetworkError(
                    f"element {element.name!r} has availability 0; the "
                    "simulated on/off process needs availability > 0"
                )

    @property
    def resolved_sites(self) -> tuple[str, ...]:
        return self.sites if self.sites else self.graph.sites

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "graph":
                record["graph"] = value.to_dict()
            elif spec_field.name == "hazards":
                record["hazards"] = [hazard_to_dict(h) for h in value]
            elif isinstance(value, tuple):
                record[spec_field.name] = list(value)
            else:
                record[spec_field.name] = value
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "NetworkCampaignSpec":
        data = dict(record)
        names = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise NetworkError(
                f"unknown network-campaign field(s) {sorted(unknown)}"
            )
        if "graph" in data:
            data["graph"] = NetworkGraph.from_dict(data["graph"])
        if "hazards" in data:
            data["hazards"] = tuple(
                hazard_from_dict(h) for h in data["hazards"]
            )
        if "sites" in data:
            data["sites"] = tuple(data["sites"])
        try:
            return cls(**data)
        except TypeError as error:
            raise NetworkError(
                f"invalid network-campaign record: {error}"
            ) from None

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "NetworkCampaignSpec":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise NetworkError(
                f"invalid network-campaign JSON: {error}"
            ) from None
        if not isinstance(record, dict):
            raise NetworkError("network-campaign JSON must be an object")
        return cls.from_dict(record)

    def params_hash(self) -> str:
        """Canonical hash of the spec (graph included), for manifests."""
        return params_hash(self.to_dict())


def _rates(availability: float, mtbf_hours: float) -> tuple[float, float]:
    if availability >= 1.0:
        return 0.0, 1.0
    return 1.0 / mtbf_hours, mttr_from_availability(availability, mtbf_hours)


def _path_predicate(
    switch: str,
    site_set: frozenset[str],
    incident: Mapping[str, tuple[NetworkLink, ...]],
):
    """Signal predicate: the switch reaches some up controller site.

    A link's effective up-state already folds in both endpoints and its
    SRG (they are simulator dependencies), so the search only consults
    effective link states plus the switch's own state.
    """

    def predicate(simulator: AvailabilitySimulator) -> bool:
        if not simulator.effectively_up(switch):
            return False
        seen = {switch}
        stack = [switch]
        while stack:
            current = stack.pop()
            if current in site_set:
                return True
            for link in incident[current]:
                if not simulator.effectively_up(link.name):
                    continue
                neighbor = link.other(current)
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return False

    return predicate


def build_network_simulator(
    spec: NetworkCampaignSpec, seed: int
) -> AvailabilitySimulator:
    """One replication's simulator: graph elements as components + signals.

    Component registration order is fixed (SRGs, nodes, links — each in
    graph order) so named RNG streams, and therefore whole trajectories,
    are pure functions of the seed.  Links depend on both endpoints and
    their SRG; a signal ``cp:<switch>`` is registered per switch (graph
    order) plus ``cp:all`` for the whole fleet.
    """
    graph = spec.graph
    components: list[Component] = []
    for srg in graph.srgs:
        failure_rate, repair_mean = _rates(
            srg.availability, spec.srg_mtbf_hours
        )
        components.append(
            Component(
                key=srg.name,
                kind=ComponentKind.SRG,
                failure_rate=failure_rate,
                repair_mean=repair_mean,
            )
        )
    for node in graph.nodes:
        failure_rate, repair_mean = _rates(
            node.availability, spec.node_mtbf_hours
        )
        components.append(
            Component(
                key=node.name,
                kind=_NODE_KIND_MAP[node.kind],
                failure_rate=failure_rate,
                repair_mean=repair_mean,
            )
        )
    for link in graph.links:
        failure_rate, repair_mean = _rates(
            link.availability, spec.link_mtbf_hours
        )
        dependencies = (link.a, link.b) + (
            (link.srg,) if link.srg is not None else ()
        )
        components.append(
            Component(
                key=link.name,
                kind=ComponentKind.LINK,
                failure_rate=failure_rate,
                repair_mean=repair_mean,
                dependencies=dependencies,
            )
        )
    simulator = AvailabilitySimulator(components, seed=seed)
    incident = graph.adjacency()
    site_set = frozenset(spec.resolved_sites)
    switch_predicates = {}
    for switch in graph.switches:
        predicate = _path_predicate(switch, site_set, incident)
        switch_predicates[switch] = predicate
        simulator.add_signal(f"cp:{switch}", predicate)

    def all_switches(simulator: AvailabilitySimulator) -> bool:
        return all(
            predicate(simulator)
            for predicate in switch_predicates.values()
        )

    simulator.add_signal("cp:all", lambda sim: all_switches(sim))
    return simulator


@dataclass(frozen=True)
class NetworkRunResult:
    """One replication's measurements."""

    seed: int
    per_switch: tuple[tuple[str, float], ...]
    all_switches: float
    events: int

    def availability(self, switch: str) -> float:
        for name, value in self.per_switch:
            if name == switch:
                return value
        raise NetworkError(f"no measurement for switch {switch!r}")


@dataclass(frozen=True)
class NetworkCampaignResult:
    """A finished network campaign: merged replications plus statistics."""

    spec: NetworkCampaignSpec
    results: tuple[NetworkRunResult, ...]
    seeds: tuple[int, ...]
    stats: tuple[dict, ...] = field(default_factory=tuple)

    def availability(self, switch: str) -> float:
        """Mean availability of one switch's control path across replications."""
        values = [result.availability(switch) for result in self.results]
        return sum(values) / len(values)

    def per_switch(self) -> dict[str, float]:
        return {
            switch: self.availability(switch)
            for switch in self.spec.graph.switches
        }

    def fleet_availability(self) -> float:
        per_switch = self.per_switch()
        return sum(per_switch.values()) / len(per_switch)

    def all_switches_availability(self) -> float:
        values = [result.all_switches for result in self.results]
        return sum(values) / len(values)

    def interval(self, switch: str) -> ConfidenceInterval:
        """Across-replication confidence interval for one switch."""
        return batch_means_interval(
            [result.availability(switch) for result in self.results]
        )

    def total_injections(self, kind: str | None = None) -> int:
        total = 0
        for stat in self.stats:
            injections = stat.get("injections", {})
            if kind is None:
                total += sum(injections.values())
            else:
                total += injections.get(kind, 0)
        return total

    @property
    def total_events(self) -> int:
        return sum(stat.get("events", 0) for stat in self.stats)


def _collect(
    spec: NetworkCampaignSpec, seed: int, simulator: AvailabilitySimulator
) -> NetworkRunResult:
    return NetworkRunResult(
        seed=seed,
        per_switch=tuple(
            (switch, simulator.availability(f"cp:{switch}"))
            for switch in spec.graph.switches
        ),
        all_switches=simulator.availability("cp:all"),
        events=simulator.events_processed,
    )


def _run_one_replication(
    spec: NetworkCampaignSpec, seed: int
) -> tuple[NetworkRunResult, dict]:
    """One replication (module-level so it pickles into worker processes).

    On the warm-pool path the frozen spec is broadcast once per worker
    process and each job carries its seed only.
    """
    simulator = build_network_simulator(spec, seed)
    hazard_set = attach_hazards(simulator, spec.hazards)
    simulator.run(spec.horizon_hours, batches=spec.batches)
    stats = hazard_set.stats()
    stats["events"] = simulator.events_processed
    return _collect(spec, seed, simulator), stats


def run_network_campaign(
    spec: NetworkCampaignSpec, workers: int = 1
) -> NetworkCampaignResult:
    """Execute a network campaign; bit-identical for any ``workers`` count.

    ``workers < 1`` raises :class:`~repro.errors.ParameterError`.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    seeds = derive_seeds(spec.seed, spec.replications)
    obs.note_solver("network-campaign")
    obs.annotate("topology", spec.graph.name)
    obs.annotate("seed.network_root", spec.seed)
    obs.annotate("seed.network_replications", spec.replications)
    obs.annotate("seed.network_hash", spec.params_hash())
    telemetry.emit(
        "network.campaign.start",
        graph=spec.graph.name,
        graph_hash=spec.graph.graph_hash(),
        replications=spec.replications,
        hazards=len(spec.hazards),
        workers=workers,
        horizon_hours=spec.horizon_hours,
        spec_hash=spec.params_hash(),
    )
    with obs.span(
        "network.campaign",
        graph=spec.graph.name,
        replications=spec.replications,
        hazards=len(spec.hazards),
        workers=workers,
    ):
        outcomes = map_chunked(
            _run_one_replication,
            list(seeds),
            workers,
            spec,
            "network.replication",
        )
    results = tuple(result for result, _ in outcomes)
    stats = tuple(stat for _, stat in outcomes)
    if obs.enabled():
        kinds: dict[str, int] = {}
        for stat in stats:
            for kind, count in stat.get("injections", {}).items():
                kinds[kind] = kinds.get(kind, 0) + count
        for kind, count in sorted(kinds.items()):
            obs.count(f"network.injections.{kind}", count)
    campaign = NetworkCampaignResult(
        spec=spec, results=results, seeds=seeds, stats=stats
    )
    if telemetry.enabled():
        telemetry.emit(
            "network.campaign.end",
            graph=spec.graph.name,
            replications=spec.replications,
            fleet_availability=campaign.fleet_availability(),
            injections=campaign.total_injections(),
            events=campaign.total_events,
        )
    return campaign


def analytic_per_switch(spec: NetworkCampaignSpec) -> dict[str, float]:
    """Hazard-free analytic prediction for each switch's signal.

    With independent exponential on/off elements (exactly what
    :func:`build_network_simulator` builds when no hazards are attached),
    the long-run fraction of time the control-path predicate holds equals
    the exact structure-function availability at the graph's steady-state
    element availabilities — the degenerate-campaign invariant.
    """
    return {
        switch: 1.0
        - exact_control_path_unavailability(
            spec.graph, switch, spec.resolved_sites
        )
        for switch in spec.graph.switches
    }
