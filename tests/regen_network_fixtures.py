"""Regenerate the network-graph availability fixtures.

Run from the repository root::

    PYTHONPATH=src python -m tests.regen_network_fixtures

The fixtures pin three things, all pure functions of committed inputs:

* per-switch control-path analyses (exact unavailability, union bound,
  path lower bound, cut-set census) for every reference graph in
  :mod:`repro.topology.network_reference`, at full float precision;
* placement-search outcomes (chosen sites, fleet value, greedy bound)
  on the backbone mesh and the ring;
* the *exact* per-replication outputs of one pinned network campaign
  with link-flap and shared-risk-group hazards attached.

``tests/test_network_determinism.py`` re-runs all three workloads —
the campaign across worker counts and with telemetry on/off — and
compares against these values (analytic numbers at 1e-12, simulation
outputs bit-identically), so any change to the cut-set compiler, the
factored evaluator, the optimizer's tie-breaking, or the event stream
fails loudly.  Regenerate (and commit the diff) only when a change is
*supposed* to alter these numbers, and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.faults import LinkFlapSpec, SrgFailureSpec
from repro.network import (
    NetworkCampaignSpec,
    NetworkGraph,
    NetworkLink,
    NetworkNode,
    SharedRiskGroup,
    analyze_switch,
    optimize_placement,
    run_network_campaign,
)
from repro.topology.network_reference import (
    backbone_network,
    fat_tree_pod,
    line_network,
    ring_network,
    two_tier_network,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURE_NAME = "network_fixtures.json"

#: Reference graphs and the cut-set order each analysis is pinned at.
#: ``None`` means complete enumeration (so the path lower bound exists);
#: the backbone mesh is bounded at order 3 to keep the test wall fast,
#: which also pins the bounded-order contract (no path lower bound).
#: The 66-element two-tier graph is bounded at order 2 — its exact
#: numbers come from the SDP evaluator; complete enumeration (and the
#: factored evaluator) are infeasible there, which is the point.
ANALYSIS_GRAPHS = (
    (line_network, None),
    (ring_network, None),
    (fat_tree_pod, None),
    (backbone_network, 3),
    (two_tier_network, 2),
)

#: Placement searches pinned by the fixture: (builder, k, method).
#: The local search runs with its default restarts/seed, so the pin
#: also guards the seeded-restart determinism contract.
PLACEMENT_SEARCHES = (
    (backbone_network, 1, "auto"),
    (backbone_network, 2, "auto"),
    (ring_network, 1, "greedy"),
    (backbone_network, 2, "local"),
    (two_tier_network, 1, "local"),
)


def campaign_graph() -> NetworkGraph:
    """The pinned campaign graph: small, stressed, with one SRG.

    Availabilities are deliberately poor (0.97-0.995) so replications
    accumulate plenty of failure/repair events over a short horizon.
    """
    return NetworkGraph(
        name="fixture-mesh",
        nodes=(
            NetworkNode("CTRL", kind="site", availability=0.995),
            NetworkNode("R1", kind="router", availability=0.99),
            NetworkNode("S1", availability=0.99),
            NetworkNode("S2", availability=0.985),
        ),
        links=(
            NetworkLink("LC", "CTRL", "R1", availability=0.98),
            NetworkLink("L1", "R1", "S1", availability=0.975, srg="G1"),
            NetworkLink("L2", "R1", "S2", availability=0.975, srg="G1"),
            NetworkLink("L3", "S1", "S2", availability=0.97),
        ),
        srgs=(SharedRiskGroup("G1", availability=0.995),),
    )


#: The pinned campaign: both network hazard kinds over the stressed mesh,
#: so the fixture exercises per-link flap clocks, held repairs, and
#: correlated SRG group failures in one event stream.
CAMPAIGN_SPEC = NetworkCampaignSpec(
    graph=campaign_graph(),
    horizon_hours=2_000.0,
    replications=3,
    seed=73,
    batches=4,
    node_mtbf_hours=400.0,
    link_mtbf_hours=250.0,
    srg_mtbf_hours=800.0,
    hazards=(
        LinkFlapSpec("kind:link", mtbf_hours=400.0, down_hours=0.5),
        SrgFailureSpec("G1", mtbf_hours=900.0),
    ),
)


def analysis_record(analysis) -> dict:
    """The numeric surface of one per-switch analysis, full precision."""
    return {
        "unavailability": analysis.unavailability,
        "union_bound": analysis.union_bound,
        "path_lower_bound": analysis.path_lower_bound,
        "cut_sets": len(analysis.cut_sets),
        "min_cut_order": analysis.min_cut_order,
    }


def campaign_record(result) -> dict:
    """Every float of one :class:`NetworkRunResult`, at full precision."""
    return {
        "seed": result.seed,
        "per_switch": {name: value for name, value in result.per_switch},
        "all_switches": result.all_switches,
        "events": result.events,
    }


def run_fixture_campaign(workers: int = 1):
    """The pinned campaign workload (shared with the determinism tests)."""
    return run_network_campaign(CAMPAIGN_SPEC, workers=workers)


def build_fixture() -> dict:
    analyses = {}
    for builder, max_order in ANALYSIS_GRAPHS:
        graph = builder()
        analyses[graph.name] = {
            "graph_hash": graph.graph_hash(),
            "max_order": max_order,
            "switches": {
                switch: analysis_record(
                    analyze_switch(graph, switch, max_order=max_order)
                )
                for switch in graph.switches
            },
        }
    placements = []
    for builder, k, method in PLACEMENT_SEARCHES:
        graph = builder()
        result = optimize_placement(graph, k=k, method=method)
        placements.append(
            {"graph": graph.name, "result": result.to_dict()}
        )
    campaign = run_fixture_campaign()
    return {
        "description": (
            "Pinned per-switch control-path analyses and placement "
            "searches for every reference graph (1e-12 agreement "
            "required) plus bit-exact per-replication outputs of the "
            "pinned hazard campaign (== equality required across worker "
            "counts and telemetry on/off)"
        ),
        "analysis": analyses,
        "placement": placements,
        "campaign": {
            "spec": CAMPAIGN_SPEC.to_dict(),
            "spec_hash": CAMPAIGN_SPEC.params_hash(),
            "seeds": list(campaign.seeds),
            "results": [campaign_record(r) for r in campaign.results],
            "injections": {
                kind: campaign.total_injections(kind)
                for kind in ("link_flap", "srg_failure")
            },
        },
    }


def regenerate(directory: Path = GOLDEN_DIR) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / FIXTURE_NAME
    target.write_text(
        json.dumps(build_fixture(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=GOLDEN_DIR,
        help="directory to write the fixture into (default: tests/golden)",
    )
    args = parser.parse_args(argv)
    print(f"wrote {regenerate(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
