"""One pass of an analyst's batch study, run as a fresh process.

Usage::

    python3 perfbench/study.py CONFIG.json OUT.json [--trace SPANS.json]

The pass runs four stages through the library entry points the CLI uses
and writes their wall times, its own peak resident set, and every output
the benchmark checks to ``OUT.json``:

* ``sweep`` — the Fig. 3-5 series (:mod:`repro.analysis.figures`);
* ``campaign`` — a hazard-laden scalar fault campaign on two warm-pool
  workers (common cause, rack power, maintenance, two repair crews) with
  its analytic cross-check, as ``repro-avail faults`` runs it;
* ``batched_campaign`` — an expressible scenario-1 campaign forced onto the
  lockstep kernel (:mod:`repro.sim.batched`), planning included;
* ``placement`` — a cold ``method="local"`` controller placement on a
  ``two_tier`` graph over a pool that includes core routers.

With ``--trace`` the per-layer wrappers from :mod:`spans` are installed
before anything runs (so warm-pool workers fork with them in place) and
the recorded spans are written to ``SPANS.json`` at the end.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

STAGES = ("sweep", "campaign", "batched_campaign", "placement")


def campaign_hazards() -> list[dict]:
    """The hazards of the scalar campaign stage (JSON form)."""
    return [
        {"kind": "common_cause", "group": "role:Control", "beta": 0.3},
        {"kind": "rack_power", "mtbf_hours": 4000.0},
        {
            "kind": "maintenance",
            "target": "host:H2",
            "start_hours": 100.0,
            "period_hours": 700.0,
            "duration_hours": 20.0,
        },
    ]


def campaign_spec(config: dict):
    from repro.faults.campaign import CampaignSpec

    return CampaignSpec.from_dict(
        {
            "option": "1S",
            "horizon_hours": config["campaign_hours"],
            "replications": config["campaign_replications"],
            "seed": config["campaign_seed"],
            "hazards": campaign_hazards(),
            "repair_crews": 2,
        }
    )


def batched_spec(config: dict, replications: int | None = None):
    from repro.faults.campaign import CampaignSpec

    return CampaignSpec(
        option="1S",
        horizon_hours=config["batched_hours"],
        replications=replications or config["batched_replications"],
        seed=config["batched_seed"],
    )


def placement_graph(config: dict):
    from repro.topology.network_reference import two_tier_network

    return two_tier_network(regions=config["placement_regions"])


def result_rows(replications) -> list[list[float]]:
    """One row per replication: the four plane availabilities and CIs."""
    rows = []
    for result in replications.results:
        row = [result.cp, result.shared_dp, result.local_dp, result.dp]
        for name in sorted(result.intervals):
            interval = result.intervals[name]
            row += [interval.mean, interval.half_width]
        rows.append(row)
    return rows


def run_pass(config: dict) -> dict:
    """Run the four stages; returns timings and checkable outputs."""
    from repro.analysis import figures
    from repro.controller.opencontrail import opencontrail_3x
    from repro.faults import crossval
    from repro.network import placement
    from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE

    seconds: dict[str, float] = {}
    first_stage = time.monotonic()

    started = time.perf_counter()
    spec = opencontrail_3x()
    fig3 = figures.fig3_series(PAPER_HARDWARE, points=config["fig3_points"])
    fig4 = figures.fig4_series(
        spec, PAPER_HARDWARE, PAPER_SOFTWARE, points=config["fig45_points"]
    )
    fig5 = figures.fig5_series(
        spec, PAPER_HARDWARE, PAPER_SOFTWARE, points=config["fig45_points"]
    )
    seconds["sweep"] = time.perf_counter() - started

    started = time.perf_counter()
    scalar = crossval.evaluate_campaign(campaign_spec(config), workers=2)
    seconds["campaign"] = time.perf_counter() - started

    started = time.perf_counter()
    lockstep = crossval.evaluate_campaign(batched_spec(config), batched="on")
    seconds["batched_campaign"] = time.perf_counter() - started

    started = time.perf_counter()
    graph = placement_graph(config)
    chosen = placement.optimize_placement(
        graph,
        k=2,
        candidates=config["placement_candidates"],
        method="local",
        restarts=config["placement_restarts"],
        seed=config["placement_seed"],
    )
    seconds["placement"] = time.perf_counter() - started

    return {
        "first_stage_monotonic": first_stage,
        "seconds": seconds,
        "sweeps": {
            "fig3": fig3.series,
            "fig4": fig4.series,
            "fig5": fig5.series,
        },
        "campaign": {
            "rows": result_rows(scalar.result.replications),
            "stats": list(scalar.result.stats),
        },
        "batched_campaign": {
            "rows": result_rows(lockstep.result.replications),
            "stats": list(lockstep.result.stats),
        },
        "placement": {
            "sites": list(chosen.sites),
            "availability": chosen.availability,
            "per_switch": dict(chosen.per_switch),
            "evaluations": chosen.evaluations,
        },
    }


def main(argv: list[str]) -> int:
    config_path, out_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[3]) if argv[2:3] == ["--trace"] else None
    config = json.loads(config_path.read_text())
    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.install_study_wrappers()
    record = run_pass(config)
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out_path.write_text(json.dumps(record))
    if recorder is not None:
        recorder.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
