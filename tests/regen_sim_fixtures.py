"""Regenerate the simulation-engine determinism fixtures.

Run from the repository root::

    PYTHONPATH=src python -m tests.regen_sim_fixtures

The fixtures pin the *exact* per-replication outputs (every float at full
precision) of one fault-injection campaign and one plain replication run.
``tests/test_sim_engine_determinism.py`` re-runs both workloads — across
worker counts, warm/cold pools, and tracing on/off — and requires
bit-identical equality (``==``, no tolerance), so any engine change that
perturbs an event stream, an RNG draw order, or a signal integration fails
loudly.

The committed fixtures were generated from the pre-optimization engine
(PR 3); the hot-path overhaul (batched RNG, cached effective state, slotted
tuple-entry event queue, warm-pool dispatch) is required to reproduce them
exactly.  Regenerate (and commit the diff) only when a change is *supposed*
to alter the event stream, and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.faults import (
    CampaignSpec,
    CommonCauseSpec,
    MaintenanceSpec,
    RackPowerSpec,
    run_campaign,
)
from repro.models.sw_options import parse_option
from repro.controller.opencontrail import opencontrail_3x
from repro.params.hardware import HardwareParams
from repro.params.software import SoftwareParams
from repro.sim.controller_sim import SimulationConfig
from repro.sim.replicate import run_replications
from repro.topology.reference import reference_topology

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURE_NAME = "sim_engine_fixtures.json"

#: The pinned campaign: every hazard type plus limited crews, so the fixture
#: exercises stochastic clocks, correlated group failures, held maintenance
#: windows, and FIFO crew queueing in one event stream.
CAMPAIGN_SPEC = CampaignSpec(
    option="1S",
    horizon_hours=600.0,
    replications=3,
    seed=97,
    batches=4,
    hazards=(
        CommonCauseSpec("role:Control", 0.4),
        RackPowerSpec(mtbf_hours=3000.0),
        MaintenanceSpec(
            "host:H2",
            start_hours=100.0,
            period_hours=500.0,
            duration_hours=25.0,
        ),
    ),
    repair_crews=2,
)

#: The pinned plain-replication run (no hazards, stressed parameters).
REPLICATION_CONFIG = {
    "option": "1S",
    "seed": 11,
    "horizon_hours": 400.0,
    "batches": 4,
    "replications": 3,
    "a_process": 0.995,
    "a_unsupervised": 0.95,
    "process_mtbf_hours": 100.0,
    "a_vm": 0.998,
    "a_host": 0.998,
    "a_rack": 0.999,
    "rack_mtbf_hours": 2_000.0,
    "host_mtbf_hours": 1_000.0,
    "vm_mtbf_hours": 500.0,
}


def result_record(result) -> dict:
    """Every float of one :class:`SimulationResult`, at full precision."""
    return {
        "cp": result.cp,
        "sdp": result.shared_dp,
        "ldp": result.local_dp,
        "dp": result.dp,
        "outages": {
            name: {
                "count": stats.count,
                "frequency_per_hour": stats.frequency_per_hour,
                "mean_duration_hours": stats.mean_duration_hours,
            }
            for name, stats in sorted(result.outages.items())
        },
    }


def run_fixture_campaign(workers: int = 1):
    """The pinned campaign workload (shared with the determinism tests)."""
    return run_campaign(CAMPAIGN_SPEC, workers=workers)


def run_fixture_replications(workers: int = 1):
    """The pinned replication workload (shared with the determinism tests)."""
    cfg = REPLICATION_CONFIG
    spec = opencontrail_3x()
    scenario, topology_name = parse_option(cfg["option"])
    topology = reference_topology(topology_name, spec)
    hardware = HardwareParams(
        a_role=1.0,
        a_vm=cfg["a_vm"],
        a_host=cfg["a_host"],
        a_rack=cfg["a_rack"],
    )
    software = SoftwareParams.from_availabilities(
        cfg["a_process"],
        cfg["a_unsupervised"],
        mtbf_hours=cfg["process_mtbf_hours"],
    )
    config = SimulationConfig(
        seed=cfg["seed"],
        horizon_hours=cfg["horizon_hours"],
        batches=cfg["batches"],
        rack_mtbf_hours=cfg["rack_mtbf_hours"],
        host_mtbf_hours=cfg["host_mtbf_hours"],
        vm_mtbf_hours=cfg["vm_mtbf_hours"],
    )
    return run_replications(
        spec,
        topology,
        hardware,
        software,
        scenario,
        config=config,
        replications=cfg["replications"],
        workers=workers,
    )


def build_fixture() -> dict:
    campaign = run_fixture_campaign()
    replications = run_fixture_replications()
    return {
        "description": (
            "Bit-exact per-replication outputs of the pinned campaign and "
            "replication workloads; the determinism suite requires == "
            "equality across engine changes, worker counts, pool warmth, "
            "and tracing"
        ),
        "campaign": {
            "spec": CAMPAIGN_SPEC.to_dict(),
            "results": [
                result_record(r) for r in campaign.replications.results
            ],
            "seeds": list(campaign.replications.seeds),
        },
        "replications": {
            "config": dict(REPLICATION_CONFIG),
            "results": [
                result_record(r) for r in replications.results
            ],
            "seeds": list(replications.seeds),
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
