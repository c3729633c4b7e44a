"""Scalar-vs-batched equivalence of the lockstep replication kernel.

``tests/golden/sim_batched_fixtures.json`` pins every measured float of
one expressible campaign generated by the **scalar** engine; this suite
replays the campaign through both engines and requires ``==`` equality —
no tolerances.  It also covers the dispatch policy: silent fallback to
the scalar engine on inexpressible workloads under ``batched="auto"``,
hard errors under ``batched="on"``, chunk-size invariance, and the
memory-bounded chunk sizing helper.
"""

from __future__ import annotations

import json

import pytest

import repro.sim.batched as batched_mod
from repro.errors import ParameterError, SimulationError
from repro.faults import CampaignSpec, MaintenanceSpec, run_campaign
from repro.perf.batching import replication_batch_size
from repro.sim.batched import (
    inexpressible_reason,
    plan_batched,
    validate_batched_mode,
)
from repro.params.software import RestartScenario
from tests.regen_batched_fixtures import (
    CAMPAIGN_SPEC,
    FIXTURE_NAME,
    GOLDEN_DIR,
    result_record,
    run_fixture_campaign,
)

FIXTURE_PATH = GOLDEN_DIR / FIXTURE_NAME


@pytest.fixture(scope="module")
def pinned() -> dict:
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"{FIXTURE_PATH} missing; run "
            f"`PYTHONPATH=src python -m tests.regen_batched_fixtures`"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def _records(campaign) -> list[dict]:
    return [result_record(r) for r in campaign.replications.results]


class TestGoldenEquivalence:
    def test_scalar_engine_matches_pinned(self, pinned):
        campaign = run_fixture_campaign(batched="off")
        assert _records(campaign) == pinned["results"]
        assert list(campaign.replications.seeds) == pinned["seeds"]
        assert [s["events"] for s in campaign.stats] == pinned["events"]

    def test_batched_kernel_matches_pinned(self, pinned):
        """The kernel reproduces the scalar floats exactly — == equality on
        availabilities, intervals, outage statistics, and the complete
        attribution ledgers."""
        campaign = run_fixture_campaign(batched="on")
        assert _records(campaign) == pinned["results"]
        assert list(campaign.replications.seeds) == pinned["seeds"]

    def test_batched_campaign_stats_are_synthesized(self):
        campaign = run_fixture_campaign(batched="on")
        for stat in campaign.stats:
            assert stat["injections"] == {}
            assert stat["repair_max_queue_depth"] == 0
            assert stat["events"] > 0

    def test_chunked_dispatch_is_invariant(self, pinned, monkeypatch):
        """Splitting replications into small kernel chunks changes nothing:
        each chunk re-derives its per-replication streams from the same
        seeds."""
        monkeypatch.setattr(
            batched_mod, "replication_batch_size", lambda *a, **k: 2
        )
        campaign = run_fixture_campaign(batched="on")
        assert _records(campaign) == pinned["results"]


class TestFallbackPolicy:
    HAZARD_SPEC = CampaignSpec(
        option="1S",
        horizon_hours=300.0,
        replications=2,
        seed=5,
        batches=2,
        hazards=(
            MaintenanceSpec(
                "host:H2",
                start_hours=50.0,
                period_hours=200.0,
                duration_hours=10.0,
            ),
        ),
    )

    def test_auto_silently_falls_back_on_hazards(self, monkeypatch):
        """A maintenance-window campaign under ``auto`` never touches the
        kernel and returns exactly the scalar results."""
        calls = []
        original = batched_mod._run_chunk

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(batched_mod, "_run_chunk", spy)
        auto = run_campaign(self.HAZARD_SPEC, batched="auto")
        assert calls == []
        scalar = run_campaign(self.HAZARD_SPEC, batched="off")
        assert _records(auto) == _records(scalar)
        assert auto.total_injections() == scalar.total_injections()

    def test_on_raises_for_hazard_campaign(self):
        with pytest.raises(SimulationError, match="batched='on'"):
            run_campaign(self.HAZARD_SPEC, batched="on")

    def test_on_raises_for_scenario_2(self):
        spec = CampaignSpec(
            option="2S", horizon_hours=200.0, replications=2, seed=3,
            batches=2,
        )
        with pytest.raises(SimulationError, match="batched='on'"):
            run_campaign(spec, batched="on")

    def test_repair_crews_are_inexpressible(self):
        reason = inexpressible_reason(
            RestartScenario.NOT_REQUIRED, (), repair_crews=2
        )
        assert reason is not None and "crews" in reason

    def test_bad_mode_rejected(self):
        with pytest.raises(SimulationError, match="batched must be"):
            validate_batched_mode("sometimes")
        with pytest.raises(SimulationError, match="batched must be"):
            run_campaign(CAMPAIGN_SPEC, batched="sometimes")


class TestReplicationDispatch:
    def test_run_replications_on_off_identical(self):
        from tests.regen_sim_fixtures import run_fixture_replications

        def records(merged):
            return [result_record(r) for r in merged.results]

        # The pinned replication workload is expressible, so "auto" uses
        # the kernel; "off" forces the scalar engine.  Same floats.
        via_kernel = run_fixture_replications()
        scalar = _force_scalar_replications(run_fixture_replications)
        assert records(via_kernel) == records(scalar)

    def test_plan_rejects_scenario_2(self):
        from repro.faults.campaign import materialize

        spec = CampaignSpec(option="2S", horizon_hours=100.0)
        controller, topology, hardware, software, scenario = materialize(
            spec
        )
        from repro.sim.controller_sim import SimulationConfig

        model, reason = plan_batched(
            controller, topology, hardware, software, scenario,
            SimulationConfig(),
        )
        assert model is None
        assert "scenario 2" in reason


def _ring_network_campaign(workers):
    from repro.network.campaign import (
        NetworkCampaignSpec,
        run_network_campaign,
    )
    from repro.topology.network_reference import reference_network

    spec = NetworkCampaignSpec(
        graph=reference_network("ring"), horizon_hours=100.0, replications=2
    )
    return run_network_campaign(spec, workers=workers)


def _replications(workers):
    from tests.regen_sim_fixtures import run_fixture_replications

    return run_fixture_replications(workers=workers)


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize(
    "runner",
    [
        lambda workers: run_campaign(CAMPAIGN_SPEC, workers=workers),
        lambda workers: run_campaign(
            CampaignSpec(option="2S", horizon_hours=100.0, replications=2),
            workers=workers,
        ),
        _ring_network_campaign,
        _replications,
    ],
    ids=["1S-hazard-free", "2S", "ring-network", "replications"],
)
def test_runners_reject_workers_below_one(runner, workers):
    """Every runner checks ``workers`` before it picks an engine, so the
    lockstep kernel (which ignores ``workers``) does not mask a bad count."""
    with pytest.raises(ParameterError, match="workers must be >= 1"):
        runner(workers)


def _force_scalar_replications(runner):
    """Run the pinned replication workload with ``batched="off"``."""
    import functools

    from repro.sim import replicate

    original = replicate.run_replications

    def forced(*args, **kwargs):
        kwargs["batched"] = "off"
        return original(*args, **kwargs)

    replicate.run_replications = functools.wraps(original)(forced)
    try:
        import tests.regen_sim_fixtures as fixtures

        saved = fixtures.run_replications
        fixtures.run_replications = forced
        try:
            return runner()
        finally:
            fixtures.run_replications = saved
    finally:
        replicate.run_replications = original


class TestBatchSizing:
    def test_caps_at_replications(self):
        assert replication_batch_size(8, 76) == 8

    def test_memory_bound_kicks_in(self):
        rows = replication_batch_size(10**9, 76)
        assert 1 <= rows < 10**9

    def test_floor_of_one_row(self):
        assert replication_batch_size(4, 10**9, budget_bytes=1) == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            replication_batch_size(0, 76)
        with pytest.raises(SimulationError):
            replication_batch_size(4, 0)
        with pytest.raises(SimulationError):
            replication_batch_size(4, 76, budget_bytes=0)
