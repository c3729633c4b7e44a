"""Bit-exact determinism of the simulation engine across dispatch modes.

The hot-path overhaul (batched RNG, cached effective state, slotted
tuple-entry event queue, stale-event compaction, warm-pool dispatch)
claims the *exact* event streams and float accumulations of the engine it
replaced.  ``tests/golden/sim_engine_fixtures.json`` pins every
per-replication float of one hazard campaign and one plain replication
run, generated from the pre-overhaul engine; this suite requires ``==``
equality — no tolerances — against those fixtures:

* inline (workers=1),
* warm-pool (workers=4), cold and reused-warm,
* with an observability session tracing the run.

If an engine change is *supposed* to alter the event stream, regenerate
with ``PYTHONPATH=src python -m tests.regen_sim_fixtures`` and justify the
diff in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import runtime as obs
from repro.perf.parallel import shutdown_warm_pools, warm_pool_count
from tests.regen_sim_fixtures import (
    FIXTURE_NAME,
    GOLDEN_DIR,
    build_fixture,
    result_record,
    run_fixture_campaign,
    run_fixture_replications,
)

FIXTURE_PATH = GOLDEN_DIR / FIXTURE_NAME


@pytest.fixture(scope="module")
def pinned() -> dict:
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"{FIXTURE_PATH} missing; run "
            f"`PYTHONPATH=src python -m tests.regen_sim_fixtures`"
        )
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_warm_pools()


def _campaign_records(result) -> list[dict]:
    return [result_record(r) for r in result.replications.results]


def _replication_records(result) -> list[dict]:
    return [result_record(r) for r in result.results]


class TestInline:
    def test_full_fixture_reproduced(self, pinned):
        """The whole pinned document — specs, seeds, every float."""
        assert build_fixture() == pinned


class TestWorkerCounts:
    def test_campaign_workers_4_matches_pinned(self, pinned):
        result = run_fixture_campaign(workers=4)
        assert _campaign_records(result) == pinned["campaign"]["results"]
        assert list(result.replications.seeds) == pinned["campaign"]["seeds"]

    def test_replications_workers_4_matches_pinned(self, pinned):
        result = run_fixture_replications(workers=4)
        assert _replication_records(result) == pinned["replications"]["results"]
        assert list(result.seeds) == pinned["replications"]["seeds"]


class TestPoolWarmth:
    def test_cold_then_warm_pool_identical(self, pinned):
        shutdown_warm_pools()
        cold = run_fixture_campaign(workers=2)  # creates the pool
        assert warm_pool_count() >= 1
        warm = run_fixture_campaign(workers=2)  # reuses it
        expected = pinned["campaign"]["results"]
        assert _campaign_records(cold) == expected
        assert _campaign_records(warm) == expected


class TestTracing:
    def test_traced_runs_identical(self, pinned):
        """An active observability session must be purely observational."""
        with obs.session("determinism-suite"):
            inline = run_fixture_campaign(workers=1)
            pooled = run_fixture_campaign(workers=4)
            replications = run_fixture_replications(workers=1)
        expected = pinned["campaign"]["results"]
        assert _campaign_records(inline) == expected
        assert _campaign_records(pooled) == expected
        assert (
            _replication_records(replications)
            == pinned["replications"]["results"]
        )
