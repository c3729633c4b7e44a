"""Campaign job queue: determinism vs the CLI path, admission, telemetry."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import telemetry
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
)
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.protocol import Request


def run(coroutine):
    return asyncio.run(coroutine)


def make_request(method, path, payload=None, tenant=None):
    headers = {}
    if tenant:
        headers["x-tenant"] = tenant
    body = json.dumps(payload).encode() if payload is not None else b""
    return Request(
        method=method,
        target=path,
        path=path,
        query={},
        headers=headers,
        body=body,
    )


async def submit_and_wait(app, kind, spec, tenant="tester", timeout=120.0):
    """Submit one job through the full request path and poll to completion."""
    response = await app.handle(
        make_request(
            "POST", "/v1/jobs", {"kind": kind, "spec": spec}, tenant=tenant
        )
    )
    assert response.status == 202, response.body
    job_id = json.loads(response.body)["id"]

    async def poll():
        while True:
            status = await app.handle(
                make_request("GET", f"/v1/jobs/{job_id}")
            )
            record = json.loads(status.body)
            if record["state"] in ("done", "failed"):
                return record
            await asyncio.sleep(0.02)

    return await asyncio.wait_for(poll(), timeout=timeout)


CAMPAIGN_SPEC = {
    "option": "1S",
    "horizon_hours": 300.0,
    "replications": 2,
    "seed": 7,
}

NETWORK_SPEC = {
    "graph": "line",
    "horizon_hours": 200.0,
    "replications": 2,
    "seed": 11,
    "node_mtbf_hours": 100.0,
    "link_mtbf_hours": 80.0,
}


class TestJobDeterminism:
    @pytest.mark.slow
    def test_campaign_job_equals_cli_path(self):
        """A server-run campaign is ``==`` to the CLI's crossval payload."""
        from repro.faults.campaign import CampaignSpec
        from repro.faults.crossval import evaluate_campaign
        from repro.reporting.faults import crossval_payload

        async def scenario():
            app = ServeApp(ServeConfig())
            await app.start()
            try:
                return await submit_and_wait(
                    app, "campaign", CAMPAIGN_SPEC
                )
            finally:
                await app.stop()

        record = run(scenario())
        assert record["state"] == "done", record.get("error")

        # The exact functions `repro-avail faults --json` goes through.
        spec = CampaignSpec.from_dict(CAMPAIGN_SPEC)
        local = crossval_payload(evaluate_campaign(spec, workers=1))
        assert record["result"] == json.loads(json.dumps(local))
        assert record["spec_hash"] == spec.params_hash()

    @pytest.mark.slow
    def test_network_job_equals_library_run(self):
        from repro.network.campaign import (
            NetworkCampaignSpec,
            run_network_campaign,
        )
        from repro.topology.network_reference import reference_network

        async def scenario():
            app = ServeApp(ServeConfig())
            await app.start()
            try:
                return await submit_and_wait(
                    app, "network_campaign", NETWORK_SPEC
                )
            finally:
                await app.stop()

        record = run(scenario())
        assert record["state"] == "done", record.get("error")

        local_spec = NetworkCampaignSpec(
            graph=reference_network("line"),
            horizon_hours=NETWORK_SPEC["horizon_hours"],
            replications=NETWORK_SPEC["replications"],
            seed=NETWORK_SPEC["seed"],
            node_mtbf_hours=NETWORK_SPEC["node_mtbf_hours"],
            link_mtbf_hours=NETWORK_SPEC["link_mtbf_hours"],
        )
        local = run_network_campaign(local_spec, workers=1)
        result = record["result"]
        assert result["per_switch"] == local.per_switch()
        assert result["fleet_availability"] == local.fleet_availability()
        assert (
            result["all_switches_availability"]
            == local.all_switches_availability()
        )
        assert result["seeds"] == list(local.seeds)
        assert record["spec_hash"] == local_spec.params_hash()

    def test_sharding_is_stable(self):
        async def scenario():
            app = ServeApp(ServeConfig(shards=4))
            # Workers never started: jobs stay queued, shard is inspectable.
            first = await app.handle(
                make_request(
                    "POST",
                    "/v1/jobs",
                    {"kind": "campaign", "spec": CAMPAIGN_SPEC},
                )
            )
            second = await app.handle(
                make_request(
                    "POST",
                    "/v1/jobs",
                    {"kind": "campaign", "spec": CAMPAIGN_SPEC},
                )
            )
            return json.loads(first.body), json.loads(second.body)

        first, second = run(scenario())
        assert first["spec_hash"] == second["spec_hash"]
        assert first["shard"] == second["shard"]
        assert first["shard"] == int(first["spec_hash"], 16) % 4
        assert first["id"] != second["id"]


class TestAdmission:
    def test_controller_sheds_at_queue_depth(self):
        controller = AdmissionController(AdmissionPolicy(max_queue_depth=2))
        controller.admit("a")
        controller.admit("b")
        with pytest.raises(AdmissionError):
            controller.admit("c")
        assert controller.shed_queue_full == 1
        controller.release("a")
        controller.admit("c")  # slot freed

    def test_controller_sheds_per_tenant(self):
        controller = AdmissionController(
            AdmissionPolicy(max_queue_depth=10, max_tenant_inflight=1)
        )
        controller.admit("noisy")
        with pytest.raises(AdmissionError):
            controller.admit("noisy")
        controller.admit("quiet")  # other tenants unaffected
        assert controller.shed_tenant_cap == 1

    def test_release_without_admit_is_an_error(self):
        from repro.errors import ServeError

        controller = AdmissionController()
        with pytest.raises(ServeError):
            controller.release("ghost")

    def test_http_submissions_shed_with_429(self):
        async def scenario():
            app = ServeApp(
                ServeConfig(
                    admission=AdmissionPolicy(
                        max_queue_depth=8, max_tenant_inflight=1
                    )
                )
            )
            # Workers never started, so admitted jobs stay in flight and
            # shedding decisions are deterministic.
            payload = {"kind": "campaign", "spec": CAMPAIGN_SPEC}
            first = await app.handle(
                make_request("POST", "/v1/jobs", payload, tenant="t1")
            )
            second = await app.handle(
                make_request("POST", "/v1/jobs", payload, tenant="t1")
            )
            other = await app.handle(
                make_request("POST", "/v1/jobs", payload, tenant="t2")
            )
            stats = await app.handle(make_request("GET", "/v1/stats"))
            return first, second, other, json.loads(stats.body)

        first, second, other, stats = run(scenario())
        assert first.status == 202
        assert second.status == 429
        assert "retry later" in json.loads(second.body)["error"]
        assert other.status == 202
        assert stats["admission"]["serve.admission.shed_tenant_cap"] == 1
        assert stats["admission"]["inflight"] == 2
        assert sum(stats["jobs"]["queue_depths"]) == 2

    def test_global_queue_cap_over_http(self):
        async def scenario():
            app = ServeApp(
                ServeConfig(
                    admission=AdmissionPolicy(
                        max_queue_depth=2, max_tenant_inflight=8
                    )
                )
            )
            payload = {"kind": "campaign", "spec": CAMPAIGN_SPEC}
            statuses = []
            for tenant in ("a", "b", "c"):
                response = await app.handle(
                    make_request("POST", "/v1/jobs", payload, tenant=tenant)
                )
                statuses.append(response.status)
            return statuses

        assert run(scenario()) == [202, 202, 429]


class TestJobValidation:
    def test_malformed_spec_is_400(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                make_request(
                    "POST",
                    "/v1/jobs",
                    {"kind": "campaign", "spec": {"bogus_field": 1}},
                )
            )

        response = run(scenario())
        assert response.status == 400
        assert "bogus_field" in json.loads(response.body)["error"]

    def test_unknown_kind_is_400(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                make_request(
                    "POST", "/v1/jobs", {"kind": "lottery", "spec": {}}
                )
            )

        response = run(scenario())
        assert response.status == 400

    def test_missing_spec_is_400(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                make_request("POST", "/v1/jobs", {"kind": "campaign"})
            )

        response = run(scenario())
        assert response.status == 400

    def test_unknown_job_id_is_404(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                make_request("GET", "/v1/jobs/job-999999-deadbeef")
            )

        response = run(scenario())
        assert response.status == 404

    def test_unknown_reference_graph_is_400(self):
        async def scenario():
            app = ServeApp(ServeConfig())
            return await app.handle(
                make_request(
                    "POST",
                    "/v1/jobs",
                    {
                        "kind": "network_campaign",
                        "spec": {"graph": "moebius"},
                    },
                )
            )

        response = run(scenario())
        assert response.status == 400
        assert "moebius" in json.loads(response.body)["error"]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_per_job_below_one_rejected(self, workers):
        """``repro-avail serve --workers 0`` must not start a server whose
        scalar jobs would each fail at dispatch."""
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="workers_per_job must be >= 1"):
            ServeApp(ServeConfig(workers_per_job=workers))


class TestJobTelemetry:
    @pytest.mark.slow
    def test_lifecycle_events_are_emitted(self):
        sink = telemetry.AggregatorSink()
        telemetry.start([sink])
        try:

            async def scenario():
                app = ServeApp(ServeConfig())
                await app.start()
                try:
                    return await submit_and_wait(
                        app, "campaign", CAMPAIGN_SPEC
                    )
                finally:
                    await app.stop()

            record = run(scenario())
        finally:
            telemetry.stop()
        assert record["state"] == "done"
        assert sink.counts.get("serve.job.start") == 1
        assert sink.counts.get("serve.job.end") == 1
        end = sink.last["serve.job.end"]
        assert end["state"] == "done"
        assert end["job_id"] == record["id"]
        assert sink.counts.get("serve.start") == 1
        assert sink.counts.get("serve.stop") == 1
        assert sink.counts.get("metrics", 0) >= 1
