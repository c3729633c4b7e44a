"""Sharded campaign job queue for the availability service.

Monte-Carlo campaigns take seconds to minutes — far too long for a
request/response cycle — so the service runs them asynchronously: a
``POST /v1/jobs`` submission is validated, admitted (or shed with 429 by
:mod:`repro.serve.admission`), assigned a job id, and enqueued; clients
poll ``GET /v1/jobs/<id>`` until the state is ``done`` or ``failed``.

**Sharding** — jobs land on ``shards`` independent FIFO queues keyed by
their canonical spec hash (``int(spec_hash, 16) % shards``), each drained
by one worker task.  Identical resubmissions therefore serialize on the
same shard (natural dedup pressure) while distinct campaigns spread across
shards and run concurrently.

**Determinism** — execution calls the exact library entry points the CLI
uses (:func:`repro.faults.crossval.evaluate_campaign` →
:func:`repro.reporting.faults.crossval_payload`, and
:func:`repro.network.campaign.run_network_campaign`), with the spec's own
seed.  Campaign results are bit-identical across worker counts by
construction, so a job's payload is ``==`` to what a CLI run of the same
spec produces; ``tests/test_serve_jobs.py`` pins that equality.

Workers execute jobs via :func:`asyncio.to_thread`, so the event loop
keeps serving queries while campaigns run; the blocking campaign code may
itself fan out over the warm process pool.

**Tracing** — each job gets a :class:`~repro.obs.trace.TraceContext` that
is a child of the submitting request's span (or a fresh root when none is
in scope), and executes inside a :func:`repro.obs.telemetry.scope`
carrying ``job_id`` / ``trace_id`` / ``span_id`` — contextvars survive the
``asyncio.to_thread`` hop, so every ``progress`` and ``replications.*``
event the campaign emits is stamped with the job that produced it.  That
stamp is what lets ``GET /v1/jobs/<id>/events`` filter the firehose down
to one job's stream.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ReproError, ServeError
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, current_trace, trace_scope
from repro.serve.admission import AdmissionController
from repro.serve.protocol import ProtocolError

__all__ = ["DEFAULT_SHARDS", "Job", "JobQueue"]

#: Default shard count — enough to overlap a handful of tenants' campaigns
#: without spawning a thread per job.
DEFAULT_SHARDS = 2


@dataclass
class Job:
    """One submitted campaign job and its lifecycle record."""

    id: str
    kind: str  # "campaign" | "network_campaign"
    tenant: str
    spec_hash: str
    shard: int
    spec: Any
    workers: int
    state: str = "queued"  # queued -> running -> done | failed
    trace: TraceContext | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None

    @property
    def queue_wait_seconds(self) -> float | None:
        """Time spent queued before a shard worker picked the job up."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def status(self) -> dict[str, Any]:
        """The JSON status record served to polling clients."""
        record: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "tenant": self.tenant,
            "spec_hash": self.spec_hash,
            "shard": self.shard,
            "state": self.state,
        }
        if self.trace is not None:
            record["trace_id"] = self.trace.trace_id
        if self.started_at is not None:
            record["queue_wait_seconds"] = self.queue_wait_seconds
        if self.started_at is not None and self.finished_at is not None:
            record["elapsed_seconds"] = self.finished_at - self.started_at
        if self.state == "done":
            record["result"] = self.result
        elif self.state == "failed":
            record["error"] = self.error
        return record


def _build_campaign_job(payload: Mapping[str, Any]) -> tuple[str, Any, str]:
    from repro.faults.campaign import CampaignSpec

    try:
        spec = CampaignSpec.from_dict(payload)
    except ReproError as error:
        raise ProtocolError(f"invalid campaign spec: {error}") from None
    return "campaign", spec, spec.params_hash()


def _build_network_job(payload: Mapping[str, Any]) -> tuple[str, Any, str]:
    from repro.network.campaign import NetworkCampaignSpec
    from repro.topology.network_reference import reference_network

    record = dict(payload)
    graph = record.get("graph")
    if isinstance(graph, str):
        # Accept a reference-topology name in place of a full graph dict.
        try:
            record["graph"] = reference_network(graph).to_dict()
        except ReproError as error:
            raise ProtocolError(
                f"unknown reference network {graph!r}: {error}"
            ) from None
    try:
        spec = NetworkCampaignSpec.from_dict(record)
    except ReproError as error:
        raise ProtocolError(
            f"invalid network-campaign spec: {error}"
        ) from None
    return "network_campaign", spec, spec.params_hash()


def _run_campaign_job(spec: Any, workers: int) -> dict[str, Any]:
    from repro.faults.crossval import evaluate_campaign
    from repro.reporting.faults import crossval_payload

    crossval = evaluate_campaign(spec, workers=workers)
    return crossval_payload(crossval)


def _run_network_job(spec: Any, workers: int) -> dict[str, Any]:
    from repro.network.campaign import run_network_campaign

    result = run_network_campaign(spec, workers=workers)
    return {
        "spec_hash": spec.params_hash(),
        "per_switch": result.per_switch(),
        "fleet_availability": result.fleet_availability(),
        "all_switches_availability": result.all_switches_availability(),
        "injections": result.total_injections(),
        "seeds": list(result.seeds),
    }


_BUILDERS = {
    "campaign": _build_campaign_job,
    "network_campaign": _build_network_job,
}

_RUNNERS = {
    "campaign": _run_campaign_job,
    "network_campaign": _run_network_job,
}


class JobQueue:
    """Sharded FIFO queues of campaign jobs, drained by worker tasks."""

    def __init__(
        self,
        admission: AdmissionController | None = None,
        shards: int = DEFAULT_SHARDS,
        workers_per_job: int = 1,
        registry: MetricsRegistry | None = None,
    ):
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        if workers_per_job < 1:
            raise ServeError(
                f"workers_per_job must be >= 1, got {workers_per_job}"
            )
        self.admission = admission or AdmissionController()
        self.shards = int(shards)
        self.workers_per_job = int(workers_per_job)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._queues: list[asyncio.Queue[Job]] = [
            asyncio.Queue() for _ in range(self.shards)
        ]
        self._workers: list[asyncio.Task] = []
        self._jobs: dict[str, Job] = {}
        self._sequence = 0
        self.completed = 0
        self.failed = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn one drain task per shard (idempotent)."""
        if self._workers:
            return
        for shard in range(self.shards):
            self._workers.append(
                asyncio.create_task(
                    self._drain(shard), name=f"serve-jobs-shard-{shard}"
                )
            )

    async def stop(self) -> None:
        """Cancel shard workers; running jobs finish their thread first."""
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()

    async def join(self) -> None:
        """Block until every queued job has been executed (tests, drain)."""
        for queue in self._queues:
            await queue.join()

    # -- submission and polling -----------------------------------------------

    def submit(self, kind: str, payload: Mapping[str, Any], tenant: str) -> Job:
        """Validate, admit, and enqueue one job; returns its record.

        Raises :class:`ProtocolError` (400) for malformed specs and
        :class:`~repro.serve.admission.AdmissionError` (429) when shed.
        """
        builder = _BUILDERS.get(kind)
        if builder is None:
            raise ProtocolError(
                f"unknown job kind {kind!r} "
                f"(expected one of {sorted(_BUILDERS)})"
            )
        if not isinstance(payload, Mapping):
            raise ProtocolError("job spec must be a JSON object")
        kind, spec, spec_hash = builder(payload)
        self.admission.admit(tenant)
        self._sequence += 1
        shard = int(spec_hash, 16) % self.shards
        parent = current_trace()
        job = Job(
            id=f"job-{self._sequence:06d}-{spec_hash[:8]}",
            kind=kind,
            tenant=tenant,
            spec_hash=spec_hash,
            shard=shard,
            spec=spec,
            workers=self.workers_per_job,
            trace=parent.child() if parent is not None else TraceContext.new(),
        )
        self._jobs[job.id] = job
        self._queues[shard].put_nowait(job)
        telemetry.emit(
            "serve.job.start",
            job_id=job.id,
            job_kind=job.kind,
            tenant=job.tenant,
            spec_hash=job.spec_hash,
            shard=job.shard,
            trace_id=job.trace.trace_id,
        )
        return job

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job id {job_id!r}", status=404)
        return job

    def queue_depths(self) -> list[int]:
        return [queue.qsize() for queue in self._queues]

    def counters(self) -> dict[str, int]:
        """Current counter values, keyed for the metrics registry."""
        return {
            "serve.jobs.submitted": self._sequence,
            "serve.jobs.completed": self.completed,
            "serve.jobs.failed": self.failed,
        }

    # -- execution ------------------------------------------------------------

    async def _drain(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            job = await queue.get()
            try:
                await self._execute(job)
            finally:
                queue.task_done()

    async def _execute(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.monotonic()
        self.registry.histogram("serve.jobs.queue_wait_seconds").observe(
            job.queue_wait_seconds or 0.0
        )
        runner = _RUNNERS[job.kind]
        trace = job.trace
        stamp: dict[str, Any] = {"job_id": job.id}
        if trace is not None:
            stamp["trace_id"] = trace.trace_id
            stamp["span_id"] = trace.span_id
        try:
            # The scope (and trace) ride the contextvars snapshot into the
            # worker thread: every event the campaign emits is stamped
            # with this job's identity and trace.
            with telemetry.scope(**stamp):
                with trace_scope(trace):
                    telemetry.emit(
                        "serve.job.running",
                        job_kind=job.kind,
                        tenant=job.tenant,
                        shard=job.shard,
                        queue_wait_seconds=job.queue_wait_seconds,
                    )
                    job.result = await asyncio.to_thread(
                        runner, job.spec, job.workers
                    )
        except asyncio.CancelledError:
            job.state = "failed"
            job.error = "server shut down before the job finished"
            raise
        except Exception as error:
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            self.failed += 1
        else:
            job.state = "done"
            self.completed += 1
        finally:
            job.finished_at = time.monotonic()
            self.admission.release(job.tenant)
            end_fields: dict[str, Any] = {
                "job_id": job.id,
                "job_kind": job.kind,
                "tenant": job.tenant,
                "state": job.state,
                "elapsed_seconds": job.finished_at - job.started_at,
            }
            if trace is not None:
                end_fields["trace_id"] = trace.trace_id
            telemetry.emit("serve.job.end", **end_fields)
