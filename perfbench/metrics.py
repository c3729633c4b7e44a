"""The metric table of a run and the per-layer figures of a traced run.

Names, units and directions live in ``BENCHMARK.json`` only.
"""

from __future__ import annotations

import json

from common import ROOT, median

import spans


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


#: Bare-run figures a traced run reports from its bare arm, by per-layer
#: name.  They are CPU-bound wall times (or, for the jobs p90, set by
#: whether a stall lands in the window) that moved by up to 30% between
#: two sets of ten runs on a shared 2-core Xeon VM, beyond 0.25, the
#: largest bound an end-to-end metric may carry.
BARE_FIGURES = {
    "study_s": "study.pipeline_s",
    "sweep_s": "study.sweep_s",
    "campaign_s": "study.campaign_s",
    "batched_campaign_s": "study.batched_campaign_s",
    "placement_s": "study.placement_s",
    "job_turnaround_s": "serve.jobs.turnaround_s",
    "jobs_query_p90_ms": "serve.jobs.query_p90_ms",
}


def table(values: dict, traced: bool) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric of the run's kind."""
    section = "per_layer" if traced else "end_to_end"
    return {
        metric["name"]: {
            "value": float(values[metric["name"]]), "unit": metric["unit"],
        }
        for metric in spec()[section]
    }


def _row(summary: dict, name: str) -> dict:
    return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})


def _measured(phase: dict) -> dict:
    """Span summary of a server's measured slices, warm-up excluded (the
    client's and server's ``perf_counter`` share the system clock)."""
    return spans.summarize(
        [s for s in phase["spans"] if s["start"] >= phase["measured_from"]]
    )


def _serve_layers(bare_serve: dict, serve: dict) -> dict:
    query, jobs = serve["serve_query"], serve["serve_jobs"]
    queries = _measured(query)
    stats = query["stats"]
    cache = stats["cache"]
    lookups = sum(cache[f"serve.cache.{k}"] for k in ("hits", "misses", "coalesced"))
    batches = sum(b["serve.batch.batches"] for b in stats["batch"].values())
    batched = sum(b["serve.batch.requests"] for b in stats["batch"].values())
    jobs_stats = jobs["stats"]
    admission = jobs_stats["admission"]
    done = [status for _, status in jobs["statuses"]]
    return {
        "serve.app.requests": _row(queries, "serve.app")["calls"],
        "serve.app.self_s": _row(queries, "serve.app")["self_s"],
        "serve.protocol.decode_s": _row(queries, "serve.protocol.decode")["s"],
        "serve.protocol.encode_s": _row(queries, "serve.protocol.encode")["s"],
        "serve.cache.hit_ratio": cache["serve.cache.hits"] / max(1, lookups),
        "serve.cache.coalesced": cache["serve.cache.coalesced"],
        "serve.cache.evictions": cache["serve.cache.evictions"],
        "serve.cache.self_s": _row(queries, "serve.cache")["self_s"],
        "serve.batching.batches": batches,
        "serve.batching.mean_batch": batched / max(1, batches),
        "serve.batching.wait_s": stats["segments"]["batch_assembly"][
            "total_seconds"
        ],
        "perf.vectorized.hw_calls": _row(queries, "perf.vectorized.hw")["calls"],
        "perf.vectorized.hw_s": _row(queries, "perf.vectorized.hw")["s"],
        "models.sw_options.calls": _row(queries, "models.sw_options")["calls"],
        "models.sw_options.s": _row(queries, "models.sw_options")["s"],
        "network.paths.calls": _row(queries, "network.paths")["calls"],
        "network.paths.s": _row(queries, "network.paths")["s"],
        "serve.admission.shed": admission["serve.admission.shed_queue_full"]
        + admission["serve.admission.shed_tenant_cap"],
        "serve.jobs.queue_wait_s": sum(s["queue_wait_seconds"] for s in done),
        "serve.jobs.run_s": sum(s["elapsed_seconds"] for s in done),
        "serve.jobs.completed": jobs_stats["jobs"]["serve.jobs.completed"],
        "serve.jobs.failed": jobs_stats["jobs"]["serve.jobs.failed"],
        "faults.crossval.s": _row(_measured(jobs), "faults.crossval")["s"],
        "bench.client.lateness_p99_ms": bare_serve["serve_query"][
            "lateness_p99_ms"
        ],
    }


def _scalar_campaign_seconds(trace: list[dict]) -> float:
    """The ``run_campaign`` span that dispatched to the warm pool."""
    pooled = {s["parent"] for s in trace if s["name"] == "perf.parallel.map"}
    return sum(
        s["end"] - s["start"]
        for s in trace
        if s["name"] == "faults.campaign" and s["id"] in pooled
    )


def _study_pass(record: dict, rerun: dict) -> dict:
    summary = spans.summarize(record["spans"])
    stats = record["campaign"]["stats"]
    events = sum(stat["events"] for stat in stats)
    purged = sum(stat["events_purged"] for stat in stats)
    compile_row = _row(summary, "network.batch.compile")
    batched = _row(summary, "sim.batched.run")
    placement = _row(summary, "network.placement")
    return {
        "models.hw_closed.s": _row(summary, "models.hw_closed")["s"],
        "models.sw.s": _row(summary, "models.sw")["s"],
        "models.dataplane.s": _row(summary, "models.dataplane")["s"],
        "models.engine.calls": _row(summary, "models.engine")["calls"],
        "models.engine.s": _row(summary, "models.engine")["s"],
        "faults.campaign.s": _scalar_campaign_seconds(record["spans"]),
        "sim.engine.events": events,
        "sim.engine.events_per_s": rerun["scalar_events"] / rerun["scalar_s"],
        "sim.engine.purged_share": purged / max(1, events + purged),
        "faults.hazards.injections": sum(
            sum(stat["injections"].values()) for stat in stats
        ),
        "perf.parallel.pool_spawn_s": _row(
            summary, "perf.parallel.pool_spawn"
        )["s"],
        "perf.parallel.map_s": _row(summary, "perf.parallel.map")["s"],
        "sim.batched.plan_s": _row(summary, "sim.batched.plan")["s"],
        "sim.batched.run_s": batched["s"],
        "sim.batched.live_events": batched.get("live_events", 0),
        "sim.batched.events_per_s": batched.get("live_events", 0)
        / max(batched["s"], 1e-9),
        "core.sdp.calls": _row(summary, "core.sdp")["calls"],
        "core.sdp.s": _row(summary, "core.sdp")["s"],
        "network.batch.compile_s": compile_row["s"],
        "network.batch.unique_terms": compile_row.get("unique_terms", 0),
        "network.batch.dedup_ratio": compile_row.get("unique_terms", 0)
        / max(1, compile_row.get("total_terms", 0)),
        "network.batch.evaluate_s": _row(summary, "network.batch.evaluate")["s"],
        "network.batch.pairs": _row(summary, "network.batch.evaluate").get(
            "pairs", 0
        ),
        "network.placement.evaluations": record["placement"]["evaluations"],
        "network.placement.self_s": placement["self_s"],
    }


def per_layer(bare: tuple, traced: tuple, rerun: dict) -> dict:
    """Per-layer figures from the traced arm, overhead against the bare arm
    that ran in turns with it."""
    bare_figures, bare_serve, _ = bare
    figures, serve, records = traced
    values = _serve_layers(bare_serve, serve)
    passes = [_study_pass(record, rerun) for record in records]
    for name in passes[0]:
        values[name] = median([one[name] for one in passes])
    values["obs.overhead.serve_query"] = (
        figures["query_p50_ms"] / bare_figures["query_p50_ms"]
    )
    values["obs.overhead.serve_jobs"] = (
        figures["job_turnaround_s"] / bare_figures["job_turnaround_s"]
    )
    values["obs.overhead.study"] = figures["study_s"] / bare_figures["study_s"]
    for figure, name in BARE_FIGURES.items():
        values[name] = bare_figures[figure]
    return values
