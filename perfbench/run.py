"""The repository benchmark: the availability service and the batch study.

Usage::

    python3 perfbench/run.py --workload hot_keys --seed 1 --seconds 45 --trace 0

Every run, whatever the workload, measures three phases, each one of the
ways the paper's models reach users:

* ``serve_query`` — open-loop queries (hw, option, network; no jobs)
  against a fresh ``repro-avail serve``: latency at a fixed nominal rate,
  and capacity, the rate answered with every connection kept busy;
* ``serve_jobs`` — the same generator at a lower rate beside a stream of
  campaign and network-campaign jobs, each polled to completion, on a
  second fresh server;
* ``study`` — an analyst's batch pipeline (Fig. 3-5 sweeps, a
  hazard-laden scalar campaign on two warm-pool workers, a lockstep
  campaign, a cold controller placement), each pass in a fresh process.

The phases run in interleaved rounds (a nominal slice, a saturated
slice, a jobs slice, one study pass), so each phase's samples span the
run.

The workload sets how many queries repeat a hot set of keys, which is what
decides whether the result cache or the compute path answers them.  All
inputs come from ``--seed``; every output is checked afterwards, untimed,
through the library API in this process.  With ``--trace 1`` the phases
run in two arms at half length each, bare and with per-layer spans, taking
turns within every round; the run reports the per-layer metrics and the
tracing overhead (traced over bare).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import random
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import study  # noqa: E402
from common import HERE, ROOT, WORK, child_env, median, quantile  # noqa: E402
from serving import Server  # noqa: E402
from traffic import (  # noqa: E402
    Client,
    Item,
    hot_set,
    http_request,
    job_stream,
    query_stream,
)


@dataclass(frozen=True)
class Workload:
    """The traffic property a workload fixes, plus its nominal rate."""

    hot_share: float  # share of queries repeating a hot-set key
    nominal_rps: float  # serve_query latency rate (~1/4 of the knee)


# Knees measured on a 2-core Xeon VM: ~1200 req/s with hot keys, ~520
# req/s with unique keys.  A quarter of the knee, not more, keeps the
# nominal rate below half the knee through the VM's up-to-2x slow
# stretches.
WORKLOADS = {
    "hot_keys": Workload(hot_share=0.7, nominal_rps=300.0),
    "unique_keys": Workload(hot_share=0.0, nominal_rps=120.0),
}

#: Shares of ``--seconds`` in total: nominal-rate queries, saturated
#: queries and the jobs phase.  The study phase is one pass per round
#: (about 2.5 s each on a 2-core Xeon VM), which takes most of the rest.
NOMINAL_SHARE = 0.2
SATURATION_SHARE = 0.3
JOBS_SHARE = 0.2

#: Job arrivals per second (about half what the two shards drain).
JOB_RATE = 1.0
JOB_POLL_S = 0.25

#: Queries prepared for one saturated slice, as a multiple of the nominal
#: rate times the slice's length: three times the knee (~4x nominal).  A
#: slice that uses them all up ends early; its rate stays exact.
SATURATION_SUPPLY = 12
#: Saturated slices carry most of the run's requests; every tenth answer
#: is checked, which keeps the untimed checks short.
SATURATION_CHECK_EVERY = 10
#: Each phase runs in this many slices spread over the run; one study pass
#: per round.
ROUNDS = 5
#: ``--seconds`` at which the study runs at full size; shorter runs scale
#: its sweep points, simulated hours and lockstep replications down.
STUDY_FULL_SECONDS = 45.0

CONNECTIONS = max(1, min(os.cpu_count() or 1, 2))

_STARTED = time.monotonic()


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ok: bool, message: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# -- serve phases --------------------------------------------------------------


def _schedule(payloads, rate: float) -> list[Item]:
    """Queries due ``index / rate`` after :func:`_begin` is called."""
    return [
        Item(due=index / rate, data=http_request("POST", "/v1/query", q), tag=q)
        for index, q in enumerate(payloads)
    ]


def _begin(items: list[Item]) -> list[Item]:
    """Make relative due times absolute, starting now.

    Called after every request is encoded, so building a schedule never
    makes its first requests late.
    """
    start = time.perf_counter() + 0.01
    for item in items:
        item.due += start
    return sorted(items, key=lambda item: item.due)


def _record(items: list[Item], tally: Tally, answers: list) -> None:
    for item in items:
        tally.add(item.ok, f"query {item.status} {item.error or ''}")
        if item.ok:
            answers.append((item.tag, item.body))


async def _warm_up(client: Client, hot, rng, workload, answers, tally) -> None:
    """Untimed: every hot key once, then a short burst at the nominal rate."""
    for query in hot:
        item = await client.request(http_request("POST", "/v1/query", query))
        item.tag = query
        _record([item], tally, answers)
    burst = query_stream(rng, hot, workload.hot_share, 100)
    items = _begin(_schedule(burst, workload.nominal_rps))
    await client.play(items)
    _record(items, tally, answers)


async def _saturate(client, rng, hot, workload, seconds, answers, tally):
    """One saturated slice: every connection kept busy for ``seconds``.
    Returns the queries answered and the time they took."""
    count = int(SATURATION_SUPPLY * workload.nominal_rps * seconds)
    payloads = query_stream(rng, hot, workload.hot_share, count)
    requests = [(http_request("POST", "/v1/query", q), q) for q in payloads]
    items, elapsed = await client.saturate(requests, seconds)
    for item in items:
        tally.add(item.ok, f"query {item.status} {item.error or ''}")
    _record(items[::SATURATION_CHECK_EVERY], Tally(), answers)
    answered = sum(item.ok for item in items)
    p99 = quantile([item.done - item.sent for item in items], 0.99)
    log(f"saturated: {answered / elapsed:.0f} answered/s, p99 from send "
        f"{1e3 * p99:.1f} ms")
    return answered, elapsed


async def _follow_jobs(client, submissions, tally, statuses):
    """Poll every accepted job until it is done or failed."""
    waiting = list(submissions)
    pending: dict[str, dict] = {}
    deadline = time.perf_counter() + 120.0
    while (waiting or pending) and time.perf_counter() < deadline:
        await asyncio.sleep(JOB_POLL_S)
        for item in [item for item in waiting if item.finished.done()]:
            waiting.remove(item)
            ok = item.ok and item.status == 202
            tally.add(ok, f"job submit {item.status} {item.error or ''}")
            if ok:
                pending[json.loads(item.body)["id"]] = item.tag
        for job_id in list(pending):
            poll = await client.request(http_request("GET", f"/v1/jobs/{job_id}"))
            if not poll.ok:
                continue
            status = json.loads(poll.body)
            if status["state"] in ("done", "failed"):
                statuses.append((pending.pop(job_id), status))
                tally.add(status["state"] == "done", f"job {job_id} failed")
    for _ in waiting:
        tally.add(False, "job submission unanswered")
    for job_id in pending:
        tally.add(False, f"job {job_id} did not finish")


def _drive(server, work) -> None:
    """Run ``work(client)`` on a fresh client with the collector paused,
    so collection pauses in this process never land in a measured window."""

    async def drive():
        async with Client("127.0.0.1", server.port, CONNECTIONS) as client:
            await work(client)

    gc.collect()
    gc.disable()
    try:
        asyncio.run(drive())
    finally:
        gc.enable()


class QueryPhase:
    """``serve_query``: nominal-rate slices and saturated slices."""

    def __init__(self, server, seed, workload, seconds, tally):
        self.server, self.workload, self.tally = server, workload, tally
        self.rng = random.Random(f"{seed}:serve_query")
        self.hot = hot_set(self.rng)
        self.count = int(workload.nominal_rps * seconds * NOMINAL_SHARE / ROUNDS)
        self.saturated_seconds = seconds * SATURATION_SHARE / ROUNDS
        self.answered = 0
        self.answering_s = 0.0
        self.items: list[Item] = []
        self.answers: list = []

    def warm_up(self) -> None:
        _drive(self.server, lambda client: _warm_up(
            client, self.hot, self.rng, self.workload, self.answers, self.tally
        ))
        self.measured_from = time.perf_counter()

    def nominal(self) -> None:
        async def work(client):
            payloads = query_stream(
                self.rng, self.hot, self.workload.hot_share, self.count
            )
            items = _begin(_schedule(payloads, self.workload.nominal_rps))
            await client.play(items)
            _record(items, self.tally, self.answers)
            self.items += items

        _drive(self.server, work)

    def saturate(self) -> None:
        async def work(client):
            answered, elapsed = await _saturate(
                client, self.rng, self.hot, self.workload,
                self.saturated_seconds, self.answers, self.tally,
            )
            self.answered += answered
            self.answering_s += elapsed

        _drive(self.server, work)

    @property
    def capacity(self) -> float | None:
        """Queries answered per second over every saturated slice (None
        when none ran)."""
        return self.answered / self.answering_s if self.answering_s else None

    def figures(self) -> dict:
        latencies = [item.latency for item in self.items]
        return {
            "query_p50_ms": 1e3 * quantile(latencies, 0.5),
            "query_p90_ms": 1e3 * quantile(latencies, 0.9),
            "lateness_p99_ms": 1e3
            * quantile([item.lateness for item in self.items], 0.99),
            "measured_from": self.measured_from,
        }


class JobsPhase:
    """``serve_jobs``: queries at half the nominal rate beside a job stream."""

    def __init__(self, server, seed, workload, seconds, tally):
        self.server, self.workload, self.tally = server, workload, tally
        self.rate = workload.nominal_rps / 2
        self.rng = random.Random(f"{seed}:serve_jobs")
        self.hot = hot_set(self.rng)
        self.duration = seconds * JOBS_SHARE / ROUNDS
        per_slice = max(1, round(self.duration * JOB_RATE))
        self.jobs = job_stream(self.rng, per_slice * ROUNDS)
        self.per_slice = per_slice
        self.items: list[Item] = []
        self.answers: list = []
        self.statuses: list = []

    def warm_up(self) -> None:
        async def work(client):
            await _warm_up(
                client, self.hot, self.rng, self.workload, self.answers,
                self.tally,
            )
            # A scalar and a network job, untimed, so first-job imports and
            # set-up land outside the measured window.
            warm = [
                Item(due=time.perf_counter(), tag=job, data=http_request(
                    "POST", "/v1/jobs", job, tenant="warm-up"
                ))
                for job in job_stream(random.Random(0), 5)[3:5]
            ]
            for item in warm:
                client.submit(item)
            await _follow_jobs(client, warm, self.tally, [])

        _drive(self.server, work)
        self.measured_from = time.perf_counter()

    def slice(self) -> None:
        """Queries and this slice's jobs; returns once every job ended."""
        jobs, self.jobs = self.jobs[: self.per_slice], self.jobs[self.per_slice:]

        async def work(client):
            count = int(self.rate * self.duration)
            payloads = query_stream(
                self.rng, self.hot, self.workload.hot_share, count
            )
            items = _schedule(payloads, self.rate)
            loop = asyncio.get_running_loop()
            submissions = []
            for index, job in enumerate(jobs):
                item = Item(
                    due=(index + 0.5) / JOB_RATE,
                    data=http_request(
                        "POST", "/v1/jobs", job, tenant=f"tenant-{index % 3}"
                    ),
                    tag=job,
                )
                item.finished = loop.create_future()
                submissions.append(item)
            schedule = _begin(items + submissions)
            follower = asyncio.create_task(
                _follow_jobs(client, submissions, self.tally, self.statuses)
            )
            await client.play(schedule)
            _record(items, self.tally, self.answers)
            await follower
            self.items += items

        _drive(self.server, work)

    def figures(self) -> dict:
        latencies = [item.latency for item in self.items]
        turnaround = [
            status["queue_wait_seconds"] + status["elapsed_seconds"]
            for _, status in self.statuses
            if status["state"] == "done"
        ]
        return {
            "jobs_query_p50_ms": 1e3 * quantile(latencies, 0.5),
            "jobs_query_p90_ms": 1e3 * quantile(latencies, 0.9),
            "job_turnaround_s": median(turnaround) if turnaround else float("inf"),
            "measured_from": self.measured_from,
        }


def _launcher(spans_path: Path | None) -> list[str] | None:
    if spans_path is None:
        return None
    return [sys.executable, str(HERE / "serve_traced.py"), str(spans_path)]


# -- study ---------------------------------------------------------------------


def study_config(seed: int, seconds: float) -> dict:
    """The study's inputs.  Runs shorter than ``STUDY_FULL_SECONDS`` shrink
    its sizes; the graph, candidate pool and search stay the same."""
    rng = random.Random(f"{seed}:study")
    scale = min(1.0, seconds / STUDY_FULL_SECONDS)

    def sized(value: float, floor: float) -> float:
        return max(floor, value * scale)

    return {
        "fig3_points": int(sized(250, 10)) | 1,
        "fig45_points": int(sized(125, 10)) | 1,
        "campaign_hours": sized(4000.0, 200.0),
        "campaign_replications": 8,
        "campaign_seed": rng.randrange(1 << 30),
        "batched_hours": sized(1000.0, 100.0),
        "batched_replications": int(sized(64, 8)),
        "batched_seed": rng.randrange(1 << 30),
        "placement_regions": 3,
        "placement_candidates": ["CTRL-A", "CTRL-B", "C2", "C3", "C5"],
        "placement_restarts": 4,
        "placement_seed": rng.randrange(1 << 30),
    }


def study_pass(config_path: Path, index: int, traced: bool, tally, tag):
    """One fresh study process; its record, or None when it failed."""
    out_path = WORK / f"{tag}-study-{index}.json"
    spans_path = WORK / f"{tag}-study-{index}-spans.json"
    command = [sys.executable, str(HERE / "study.py"), str(config_path),
               str(out_path)]
    if traced:
        command += ["--trace", str(spans_path)]
    launched = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170,
    )
    for stage in study.STAGES:
        tally.add(done.returncode == 0, f"study pass {index}: {stage}")
    if done.returncode != 0:
        tally.messages.append(done.stderr[-2000:])
        return None
    record = json.loads(out_path.read_text())
    record["setup_s"] = record["first_stage_monotonic"] - launched
    if traced:
        record["spans"] = json.loads(spans_path.read_text())
    log(f"{tag}: study pass {index}: setup {record['setup_s']:.3f} s, "
        + ", ".join(f"{k} {v:.3f}" for k, v in record["seconds"].items()))
    return record


# -- assembly ------------------------------------------------------------------


def log(message: str) -> None:
    """Progress on standard error (standard output ends with the result)."""
    print(f"[{time.monotonic() - _STARTED:6.1f}s] {message}", file=sys.stderr,
          flush=True)


class Arm:
    """One copy of the three phases: a fresh server per serve phase (the
    traced launcher when ``traced``) and the study passes run beside them."""

    def __init__(self, stack, tag, traced, seed, workload, seconds, tally):
        self.tag, self.traced, self.tally = tag, traced, tally
        self.spans = {
            phase: WORK / f"{tag}-{phase}-spans.json" if traced else None
            for phase in ("serve_query", "serve_jobs")
        }
        servers = {
            phase: stack.enter_context(Server(_launcher(path)))
            for phase, path in self.spans.items()
        }
        self.setups = [server.setup_s for server in servers.values()]
        self.query = QueryPhase(
            servers["serve_query"], seed, workload, seconds, tally
        )
        self.jobs = JobsPhase(servers["serve_jobs"], seed, workload, seconds, tally)
        self.records: list[dict] = []

    def warm_up(self) -> None:
        self.query.warm_up()
        self.jobs.warm_up()

    def study(self, config_path: Path, index: int) -> None:
        record = study_pass(config_path, index, self.traced, self.tally, self.tag)
        if record is not None:
            self.records.append(record)

    def finish(self, setups: list[float]) -> tuple[dict, dict, list[dict]]:
        """Stop both servers; the arm's figures, serve outputs and study
        records.  ``setups`` are set-up times of other server launches."""
        query, jobs, records = self.query, self.jobs, self.records
        serve = {
            "serve_query": query.figures() | {
                "answers": query.answers, "stats": query.server.stats(),
            },
            "serve_jobs": jobs.figures() | {
                "answers": jobs.answers, "statuses": jobs.statuses,
                "stats": jobs.server.stats(),
            },
        }
        serve_rss = max(query.server.peak_rss_mb(), jobs.server.peak_rss_mb())
        query.server.stop()
        jobs.server.stop()
        for phase, path in self.spans.items():
            if path is not None:
                serve[phase]["spans"] = json.loads(path.read_text())
        if not records:
            raise SystemExit(f"{self.tag}: no study pass completed")
        figures = {
            "setup_s": median(setups + self.setups)
            + median([r["setup_s"] for r in records]),
            "serve_rss_mb": serve_rss,
            "study_rss_mb": median([r["peak_rss_mb"] for r in records]),
            "capacity_rps": query.capacity,
        }
        figures |= query.figures() | jobs.figures()
        for stage in study.STAGES:
            figures[f"{stage}_s"] = median([r["seconds"][stage] for r in records])
        figures["study_s"] = median([sum(r["seconds"].values()) for r in records])
        return figures, serve, records


def measure(seed, workload, seconds, traced, tally):
    """Run the three phases in interleaved rounds, then check every output.

    The machine's speed drifts over tens of seconds, so each phase runs in
    ``ROUNDS`` slices spread over the whole run instead of one block.  A
    bare run is one arm, which also runs the saturated slices.  A traced
    run is a bare and a traced arm at half length each; they take turns
    within every round, the first alternating, so both see the same drift.

    Returns ``{tag: (figures, serve, records)}`` per arm and the sequential
    campaign rerun of :func:`checks.check_study`.
    """
    tags = ("bare", "traced") if traced else ("run",)
    config = study_config(seed, seconds)
    config_path = WORK / "study-config.json"
    config_path.write_text(json.dumps(config))
    with Server() as server:  # launched only to time one more set-up
        setups = [server.setup_s]
        server.stop()
    with ExitStack() as stack:
        arms = [
            Arm(stack, tag, tag == "traced", seed, workload,
                seconds / len(tags), tally)
            for tag in tags
        ]
        saturating = None if traced else arms[0].query
        for arm in arms:
            arm.warm_up()
        for index in range(ROUNDS):
            order = arms if index % 2 == 0 else arms[::-1]
            for arm in order:
                arm.query.nominal()
            if saturating is not None:
                saturating.saturate()
            for arm in order:
                arm.jobs.slice()
            for arm in order:
                arm.study(config_path, index)
            log(f"round {index} done")
        results = {arm.tag: arm.finish(setups) for arm in arms}
    checks.check_serve([serve for _, serve, _ in results.values()], tally)
    log("serve outputs checked")
    records = [record for _, _, arm in results.values() for record in arm]
    rerun = checks.check_study(config, records, tally)
    log("study outputs checked")
    return results, rerun


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.exists() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    print("environment", json.dumps(environment(args.seed)), flush=True)
    results, rerun = measure(
        args.seed, workload, args.seconds, bool(args.trace), tally
    )
    if args.trace:
        values = metrics.per_layer(results["bare"], results["traced"], rerun)
    else:
        values = results["run"][0]
    table = metrics.table(values, traced=bool(args.trace))
    for name, record in table.items():
        print(f"{name} = {record['value']:.6g} {record['unit']}")
    for message in tally.messages:
        print("FAILED:", message)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": table,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
