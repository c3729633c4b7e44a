"""Benchmark-side spans around calls into each layer's public functions.

A wrapper is installed at the attribute each caller looks up (a module
global bound at import time, or a class attribute), records one span per
call — name, start, end, parent span and request id — and keeps the
spans in memory until :meth:`Recorder.write` dumps them once at the end.
The parent is whatever span is open in the calling context
(:mod:`contextvars`), so spans nest across ``await`` and
``asyncio.to_thread`` exactly as the calls do.

Nothing here changes a computed value; the traced run only adds timing.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Callable

# (span id, request id) of the span open in this context.
_CURRENT: ContextVar[tuple[int, int | None] | None] = ContextVar(
    "perfbench_span", default=None
)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _open(self, new_request: bool) -> tuple[int, int | None, int | None]:
        parent = _CURRENT.get()
        span_id = next(self._ids)
        if new_request:
            request = next(self._requests)
        else:
            request = parent[1] if parent is not None else None
        return span_id, request, parent[0] if parent is not None else None

    def wrap(
        self,
        function: Callable,
        name: str,
        new_request: bool = False,
        size: Callable[[Any], dict[str, int]] | None = None,
    ) -> Callable:
        """``function`` with a span per call; ``size`` counts work done."""
        spans = self.spans

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span_id, request, parent = self._open(new_request)
                token = _CURRENT.set((span_id, request))
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append(
                        (name, start, end, parent, span_id, request, {})
                    )
                return result

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id, request, parent = self._open(new_request)
            token = _CURRENT.set((span_id, request))
            start = time.perf_counter()
            work: dict[str, int] = {}
            try:
                result = function(*args, **kwargs)
                if size is not None:
                    work = size(result)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append((name, start, end, parent, span_id, request, work))
            return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` by its traced version."""
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, **options))
        else:
            wrapped = self.wrap(raw, name, **options)
        setattr(owner, attribute, wrapped)

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "id", "request", "work")
        Path(path).write_text(
            json.dumps([dict(zip(fields, span)) for span in self.spans])
        )


def install_serve_wrappers() -> Recorder:
    """Wrap the serving layers; call before the app is constructed."""
    from repro.faults import crossval
    from repro.models import sw_options
    from repro.network import paths
    from repro.perf import vectorized
    from repro.serve import app, batching, cache, protocol

    recorder = Recorder()
    recorder.patch(app.ServeApp, "handle", "serve.app", new_request=True)
    recorder.patch(app.ServeApp, "_timed_compute", "serve.compute")
    recorder.patch(protocol.Request, "json_object", "serve.protocol.decode")
    recorder.patch(protocol.Response, "json", "serve.protocol.encode")
    recorder.patch(protocol.Response, "encode", "serve.protocol.encode")
    recorder.patch(cache.SingleFlightCache, "get_with_outcome", "serve.cache")
    recorder.patch(batching.MicroBatcher, "submit", "serve.batching.submit")
    for model in ("small", "medium", "large"):
        recorder.patch(vectorized, f"hw_{model}_array", "perf.vectorized.hw")
    recorder.patch(sw_options, "evaluate_option", "models.sw_options")
    recorder.patch(paths, "analyze_switch", "network.paths")
    recorder.patch(crossval, "evaluate_campaign", "faults.crossval")
    return recorder


def install_study_wrappers() -> Recorder:
    """Wrap the study layers; call before any warm pool forks."""
    from repro.analysis import figures
    from repro.faults import campaign, crossval
    from repro.network import batch, placement
    from repro.perf import parallel

    recorder = Recorder()
    for model in ("small", "medium", "large"):
        recorder.patch(figures, f"hw_{model}", "models.hw_closed")
    recorder.patch(figures, "cp_availability", "models.sw")
    recorder.patch(figures, "dp_availability", "models.dataplane")
    # The sweeps use closed forms; the exact engine runs in the campaign's
    # analytic cross-check (maintenance duty-cycle mixture).
    recorder.patch(crossval, "evaluate_topology_weighted", "models.engine")
    recorder.patch(crossval, "run_campaign", "faults.campaign")
    recorder.patch(campaign, "map_chunked", "perf.parallel.map")
    recorder.patch(campaign, "plan_batched", "sim.batched.plan")
    recorder.patch(
        campaign, "run_batched", "sim.batched.run",
        size=lambda results: {
            "live_events": sum(count for _, count in results)
        },
    )
    recorder.patch(batch, "sdp_terms", "core.sdp")
    recorder.patch(
        placement, "compile_pair_sweep", "network.batch.compile",
        size=lambda plan: {
            "unique_terms": plan.unique_terms,
            "total_terms": plan.total_terms,
        },
    )
    recorder.patch(
        batch.PairSweepPlan, "evaluate", "network.batch.evaluate",
        size=lambda sweep: {"pairs": int(sweep.availability.size)},
    )
    recorder.patch(placement, "optimize_placement", "network.placement")

    seen: set[int] = set()
    get_warm_pool = parallel.get_warm_pool

    @functools.wraps(get_warm_pool)
    def first_acquisition(*args, **kwargs):
        # Worker processes start lazily on the first submit; force that
        # here so a new pool's span covers creation and worker start-up.
        start = time.perf_counter()
        pool = get_warm_pool(*args, **kwargs)
        if id(pool) not in seen:
            seen.add(id(pool))
            pool.submit(int).result()
            recorder.spans.append(
                ("perf.parallel.pool_spawn", start, time.perf_counter(),
                 None, next(recorder._ids), None, {})
            )
        return pool

    parallel.get_warm_pool = first_acquisition
    return recorder


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        covered = 0.0
        edge = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, edge), min(end, span["end"])
            if end > start:
                covered += end - start
                edge = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def summarize(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed work counts."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
        for key, count in span["work"].items():
            row[key] = row.get(key, 0) + count
    return table
