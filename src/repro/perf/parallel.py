"""Deterministic parallel Monte-Carlo and the one seeded-job dispatcher.

:func:`map_chunked` maps a module-level ``worker(context, item)`` over a
list of items and returns the results in item order: inline when
``workers == 1`` (or there is at most one item), otherwise on a warm
process pool with ``context`` broadcast once per worker process.  Every
seeded runner goes through it — :func:`repro.sim.replicate.
run_replications`, :func:`repro.faults.campaign.run_campaign`,
:func:`repro.network.campaign.run_network_campaign` and
:func:`monte_carlo_parallel` below.

:func:`monte_carlo_parallel` reproduces the study of
:func:`repro.analysis.uncertainty.monte_carlo` — the distribution of a
hardware-availability model output under log-uniform downtime uncertainty —
but restructured for throughput:

* the sample index space is split into **fixed-size chunks**; chunk ``c``
  draws from a generator seeded with ``np.random.SeedSequence(seed,
  spawn_key=(c,))`` (the ``SeedSequence.spawn`` child derivation), so every
  sample is a pure function of ``(seed, chunk_size, sample index)`` —
  results are **bit-identical regardless of the worker count**;
* chunks are dispatched through :func:`map_chunked`;
* within a chunk, models registered in :data:`ARRAY_MODELS` (the section V
  closed forms) are evaluated **vectorized** over the whole chunk via
  :mod:`repro.perf.vectorized`; unregistered models fall back to scalar
  calls, still parallelized across workers.

The draw scheme intentionally differs from the sequential seed path (which
threads one generator through every sample): the sequential path's draws
depend on sample *order*, which cannot be parallelized without either
serializing the generator or fixing a derivation tree.  This module fixes
the tree; the two paths agree in distribution and are separately
deterministic.
"""

from __future__ import annotations

import atexit
import pickle
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from repro.analysis.uncertainty import (
    HARDWARE_FIELDS,
    UncertaintyResult,
)
from repro.errors import ParameterError
from repro.models.hw_closed import hw_large, hw_medium, hw_small
from repro.obs import runtime as obs
from repro.obs import telemetry
from repro.obs.trace import Span, TraceContext, current_trace, trace_scope
from repro.params.hardware import HardwareParams
from repro.perf.vectorized import (
    hw_large_array,
    hw_medium_array,
    hw_small_array,
)
from repro.units import check_positive

__all__ = [
    "ARRAY_MODELS",
    "DEFAULT_CHUNK_SIZE",
    "MAX_RIDEBACK_SPANS",
    "MAX_WARM_POOLS",
    "monte_carlo_parallel",
    "chunk_bounds",
    "evaluate_chunk",
    "evaluate_chunk_captured",
    "get_warm_pool",
    "map_chunked",
    "shutdown_warm_pools",
    "split_chunks",
    "warm_pool_count",
]

#: Scalar model -> vectorized counterpart used for whole-chunk evaluation.
ARRAY_MODELS: dict[Callable[[HardwareParams], float], Callable[..., np.ndarray]] = {
    hw_small: hw_small_array,
    hw_medium: hw_medium_array,
    hw_large: hw_large_array,
}

#: Samples per chunk.  Part of the deterministic derivation scheme: results
#: depend on ``(seed, chunk_size)`` but never on the worker count.
DEFAULT_CHUNK_SIZE = 1024


def chunk_bounds(samples: int, chunk_size: int) -> list[tuple[int, int, int]]:
    """``(chunk index, start, stop)`` triples covering ``range(samples)``."""
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (c, start, min(start + chunk_size, samples))
        for c, start in enumerate(range(0, samples, chunk_size))
    ]


def _scale_array(availability: float, orders: np.ndarray) -> np.ndarray:
    """Vectorized ``uncertainty._scale``: downtime scaled by ``10**orders``."""
    scaled_downtime = (1.0 - availability) * 10.0**orders
    return np.maximum(0.0, 1.0 - scaled_downtime)


def _mc_chunk(
    context: tuple, item: tuple[int, int]
) -> tuple[np.ndarray, float]:
    """Evaluate one chunk of samples, timed (the :func:`map_chunked` worker).

    ``context`` is ``(model, array_model, base, spread_orders, seed)`` and
    ``item`` is ``(chunk index, sample count)``.  The chunk's wall time
    rides back with the values (an observation only — the sample values
    are untouched), so the parent process can report chunk-time histograms
    and worker utilization even for chunks evaluated in pool workers,
    where the parent's runtime state is invisible.
    """
    start = time.perf_counter()
    model, array_model, base, spread_orders, seed = context
    chunk_index, count = item
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    )
    draws = rng.uniform(
        -spread_orders, spread_orders, size=(count, len(HARDWARE_FIELDS))
    )
    columns = {
        field: _scale_array(getattr(base, field), draws[:, j])
        for j, field in enumerate(HARDWARE_FIELDS)
    }
    if array_model is not None:
        values = np.asarray(
            array_model(
                columns["a_role"],
                columns["a_vm"],
                columns["a_host"],
                columns["a_rack"],
            ),
            dtype=float,
        )
    else:
        values = np.empty(count, dtype=float)
        for i in range(count):
            params = replace(
                base, **{f: float(columns[f][i]) for f in HARDWARE_FIELDS}
            )
            values[i] = model(params)
    return values, time.perf_counter() - start


def monte_carlo_parallel(
    model: Callable[[HardwareParams], float],
    base: HardwareParams,
    spread_orders: float = 0.5,
    samples: int = 500,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    vectorize: bool = True,
    array_model: Callable[..., np.ndarray] | None = None,
) -> UncertaintyResult:
    """Parallel/vectorized distribution of ``model`` under input uncertainty.

    Args:
        model: scalar availability model of :class:`HardwareParams`.  Must
            be picklable (a module-level function) when ``workers > 1``.
        base: nominal hardware parameters.
        spread_orders: ±orders of magnitude of downtime uncertainty.
        samples: number of Monte-Carlo samples.
        seed: root seed of the ``SeedSequence`` derivation tree.
        workers: process count; ``1`` evaluates inline (no pool).  More
            workers dispatch the chunks on the warm pool of
            :func:`map_chunked`, which a repeated identical call reuses.
        chunk_size: samples per chunk.  Changing it changes the draws;
            changing ``workers`` never does.
        vectorize: evaluate chunks through the model's registered array
            counterpart (:data:`ARRAY_MODELS`) when available.
        array_model: explicit vectorized counterpart overriding the
            registry; called as ``array_model(a_role, a_vm, a_host,
            a_rack)`` on equal-length arrays.

    Returns:
        The same :class:`UncertaintyResult` as the sequential path, with
        samples ordered by sample index.
    """
    check_positive(spread_orders, "spread_orders")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    chunks = chunk_bounds(samples, chunk_size)
    resolved = array_model
    if resolved is None and vectorize:
        resolved = ARRAY_MODELS.get(model)
    obs.note_solver("monte-carlo")
    if resolved is not None:
        obs.note_solver("vectorized")
    obs.annotate("seed.mc_root", seed)
    obs.annotate("seed.mc_chunk_size", chunk_size)
    with obs.span(
        "perf.monte_carlo",
        samples=samples,
        chunks=len(chunks),
        workers=workers,
        vectorized=resolved is not None,
    ):
        wall_start = time.perf_counter()
        timed = map_chunked(
            _mc_chunk,
            [(c, stop - start) for c, start, stop in chunks],
            workers,
            (model, resolved, base, spread_orders, seed),
            "perf.mc_chunk",
        )
        wall = time.perf_counter() - wall_start
    if obs.enabled():
        _record_mc_metrics(
            samples,
            [seconds for _, seconds in timed],
            wall,
            min(workers, len(chunks)),
        )
    values = np.concatenate([values for values, _ in timed])
    return UncertaintyResult(tuple(float(v) for v in values))


def _record_mc_metrics(
    samples: int,
    chunk_seconds: list[float],
    wall: float,
    effective_workers: int,
) -> None:
    """Publish the throughput metrics of one Monte-Carlo dispatch."""
    for seconds in chunk_seconds:
        obs.observe("perf.mc.chunk_seconds", seconds)
    obs.count("perf.mc.samples", samples)
    obs.count("perf.mc.chunks", len(chunk_seconds))
    if wall > 0.0:
        obs.gauge("perf.mc.samples_per_second", samples / wall)
        busy = sum(chunk_seconds)
        obs.gauge(
            "perf.mc.worker_utilization",
            min(1.0, busy / (wall * effective_workers)),
        )


# -- warm process pools -------------------------------------------------------
#
# ``ProcessPoolExecutor`` start-up (fork/spawn + interpreter import) costs a
# large fraction of a short dispatch — replication batches measured in
# hundreds of milliseconds pay it on every call when pools are created cold.
# The registry below keeps pools alive across calls, keyed by their full
# construction recipe ``(workers, initializer, initargs)``, so a repeated
# dispatch (benchmark repeats, campaign sweeps at one spec) reuses warm
# worker processes.  Worker processes are fresh interpreters: they start
# with observability *disabled*, which keeps pool-dispatched replications
# trace-free exactly like the cold-pool path before them.
#
# Each acquisition refreshes the pool's LRU position; pools beyond
# :data:`MAX_WARM_POOLS` are evicted oldest-first, so a sweep over many
# distinct broadcast specs churns through the cap.  Eviction shuts a pool
# down without waiting and without cancelling: a dispatch still running on
# an evicted pool (another thread's) finishes and gets every result.

#: Live warm pools are capped; the least-recently-used pool beyond the cap
#: is shut down (each pool owns OS processes — an unbounded registry would
#: leak them under e.g. a sweep over many distinct broadcast specs).
MAX_WARM_POOLS = 4

_WARM_POOLS: OrderedDict[tuple, ProcessPoolExecutor] = OrderedDict()


def _pool_unusable(pool: ProcessPoolExecutor) -> bool:
    """True when the pool can no longer accept work (broken or shut down)."""
    return bool(
        getattr(pool, "_broken", False)
        or getattr(pool, "_shutdown_thread", False)
    )


def _obtain_pool(key: tuple) -> ProcessPoolExecutor:
    """The live pool for ``key``, creating/replacing and trimming the LRU."""
    workers, initializer, initargs = key
    pool = _WARM_POOLS.get(key)
    if pool is not None:
        if not _pool_unusable(pool):
            _WARM_POOLS.move_to_end(key)
            return pool
        del _WARM_POOLS[key]
        pool.shutdown(wait=False, cancel_futures=True)
    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    )
    _WARM_POOLS[key] = pool
    while len(_WARM_POOLS) > MAX_WARM_POOLS:
        _, evicted = _WARM_POOLS.popitem(last=False)
        evicted.shutdown(wait=False)
    if obs.enabled():
        obs.gauge("perf.warm_pools.live", len(_WARM_POOLS))
    return pool


def get_warm_pool(
    workers: int,
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> ProcessPoolExecutor:
    """A reusable process pool for ``workers`` with the given initializer.

    Pools are cached by ``(workers, initializer, initargs)`` — ``initargs``
    must therefore be hashable (pass pickled ``bytes`` for rich objects).
    The initializer runs once per worker *process*, which makes it the
    cheap broadcast channel for per-dispatch-constant state (e.g. a frozen
    campaign spec): send it once per worker instead of once per job.
    Broken or shut-down pools are replaced transparently; all pools are
    shut down at interpreter exit (or explicitly via
    :func:`shutdown_warm_pools`).
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return _obtain_pool((workers, initializer, initargs))


def shutdown_warm_pools(wait: bool = True) -> int:
    """Shut down every cached pool; returns how many were live."""
    count = len(_WARM_POOLS)
    while _WARM_POOLS:
        _, pool = _WARM_POOLS.popitem(last=False)
        pool.shutdown(wait=wait, cancel_futures=True)
    return count


def warm_pool_count() -> int:
    """How many warm pools are currently cached (for tests/diagnostics)."""
    return len(_WARM_POOLS)


atexit.register(shutdown_warm_pools)


def split_chunks(items: Sequence, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks.

    Contiguity is what preserves determinism downstream: flattening the
    per-chunk results in chunk order reproduces the original item order
    regardless of which worker ran which chunk.
    """
    if parts < 1:
        raise ParameterError(f"parts must be >= 1, got {parts}")
    items = list(items)
    parts = min(parts, len(items)) or 1
    base, extra = divmod(len(items), parts)
    chunks: list[list] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# -- broadcast dispatch -------------------------------------------------------
#
# Per-worker-process slot for dispatch-constant state: the context of a
# dispatch pickles once per worker process (via the pool initializer), so
# each job carries only its item.

_BROADCAST = None


def _install_broadcast(blob: bytes) -> None:
    """Pool initializer: unpickle the broadcast context (runs per worker)."""
    global _BROADCAST
    _BROADCAST = pickle.loads(blob)


def evaluate_chunk(payload: tuple) -> list:
    """Run ``worker`` over one contiguous chunk (inside a pool worker)."""
    worker, items = payload
    return [worker(_BROADCAST, item) for item in items]


#: Most worker-side spans shipped back per chunk — a cap, not a promise:
#: span ride-back is an observation channel, and an instrumentation-happy
#: worker must not bloat the result pickle.
MAX_RIDEBACK_SPANS = 64


def evaluate_chunk_captured(payload: tuple) -> tuple:
    """Run one chunk under a worker-side metrics session, timed.

    Pool workers carry a disabled obs runtime, so counters recorded inside
    a chunk (simulator events, outage episodes) would silently vanish.
    This wrapper brackets the chunk in its own session and ships the
    registry snapshot — plus the chunk wall time and the chunk's completed
    spans (capped at :data:`MAX_RIDEBACK_SPANS`) — back through the result
    channel, for the parent to merge in chunk-index order.  Warm pools
    reuse worker processes, so the session is always closed (try/finally)
    before the next chunk arrives.

    The fourth payload element is a serialized
    :class:`~repro.obs.trace.TraceContext` (the request trace of the
    dispatch) or ``None``; a context is installed for the chunk's duration
    so worker-side code observes the same distributed trace the parent
    does.  Purely observational: results are bit-identical with or
    without it.
    """
    worker, items, chunk_index, trace_record = payload
    trace = (
        TraceContext.from_dict(trace_record)
        if trace_record is not None
        else None
    )
    # Fork-started workers inherit a *copy* of the parent's active session
    # (its recordings are invisible to the parent); drop it so the chunk's
    # metrics land in a registry of their own.
    obs.stop()
    session = obs.start(f"chunk:{chunk_index}")
    try:
        with trace_scope(trace):
            start = time.perf_counter()
            results = [worker(_BROADCAST, item) for item in items]
            seconds = time.perf_counter() - start
        snapshot = session.metrics.snapshot()
        spans = [
            span.to_dict()
            for span in session.tracer.spans[:MAX_RIDEBACK_SPANS]
        ]
    finally:
        obs.stop()
    return chunk_index, results, snapshot, seconds, spans


def _merge_worker_spans(
    session, chunk_index: int, spans: list[dict]
) -> None:
    """Fold one chunk's ride-back spans into the parent session's tracer.

    Merged spans keep their worker-side nesting but sit one depth level
    down (never at depth 0, so :meth:`~repro.obs.trace.Tracer.roots` —
    the manifest's phase list — stays a parent-only view), carry a
    ``chunk`` attribute, and fall back to a synthetic ``chunk:<i>`` parent
    at what was the worker's top level.  ``pool.map`` yields chunks in
    submission order, so the merge order is chunk-index order regardless
    of which worker finished first — the same determinism contract as the
    metric-snapshot merge.
    """
    for record in spans:
        attrs = dict(record.get("attrs", {}))
        attrs["chunk"] = chunk_index
        session.tracer.spans.append(
            Span(
                name=record["name"],
                start=record["start"],
                duration=record["duration"],
                depth=record["depth"] + 1,
                parent=record["parent"] or f"chunk:{chunk_index}",
                attrs=attrs,
            )
        )


def map_chunked(
    worker, items: Sequence, workers: int, context, span_name: str
) -> tuple:
    """Run ``worker(context, item)`` over ``items``; results in item order.

    The one dispatcher of every seeded replication and Monte-Carlo chunk.
    With ``workers == 1`` or at most one item it runs inline: each item
    under an ``obs`` span named ``span_name`` (attribute ``index``),
    followed by a ``progress`` event while a telemetry bus is active.

    Otherwise it runs on the warm pool of :func:`get_warm_pool`:
    ``context`` (any picklable object) is shipped once per worker process
    through the pool initializer, so a repeated dispatch with an equal
    context reuses the pool.  ``worker`` must then be module-level
    (picklable).  Items go out as contiguous chunks, one per worker, and
    results are flattened in chunk order, so the output order equals the
    input order for any worker count — the property seeded runs rely on
    for bit-identical results.  A worker process that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`; the next
    dispatch with that context gets a fresh pool.

    While the parent holds an obs session or a telemetry bus, pool chunks
    run through :func:`evaluate_chunk_captured`: worker-side metric
    registries merge into the parent session (counters add; gauges
    last-writer-wins in chunk-index order; histogram bins element-wise;
    worker spans fold in one depth level down) and a ``progress``
    heartbeat plus a ``metrics`` snapshot event are emitted per completed
    chunk.  The ambient :class:`~repro.obs.trace.TraceContext` (if any)
    rides to the workers as a plain dict.  With session and bus both
    disabled the plain payload shape runs — the instrumentation costs
    nothing.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    items = list(items)
    tracker = (
        telemetry.ProgressTracker(len(items)) if telemetry.enabled() else None
    )
    if workers == 1 or len(items) <= 1:
        collected = []
        for index, item in enumerate(items):
            with obs.span(span_name, index=index):
                collected.append(worker(context, item))
            if tracker is not None:
                telemetry.emit("progress", job=index, **tracker.update())
        return tuple(collected)
    pool = get_warm_pool(
        workers,
        initializer=_install_broadcast,
        initargs=(pickle.dumps(context),),
    )
    chunks = split_chunks(items, workers)
    session = obs.active()
    if session is None and tracker is None:
        collected = []
        for part in pool.map(
            evaluate_chunk, [(worker, chunk) for chunk in chunks]
        ):
            collected.extend(part)
        return tuple(collected)
    trace = current_trace()
    trace_record = trace.to_dict() if trace is not None else None
    payloads = [
        (worker, chunk, index, trace_record)
        for index, chunk in enumerate(chunks)
    ]
    collected = []
    for chunk_index, part, snapshot, seconds, spans in pool.map(
        evaluate_chunk_captured, payloads
    ):
        collected.extend(part)
        if session is not None:
            session.metrics.merge_snapshot(snapshot)
            session.metrics.histogram("perf.chunk_seconds").observe(seconds)
            _merge_worker_spans(session, chunk_index, spans)
        if tracker is not None:
            events = snapshot.get("counters", {}).get("sim.events", 0)
            telemetry.emit(
                "progress",
                chunk=chunk_index,
                **tracker.update(completed=len(part), events=int(events)),
            )
            # Merged parent-side view when a session exists, otherwise
            # the worker chunk's own registry snapshot.
            telemetry.emit(
                "metrics",
                snapshot=(
                    session.metrics.snapshot()
                    if session is not None
                    else snapshot
                ),
            )
    return tuple(collected)
