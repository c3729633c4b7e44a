"""Hot-path engine optimizations: exact-equivalence tests.

Every optimization in the simulation core — buffered RNG blocks, the
memoized effective-state cache, stale-event heap compaction, the warm
process-pool registry — claims *bit-exact* equivalence with the
straightforward implementation it replaced.  These tests check each claim
directly: buffered draws against scalar draws, the cache against a fresh
uncached dependency walk (property-based, over arbitrary transition
sequences), compacted heaps against uncompacted pop order, and the
chunked warm-pool dispatch against inline evaluation.  The warm-pool
tests also cover the dispatcher's failure paths: a worker process that
dies, and a pool evicted while a dispatch is still running on it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, SimulationError
from repro.models.hw_closed import hw_large
from repro.params.defaults import PAPER_HARDWARE
from repro.perf import parallel
from repro.perf.parallel import (
    MAX_WARM_POOLS,
    get_warm_pool,
    map_chunked,
    monte_carlo_parallel,
    shutdown_warm_pools,
    split_chunks,
    warm_pool_count,
)
from repro.sim.engine import AvailabilitySimulator
from repro.sim.entities import Component, ComponentKind, ComponentState
from repro.sim.events import (
    COMPACT_MIN_SIZE,
    COMPACT_STALE_FRACTION,
    Event,
    EventQueue,
)
from repro.sim.rng import INITIAL_BLOCK, MAX_BLOCK, RngStreams


# -- buffered RNG -------------------------------------------------------------


class TestBufferedRng:
    def test_buffered_equals_scalar_draws(self):
        """Block-buffered draws are element-for-element identical to the
        per-variate ``Generator.exponential`` calls they replaced, across
        several geometric refills (8 -> 16 -> ... -> 1024 -> 1024)."""
        count = 3 * MAX_BLOCK  # crosses every block size at least once
        buffered = RngStreams(42)
        reference = RngStreams(42)
        generator = reference.stream("clock")
        for i in range(count):
            assert buffered.exponential("clock", 3.5) == generator.exponential(
                3.5
            ), f"draw {i} diverged"

    def test_varying_means_scale_at_pop(self):
        """One stream asked for different means on successive draws (the
        R vs R_S repair selection) still matches scalar draws exactly."""
        means = [0.5, 120.0, 0.5, 3.0, 7.25] * (INITIAL_BLOCK * 4)
        buffered = RngStreams(7)
        generator = RngStreams(7).stream("repair")
        got = [buffered.exponential("repair", m) for m in means]
        expected = [generator.exponential(m) for m in means]
        assert got == expected

    def test_streams_buffer_independently(self):
        """Interleaved draws on two streams never cross-contaminate."""
        buffered = RngStreams(9)
        ref_a = RngStreams(9)
        # Streams spawn in first-use order: touch "a" then "b" everywhere.
        gen_a = ref_a.stream("a")
        gen_b = ref_a.stream("b")
        for _ in range(INITIAL_BLOCK * 3):
            assert buffered.exponential("a", 1.0) == gen_a.exponential(1.0)
            assert buffered.exponential("b", 2.0) == gen_b.exponential(2.0)

    def test_nonpositive_mean_rejected_without_consuming(self):
        streams = RngStreams(3)
        with pytest.raises(SimulationError, match="mean must be > 0"):
            streams.exponential("s", 0.0)
        with pytest.raises(SimulationError, match="mean must be > 0"):
            streams.exponential("s", -1.0)
        # The rejected calls consumed nothing: the first real draw equals
        # a fresh stream's first draw.
        assert streams.exponential("s", 1.0) == RngStreams(3).exponential(
            "s", 1.0
        )


# -- heap compaction ----------------------------------------------------------


def _noop() -> None:
    pass


class TestQueueCompaction:
    def _queue_with_staleset(self, stale_keys: set[str]) -> EventQueue:
        return EventQueue(stale=lambda event: event.component in stale_keys)

    def test_compaction_purges_stale_keeps_live_order(self):
        """Stale entries vanish; survivors pop in the exact original order,
        including FIFO ties at equal times."""
        stale: set[str] = set()
        queue = self._queue_with_staleset(stale)
        # Interleave live and (later) stale events, with time ties.
        for i in range(40):
            queue.schedule(
                Event(time=float(i // 4), action=_noop, component=f"live{i}")
            )
            queue.schedule(
                Event(time=float(i // 4), action=_noop, component=f"dead{i}")
            )
        stale.update(f"dead{i}" for i in range(40))
        purged = queue.compact()
        assert purged == 40
        assert queue.purged == 40
        assert queue.compactions == 1
        assert len(queue) == 40
        popped = [queue.pop() for _ in range(40)]
        # Original schedule order of the survivors: live0, live1, ... with
        # times i//4 — nondecreasing times, FIFO within each tie group.
        assert [event.component for event in popped] == [
            f"live{i}" for i in range(40)
        ]
        assert [event.time for event in popped] == [float(i // 4) for i in range(40)]

    def test_note_stale_triggers_lazy_compaction(self):
        stale: set[str] = set()
        queue = self._queue_with_staleset(stale)
        total = COMPACT_MIN_SIZE * 2
        for i in range(total):
            queue.schedule(
                Event(time=float(i), action=_noop, component=f"c{i}")
            )
        corpses = int(total * COMPACT_STALE_FRACTION) + 2
        stale.update(f"c{i}" for i in range(corpses))
        queue.note_stale(corpses)
        assert queue.compactions == 1
        assert queue.purged == corpses
        assert len(queue) == total - corpses
        assert queue.stale_hint == 0

    def test_small_heaps_never_compact(self):
        """Below COMPACT_MIN_SIZE a rebuild costs more than it saves."""
        stale: set[str] = set()
        queue = self._queue_with_staleset(stale)
        for i in range(COMPACT_MIN_SIZE // 2):
            queue.schedule(
                Event(time=float(i), action=_noop, component=f"c{i}")
            )
        stale.update(f"c{i}" for i in range(COMPACT_MIN_SIZE // 2))
        queue.note_stale(COMPACT_MIN_SIZE // 2)
        assert queue.compactions == 0
        assert queue.stale_hint == COMPACT_MIN_SIZE // 2

    def test_queue_without_predicate_ignores_compaction(self):
        queue = EventQueue()
        for i in range(COMPACT_MIN_SIZE * 2):
            queue.schedule(Event(time=float(i), action=_noop))
        queue.note_stale(COMPACT_MIN_SIZE * 2)
        assert len(queue) == COMPACT_MIN_SIZE * 2  # nothing dropped


# -- cached effective state (property-based) ----------------------------------

#: A diamond-over-chain dependency graph: rack -> two hosts -> two VMs ->
#: one process needing both VMs.  Covers shared roots, fan-out, and fan-in.
_GRAPH = {
    "rack:R": (),
    "host:A": ("rack:R",),
    "host:B": ("rack:R",),
    "vm:A": ("host:A",),
    "vm:B": ("host:B",),
    "proc:P": ("vm:A", "vm:B"),
}

_KINDS = {
    "rack:R": ComponentKind.RACK,
    "host:A": ComponentKind.HOST,
    "host:B": ComponentKind.HOST,
    "vm:A": ComponentKind.VM,
    "vm:B": ComponentKind.VM,
    "proc:P": ComponentKind.PROCESS,
}


def _graph_simulator() -> AvailabilitySimulator:
    components = [
        Component(
            key=key,
            kind=_KINDS[key],
            failure_rate=0.0,
            repair_mean=1.0,
            dependencies=deps,
        )
        for key, deps in _GRAPH.items()
    ]
    return AvailabilitySimulator(
        components, seed=1, repair_sampler=lambda rng, name, mean: mean
    )


def _fresh_walk(simulator: AvailabilitySimulator, key: str) -> bool:
    """The seed engine's uncached recursive effective-state evaluation."""
    component = simulator.components[key]
    if component.state is not ComponentState.UP:
        return False
    return all(
        _fresh_walk(simulator, dependency)
        for dependency in component.dependencies
    )


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["fail", "fail_repair", "fail_hold", "repair"]),
        st.sampled_from(sorted(_GRAPH)),
    ),
    max_size=40,
)


class TestCachedEffectiveState:
    @settings(max_examples=200, deadline=None)
    @given(ops=_OPS)
    def test_cache_agrees_with_fresh_walk(self, ops):
        """After any fail/repair/hold sequence, the memoized
        ``effectively_up`` equals an uncached dependency walk for every
        component."""
        simulator = _graph_simulator()
        for op, key in ops:
            if op == "fail":
                simulator.force_fail(key)
            elif op == "fail_repair":
                simulator.force_fail(key, repair=True)
            elif op == "fail_hold":
                simulator.force_fail(key, repair=True, hold=True)
            else:
                simulator.force_repair(key)
            for probe in _GRAPH:
                assert simulator.effectively_up(probe) == _fresh_walk(
                    simulator, probe
                ), f"cache diverged at {probe!r} after {op} {key!r}"


# -- selector errors ----------------------------------------------------------


class TestResolveGroupErrors:
    def test_well_formed_but_empty_role(self):
        simulator = _graph_simulator()
        with pytest.raises(
            SimulationError, match="matched no components.*role 'Analytics'"
        ):
            simulator.resolve_group("role:Analytics")

    def test_well_formed_but_empty_kind(self):
        simulator = _graph_simulator()  # has no supervisors
        with pytest.raises(
            SimulationError,
            match="matched no components: no 'supervisor' components",
        ):
            simulator.resolve_group("kind:supervisor")

    def test_unknown_kind_is_unresolvable_not_empty(self):
        simulator = _graph_simulator()
        with pytest.raises(
            SimulationError, match="'toaster' is not a component kind"
        ):
            simulator.resolve_group("kind:toaster")

    def test_gibberish_selector_is_unresolvable(self):
        simulator = _graph_simulator()
        with pytest.raises(
            SimulationError, match="cannot resolve component or group"
        ):
            simulator.resolve_group("nonsense")


# -- signal dependency declarations -------------------------------------------


class TestSignalDeclarations:
    def test_unknown_dependency_rejected(self):
        simulator = _graph_simulator()
        with pytest.raises(
            SimulationError, match="declares unknown dependency"
        ):
            simulator.add_signal(
                "bad", lambda sim: True, depends_on=["vm:MISSING"]
            )

    def test_duplicate_signal_rejected(self):
        simulator = _graph_simulator()
        simulator.add_signal("s", lambda sim: True, depends_on=["vm:A"])
        with pytest.raises(SimulationError, match="duplicate signal"):
            simulator.add_signal("s", lambda sim: True)

    def test_declared_signal_tracks_only_its_keys(self):
        """A signal declared over one branch of the diamond reflects that
        branch's transitions and is untouched by the other branch."""
        simulator = _graph_simulator()
        simulator.add_signal(
            "a-branch",
            lambda sim: sim.effectively_up("vm:A"),
            depends_on=["rack:R", "host:A", "vm:A"],
        )
        simulator.force_fail("host:B")  # other branch
        assert simulator.signal("a-branch").state is True
        simulator.force_fail("host:A")
        assert simulator.signal("a-branch").state is False
        simulator.force_repair("host:A")
        assert simulator.signal("a-branch").state is True


# -- warm pools and chunked dispatch ------------------------------------------


def _identity(context, item):
    return item


def _with_context(context, item):
    return (item, context)


def _exit_on_negative(context, item):
    """Kill the worker process mid-chunk when it reaches a negative item."""
    if item < 0:
        os._exit(3)
    return (context, item)


def _wait_for_release(directory, item):
    """Mark ``item`` as started, then block until the test releases it."""
    directory = Path(directory)
    (directory / f"started-{item}").touch()
    deadline = time.monotonic() + 60.0
    while not (directory / "release").exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"item {item} was never released")
        time.sleep(0.01)
    return item


def _live_pools() -> list:
    return list(parallel._WARM_POOLS.values())


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_warm_pools()


class TestWarmPools:
    def test_pool_is_reused_for_same_recipe(self):
        first = get_warm_pool(2)
        second = get_warm_pool(2)
        assert first is second
        assert warm_pool_count() == 1

    def test_distinct_recipes_get_distinct_pools(self):
        assert get_warm_pool(2) is not get_warm_pool(3)
        assert warm_pool_count() == 2

    def test_shutdown_forgets_pools(self):
        pool = get_warm_pool(2)
        assert shutdown_warm_pools() == 1
        assert warm_pool_count() == 0
        assert get_warm_pool(2) is not pool

    def test_registry_is_bounded(self):
        for workers in range(1, MAX_WARM_POOLS + 3):
            get_warm_pool(workers)
        assert warm_pool_count() == MAX_WARM_POOLS

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ParameterError, match="workers must be >= 1"):
            get_warm_pool(0)

    def test_map_chunked_preserves_order_and_broadcasts(self):
        items = list(range(11))
        results = map_chunked(_with_context, items, 2, "ctx", "test.item")
        assert [item for item, _ in results] == items
        assert all(context == "ctx" for _, context in results)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_map_chunked_rejects_workers_below_one(self, workers):
        with pytest.raises(ParameterError, match="workers must be >= 1"):
            map_chunked(_identity, [1, 2], workers, None, "test.item")


class TestPoolFaults:
    def test_dead_worker_breaks_dispatch_and_next_gets_fresh_pool(self):
        shutdown_warm_pools()
        with pytest.raises(BrokenProcessPool):
            map_chunked(_exit_on_negative, [1, -1, 2, 3], 2, "c", "test.item")
        (broken,) = _live_pools()
        count = warm_pool_count()
        results = map_chunked(
            _exit_on_negative, [1, 2, 3, 4], 2, "c", "test.item"
        )
        assert results == (("c", 1), ("c", 2), ("c", 3), ("c", 4))
        assert warm_pool_count() == count
        assert broken not in _live_pools()

    def test_pool_evicted_mid_dispatch_still_returns_every_result(
        self, tmp_path
    ):
        shutdown_warm_pools()
        items = [0, 1, 2, 3]  # two chunks: [0, 1] and [2, 3]
        outcome = {}

        def dispatch():
            outcome["results"] = map_chunked(
                _wait_for_release, items, 2, str(tmp_path), "test.item"
            )

        thread = threading.Thread(target=dispatch)
        thread.start()
        try:
            deadline = time.monotonic() + 60.0
            while not all(
                (tmp_path / f"started-{item}").exists() for item in (0, 2)
            ):
                assert time.monotonic() < deadline, "chunks never started"
                time.sleep(0.01)
            (running,) = _live_pools()
            for context in range(MAX_WARM_POOLS):
                assert map_chunked(
                    _with_context, [1, 2], 2, context, "test.item"
                ) == ((1, context), (2, context))
            assert running not in _live_pools()
        finally:
            (tmp_path / "release").touch()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert outcome["results"] == tuple(items)

    def test_repeated_monte_carlo_reuses_its_pool(self):
        shutdown_warm_pools()
        # Two 1024-sample chunks, so the dispatch leaves the inline path.
        kwargs = dict(samples=2048, seed=5, workers=2)
        first = monte_carlo_parallel(hw_large, PAPER_HARDWARE, **kwargs)
        (pool,) = _live_pools()
        second = monte_carlo_parallel(hw_large, PAPER_HARDWARE, **kwargs)
        assert _live_pools() == [pool]
        assert second.samples == first.samples


class TestSplitChunks:
    def test_contiguous_balanced_cover(self):
        chunks = split_chunks(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert [x for chunk in chunks for x in chunk] == list(range(10))

    def test_more_parts_than_items(self):
        assert split_chunks([1, 2], 5) == [[1], [2]]

    def test_empty_items(self):
        assert split_chunks([], 4) == [[]]

    def test_invalid_parts_rejected(self):
        with pytest.raises(ParameterError, match="parts must be >= 1"):
            split_chunks([1], 0)
