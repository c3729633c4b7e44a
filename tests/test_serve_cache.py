"""Single-flight cache and micro-batching semantics."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ParameterError
from repro.serve.batching import MicroBatcher
from repro.serve.cache import (
    CACHE_KEY_VERSIONS,
    SingleFlightCache,
    result_key,
)


def run(coroutine):
    return asyncio.run(coroutine)


class TestResultKey:
    def test_is_order_insensitive(self):
        a = result_key("hw", {"a_role": 0.999, "a_vm": 0.99})
        b = result_key("hw", {"a_vm": 0.99, "a_role": 0.999})
        assert a == b

    def test_distinguishes_kind_and_payload(self):
        base = result_key("hw", {"a_role": 0.999})
        assert result_key("option", {"a_role": 0.999}) != base
        assert result_key("hw", {"a_role": 0.998}) != base

    def test_version_bump_invalidates_every_key(self):
        # The invalidation rule: keys embed the schema/package versions,
        # so bumping any of them changes all keys at once.
        payload = {"option": "2S"}
        current = result_key("option", payload)
        bumped = dict(CACHE_KEY_VERSIONS)
        bumped["telemetry_schema"] = bumped["telemetry_schema"] + 1
        assert result_key("option", payload, versions=bumped) != current

    def test_embeds_all_schema_versions(self):
        from repro.obs.manifest import SCHEMA_VERSION
        from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION

        assert CACHE_KEY_VERSIONS["manifest_schema"] == SCHEMA_VERSION
        assert (
            CACHE_KEY_VERSIONS["telemetry_schema"] == TELEMETRY_SCHEMA_VERSION
        )
        assert "package" in CACHE_KEY_VERSIONS


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self):
        cache = SingleFlightCache()
        calls = 0

        async def compute():
            nonlocal calls
            calls += 1
            await asyncio.sleep(0.01)
            return 42

        async def scenario():
            return await asyncio.gather(
                *(
                    cache.get_with_outcome("k", compute)
                    for _ in range(8)
                )
            )

        results = run(scenario())
        assert calls == 1
        assert [value for value, _ in results] == [42] * 8
        outcomes = sorted(outcome for _, outcome in results)
        assert outcomes.count("miss") == 1
        assert outcomes.count("coalesced") == 7
        assert cache.misses == 1
        assert cache.coalesced == 7

    def test_completed_entry_is_a_hit(self):
        cache = SingleFlightCache()

        async def compute():
            return "value"

        async def scenario():
            first = await cache.get_with_outcome("k", compute)
            second = await cache.get_with_outcome("k", compute)
            return first, second

        (value1, outcome1), (value2, outcome2) = run(scenario())
        assert (outcome1, outcome2) == ("miss", "hit")
        assert value1 == value2 == "value"
        assert cache.hits == 1

    def test_lru_bound_evicts_oldest(self):
        cache = SingleFlightCache(max_entries=2)

        async def scenario():
            async def make(value):
                return value

            await cache.get("a", lambda: make(1))
            await cache.get("b", lambda: make(2))
            await cache.get("a", lambda: make(1))  # refresh a
            await cache.get("c", lambda: make(3))  # evicts b
            assert "b" not in cache
            assert cache.evictions == 1
            assert "a" in cache and "c" in cache
            # Re-fetching the evicted key is a fresh miss (which in turn
            # evicts the now-oldest entry, keeping the bound).
            return await cache.get_with_outcome("b", lambda: make(2))

        _, outcome = run(scenario())
        assert outcome == "miss"
        assert cache.evictions == 2
        assert len(cache) == 2

    def test_failures_propagate_and_are_not_cached(self):
        cache = SingleFlightCache()
        calls = 0

        async def explode():
            nonlocal calls
            calls += 1
            await asyncio.sleep(0.01)
            raise RuntimeError("boom")

        async def scenario():
            results = await asyncio.gather(
                *(cache.get("k", explode) for _ in range(3)),
                return_exceptions=True,
            )
            return results

        results = run(scenario())
        assert calls == 1
        assert all(isinstance(result, RuntimeError) for result in results)
        assert "k" not in cache

        async def recover():
            return await cache.get_with_outcome("k", ok)

        async def ok():
            return "fine"

        value, outcome = run(recover())
        assert (value, outcome) == ("fine", "miss")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ParameterError):
            SingleFlightCache(max_entries=0)

    def test_counters_mapping(self):
        cache = SingleFlightCache()
        counters = cache.counters()
        assert set(counters) == {
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.cache.coalesced",
            "serve.cache.evictions",
        }


class TestMicroBatcher:
    def test_lone_submit_resolves_without_a_timer(self):
        calls: list[list] = []

        def lower(batch):
            calls.append(batch)
            return [item + 1 for item in batch]

        batcher = MicroBatcher(lower)
        timers: list[tuple] = []

        async def scenario():
            loop = asyncio.get_running_loop()
            call_later, call_at = loop.call_later, loop.call_at

            def record_later(*args, **kwargs):
                timers.append(args)
                return call_later(*args, **kwargs)

            def record_at(*args, **kwargs):
                timers.append(args)
                return call_at(*args, **kwargs)

            loop.call_later, loop.call_at = record_later, record_at
            try:
                return await batcher.submit(41)
            finally:
                loop.call_later, loop.call_at = call_later, call_at

        assert run(scenario()) == 42
        assert calls == [[41]]
        assert timers == []  # flushed on the next loop pass, not a timer

    def test_concurrent_requests_lower_to_one_call(self):
        calls: list[list] = []

        def lower(batch):
            calls.append(batch)
            return [item * 10 for item in batch]

        batcher = MicroBatcher(lower)

        async def scenario():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(5))
            )

        results = run(scenario())
        assert results == [0, 10, 20, 30, 40]
        assert len(calls) == 1  # one lowered call for the burst
        assert batcher.batches == 1
        assert batcher.largest_batch == 5

    def test_batched_equals_per_request_exactly(self):
        """A batched hw evaluation is ``==`` to one-at-a-time evaluation."""
        from repro.serve.app import _hw_models, _lower_hw

        params = [
            {
                "a_role": 0.999 + 0.0001 * i,
                "a_vm": 0.9995,
                "a_host": 0.9992,
                "a_rack": 0.9999,
            }
            for i in range(7)
        ]
        for model_fn in _hw_models().values():
            batched = _lower_hw(model_fn, params)
            individual = [_lower_hw(model_fn, [item])[0] for item in params]
            assert batched == individual  # exact, not approximate

    def test_full_batch_flushes_immediately(self):
        calls: list[list] = []

        def lower(batch):
            calls.append(batch)
            return list(batch)

        batcher = MicroBatcher(lower, max_batch=3)

        async def scenario():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(5))
            )

        results = run(asyncio.wait_for(scenario(), timeout=5.0))
        assert results == [0, 1, 2, 3, 4]
        # The third submission fills the batch and flushes it at once; the
        # remainder goes out on the next loop pass.
        assert calls == [[0, 1, 2], [3, 4]]
        assert batcher.batches == 2
        assert batcher.largest_batch == 3

    def test_trace_records_batch_and_kernel_segments(self):
        from repro.obs.trace import TraceContext
        from repro.serve.tracing import RequestTrace, request_scope

        batcher = MicroBatcher(lambda batch: list(batch))
        traces = [
            RequestTrace(context=TraceContext.new(), started=0.0)
            for _ in range(3)
        ]

        async def one(trace, payload):
            with request_scope(trace):
                return await batcher.submit(payload)

        async def scenario():
            return await asyncio.gather(
                *(one(trace, i) for i, trace in enumerate(traces))
            )

        assert run(scenario()) == [0, 1, 2]
        for trace in traces:
            assert set(trace.segments) == {"batch_assembly", "kernel_compute"}
            assert trace.annotations["batch_size"] == 3

    def test_lowering_failure_reaches_every_waiter(self):
        def lower(batch):
            raise ValueError("kernel rejected the batch")

        batcher = MicroBatcher(lower)

        async def scenario():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(3)),
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(result, ValueError) for result in results)

    def test_result_length_mismatch_is_an_error(self):
        from repro.errors import ServeError

        batcher = MicroBatcher(lambda batch: [1])

        async def scenario():
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(2)),
                return_exceptions=True,
            )

        results = run(scenario())
        assert all(isinstance(result, ServeError) for result in results)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ParameterError):
            MicroBatcher(lambda batch: batch, max_batch=0)
