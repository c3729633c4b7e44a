"""Determinism and correctness of the parallel runners (perf.parallel,
sim.replicate) and the engine memo cache."""

import pytest

from repro.analysis.uncertainty import monte_carlo
from repro.errors import ParameterError, SimulationError
from repro.models.engine import (
    clear_engine_cache,
    engine_cache_info,
    evaluate_topology_cached,
    evaluate_topology,
)
from repro.models.hw_closed import hw_large, hw_small
from repro.models.sw import plane_requirements
from repro.controller.spec import Plane
from repro.params.software import RestartScenario
from repro.perf import chunk_bounds, monte_carlo_parallel
from repro.sim.controller_sim import SimulationConfig
from repro.sim.replicate import run_replications
from repro.sim.rng import derive_seeds

S2 = RestartScenario.REQUIRED


def fast_config(seed=17):
    return SimulationConfig(
        seed=seed,
        horizon_hours=4000.0,
        batches=4,
        rack_mtbf_hours=2000.0,
        host_mtbf_hours=1000.0,
        vm_mtbf_hours=500.0,
    )


class TestChunking:
    def test_chunks_cover_sample_space(self):
        bounds = chunk_bounds(10, 4)
        assert bounds == [(0, 0, 4), (1, 4, 8), (2, 8, 10)]

    def test_invalid_arguments_raise(self):
        with pytest.raises(ParameterError):
            chunk_bounds(0, 4)
        with pytest.raises(ParameterError):
            chunk_bounds(10, 0)


class TestMonteCarloParallel:
    def test_bit_identical_across_worker_counts(self, hardware):
        kwargs = dict(samples=400, seed=7, chunk_size=64)
        sequential = monte_carlo_parallel(
            hw_large, hardware, workers=1, **kwargs
        )
        parallel = monte_carlo_parallel(hw_large, hardware, workers=4, **kwargs)
        assert sequential.samples == parallel.samples

    def test_scalar_fallback_matches_vectorized(self, hardware):
        kwargs = dict(samples=300, seed=3, chunk_size=128)
        vectorized = monte_carlo_parallel(hw_small, hardware, **kwargs)
        scalar = monte_carlo_parallel(
            hw_small, hardware, vectorize=False, **kwargs
        )
        for a, b in zip(vectorized.samples, scalar.samples):
            assert a == pytest.approx(b, abs=1e-12)

    def test_chunk_size_does_not_depend_on_workers(self, hardware):
        one_chunk = monte_carlo_parallel(
            hw_large, hardware, samples=200, seed=5, chunk_size=1024
        )
        reference = monte_carlo_parallel(
            hw_large, hardware, samples=200, seed=5, chunk_size=1024, workers=2
        )
        assert one_chunk.samples == reference.samples

    def test_distribution_agrees_with_sequential_path(self, hardware):
        sequential = monte_carlo(hw_large, hardware, samples=600, seed=11)
        engine = monte_carlo_parallel(hw_large, hardware, samples=600, seed=11)
        # Different derivation trees, same distribution: compare summaries.
        assert engine.mean == pytest.approx(sequential.mean, abs=1e-6)
        assert engine.p5 == pytest.approx(sequential.p5, abs=5e-6)

    def test_monte_carlo_workers_kwarg_delegates(self, hardware):
        direct = monte_carlo_parallel(hw_large, hardware, samples=128, seed=2)
        via_wrapper = monte_carlo(
            hw_large, hardware, samples=128, seed=2, workers=1
        )
        assert direct.samples == via_wrapper.samples

    def test_invalid_workers_raise(self, hardware):
        with pytest.raises(ParameterError):
            monte_carlo_parallel(hw_large, hardware, samples=10, workers=0)


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        seeds = derive_seeds(42, 6)
        assert seeds == derive_seeds(42, 6)
        assert len(set(seeds)) == 6
        assert derive_seeds(42, 3) == seeds[:3]

    def test_negative_count_raises(self):
        with pytest.raises(SimulationError):
            derive_seeds(1, -1)


@pytest.mark.slow
class TestReplications:
    def test_bit_identical_across_worker_counts(
        self, spec, small, stressed_hardware, stressed_software
    ):
        kwargs = dict(config=fast_config(), replications=4)
        sequential = run_replications(
            spec, small, stressed_hardware, stressed_software, S2,
            workers=1, **kwargs,
        )
        parallel = run_replications(
            spec, small, stressed_hardware, stressed_software, S2,
            workers=4, **kwargs,
        )
        assert sequential.seeds == parallel.seeds
        for a, b in zip(sequential.results, parallel.results):
            assert (a.cp, a.shared_dp, a.local_dp, a.dp) == (
                b.cp, b.shared_dp, b.local_dp, b.dp,
            )

    def test_merged_measures(
        self, spec, small, stressed_hardware, stressed_software
    ):
        merged = run_replications(
            spec, small, stressed_hardware, stressed_software, S2,
            config=fast_config(), replications=3,
        )
        assert merged.replications == 3
        values = [result.cp for result in merged.results]
        assert merged.availability("cp") == pytest.approx(
            sum(values) / len(values)
        )
        interval = merged.interval("cp")
        assert interval.low <= merged.availability("cp") <= interval.high
        outages = merged.outage_statistics("cp")
        assert outages.count == sum(
            result.outage_statistics("cp").count for result in merged.results
        )
        with pytest.raises(SimulationError):
            merged.availability("nope")

    def test_replications_are_independent(
        self, spec, small, stressed_hardware, stressed_software
    ):
        merged = run_replications(
            spec, small, stressed_hardware, stressed_software, S2,
            config=fast_config(), replications=3,
        )
        assert len({result.cp for result in merged.results}) > 1


class TestEngineCache:
    def test_cached_engine_matches_uncached(self, spec, small, hardware, software):
        requirements = plane_requirements(spec, Plane.CP, software, S2)
        availability = {
            "rack": hardware.a_rack,
            "host": hardware.a_host,
            "vm": hardware.a_vm,
        }
        clear_engine_cache()
        cached = evaluate_topology_cached(small, requirements, availability)
        direct = evaluate_topology(small, requirements, availability)
        assert cached == direct
        before = engine_cache_info().hits
        again = evaluate_topology_cached(small, requirements, availability)
        assert again == direct
        assert engine_cache_info().hits == before + 1
