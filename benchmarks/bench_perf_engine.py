"""P1 — speedups of the parallel/vectorized evaluation engine.

Measures the three throughput layers of :mod:`repro.perf` against the
sequential seed paths and records the results in ``BENCH_perf.json`` at the
repository root:

* ``monte_carlo``: a 10k-sample uncertainty run of the Large HW model,
  sequential generator loop vs the chunked ``SeedSequence.spawn`` runner
  with 4 process workers and vectorized chunk evaluation (target >= 4x);
* ``sweep``: the Fig. 3 closed forms on a 2001-point grid, per-point Python
  loop vs whole-grid array evaluation (target >= 10x);
* ``engine_cache``: repeated exact-engine evaluations with and without the
  frozen-parameter memo.

Timings are best-of-``repeats`` wall clock; the Monte-Carlo comparison
reports both a cold pool (each timed call follows an untimed
``shutdown_warm_pools()``, so it includes process start-up) and a warm pool
(the registry's pool reused after one untimed call: steady-state
throughput).  Runnable as a pytest benchmark *or* directly as a script —
``python benchmarks/bench_perf_engine.py --samples 2048 --points 101
--workers 2`` is the CI smoke invocation (two 1024-sample chunks, so the
pooled dispatch runs).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # script mode: make src/ importable without install
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.figures import fig3_series
from repro.analysis.uncertainty import monte_carlo
from repro.models.engine import (
    clear_engine_cache,
    evaluate_topology_cached,
)
from repro.models.hw_closed import hw_large
from repro.models.sw import plane_requirements
from repro.controller.opencontrail import opencontrail_3x
from repro.controller.spec import Plane
from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE
from repro.params.software import RestartScenario
from repro.obs import runtime as obs
from repro.perf import (
    fig3_series_vectorized,
    monte_carlo_parallel,
    shutdown_warm_pools,
)
from repro.reporting.tables import format_table
from repro.topology.reference import reference_topology

BENCH_SEED = 20190324  # the paper's conference date; any fixed value works
DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"


def _best_of(fn, repeats: int, before=None) -> float:
    """Best wall time of ``fn``; ``before`` runs untimed ahead of each call."""
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def run_perf_bench(
    samples: int = 10_000,
    points: int = 2001,
    workers: int = 4,
    repeats: int = 3,
) -> dict:
    """Time every layer and return the record written to BENCH_perf.json."""
    hardware = PAPER_HARDWARE

    # -- monte carlo: sequential seed path vs parallel engine ----------------
    mc_sequential = _best_of(
        lambda: monte_carlo(
            hw_large, hardware, samples=samples, seed=BENCH_SEED
        ),
        repeats,
    )
    def mc_pooled() -> None:
        monte_carlo_parallel(
            hw_large, hardware, samples=samples, seed=BENCH_SEED,
            workers=workers,
        )

    mc_cold = _best_of(mc_pooled, repeats, before=shutdown_warm_pools)
    mc_pooled()  # untimed: the first dispatch pays the fork cost
    mc_warm = _best_of(mc_pooled, repeats)

    # -- sweeps: per-point loop vs whole-grid arrays -------------------------
    sweep_scalar = _best_of(
        lambda: fig3_series(hardware, points=points), repeats
    )
    sweep_vector = _best_of(
        lambda: fig3_series_vectorized(hardware, points=points), repeats
    )

    # -- engine memo cache ---------------------------------------------------
    spec = opencontrail_3x()
    topology = reference_topology("small", spec)
    requirements = plane_requirements(
        spec, Plane.CP, PAPER_SOFTWARE, RestartScenario.REQUIRED
    )
    availability = {
        "rack": hardware.a_rack,
        "host": hardware.a_host,
        "vm": hardware.a_vm,
    }
    evaluations = 50

    def engine_cold() -> None:
        clear_engine_cache()
        for _ in range(evaluations):
            evaluate_topology_cached(topology, requirements, availability)

    def engine_warm() -> None:
        for _ in range(evaluations):
            evaluate_topology_cached(topology, requirements, availability)

    cache_cold = _best_of(engine_cold, repeats)
    evaluate_topology_cached(topology, requirements, availability)
    cache_warm = _best_of(engine_warm, repeats)

    # -- observability overhead ----------------------------------------------
    # The instrumentation must be zero-cost while disabled and near-free even
    # while recording, so the whole MC run (inline, vectorized) is timed with
    # the runtime off and with a session actively collecting spans/metrics.
    # Extra repeats: the quantity of interest is a ratio of two short runs.
    obs_repeats = max(repeats, 5)

    def mc_inline() -> None:
        monte_carlo_parallel(
            hw_large, hardware, samples=samples, seed=BENCH_SEED, workers=1
        )

    obs.stop()  # belt and braces: measure from a known-disabled state
    obs_disabled = _best_of(mc_inline, obs_repeats)
    with obs.session("bench-overhead"):
        obs_enabled = _best_of(mc_inline, obs_repeats)

    return {
        "seed": BENCH_SEED,
        "workers": workers,
        "repeats": repeats,
        "monte_carlo": {
            "samples": samples,
            "sequential_s": mc_sequential,
            "parallel_cold_pool_s": mc_cold,
            "parallel_warm_pool_s": mc_warm,
            "speedup_cold_pool": mc_sequential / mc_cold,
            "speedup_warm_pool": mc_sequential / mc_warm,
        },
        "sweep": {
            "points": points,
            "scalar_s": sweep_scalar,
            "vectorized_s": sweep_vector,
            "speedup": sweep_scalar / sweep_vector,
        },
        "engine_cache": {
            "evaluations": evaluations,
            "uncached_s": cache_cold,
            "cached_s": cache_warm,
            "speedup": cache_cold / cache_warm,
        },
        "obs_overhead": {
            "samples": samples,
            "disabled_s": obs_disabled,
            "enabled_s": obs_enabled,
            "overhead_fraction": obs_enabled / obs_disabled - 1.0,
        },
    }


def _report(record: dict, out_path: Path) -> None:
    mc, sw, ec = record["monte_carlo"], record["sweep"], record["engine_cache"]
    rows = [
        (
            f"monte_carlo x{mc['samples']} (cold pool)",
            f"{mc['sequential_s'] * 1e3:.1f}",
            f"{mc['parallel_cold_pool_s'] * 1e3:.1f}",
            f"{mc['speedup_cold_pool']:.1f}x",
        ),
        (
            f"monte_carlo x{mc['samples']} (warm pool)",
            f"{mc['sequential_s'] * 1e3:.1f}",
            f"{mc['parallel_warm_pool_s'] * 1e3:.1f}",
            f"{mc['speedup_warm_pool']:.1f}x",
        ),
        (
            f"fig3 sweep x{sw['points']}",
            f"{sw['scalar_s'] * 1e3:.1f}",
            f"{sw['vectorized_s'] * 1e3:.1f}",
            f"{sw['speedup']:.1f}x",
        ),
        (
            f"exact engine x{ec['evaluations']}",
            f"{ec['uncached_s'] * 1e3:.1f}",
            f"{ec['cached_s'] * 1e3:.1f}",
            f"{ec['speedup']:.1f}x",
        ),
        (
            f"obs tracing x{record['obs_overhead']['samples']}",
            f"{record['obs_overhead']['disabled_s'] * 1e3:.1f}",
            f"{record['obs_overhead']['enabled_s'] * 1e3:.1f}",
            f"{record['obs_overhead']['overhead_fraction'] * 100:+.1f}%",
        ),
    ]
    print(
        "\n"
        + format_table(
            ("Workload", "Sequential (ms)", "Engine (ms)", "Speedup"),
            rows,
            title=(
                f"P1: parallel/vectorized evaluation engine "
                f"(workers={record['workers']})"
            ),
        )
    )
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")


def test_perf_engine():
    record = run_perf_bench()
    _report(record, DEFAULT_OUT)
    # Acceptance thresholds: 4 workers beat the sequential 10k-sample seed
    # path >= 4x, whole-grid sweeps beat the per-point loop >= 10x.
    assert record["monte_carlo"]["speedup_warm_pool"] >= 4.0
    assert record["sweep"]["speedup"] >= 10.0
    assert record["engine_cache"]["speedup"] >= 2.0
    # Tracing a 10k-sample MC run costs < 5% over the disabled-mode path
    # (and the disabled-mode hooks are a strict subset of that work).
    assert record["obs_overhead"]["overhead_fraction"] < 0.05


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--points", type=int, default=2001)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the acceptance speedups are met",
    )
    args = parser.parse_args(argv)
    record = run_perf_bench(
        samples=args.samples,
        points=args.points,
        workers=args.workers,
        repeats=args.repeats,
    )
    _report(record, args.out)
    if args.check:
        assert record["monte_carlo"]["speedup_warm_pool"] >= 4.0
        assert record["sweep"]["speedup"] >= 10.0
    return 0


if __name__ == "__main__":
    sys.exit(main())
