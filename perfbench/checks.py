"""Output checks, run untimed in the benchmark process after measuring.

Each check recomputes an answer through the library's public API and
compares it with what the program returned.  Every comparison is one
attempted operation in the run's tally; a mismatch is one failed operation
and makes the run incorrect.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np

#: Fig. 3-5 values at the paper's defaults: first, centre and last grid
#: point (the grids have odd point counts, so the centre is a grid point).
PINNED_SWEEPS = {
    "fig3": {
        "Small": (0.999986032304099, 0.9999887326618108, 0.9999899325119243),
        "Medium": (0.999986009211626, 0.9999887196124797, 0.9999899295102548),
        "Large": (0.999995962799817, 0.9999986932557599, 0.999999923202283),
    },
    "fig4": {
        "1S": (0.9999348825945379, 0.9999887338550547, 0.9999898557600515),
        "2S": (0.9998264453246927, 0.9999874763145088, 0.9999898269821327),
        "1L": (0.9999443974967632, 0.9999986765944352, 0.9999998416515518),
        "2L": (0.999835842919889, 0.9999974070509113, 0.999999811670362),
    },
    "fig5": {
        "1S": (0.9995900515369771, 0.9999500015891603, 0.9999860001200649),
        "2S": (0.9975912380270968, 0.9997500514735549, 0.9999660043959764),
        "1L": (0.9996000475132238, 0.9999600011834934, 0.9999960000751748),
        "2L": (0.9976012136438663, 0.9997600490612935, 0.9999760041507217),
    },
}

_HW_FIELDS = ("a_role", "a_vm", "a_host", "a_rack")
_OPTION_FIELDS = (
    "option", "cp", "shared_dp", "local_dp", "dp",
    "cp_downtime_minutes", "dp_downtime_minutes",
)


def canonical(value) -> str:
    """Key-order-free JSON text; equal text means ``==`` values."""
    return json.dumps(value, sort_keys=True)


def _expected_hw(queries: list[dict]) -> list[float]:
    from repro.params.defaults import PAPER_HARDWARE
    from repro.perf import vectorized

    model = queries[0].get("model", "small")
    kernel = getattr(vectorized, f"hw_{model}_array")
    columns = [
        np.array(
            [q.get(name, getattr(PAPER_HARDWARE, name)) for q in queries],
            dtype=np.float64,
        )
        for name in _HW_FIELDS
    ]
    return [float(v) for v in np.atleast_1d(kernel(*columns))]


def _expected_option(query: dict) -> dict:
    from repro.controller.opencontrail import opencontrail_3x
    from repro.models.sw_options import evaluate_option
    from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE

    overrides = {name: query[name] for name in _HW_FIELDS if name in query}
    result = evaluate_option(
        opencontrail_3x(), query["option"],
        replace(PAPER_HARDWARE, **overrides), PAPER_SOFTWARE,
    )
    return {name: getattr(result, name) for name in _OPTION_FIELDS}


def _expected_network(query: dict) -> dict:
    from repro.network.graph import NetworkGraph
    from repro.network.paths import analyze_switch
    from repro.topology.network_reference import reference_network

    graph = query["graph"]
    graph = (
        reference_network(graph) if isinstance(graph, str)
        else NetworkGraph.from_dict(graph)
    )
    analysis = analyze_switch(graph, query["switch"])
    return {
        "switch": analysis.switch,
        "sites": list(analysis.sites),
        "availability": analysis.availability,
        "unavailability": analysis.unavailability,
        "union_bound": analysis.union_bound,
        "max_order": analysis.max_order,
        "cut_sets": len(analysis.cut_sets),
    }


def check_queries(answers: list[tuple[dict, bytes]], tally) -> None:
    """Every query response equals the library's answer for its query."""
    expected: dict[str, object] = {}
    hw_groups: dict[str, list[dict]] = {}
    for query, _ in answers:
        key = canonical(query)
        if key in expected:
            continue
        expected[key] = None
        if query["kind"] == "hw":
            hw_groups.setdefault(query.get("model", "small"), []).append(query)
        elif query["kind"] == "option":
            expected[key] = _expected_option(query)
        else:
            expected[key] = _expected_network(query)
    for group in hw_groups.values():
        for query, value in zip(group, _expected_hw(group)):
            expected[canonical(query)] = {"availability": value}
    for query, body in answers:
        want = expected[canonical(query)]
        got = json.loads(body)
        if query["kind"] == "network":
            # The SDP sum's term order follows set iteration order, which
            # varies between processes, so the last bits do too; the
            # repository's golden tolerance for exact network values is
            # 1e-12.
            ok = all(
                abs(got.get(name, 2.0) - value) <= 1e-12
                if isinstance(value, float)
                else got.get(name) == value
                for name, value in want.items()
            )
        else:
            ok = canonical({name: got.get(name) for name in want}) == canonical(
                want
            )
        tally.add(ok, f"{query['kind']} answer differs: {canonical(query)[:200]}")


def _expected_job(job: dict) -> dict:
    if job["kind"] == "campaign":
        from repro.faults.campaign import CampaignSpec
        from repro.faults.crossval import evaluate_campaign
        from repro.reporting.faults import crossval_payload

        spec = CampaignSpec.from_dict(job["spec"])
        return crossval_payload(evaluate_campaign(spec, workers=1))
    from repro.network.campaign import NetworkCampaignSpec, run_network_campaign
    from repro.topology.network_reference import reference_network

    record = dict(job["spec"])
    record["graph"] = reference_network(record["graph"]).to_dict()
    spec = NetworkCampaignSpec.from_dict(record)
    result = run_network_campaign(spec, workers=1)
    return {
        "spec_hash": spec.params_hash(),
        "per_switch": result.per_switch(),
        "fleet_availability": result.fleet_availability(),
        "all_switches_availability": result.all_switches_availability(),
        "injections": result.total_injections(),
        "seeds": list(result.seeds),
    }


def check_jobs(statuses: list[tuple[dict, dict]], tally, expected: dict) -> None:
    """The first finished job of each kind and option, rerun in-process:
    campaigns 1S and 1L (lockstep kernel), 2S and 2L (scalar engine), and
    a network campaign.  ``expected`` keeps reruns by job, across calls."""
    sampled: set[str] = set()
    for job, status in statuses:
        label = job["kind"] + job["spec"].get("option", "")
        if status["state"] != "done" or label in sampled:
            continue
        sampled.add(label)
        key = canonical(job)
        if key not in expected:
            # Through JSON and back, as the server's answer went.
            expected[key] = canonical(json.loads(canonical(_expected_job(job))))
        tally.add(
            canonical(status["result"]) == expected[key],
            f"job result differs from in-process run: {label}",
        )


def check_serve(serves: list[dict], tally) -> None:
    """Every query answer and the sampled job results of every server."""
    check_queries(
        [
            answer
            for serve in serves
            for phase in ("serve_query", "serve_jobs")
            for answer in serve[phase]["answers"]
        ],
        tally,
    )
    expected: dict[str, str] = {}
    for serve in serves:
        check_jobs(serve["serve_jobs"]["statuses"], tally, expected)


# -- study ---------------------------------------------------------------------


def _check_sweeps(config: dict, sweeps: dict, tally) -> None:
    from repro.controller.opencontrail import opencontrail_3x
    from repro.params.defaults import PAPER_HARDWARE, PAPER_SOFTWARE
    from repro.perf import vectorized

    spec = opencontrail_3x()
    reference = {
        "fig3": vectorized.fig3_series_vectorized(
            PAPER_HARDWARE, points=config["fig3_points"]
        ),
        "fig4": vectorized.fig4_series_vectorized(
            spec, PAPER_HARDWARE, PAPER_SOFTWARE,
            points=config["fig45_points"],
        ),
        "fig5": vectorized.fig5_series_vectorized(
            spec, PAPER_HARDWARE, PAPER_SOFTWARE,
            points=config["fig45_points"],
        ),
    }
    for figure, series in reference.items():
        for label, values in series.series.items():
            got = np.asarray(sweeps[figure][label])
            tally.add(
                got.shape == (len(values),)
                and bool(np.all(np.abs(got - np.asarray(values)) <= 1e-12)),
                f"{figure} {label} differs from the vectorized series",
            )
    for figure, labels in PINNED_SWEEPS.items():
        for label, pinned in labels.items():
            values = sweeps[figure][label]
            got = (values[0], values[len(values) // 2], values[-1])
            tally.add(
                all(abs(a - b) <= 1e-12 for a, b in zip(got, pinned)),
                f"{figure} {label} moved from the pinned values",
            )


def check_study(config: dict, records: list[dict], tally) -> dict:
    """Sweeps, campaign rows and placement of every study pass.

    The scalar campaign is rerun whole at ``workers=1``, so every
    replication of both warm-pool workers' chunks is compared.  Returns
    that rerun's scalar-engine event count and wall time: the one
    single-process scalar run the benchmark makes.
    """
    import study
    from repro.faults.campaign import run_campaign
    from repro.network.placement import placement_value

    started = time.perf_counter()
    sequential = run_campaign(study.campaign_spec(config), workers=1)
    rerun = {
        "scalar_s": time.perf_counter() - started,
        "scalar_events": sum(stat["events"] for stat in sequential.stats),
    }
    sequential_rows = study.result_rows(sequential.replications)
    sequential_stats = json.loads(canonical(list(sequential.stats)))
    scalar = run_campaign(study.batched_spec(config, 4), batched="off")
    scalar_rows = study.result_rows(scalar.replications)
    graph = study.placement_graph(config)
    for record in records:
        _check_sweeps(config, record["sweeps"], tally)
        tally.add(
            record["campaign"]["rows"] == sequential_rows
            and record["campaign"]["stats"] == sequential_stats,
            "2-worker campaign rows differ from a workers=1 rerun",
        )
        tally.add(
            record["batched_campaign"]["rows"][:4] == scalar_rows,
            "lockstep campaign rows differ from batched='off'",
        )
        placed = record["placement"]
        value, per_switch = placement_value(
            graph, tuple(placed["sites"]), graph.switches
        )
        tally.add(
            abs(value - placed["availability"]) <= 1e-12
            and all(
                abs(per_switch[name] - placed["per_switch"][name]) <= 1e-12
                for name in graph.switches
            )
            and set(placed["sites"]) <= set(config["placement_candidates"]),
            "placement fleet value differs from per-switch SDP evaluation",
        )
    return rerun
