"""Self-test of the benchmark.

Usage::

    python3 perfbench/selftest.py

Runs every workload named in ``BENCHMARK.json`` bare and traced at a tiny
size (``--seconds 6``, which also shrinks the study) and asserts that each
metric ``BENCHMARK.json`` names is printed with its unit and that the run
is correct, and asserts that a deliberately corrupted response is reported
as a failure.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
from common import ROOT  # noqa: E402
from run import Tally  # noqa: E402


def check_run(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(_HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "6", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = metrics.spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}, sorted(
        result["metrics"]
    )
    for metric in listed:
        name = metric["name"]
        record = result["metrics"][name]
        assert record["unit"] == metric["unit"], (name, record)
        assert isinstance(record["value"], float), (name, record)
        assert f"{name} = " in done.stdout, name


def check_corruption_detected() -> None:
    import numpy as np

    query = {"kind": "hw", "model": "medium", "a_role": 0.9995,
             "a_vm": 0.9998, "a_host": 0.9999, "a_rack": 0.99999}
    (value,) = checks._expected_hw([query])
    good = json.dumps({"kind": "hw", "availability": value}).encode()
    bad = json.dumps(
        {"kind": "hw", "availability": float(np.nextafter(value, 0.0))}
    ).encode()
    tally = Tally()
    checks.check_queries([(query, good)], tally)
    assert tally.failed == 0, tally.messages
    checks.check_queries([(query, bad)], tally)
    assert tally.failed == 1 and tally.attempted == 2, tally.messages


def main() -> int:
    check_corruption_detected()
    for workload in (w["name"] for w in metrics.spec()["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok: {workload} trace={trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
