"""Paths, child-process environment and small statistics helpers."""

from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch files of a run (configs, study outputs, span dumps).
WORK = ROOT / ".perfbench_work"


def child_env() -> dict[str, str]:
    """The environment for program processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; ``inf`` entries (failures) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)

