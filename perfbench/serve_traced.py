"""``repro-avail serve`` with the benchmark's per-layer spans installed.

Usage::

    python3 perfbench/serve_traced.py SPANS.json [serve options...]

Installs the wrappers from :mod:`spans`, runs the same CLI entry point as
``repro-avail serve``, and writes the recorded spans to ``SPANS.json``
after the server has shut down.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    recorder = spans.install_serve_wrappers()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv[1:]])
    finally:
        recorder.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
