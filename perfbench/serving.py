"""The availability service as the benchmark drives it.

:class:`Server` starts ``repro-avail serve`` (or the traced launcher) as a
child process, times launch to the first ``/healthz`` 200, and reads the
process's peak resident set before shutting it down with SIGINT.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time

from common import SRC, child_env

from traffic import Client, http_request

HEALTHZ = http_request("GET", "/healthz")
STATS = http_request("GET", "/v1/stats")


class Server:
    """One ``repro-avail serve`` process on an ephemeral port."""

    def __init__(self, launcher: list[str] | None = None):
        command = launcher or [sys.executable, "-m", "repro", "serve"]
        started = time.monotonic()
        self.process = subprocess.Popen(
            [*command, "--port", "0"],
            cwd=SRC.parent,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(
                    f"server did not start: {line!r} "
                    f"{self.process.stderr.read()[-2000:]}"
                )
            self.port = int(line.strip().rsplit(":", 1)[1])
            while True:
                status, _ = asyncio.run(self._get(HEALTHZ))
                if status == 200:
                    break
                time.sleep(0.002)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.setup_s = time.monotonic() - started

    async def _get(self, data: bytes) -> tuple[int, bytes]:
        async with Client("127.0.0.1", self.port, 1) as client:
            item = await client.request(data)
        return item.status, item.body

    def stats(self) -> dict:
        status, body = asyncio.run(self._get(STATS))
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT, then require the clean-shutdown line."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            out, err = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise RuntimeError("server did not shut down within 60 s")
        if "server shutdown clean" not in out:
            raise RuntimeError(f"unclean server shutdown: {err[-2000:]}")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()

