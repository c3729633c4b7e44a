"""Seeded request streams and the open-loop keep-alive HTTP client.

The client is one asyncio loop in one thread with a fixed set of
keep-alive connections.  Requests are released on a schedule (open loop);
a request waits in a FIFO until a connection is free, and its latency is
measured from the time it was *due*, so a stall shows up in every request
queued behind it.  ``sent - due`` is the generator's lateness.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any

#: Hardware-parameter vocabulary for hot-set keys.
_HW_VOCAB = (0.999, 0.9995, 0.9998, 0.9999)
_HW_MODELS = ("small", "medium", "large")
_OPTIONS = ("1S", "2S", "1L", "2L")
_HW_FIELDS = ("a_role", "a_vm", "a_host", "a_rack")


def _hw_query(rng: random.Random, draw) -> dict[str, Any]:
    query = {"kind": "hw", "model": rng.choice(_HW_MODELS)}
    for name in _HW_FIELDS:
        query[name] = draw()
    return query


def hot_set(rng: random.Random) -> list[dict[str, Any]]:
    """The 36 repeated keys: hw tuples, option queries, reference networks.

    36 keys stay inside the service's 256-entry result cache even with
    every unique query inserted beside them.
    """
    keys: list[dict[str, Any]] = []
    seen: set[str] = set()
    while len(keys) < 24:
        query = _hw_query(rng, lambda: rng.choice(_HW_VOCAB))
        text = json.dumps(query, sort_keys=True)
        if text not in seen:
            seen.add(text)
            keys.append(query)
    for option in _OPTIONS:
        keys.append({"kind": "option", "option": option})
        keys.append(
            {"kind": "option", "option": option, "a_vm": rng.choice(_HW_VOCAB)}
        )
    for switch in ("SW1", "SW2", "SW3"):
        keys.append({"kind": "network", "graph": "backbone", "switch": switch})
    keys.append({"kind": "network", "graph": "line", "switch": "S2"})
    return keys


def _line_graph(rng: random.Random) -> dict[str, Any]:
    """A 4-switch line network with drawn element availabilities."""
    from repro.topology.network_reference import line_network

    graph = line_network().to_dict()
    for section in ("nodes", "links"):
        for element in graph[section]:
            element["availability"] = 1.0 - rng.uniform(1e-5, 1e-3)
    graph["name"] = f"line-{rng.getrandbits(32):08x}"
    return graph


def unique_query(rng: random.Random) -> dict[str, Any]:
    """A query whose key is (almost surely) new to the cache."""
    kind = rng.choices(("hw", "option", "network"), weights=(6, 3, 1))[0]
    if kind == "hw":
        return _hw_query(rng, lambda: 1.0 - rng.uniform(1e-6, 2e-3))
    if kind == "option":
        return {
            "kind": "option",
            "option": rng.choice(_OPTIONS),
            "a_vm": 1.0 - rng.uniform(1e-6, 2e-3),
        }
    return {
        "kind": "network",
        "graph": _line_graph(rng),
        "switch": f"S{rng.randrange(1, 5)}",
    }


def query_stream(
    rng: random.Random, hot: list[dict[str, Any]], hot_share: float, count: int
) -> list[dict[str, Any]]:
    """``count`` queries: ``hot_share`` of them repeat a hot-set key."""
    return [
        rng.choice(hot) if rng.random() < hot_share else unique_query(rng)
        for _ in range(count)
    ]


#: Job kinds in arrival order, repeated: mostly campaigns with mixed
#: options (1S/1L run on the lockstep kernel, 2S/2L on the scalar engine),
#: and a minority of network campaigns.
JOB_PATTERN = ("1S", "2S", "1L", "2L", "network", "2S", "1S", "2L")


def job_stream(rng: random.Random, count: int) -> list[dict[str, Any]]:
    """``count`` job submissions (``{"kind": ..., "spec": ...}``)."""
    jobs = []
    for index in range(count):
        option = JOB_PATTERN[index % len(JOB_PATTERN)]
        if option == "network":
            spec = {
                "graph": "ring",
                "horizon_hours": 2000.0,
                "replications": 4,
                "seed": rng.randrange(1 << 30),
            }
            jobs.append({"kind": "network_campaign", "spec": spec})
        else:
            spec = {
                "option": option,
                "horizon_hours": 2000.0,
                "replications": 8,
                "seed": rng.randrange(1 << 30),
            }
            jobs.append({"kind": "campaign", "spec": spec})
    return jobs


def http_request(
    method: str, path: str, payload: Any = None, tenant: str | None = None
) -> bytes:
    """One keep-alive HTTP/1.1 request, encoded."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if tenant:
        head += f"X-Tenant: {tenant}\r\n"
    if payload is not None:
        head += "Content-Type: application/json\r\n"
    head += f"Content-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


@dataclass
class Item:
    """One request and what happened to it."""

    due: float
    data: bytes
    tag: Any = None
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None
    finished: asyncio.Future | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Due to response, in seconds; infinite when the request failed."""
        return self.done - self.due if self.ok else float("inf")

    @property
    def lateness(self) -> float:
        return self.sent - self.due


async def _exchange(reader, writer, data: bytes) -> tuple[int, bytes]:
    writer.write(data)
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class Client:
    """A fixed pool of keep-alive connections fed from one FIFO."""

    def __init__(self, host: str, port: int, connections: int):
        self.host = host
        self.port = port
        self.connections = connections
        self._queue: asyncio.Queue = asyncio.Queue()
        self._workers: list[asyncio.Task] = []

    async def __aenter__(self) -> "Client":
        for _ in range(self.connections):
            streams = await asyncio.open_connection(self.host, self.port)
            self._workers.append(asyncio.create_task(self._work(streams)))
        return self

    async def __aexit__(self, *exc) -> None:
        for _ in self._workers:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._workers)

    def submit(self, item: Item) -> asyncio.Future:
        if item.finished is None:
            item.finished = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(item)
        return item.finished

    async def request(self, data: bytes) -> Item:
        """Send now and wait for the answer (closed loop)."""
        item = Item(due=time.perf_counter(), data=data)
        await self.submit(item)
        return item

    async def play(self, items: list[Item]) -> None:
        """Release each item at its due time, then wait for all answers."""
        for item in items:
            delay = item.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.submit(item)
        await asyncio.gather(*(item.finished for item in items))

    async def saturate(
        self, requests: list[tuple[bytes, Any]], seconds: float
    ) -> tuple[list[Item], float]:
        """Closed loop: keep every connection busy with the next of
        ``requests`` (``(data, tag)`` pairs) until ``seconds`` have passed
        or they run out.  Returns the answered items and the time taken."""
        start = time.perf_counter()
        end = start + seconds
        supply = iter(requests)
        items: list[Item] = []

        async def lane() -> None:
            for data, tag in supply:
                item = await self.request(data)
                item.tag = tag
                items.append(item)
                if item.done >= end:
                    return

        await asyncio.gather(*(lane() for _ in range(self.connections)))
        return items, max(item.done for item in items) - start

    async def _work(self, streams) -> None:
        reader, writer = streams
        try:
            while True:
                item = await self._queue.get()
                if item is None:
                    return
                item.sent = time.perf_counter()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            self.host, self.port
                        )
                    item.status, item.body = await _exchange(
                        reader, writer, item.data
                    )
                except (OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError) as error:
                    # The request fails; the next one reconnects.
                    item.error = f"{type(error).__name__}: {error}"
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                item.done = time.perf_counter()
                item.finished.set_result(None)
        finally:
            if writer is not None:
                writer.close()
