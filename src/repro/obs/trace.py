"""Span-based tracing with monotonic timings and nesting.

A :class:`Tracer` records *spans* — named, timed sections of work — as they
complete.  Spans nest: a span opened while another is active records that
span as its parent, so the collected list reconstructs the call tree of an
instrumented run.  Timings come from ``time.perf_counter`` (monotonic, not
wall-clock), expressed relative to the tracer's creation so a trace is
self-contained.

Two entry styles are provided, mirroring the usual tracing APIs:

* context manager — ``with tracer.span("engine.evaluate", roles=3): ...``
* decorator — ``@tracer.wrap("mc.chunk")`` times every call of a function.

Tracers only *observe*: they never touch random state and attach no
behavior to the traced code, which is what lets the determinism tests
demand bit-identical results with tracing on and off.  Most code should not
hold a tracer directly but go through :mod:`repro.obs.runtime`, whose
module-level helpers collapse to no-ops when no session is active.

Alongside in-process spans this module carries the *cross-boundary* trace
context: :class:`TraceContext` is a W3C-``traceparent``-shaped
``(trace_id, span_id, parent_span_id)`` triple assigned per HTTP request
by :mod:`repro.serve.app`, installed with :func:`trace_scope` (a
:mod:`contextvars` scope, so it follows ``await`` chains and
``asyncio.to_thread`` hops), and shipped as a plain dict across the
process-pool boundary by :func:`repro.perf.parallel.map_chunked`.  Ids
come from ``os.urandom`` — never from the seeded simulation generators —
so installing, propagating, or dropping a context cannot perturb results.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "current_trace",
    "new_span_id",
    "new_trace_id",
    "trace_scope",
]


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars), from ``os.urandom``."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars), from ``os.urandom``."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One position in a distributed trace (W3C trace-context shaped).

    Attributes:
        trace_id: 32-hex-char id shared by every span of one request.
        span_id: 16-hex-char id of the current span.
        parent_span_id: the span this one was forked from, or ``None``
            at the root (the HTTP request itself).
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None = None

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (new trace id, new span id, no parent)."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A child context: same trace, new span, parented to this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_span_id=self.span_id,
        )

    @property
    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` when absent/malformed.

        A parsed header yields a *child* of the caller's span (their span
        id becomes ``parent_span_id``), which is how an upstream trace
        continues through this service.
        """
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) < 4:
            return None
        _, trace_id, span_id = parts[0], parts[1], parts[2]
        if len(trace_id) != 32 or len(span_id) != 16:
            return None
        try:
            int(trace_id, 16), int(span_id, 16)
        except ValueError:
            return None
        return cls(
            trace_id=trace_id.lower(),
            span_id=new_span_id(),
            parent_span_id=span_id.lower(),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TraceContext":
        return cls(
            trace_id=str(record["trace_id"]),
            span_id=str(record["span_id"]),
            parent_span_id=(
                None
                if record.get("parent_span_id") is None
                else str(record["parent_span_id"])
            ),
        )


_CURRENT_TRACE: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)


def current_trace() -> TraceContext | None:
    """The installed :class:`TraceContext`, or ``None`` outside any scope."""
    return _CURRENT_TRACE.get()


@contextlib.contextmanager
def trace_scope(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``context`` for the body (``None`` clears any outer scope).

    Context variables follow ``await`` chains and are snapshotted into
    ``asyncio.to_thread`` workers, so a scope opened in a request handler
    is visible to the blocking campaign code the handler hops to.
    """
    token = _CURRENT_TRACE.set(context)
    try:
        yield context
    finally:
        _CURRENT_TRACE.reset(token)


@dataclass(frozen=True)
class Span:
    """One completed, timed section of work.

    Attributes:
        name: dotted span name (``"engine.evaluate_topology"``).
        start: seconds since the tracer's epoch at which the span opened.
        duration: elapsed monotonic seconds.
        depth: nesting depth (0 for top-level spans).
        parent: name of the enclosing span, or ``None`` at top level.
        attrs: small JSON-serializable attributes (grid sizes, counts...).
    """

    name: str
    start: float
    duration: float
    depth: int
    parent: str | None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            start=record["start"],
            duration=record["duration"],
            depth=record["depth"],
            parent=record["parent"],
            attrs=dict(record.get("attrs", {})),
        )


class _ActiveSpan:
    """Context manager for one open span (appends to the tracer on exit)."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        self._start = self._tracer._clock()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        stack = tracer._stack
        stack.pop()
        parent = stack[-1].name if stack else None
        tracer.spans.append(
            Span(
                name=self.name,
                start=self._start - tracer._epoch,
                duration=end - self._start,
                depth=len(stack),
                parent=parent,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects nested :class:`Span` records under one monotonic clock.

    Spans are appended in *completion* order (children before parents);
    :meth:`roots` recovers the top-level phases in start order.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._stack: list[_ActiveSpan] = []
        self.spans: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span: ``with tracer.span("phase", size=n): ...``."""
        return _ActiveSpan(self, name, attrs)

    def wrap(self, name: str | None = None) -> Callable:
        """Decorator timing every call of the wrapped function as a span."""

        def decorate(fn: Callable) -> Callable:
            span_name = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    @property
    def depth(self) -> int:
        """Current nesting depth (number of open spans)."""
        return len(self._stack)

    def roots(self) -> list[Span]:
        """Completed top-level spans, in start order."""
        return sorted(
            (s for s in self.spans if s.depth == 0), key=lambda s: s.start
        )

    def total(self, name: str) -> float:
        """Summed duration of all completed spans called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)
