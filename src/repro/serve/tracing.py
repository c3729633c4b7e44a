"""Per-request trace state and latency attribution for the serving layer.

Every HTTP request handled by :class:`repro.serve.app.ServeApp` gets a
:class:`RequestTrace`: the request's :class:`~repro.obs.trace.TraceContext`
(root span of the distributed trace) plus an accumulator of named latency
*segments* — where the request's wall time actually went:

* ``queue_wait`` — time a campaign job sat in its shard queue before a
  worker picked it up;
* ``cache`` — time inside the single-flight cache not spent computing
  (a hit's lookup, or a coalesced waiter's wait on another request's
  in-flight computation);
* ``batch_assembly`` — time a hardware query waited between its
  micro-batch submission and the flush, which runs on the next
  event-loop iteration (or at once when the batch is full);
* ``kernel_compute`` — time in the vectorized kernel (or the blocking
  analytic evaluation) itself;
* ``other`` — the residual (routing, JSON encode/decode, event-loop
  scheduling), added by :meth:`RequestTrace.finalize` so the segments of
  a request always sum to its measured wall latency.

The trace is installed with :func:`request_scope` — a
:mod:`contextvars` scope, so the cache and batcher deep below the router
can attribute time to the right request without new call signatures, and
a scope captured at batch-submit time survives into the flush callback.
Everything here is observational: no segment recording touches query
results, and with no scope installed every hook is a single ``None``
check.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.trace import TraceContext, trace_scope

__all__ = [
    "SEGMENT_NAMES",
    "RequestTrace",
    "current_request",
    "request_scope",
]

#: The attribution segments exported as ``serve.segment_seconds.*``
#: histograms (``other`` is the finalize-time residual).
SEGMENT_NAMES = (
    "queue_wait",
    "cache",
    "batch_assembly",
    "kernel_compute",
    "other",
)


@dataclass
class RequestTrace:
    """One request's trace context plus its latency attribution."""

    context: TraceContext
    started: float
    segments: dict[str, float] = field(default_factory=dict)
    annotations: dict[str, Any] = field(default_factory=dict)

    def add_segment(self, name: str, seconds: float) -> None:
        """Attribute ``seconds`` of this request's wall time to ``name``."""
        if seconds > 0.0:
            self.segments[name] = self.segments.get(name, 0.0) + seconds

    def annotate(self, **fields: Any) -> None:
        """Attach small JSON-serializable facts (cache owner, batch size)."""
        self.annotations.update(fields)

    def finalize(self, total_seconds: float) -> dict[str, float]:
        """Close the books: add the ``other`` residual and return segments.

        The residual is clamped at zero, so double-counted segments (a
        bug) show up as segments summing to *more* than the wall latency —
        the property the loadtest's coverage check enforces from outside.
        """
        named = sum(self.segments.values())
        self.add_segment("other", total_seconds - named)
        return dict(self.segments)

    def payload(self) -> dict[str, Any]:
        """The ``trace`` section embedded in query responses."""
        record: dict[str, Any] = {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "segments": {
                name: round(seconds, 9)
                for name, seconds in sorted(self.segments.items())
            },
        }
        if self.context.parent_span_id:
            record["parent_span_id"] = self.context.parent_span_id
        record.update(self.annotations)
        return record


_CURRENT_REQUEST: ContextVar[RequestTrace | None] = ContextVar(
    "serve_request_trace", default=None
)


def current_request() -> RequestTrace | None:
    """The in-scope :class:`RequestTrace`, or ``None`` outside a request."""
    return _CURRENT_REQUEST.get()


@contextlib.contextmanager
def request_scope(trace: RequestTrace) -> Iterator[RequestTrace]:
    """Install ``trace`` (and its context as the ambient obs trace)."""
    token = _CURRENT_REQUEST.set(trace)
    try:
        with trace_scope(trace.context):
            yield trace
    finally:
        _CURRENT_REQUEST.reset(token)
