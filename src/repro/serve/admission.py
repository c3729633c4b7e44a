"""Admission control for the campaign job queue.

Monte-Carlo campaign jobs hold a worker thread (and, with more than one
worker per job, warm-pool worker processes) for seconds to minutes, so
the service bounds what it accepts *before* enqueueing — a saturated
queue answers ``429`` immediately instead of growing an unbounded
backlog:

* a global cap on queued-plus-running jobs (``max_queue_depth``);
* a per-tenant cap on in-flight jobs (``max_tenant_inflight``), so one
  noisy tenant cannot occupy the whole queue.

Rejections raise :class:`AdmissionError` (HTTP 429) and increment shed
counters that surface through the OpenMetrics endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError, ServeError

__all__ = ["AdmissionError", "AdmissionPolicy", "AdmissionController"]


class AdmissionError(ServeError):
    """The job was shed by admission control (HTTP 429)."""

    def __init__(self, message: str):
        super().__init__(message, status=429)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Static admission limits for one service instance."""

    max_queue_depth: int = 32
    max_tenant_inflight: int = 8

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ParameterError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_tenant_inflight < 1:
            raise ParameterError(
                "max_tenant_inflight must be >= 1, got "
                f"{self.max_tenant_inflight}"
            )


class AdmissionController:
    """Tracks in-flight jobs and sheds over-limit submissions."""

    def __init__(self, policy: AdmissionPolicy | None = None):
        self.policy = policy or AdmissionPolicy()
        self._inflight: dict[str, int] = {}
        self._total = 0
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_tenant_cap = 0

    @property
    def total_inflight(self) -> int:
        return self._total

    def tenant_inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    def admit(self, tenant: str) -> None:
        """Reserve a slot for ``tenant`` or raise :class:`AdmissionError`."""
        if self._total >= self.policy.max_queue_depth:
            self.shed_queue_full += 1
            raise AdmissionError(
                f"job queue is full ({self._total} in flight, "
                f"limit {self.policy.max_queue_depth}); retry later"
            )
        held = self._inflight.get(tenant, 0)
        if held >= self.policy.max_tenant_inflight:
            self.shed_tenant_cap += 1
            raise AdmissionError(
                f"tenant {tenant!r} already has {held} jobs in flight "
                f"(limit {self.policy.max_tenant_inflight}); retry later"
            )
        self._inflight[tenant] = held + 1
        self._total += 1
        self.admitted += 1

    def release(self, tenant: str) -> None:
        """Return a slot when a job finishes (success or failure)."""
        held = self._inflight.get(tenant, 0)
        if held <= 0 or self._total <= 0:
            raise ServeError(
                f"release without matching admit for tenant {tenant!r}"
            )
        if held == 1:
            del self._inflight[tenant]
        else:
            self._inflight[tenant] = held - 1
        self._total -= 1

    def counters(self) -> dict[str, int]:
        """Current counter values, keyed for the metrics registry."""
        return {
            "serve.admission.admitted": self.admitted,
            "serve.admission.shed_queue_full": self.shed_queue_full,
            "serve.admission.shed_tenant_cap": self.shed_tenant_cap,
        }
