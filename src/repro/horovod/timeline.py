"""Horovod-timeline style event tracing.

Horovod can emit a Chrome-trace JSON (``HOROVOD_TIMELINE``) that the paper's
methodology uses to find where cycles go (negotiation vs. queueing vs.
allreduce).  :class:`Timeline` is the equivalent here: runtime components
record phase spans, and :func:`repro.trace.merged_chrome_trace` writes
them as the same ``traceEvents`` JSON structure, loadable in
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Timeline", "TimelineEvent"]

#: Recognized phases, in typical lifecycle order.
PHASES = (
    "NEGOTIATE",   # coordinator gather/bcast of readiness
    "QUEUE",       # tensor waiting for its cycle / for other ranks
    "MEMCPY_IN",   # pack into the fusion buffer
    "ALLREDUCE",   # the collective itself
    "MEMCPY_OUT",  # unpack from the fusion buffer
    "COMPRESS",    # fp16 encode
    "DECOMPRESS",  # fp16 decode
    "FAULT",       # an injected fault was active (span = fault lifetime)
    "SUSPECT",     # a rank was suspected missing (span = suspicion window)
    "RECOVER",     # resilience action: communicator shrink / rank rejoin
)

#: The subset of :data:`PHASES` added by the fault/resilience subsystem.
FAULT_PHASES = ("FAULT", "SUSPECT", "RECOVER")


@dataclass(frozen=True)
class TimelineEvent:
    """One completed phase span."""

    phase: str
    label: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Span length in seconds."""
        return self.end_s - self.start_s


@dataclass
class Timeline:
    """An append-only trace of runtime phase spans."""

    events: list[TimelineEvent] = field(default_factory=list)

    def record(self, phase: str, label: str, start_s: float, end_s: float) -> None:
        """Append a span; phases must be from :data:`PHASES`."""
        if phase not in PHASES:
            raise ValueError(f"unknown timeline phase {phase!r}")
        if end_s < start_s:
            raise ValueError(f"negative span for {label!r}")
        self.events.append(TimelineEvent(phase, label, start_s, end_s))

    def total_by_phase(self) -> dict[str, float]:
        """Summed span duration per phase (seconds)."""
        totals: dict[str, float] = {}
        for ev in self.events:
            totals[ev.phase] = totals.get(ev.phase, 0.0) + ev.duration_s
        return totals

    def spans(self, phase: str) -> list[TimelineEvent]:
        """All spans of one phase, in record order."""
        return [ev for ev in self.events if ev.phase == phase]

