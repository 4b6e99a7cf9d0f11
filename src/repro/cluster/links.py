"""Physical link model: latency, bandwidth, and serialized occupancy.

A :class:`LinkSpec` is the immutable datasheet description of a link type
(e.g. one NVLink 2.0 brick); a :class:`Link` is one *instance* of it in a
topology, backed by a :class:`repro.sim.Resource` so that concurrent
messages serialize.  Links are unidirectional — full-duplex physical links
are modeled as two :class:`Link` instances, which is what lets a ring
allreduce's simultaneous send+receive proceed without self-contention,
exactly as on real hardware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.sim import Environment, Resource

__all__ = ["Link", "LinkSpec"]

_link_ids = itertools.count()


@dataclass(frozen=True)
class LinkSpec:
    """Datasheet parameters of a link type.

    Attributes
    ----------
    name:
        Human-readable type name (``"nvlink2"``, ``"ib-edr"``...).
    latency_s:
        One-way propagation + protocol latency in seconds.
    bandwidth_Bps:
        Achievable (not theoretical-peak) bandwidth in bytes/second.
    """

    name: str
    latency_s: float
    bandwidth_Bps: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError(f"negative latency for link {self.name!r}")
        if self.bandwidth_Bps <= 0:
            raise ValueError(f"non-positive bandwidth for link {self.name!r}")

    def transfer_seconds(self, nbytes: int) -> float:
        """Unloaded transfer time of ``nbytes`` over this link alone."""
        return self.latency_s + nbytes / self.bandwidth_Bps


class Link:
    """One directed link instance inside a topology.

    The ``order_key`` is a globally unique monotone id used to acquire
    multi-link routes in canonical order (resource-ordering deadlock
    avoidance — two messages whose routes overlap can never hold links in
    conflicting order).
    """

    def __init__(self, env: Environment, spec: LinkSpec, label: str) -> None:
        self.env = env
        self.spec = spec
        #: The pristine datasheet spec this link was built with.  Fault
        #: injection always recomputes ``spec`` from this, so repeated
        #: degradations never accrete.
        self.base_spec = spec
        #: Current bandwidth factor relative to ``base_spec`` (1.0 = healthy).
        self.degrade_factor = 1.0
        #: False while the link is administratively/physically down
        #: (flapping rail): transfers through it fail and must retry.
        self.up = True
        #: Topology-level label, e.g. ``"gpu:0:1->gpu:0:2"``.
        self.label = label
        self.order_key = next(_link_ids)
        self.resource = Resource(env, capacity=1)
        #: Total bytes ever carried (for utilization accounting).
        self.bytes_carried = 0
        #: Total seconds this link was held by transfers.
        self.busy_seconds = 0.0

    def set_factor(self, factor: float) -> None:
        """Set bandwidth to ``factor`` × the *original* spec's bandwidth.

        ``factor == 1.0`` restores the pristine spec (including its
        name); anything lower rebuilds the spec from ``base_spec`` with a
        single ``-degraded`` suffix, however many times it is applied.
        """
        if not 0 < factor <= 1:
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        self.degrade_factor = factor
        if factor == 1.0:
            self.spec = self.base_spec
        else:
            self.spec = LinkSpec(
                f"{self.base_spec.name}-degraded",
                self.base_spec.latency_s,
                self.base_spec.bandwidth_Bps * factor,
            )

    @property
    def latency_s(self) -> float:
        """One-way latency of this link (from its spec)."""
        return self.spec.latency_s

    @property
    def bandwidth_Bps(self) -> float:
        """Bandwidth of this link in bytes/second (from its spec)."""
        return self.spec.bandwidth_Bps

    def record(self, nbytes: int, held_seconds: float) -> None:
        """Account a completed transfer against this link's counters."""
        self.bytes_carried += nbytes
        self.busy_seconds += held_seconds

    def utilization(self, elapsed_seconds: float) -> float:
        """Fraction of ``elapsed_seconds`` this link spent busy."""
        if elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed_seconds)

    def __repr__(self) -> str:
        return f"<Link {self.label} ({self.spec.name})>"
