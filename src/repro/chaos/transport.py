"""Transport fault plane: a wrapper that flaps any
:class:`~repro.fabric.transport.Transport`.

:class:`ChaosTransport` sits between a client (``ServiceClient``,
``FabricClient``) and its real transport, counting requests and
injecting the schedule's :class:`~repro.chaos.spec.TransportFlap`
windows by op index.  Determinism contract: **exactly one RNG draw per
request op**, whether or not any window covers it, so the drop/delay
pattern a seed produces is a pure function of ``(schedule, op
sequence)`` — adding or removing a flap window never shifts the draws
of later ops.
"""

from __future__ import annotations

import json
import threading
import time

from repro.chaos.spec import ChaosSchedule, TransportFlap
from repro.fabric.transport import Transport, TransportError

__all__ = ["ChaosTransport"]


class ChaosTransport(Transport):
    """Wrap ``inner`` and misbehave per the schedule's transport plane.

    Fault modes (see :class:`~repro.chaos.spec.TransportFlap`):
    ``drop`` raises :class:`TransportError` without touching the inner
    transport (the request vanished); ``delay`` sleeps then forwards;
    ``error`` short-circuits with a synthesized 5xx error envelope —
    the same shape a degraded server emits, so client-side handling
    sees the real thing.

    ``sleep`` is injectable so tests assert delay faults without
    actually waiting.
    """

    def __init__(self, inner: Transport, schedule: ChaosSchedule,
                 sleep=time.sleep) -> None:
        super().__init__(token=inner.token)
        self.inner = inner
        self.schedule = schedule
        self.sleep = sleep
        self._lock = threading.Lock()
        self._rng = schedule.rng()
        self.ops = 0
        self.injected = 0

    def _fault_for(self, op: int) -> TransportFlap | None:
        for spec in self.schedule.transport_faults():
            if spec.start_op <= op < spec.start_op + spec.count:
                return spec
        return None

    def exchange(self, method: str, path: str,
                 payload: dict | None = None, *,
                 idempotent: bool | None = None) -> tuple[int, dict, bytes]:
        with self._lock:
            op = self.ops
            self.ops += 1
            draw = self._rng.random()  # exactly one draw per op
            spec = self._fault_for(op)
            fire = spec is not None and draw < spec.probability
            if fire:
                self.injected += 1
        if fire:
            from repro.chaos import chaos_event

            chaos_event("transport", mode=spec.mode, op=op,
                        method=method, path=path)
            if spec.mode == "drop":
                raise TransportError(
                    f"chaos: dropped request #{op} ({method} {path})")
            if spec.mode == "delay":
                self.sleep(spec.delay_s)
            else:  # error
                body = json.dumps({"error": {
                    "code": "chaos",
                    "message": f"injected {spec.status} on request #{op}",
                }}).encode("utf-8")
                return spec.status, {}, body
        return self.inner.exchange(method, path, payload,
                                   idempotent=idempotent)
