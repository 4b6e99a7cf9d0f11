"""Distributed runner fabric: multi-worker pull protocol.

N worker processes (on any hosts that can reach the coordinator) pull
:class:`~repro.runner.simpoint.SimPoint` work off a shared journaled
queue, execute each point directly, and report completions
exactly-once over the lease protocol; the coordinator's lease budget
is the only retry layer.  The package also
hosts the primitives the rest of the codebase shares:

* :mod:`repro.fabric.lease` — the point queue's lease/heartbeat/expiry
  engine;
* :mod:`repro.fabric.transport` — the single HTTP client/server layer
  and the typed :class:`ServiceError` hierarchy;
* :mod:`repro.fabric.health` — the healthy/degraded/draining state
  machine;
* :mod:`repro.fabric.queue` — the journaled point queue;
* :mod:`repro.fabric.worker` — the pull-loop worker (``repro worker``);
* :mod:`repro.fabric.runner` — coordinator + :class:`FabricRunner`,
  the :class:`~repro.runner.pool.Runner` whose misses run on the fleet.
"""

from repro.fabric.health import Health
from repro.fabric.lease import LeaseManager
from repro.fabric.queue import ItemState, PointQueue, PointQueueError, WorkItem
from repro.fabric.runner import FabricApp, FabricCoordinator, FabricRunner
from repro.fabric.transport import (
    ApiError,
    HttpTransport,
    InProcessTransport,
    ServiceError,
    Transport,
    TransportError,
)
from repro.fabric.worker import (
    FabricClient,
    FabricWorker,
    PayloadError,
    worker_id,
)

__all__ = [
    "ApiError",
    "FabricApp",
    "FabricClient",
    "FabricCoordinator",
    "FabricRunner",
    "FabricWorker",
    "Health",
    "HttpTransport",
    "InProcessTransport",
    "ItemState",
    "LeaseManager",
    "PayloadError",
    "PointQueue",
    "PointQueueError",
    "ServiceError",
    "Transport",
    "TransportError",
    "WorkItem",
    "worker_id",
]
