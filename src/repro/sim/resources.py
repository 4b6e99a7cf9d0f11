"""Shared-resource primitives for the DES kernel.

Two primitives cover everything the cluster/MPI/Horovod layers need:

* :class:`Resource` — a counted resource with FIFO queuing (models
  serialized links, DMA engines, the host staging buffer, GPU copy engines).
* :class:`Store` — an unbounded FIFO of Python objects with blocking ``get``
  (models rank mailboxes, the Horovod coordinator's request queue).

Both hand out plain :class:`~repro.sim.engine.Event` objects so processes
wait with ordinary ``yield``.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import _PENDING, NORMAL, Environment, Event, SimulationError

__all__ = ["Resource", "Store"]


class Request(Event):
    """Event returned by :meth:`Resource.request`; fires when acquired.

    Supports use as a context manager inside a process::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on scope exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Fields are set here rather than through Event.__init__ and
        # succeed(): every link grant of every transfer is a Request.
        env = resource.env
        self.env = env
        self.callbacks = []
        self.defused = False
        self.resource = resource
        users = resource._users
        if len(users) < resource.capacity:
            users.add(self)
            self._ok = True
            self._value = None
            env._schedule(self, NORMAL, env._now)
        else:
            self._ok = None
            self._value = _PENDING
            resource._waiting.append(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with strict FIFO granting.

    ``capacity`` concurrent holders are allowed; further requests queue.
    Canceling a queued request is supported via :meth:`release` on the
    un-granted request (needed by timeout-bounded acquisitions).
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of queued (not yet granted) requests."""
        return len(self._waiting)

    def request(self) -> Request:
        """Request the resource; the returned event fires when granted."""
        return Request(self)

    def release(self, req: Request) -> None:
        """Release a granted request, or cancel a queued one.

        Releasing a request that is neither held nor queued is an error —
        it almost always indicates a double release.
        """
        if req in self._users:
            self._users.remove(req)
            self._grant_next()
        else:
            try:
                self._waiting.remove(req)
            except ValueError:
                raise SimulationError(
                    "release() of a request that is neither held nor queued"
                ) from None

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()


class Store:
    """Unbounded FIFO store of arbitrary items with blocking ``get``.

    ``put`` never blocks (returns the item count); ``get`` returns an event
    that fires with the oldest item, immediately if one is available.
    FIFO fairness holds across both items and getters.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> int:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return len(self._items)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Any:
        """Pop the next item immediately; raises if the store is empty."""
        if not self._items:
            raise SimulationError("get_nowait() on an empty Store")
        return self._items.popleft()

    def peek_all(self) -> list[Any]:
        """A snapshot list of queued items (oldest first), without removal."""
        return list(self._items)
