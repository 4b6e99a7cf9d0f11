"""Core event loop, events and processes for the DES kernel.

The model follows SimPy's semantics closely:

* An :class:`Event` is a one-shot occurrence.  It starts *untriggered*;
  calling :meth:`Event.succeed` (or :meth:`Event.fail`) schedules it on the
  environment's queue, and when the environment pops it, all registered
  callbacks run at the event's timestamp.
* A :class:`Process` wraps a generator.  Each value the generator yields
  must be an :class:`Event`; the process suspends until the event fires and
  is resumed with the event's value (or the event's exception is thrown into
  the generator).  A process is itself an event that triggers when the
  generator returns, with the generator's return value as the event value.
* :class:`Environment` owns virtual time and the priority queue.

Only features the reproduction needs are implemented — but they are
implemented completely, with failure propagation, interrupts and composite
events, because the MPI and Horovod layers lean on all of them.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any, Callable

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Queue priority for ordinary events.
NORMAL = 1
#: Queue priority that sorts before NORMAL at equal timestamps.  Used for
#: process-resumption bookkeeping so that a process observes the state its
#: wakeup event established.
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel.

    Examples: running an environment with no scheduled events before the
    requested horizon, triggering an event twice, or yielding a non-event
    from a process generator.
    """


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt`` so the
    interrupted process can distinguish interrupt sources.
    """

    @property
    def cause(self) -> Any:
        """The object passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Event:
    """A one-shot occurrence on an :class:`Environment`'s timeline.

    State machine::

        untriggered --succeed/fail--> triggered --(queue pop)--> processed

    Callbacks registered through :attr:`callbacks` (or by waiting processes)
    run exactly once, when the event is processed.  After processing,
    :attr:`value` holds the success value, or the exception if the event
    failed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Functions ``cb(event)`` invoked when the event is processed.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None
        #: Set True by a waiter that converts failures into resumable values
        #: (e.g. a process about to be thrown the exception).  If nobody
        #: defuses a failed event, the environment re-raises at pop time.
        self.defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (event popped from the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        The event is scheduled at the current simulation time; callbacks run
        when the environment pops it.  Triggering twice is an error.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes get the exception thrown into their generator; if
        no waiter defuses the failure, it aborts the simulation run.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class _Pending:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


_PENDING = _Pending()


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.

    Created via :meth:`Environment.timeout`.  A negative delay is an error;
    a zero delay fires in the same timestep but after already-queued events.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 _at: float | None = None) -> None:
        if _at is not None:
            delay = _at - env.now
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay, at=_at)

    # Timeouts are triggered at construction; succeed/fail are invalid.
    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self.callbacks.append(process._rcb)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers when the generator returns
    (value = the generator's return value) or raises (failure).  Other
    processes can therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "_target", "_rcb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when ready
        #: to run or finished).
        self._target: Event | None = None
        #: The bound ``_resume`` callback, allocated once — registering a
        #: waiter is the hottest append in the kernel and a fresh bound
        #: method per suspension is measurable at millions of events.
        self._rcb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    @property
    def name(self) -> str:
        """The wrapped generator function's name (for traces and repr)."""
        return getattr(self._generator, "__name__", str(self._generator))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process stops waiting on its current target (the target event
        itself is unaffected and may still fire later).  Interrupting a dead
        process is an error; a process cannot interrupt itself.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._rcb)
        self.env._schedule(event, URGENT)
        # Detach from the old target so its trigger no longer resumes us.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._rcb)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active = self
        gen = self._generator
        while True:
            try:
                if event._ok:
                    next_target = gen.send(event._value)
                else:
                    # The waiter is handling the failure: defuse it so the
                    # environment does not abort.
                    event.defused = True
                    next_target = gen.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._schedule(self, NORMAL)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._schedule(self, NORMAL)
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event {next_target!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                event.defused = True
                continue  # throw into the generator on next loop turn

            callbacks = next_target.callbacks
            if callbacks is None:
                # Already happened: resume immediately with its outcome.
                event = next_target
                continue
            self._target = next_target
            callbacks.append(self._rcb)
            break
        env._active = None


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    Triggers once ``evaluate(events, n_processed)`` returns True, with value
    a dict mapping each *processed* constituent event to its value (in the
    original order).  Fails as soon as any constituent fails.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: list[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._events:
            self.succeed(self._collect())
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Evaluator: every constituent processed."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Evaluator: at least one constituent processed."""
        return count > 0 or not events


class AllOf(Condition):
    """Composite event that fires when *all* given events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Composite event that fires when *any* given event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class Environment:
    """Owns virtual time and executes the event queue.

    Typical use::

        env = Environment()

        def proc(env):
            yield env.timeout(1.5)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert env.now == 1.5 and p.value == "done"
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active: Process | None = None
        #: Optional observation-only hook object (``on_schedule(env, event,
        #: delay)`` / ``on_step(env, event, depth)``) — see
        #: :class:`repro.telemetry.TelemetryProbe`.  Must never create
        #: events or mutate kernel state.
        self.monitor: Any = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (monotone kernel fingerprint).

        Observation-only instrumentation (probes, span tracers) must not
        change this count: the zero-perturbation tests compare it between
        instrumented and bare runs of the same workload.
        """
        return self._eid

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_until(self, when: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing at absolute time ``when``.

        ``timeout(when - now)`` lands at ``now + (when - now)``, which can
        differ from ``when`` by a rounding ulp.  Resume paths
        (:mod:`repro.checkpoint`) need events to land exactly on times the
        original run computed incrementally, so this schedules at ``when``
        itself.  ``when`` must not be in the past; ``when == now`` behaves
        like a zero delay.
        """
        when = float(when)
        if when < self._now:
            raise ValueError(
                f"timeout_until({when}) is in the past (now={self._now})"
            )
        return Timeout(self, 0.0, value, _at=when)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> AllOf:
        """Create an :class:`AllOf` over ``events``."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Create an :class:`AnyOf` over ``events``."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0,
                  at: float | None = None) -> None:
        self._eid += 1
        when = (self._now + delay) if at is None else at
        heapq.heappush(self._queue, (when, priority, self._eid, event))
        if self.monitor is not None:
            self.monitor.on_schedule(self, event, delay)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event, advancing time to its timestamp."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, _, event = heapq.heappop(self._queue)
        if self.monitor is not None:
            self.monitor.on_step(self, event, len(self._queue))
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            raise event._value

    def _drain(self, horizon: float | None, until: "Event | None") -> None:
        """Hot drain loop shared by every :meth:`run` mode.

        Dispatch is inlined rather than delegated to :meth:`step` so a
        same-timestamp event cohort (a barrier releasing dozens of rank
        processes, a fused group completing on every rank at once) drains
        in one tight loop: one heap pop, one monitor check and one
        callback walk per event, with no per-event method-call or
        attribute-lookup overhead on top.  Semantics are identical to
        calling :meth:`step` in a loop.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if until is not None and until.callbacks is None:
                return
            if horizon is not None and queue[0][0] > horizon:
                return
            self._now, _, _, event = pop(queue)
            monitor = self.monitor
            if monitor is not None:
                monitor.on_step(self, event, len(queue))
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the queue drains; returns ``None``.
        * a float — run until simulation time reaches it (time is advanced
          to ``until`` even if the queue drains earlier); returns ``None``.
        * an :class:`Event` — run until that event is processed; returns the
          event's value (raising its exception if it failed).
        """
        if until is None:
            self._drain(None, None)
            return None
        if isinstance(until, Event):
            self._drain(None, until)
            if not until.processed:
                raise SimulationError(
                    f"run(until={until!r}): queue drained before event triggered"
                )
            if until._ok:
                return until._value
            until.defused = True
            raise until._value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"run(until={horizon}) is in the past (now={self._now})")
        self._drain(horizon, None)
        self._now = horizon
        return None
