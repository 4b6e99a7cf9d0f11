"""Property-based tests on the DES kernel invariants."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
def test_events_processed_in_time_order(delays):
    """Callbacks fire in nondecreasing simulation time."""
    env = Environment()
    seen = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda _e: seen.append(env.now))
    env.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert env.now == max(delays)


@given(st.lists(st.floats(0.01, 50), min_size=1, max_size=15))
def test_sequential_process_time_is_sum(delays):
    env = Environment()

    def proc(env):
        for d in delays:
            yield env.timeout(d)

    env.process(proc(env))
    env.run()
    assert abs(env.now - sum(delays)) < 1e-9 * max(1, len(delays))


@given(st.lists(st.floats(0.01, 50), min_size=1, max_size=15))
def test_parallel_processes_time_is_max(delays):
    env = Environment()

    def proc(env, d):
        yield env.timeout(d)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert env.now == max(delays)


@given(st.lists(st.floats(0.01, 20), min_size=1, max_size=10))
def test_allof_fires_at_max_anyof_at_min(delays):
    env = Environment()
    timeouts = [env.timeout(d) for d in delays]
    all_times, any_times = [], []
    AllOf(env, list(timeouts)).callbacks.append(
        lambda _e: all_times.append(env.now)
    )
    AnyOf(env, list(timeouts)).callbacks.append(
        lambda _e: any_times.append(env.now)
    )
    env.run()
    assert all_times == [max(delays)]
    assert any_times == [min(delays)]


@settings(max_examples=30, deadline=None)
@given(
    capacity=st.integers(1, 4),
    holds=st.lists(st.floats(0.1, 5), min_size=1, max_size=12),
)
def test_resource_throughput_bound(capacity, holds):
    """With capacity c, total elapsed >= sum(holds)/c and >= max hold."""
    env = Environment()
    res = Resource(env, capacity=capacity)

    def user(env, hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    for h in holds:
        env.process(user(env, h))
    env.run()
    assert env.now >= sum(holds) / capacity - 1e-9
    assert env.now >= max(holds) - 1e-12
    assert res.count == 0 and res.queue_len == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_simulation_deterministic_under_seeded_jitter(seed, nprocs):
    """Two identical runs produce identical completion times."""
    from repro.sim import RandomStreams

    def run_once():
        env = Environment()
        streams = RandomStreams(seed)
        done = []

        def proc(env, rank):
            gen = streams.child(f"r{rank}").get("t")
            for _ in range(3):
                yield env.timeout(float(gen.random()) + 0.01)
            done.append(env.now)

        for r in range(nprocs):
            env.process(proc(env, r))
        env.run()
        return done

    assert run_once() == run_once()


# -- dispatch order: the kernel against a single-heap reference ---------


class SingleHeapEnvironment(Environment):
    """The dispatch order by definition: one heap of every pending event,
    popped in ``(time, priority, eid)`` order.  The kernel keeps only
    future events in its heap and events due now in two FIFOs; it must
    dispatch exactly as this does."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: list = []

    def _schedule(self, event, priority, when, delay=0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (when, priority, self._eid, event))
        if self.monitor is not None:
            self.monitor.on_schedule(self, event, delay)

    def peek(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
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

    def _drain(self, horizon, until) -> None:
        while self._queue:
            if until is not None and until.callbacks is None:
                return
            if horizon is not None and self._queue[0][0] > horizon:
                return
            self.step()


class Boom(Exception):
    """The failure a program's plain events fail with."""


class DispatchLog:
    """Monitor logging every dispatch as (label, time, queue depth); an
    event's label is its type and scheduling index."""

    def __init__(self, log: list) -> None:
        self.log = log
        self.labels: dict[int, str] = {}

    def on_schedule(self, env, event, delay) -> None:
        self.labels[id(event)] = (
            f"{type(event).__name__}#{env.events_scheduled}")

    def on_step(self, env, event, depth) -> None:
        self.log.append((self.labels[id(event)], env.now, depth))


SHARED = 3  # plain events every actor and the caller can reach
MAX_PROCESSES = 12
# Zero, equal and distinct delays.
DELAYS = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
TARGET = st.integers(0, MAX_PROCESSES - 1)
EFFECTS = [
    st.tuples(st.just("succeed"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("fail"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("spawn"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), TARGET),
]
ACTOR_OP = st.one_of(
    *EFFECTS,
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("sleep_until_now")),
    st.tuples(st.just("wait"), st.integers(0, SHARED - 1)),
)
CALLER_OP = st.one_of(
    *EFFECTS,
    st.tuples(st.just("run")),
    st.tuples(st.just("run_for"), DELAYS),
    st.tuples(st.just("run_until_event"), st.integers(0, SHARED - 1)),
    st.tuples(st.just("run_until_process"), TARGET),
    st.tuples(st.just("step"), st.integers(1, 30)),
)
PROGRAM = st.tuples(
    st.lists(st.lists(ACTOR_OP, max_size=6), min_size=4, max_size=4),
    st.lists(CALLER_OP, min_size=1, max_size=12),
)


def run_program(env: Environment, program) -> list:
    """Run ``program`` on ``env``; return its dispatch and outcome log."""
    scripts, calls = program
    log: list = []
    env.monitor = DispatchLog(log)
    shared = [env.event() for _ in range(SHARED)]
    procs: list = []

    def effect(op) -> None:
        kind, arg = op
        if kind in ("succeed", "fail") and not shared[arg].triggered:
            if kind == "succeed":
                shared[arg].succeed(arg)
            else:
                shared[arg].fail(Boom(arg))
        elif kind == "timeout":
            env.timeout(arg)
        elif kind == "spawn" and len(procs) < MAX_PROCESSES:
            procs.append(env.process(actor(len(procs), scripts[arg])))
        elif kind == "interrupt" and procs:
            proc = procs[arg % len(procs)]
            if proc.is_alive and proc is not env.active_process:
                proc.interrupt(arg)

    def actor(me, script):
        for op in script:
            try:
                if op[0] == "sleep":
                    yield env.timeout(op[1])
                elif op[0] == "sleep_until_now":
                    yield env.timeout_until(env.now)
                elif op[0] == "wait":
                    yield shared[op[1]]
                else:
                    effect(op)
            except (Interrupt, Boom) as exc:
                log.append(("caught", me, repr(exc), env.now))
        return me

    for k in range(len(scripts)):
        effect(("spawn", k))
    for op in calls:
        kind = op[0]
        try:
            if kind == "run":
                env.run()
            elif kind == "run_for":
                env.run(until=env.now + op[1])
            elif kind == "run_until_event":
                log.append(("value", env.run(until=shared[op[1]])))
            elif kind == "run_until_process":
                log.append(("value", env.run(until=procs[op[1] % len(procs)])))
            elif kind == "step":
                for _ in range(op[1]):
                    env.step()
            else:
                effect(op)
        except Boom as exc:
            log.append(("raised", repr(exc)))
        except SimulationError:
            log.append(("raised", "SimulationError"))
        log.append(("call", op, env.now, env.peek()))
    # Drain the rest one step() at a time: run() inlines the same rule.
    while env.peek() != float("inf"):
        try:
            env.step()
        except Boom as exc:
            log.append(("raised", repr(exc)))
    return log


@settings(max_examples=300, deadline=None)
@given(PROGRAM)
def test_dispatch_order_matches_single_heap(program):
    """Events due now, in two FIFOs, dispatch exactly as a single heap
    ordered by ``(time, priority, eid)`` would: same events, same
    times, same queue depths, same outcomes of every call."""
    assert run_program(Environment(), program) == run_program(
        SingleHeapEnvironment(), program)
