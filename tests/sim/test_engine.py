"""Unit tests for the discrete-event engine core."""

import gc
import weakref

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
)


def test_timeout_advances_time():
    env = Environment()

    def proc(env):
        yield env.timeout(1.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert env.now == 1.5
    assert p.value == 1.5


def test_zero_delay_timeout_runs_same_timestep():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0)
        order.append(tag)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert env.now == 0.0
    assert order == ["a", "b"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_event_succeed_resumes_with_value():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter(env):
        val = yield ev
        seen.append(val)

    def firer(env):
        yield env.timeout(2)
        ev.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert seen == ["payload"]
    assert env.now == 2


def test_event_double_trigger_is_error():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_return_value_propagates_to_joiner():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result + 1

    p = env.process(parent(env))
    env.run()
    assert p.value == 43


def test_process_exception_propagates_to_joiner():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_aborts_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_yield_non_event_raises_inside_process():
    env = Environment()

    def bad(env):
        try:
            yield 123
        except SimulationError:
            return "rejected"

    p = env.process(bad(env))
    env.run()
    assert p.value == "rejected"


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    ev = env.event()
    ev.succeed("early")

    def proc(env):
        yield env.timeout(1)
        val = yield ev  # processed long ago
        return (env.now, val)

    p = env.process(proc(env))
    env.run()
    assert p.value == (1, "early")


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt(cause="wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(3, "wakeup")]


def test_interrupt_dead_process_is_error():
    env = Environment()

    def quick(env):
        yield env.timeout(0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_rewait():
    """After an interrupt the old target still fires; process may re-yield it."""
    env = Environment()

    def sleeper(env):
        to = env.timeout(10)
        try:
            yield to
        except Interrupt:
            pass
        yield env.timeout(1)  # do something else
        return env.now

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == 3


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = yield AllOf(env, [t2, t1])
        return list(result.values())

    p = env.process(proc(env))
    env.run()
    assert p.value == ["b", "a"]
    assert env.now == 2


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == (1, ["fast"])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return result

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_all_of_propagates_failure():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def proc(env):
        try:
            yield AllOf(env, [env.process(failing(env)), env.timeout(10)])
        except KeyError:
            return "failed"

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == "failed"


def test_run_until_float_advances_time_past_queue():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_non_generator_process_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(iter([]))


def test_run_until_past_time_is_error():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    env.process(proc(env))
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "val"

    p = env.process(proc(env))
    assert env.run(until=p) == "val"


def test_run_until_untriggered_event_raises_when_queue_drains():
    env = Environment()
    ev = env.event()  # nobody triggers this

    def proc(env):
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_step_empty_queue_is_error():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_deterministic_fifo_tie_break():
    """Events scheduled for the same time run in insertion order."""
    env = Environment()
    order = []
    for i in range(20):
        env.timeout(1.0).callbacks.append(lambda _e, i=i: order.append(i))
    env.run()
    assert order == list(range(20))


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4.0)
    env.timeout(2.0)
    assert env.peek() == 2.0


class _WeakProcess(Process):
    __slots__ = ("__weakref__",)


def test_finished_process_is_freed_by_refcounting():
    """A finished process holds no reference cycle, so it is freed
    without the cyclic collector (which hundreds of thousands of send
    processes per run would otherwise keep busy)."""
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    gc.disable()
    try:
        p = _WeakProcess(env, proc(env))
        ref = weakref.ref(p)
        env.run()
        assert p.processed
        del p
        assert ref() is None
    finally:
        gc.enable()
