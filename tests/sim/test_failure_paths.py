"""Failure propagation through composed simulation structures."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Interrupt, Resource


def test_failure_inside_nested_yield_from():
    """Exceptions cross `yield from` boundaries like normal Python."""
    env = Environment()

    def inner(env):
        yield env.timeout(1)
        raise ValueError("deep failure")

    def middle(env):
        result = yield from inner(env)
        return result

    def outer(env):
        try:
            yield env.process(middle(env))
        except ValueError as exc:
            return str(exc)

    p = env.process(outer(env))
    env.run()
    assert p.value == "deep failure"


def test_anyof_with_failing_member_fails():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise KeyError("boom")

    def waiter(env):
        try:
            yield AnyOf(env, [env.process(failing(env)), env.timeout(5)])
        except KeyError:
            return "failed-first"
        return "ok"

    p = env.process(waiter(env))
    env.run(until=p)
    assert p.value == "failed-first"


def test_anyof_succeeds_before_late_failure():
    """A failure after the AnyOf already fired must not abort the run."""
    env = Environment()

    def failing(env):
        yield env.timeout(5)
        raise KeyError("late")

    def waiter(env):
        result = yield AnyOf(env, [env.timeout(1, value="fast"),
                                   env.process(failing(env))])
        return list(result.values())

    p = env.process(waiter(env))
    # The late failure is nobody's problem once the condition resolved;
    # the run must complete cleanly.
    env.run()
    assert p.value == ["fast"]


def test_interrupt_while_holding_resource_releases_via_context():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        with res.request() as req:
            yield req
            order.append("acquired")
            try:
                yield env.timeout(100)
            except Interrupt:
                order.append("interrupted")
        # context manager released the resource

    def next_user(env):
        with res.request() as req:
            yield req
            order.append("second-acquired")

    victim = env.process(holder(env))

    def interrupter(env):
        yield env.timeout(1)
        victim.interrupt()

    env.process(interrupter(env))
    env.process(next_user(env))
    env.run()
    assert order == ["acquired", "interrupted", "second-acquired"]
    assert res.count == 0


def test_double_interrupt_before_resume():
    """Two interrupts queued for the same process both get delivered."""
    env = Environment()
    hits = []

    def sleeper(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt as intr:
                hits.append(intr.cause)
        return "done"

    victim = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1)
        victim.interrupt("a")
        victim.interrupt("b")

    env.process(interrupter(env))
    env.run(until=victim)
    assert hits == ["a", "b"]


def test_interrupt_queued_for_a_process_that_returned_is_dropped():
    """The victim returns while handling the first of two interrupts
    queued in one step: the second is dropped, as in SimPy, instead of
    being thrown into the finished generator."""
    env = Environment()

    def victim_proc(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            return intr.cause

    victim = env.process(victim_proc(env))

    def interrupter(env):
        yield env.timeout(1)
        victim.interrupt("a")
        victim.interrupt("b")

    env.process(interrupter(env))
    env.run()
    assert victim.ok and victim.value == "a"
    assert env.now == 100


def test_second_interrupt_abandons_the_wait_the_first_left_behind():
    """A victim that survives the first interrupt and waits again is
    taken off that wait by the second one, so the abandoned event
    firing later does not resume the finished process."""
    env = Environment()

    def sleeper(env):
        for _ in range(2):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
        return "done"

    victim = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1)
        victim.interrupt("a")
        victim.interrupt("b")

    env.process(interrupter(env))
    env.run()
    assert victim.ok and victim.value == "done"
    assert env.now == 101


def test_failed_allof_member_after_condition_failed_is_defused():
    env = Environment()

    def fail_at(env, t, msg):
        yield env.timeout(t)
        raise RuntimeError(msg)

    def waiter(env):
        cond = AllOf(env, [
            env.process(fail_at(env, 1, "first")),
            env.process(fail_at(env, 2, "second")),
        ])
        with pytest.raises(RuntimeError, match="first"):
            yield cond
        return "handled"

    p = env.process(waiter(env))
    env.run()
    assert p.value == "handled"
