"""Transport fault plane + capped jittered backoff."""

import json

import pytest

from repro.chaos import ChaosSchedule, ChaosTransport, TransportFlap
from repro.fabric.transport import (
    ApiError,
    HttpTransport,
    InProcessTransport,
    TransportError,
)


class _EchoApp:
    """Minimal pure app: counts calls, returns a fixed status."""

    def __init__(self, status: int = 200):
        self.status = status
        self.calls = 0

    def handle(self, method, path, headers=None, body=None):
        self.calls += 1
        return (self.status, "application/json",
                json.dumps({"ok": True, "call": self.calls}).encode())


# -- ChaosTransport ---------------------------------------------------------

def _chaos(app, schedule, sleeps=None):
    inner = InProcessTransport(app)
    return ChaosTransport(
        inner, schedule,
        sleep=(sleeps.append if sleeps is not None else lambda s: None))


def test_drop_mode_raises_transport_error_without_forwarding():
    app = _EchoApp()
    transport = _chaos(app, ChaosSchedule.of(
        TransportFlap(start_op=1, count=2, mode="drop")))
    assert transport.json("GET", "/x")["call"] == 1
    for _ in range(2):
        with pytest.raises(TransportError, match="chaos: dropped"):
            transport.json("GET", "/x")
    assert transport.json("GET", "/x")["call"] == 2
    assert app.calls == 2  # dropped requests never reached the app
    assert transport.injected == 2


def test_error_mode_synthesizes_5xx_envelope():
    app = _EchoApp()
    transport = _chaos(app, ChaosSchedule.of(
        TransportFlap(start_op=0, count=1, mode="error", status=503)))
    with pytest.raises(ApiError) as err:
        transport.json("GET", "/x")
    assert err.value.status == 503
    assert err.value.code == "chaos"
    assert app.calls == 0


def test_delay_mode_sleeps_then_forwards():
    app = _EchoApp()
    sleeps = []
    transport = _chaos(app, ChaosSchedule.of(
        TransportFlap(start_op=0, count=1, mode="delay", delay_s=0.25)),
        sleeps=sleeps)
    assert transport.json("GET", "/x")["ok"] is True
    assert sleeps == [0.25]
    assert app.calls == 1


def test_probabilistic_flaps_replay_exactly():
    schedule = ChaosSchedule.of(
        TransportFlap(start_op=0, count=40, probability=0.5, mode="drop"),
        seed=1234)

    def run():
        transport = _chaos(_EchoApp(), schedule)
        pattern = []
        for _ in range(40):
            try:
                transport.json("GET", "/x")
                pattern.append("ok")
            except TransportError:
                pattern.append("drop")
        return pattern

    first = run()
    assert run() == first
    assert 5 < first.count("drop") < 35  # actually probabilistic


def test_one_draw_per_op_isolates_windows():
    """Adding a window over other ops must not shift this window's
    drops — the one-draw-per-op contract."""
    base = ChaosSchedule.of(
        TransportFlap(start_op=10, count=10, probability=0.5, mode="drop"),
        seed=99)
    widened = ChaosSchedule.of(
        TransportFlap(start_op=0, count=5, mode="delay", delay_s=0.0),
        TransportFlap(start_op=10, count=10, probability=0.5, mode="drop"),
        seed=99)

    def drops(schedule):
        transport = _chaos(_EchoApp(), schedule)
        out = []
        for op in range(20):
            try:
                transport.json("GET", "/x")
            except TransportError:
                out.append(op)
        return out

    assert drops(base) == drops(widened)


# -- HttpTransport backoff --------------------------------------------------

def test_retry_backoff_is_capped_and_jittered():
    transport = HttpTransport("http://127.0.0.1:1", retries=8,
                              backoff_s=0.1, max_backoff_s=2.0,
                              jitter_seed=0)
    sleeps = [transport._sleep_s(attempt) for attempt in range(9)]
    for attempt, sleep_s in enumerate(sleeps):
        base = min(0.1 * (2 ** attempt), 2.0)
        assert 0.5 * base <= sleep_s <= base
    assert max(sleeps) <= 2.0
    # Deterministic replay from the seed.
    again = HttpTransport("http://127.0.0.1:1", retries=8, backoff_s=0.1,
                          max_backoff_s=2.0, jitter_seed=0)
    assert [again._sleep_s(a) for a in range(9)] == sleeps
    # Distinct seeds desynchronize a fleet.
    other = HttpTransport("http://127.0.0.1:1", retries=8, backoff_s=0.1,
                          max_backoff_s=2.0, jitter_seed=1)
    assert [other._sleep_s(a) for a in range(9)] != sleeps
