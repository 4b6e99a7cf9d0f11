"""Chaos tests: the Runner must survive crashing, hanging and flaky points.

The point classes here misbehave on purpose — ``os._exit`` a pool
worker, sleep past the watchdog, fail until a sentinel file appears —
and the assertions check the self-healing contract: the batch completes
(or fails with a :class:`RunnerError` naming precisely the poison
point), innocents are never charged, and the retry/timeout/respawn
accounting is exact.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest

from repro.runner import Runner, RunnerError
from repro.runner.simpoint import SimPoint
from repro.telemetry import MetricRegistry


@dataclass(frozen=True)
class OkPoint(SimPoint):
    """Returns a payload derived from its token."""

    kind: ClassVar[str] = "chaos_ok"
    token: str

    def execute(self):
        return {"token": self.token}

    def describe(self):
        return f"ok:{self.token}"


@dataclass(frozen=True)
class RaisePoint(SimPoint):
    """Always raises (a deterministic in-process failure)."""

    kind: ClassVar[str] = "chaos_raise"
    token: str

    def execute(self):
        raise ValueError(f"poison {self.token}")

    def describe(self):
        return f"raise:{self.token}"


@dataclass(frozen=True)
class CrashPoint(SimPoint):
    """Kills its worker process outright (segfault stand-in)."""

    kind: ClassVar[str] = "chaos_crash"
    token: str

    def execute(self):
        os._exit(3)

    def describe(self):
        return f"crash:{self.token}"


@dataclass(frozen=True)
class HangPoint(SimPoint):
    """Runs far past any reasonable watchdog deadline."""

    kind: ClassVar[str] = "chaos_hang"
    token: str
    sleep_s: float = 60.0

    def execute(self):
        time.sleep(self.sleep_s)
        return {"token": self.token}

    def describe(self):
        return f"hang:{self.token}"


@dataclass(frozen=True)
class FlakyPoint(SimPoint):
    """Fails until its sentinel file exists, then succeeds.

    The sentinel is created on the first attempt, so attempt 1 fails and
    attempt 2 returns — exactly one retry recovers it.  ``crash=True``
    fails by killing the worker instead of raising.
    """

    kind: ClassVar[str] = "chaos_flaky"
    token: str
    sentinel: str
    crash: bool = False

    def execute(self):
        if os.path.exists(self.sentinel):
            return {"token": self.token, "recovered": True}
        with open(self.sentinel, "w") as f:
            f.write("seen")
        if self.crash:
            os._exit(3)
        raise RuntimeError(f"flaky {self.token}")

    def describe(self):
        return f"flaky:{self.token}"


def _counter(registry, name):
    family = registry.get(name)
    return 0 if family is None else family.default.value


# -- satellite: progress exceptions must never abort the batch -----------
def test_progress_exception_does_not_abort():
    calls = []

    def progress(done, total, point, cached):
        calls.append(done)
        raise ValueError("broken progress bar")

    registry = MetricRegistry()
    runner = Runner(registry=registry, progress=progress)
    points = [OkPoint(token=t) for t in ("a", "b", "c")]
    results = runner.run(points)
    assert [r["token"] for r in results] == ["a", "b", "c"]
    assert calls == [1, 2, 3]
    assert runner.stats.progress_errors == 3
    assert _counter(registry, "runner_progress_errors_total") == 3


def test_progress_keyboard_interrupt_propagates():
    def progress(done, total, point, cached):
        raise KeyboardInterrupt

    runner = Runner(progress=progress)
    with pytest.raises(KeyboardInterrupt):
        runner.run([OkPoint(token="a")])


# -- retry / terminal failure, inline path --------------------------------
def test_retry_recovers_flaky_point_inline(tmp_path):
    registry = MetricRegistry()
    runner = Runner(registry=registry, retries=2, backoff_s=0.001)
    point = FlakyPoint(token="f", sentinel=str(tmp_path / "seen"))
    results = runner.run([point])
    assert results[0]["recovered"] is True
    assert runner.stats.retries == 1
    assert _counter(registry, "runner_retries_total") == 1


def test_quarantine_isolates_poison_point_inline():
    """A spent budget fails the batch on the poison point alone: the
    error names it and chains its exception, the innocent before it
    resolved, and nothing was retried."""
    registry = MetricRegistry()
    runner = Runner(registry=registry)
    resolved = []
    points = [OkPoint(token="a"), RaisePoint(token="p"), OkPoint(token="b")]
    with pytest.raises(RunnerError) as err:
        runner.run(points, progress=lambda done, total, point, cached:
                   resolved.append(point.describe()))
    assert str(err.value) == "point failed: raise:p (ValueError('poison p'))"
    assert isinstance(err.value.__cause__, ValueError)
    assert resolved == ["ok:a"]
    assert runner.stats.retries == 0
    assert _counter(registry, "runner_retries_total") == 0


def test_default_raise_behaviour_unchanged():
    with pytest.raises(RunnerError, match="point failed: raise:p"):
        Runner().run([RaisePoint(token="p")])


def test_retries_exhausted_still_raises():
    runner = Runner(retries=2, backoff_s=0.001)
    with pytest.raises(RunnerError, match="point failed: raise:p"):
        runner.run([RaisePoint(token="p")])
    assert runner.stats.retries == 2


def test_backoff_is_deterministic_and_bounded():
    runner = Runner(retries=3, backoff_s=0.05, max_backoff_s=0.2)
    delays = [runner._backoff("deadbeef", n) for n in (1, 2, 3, 4)]
    assert delays == [runner._backoff("deadbeef", n) for n in (1, 2, 3, 4)]
    assert all(0 < d <= 0.2 for d in delays)
    assert runner._backoff("deadbeef", 1) != runner._backoff("cafe", 1)


def test_runner_parameter_validation():
    with pytest.raises(ValueError):
        Runner(retries=-1)
    with pytest.raises(ValueError):
        Runner(timeout_s=0)
    with pytest.raises(TypeError):  # one policy: a spent budget raises
        Runner(failure_policy="quarantine")


# -- pool-path failures raise identically --------------------------------
@pytest.mark.chaos
def test_pool_failure_raises_runner_error_by_default():
    points = [OkPoint(token="a"), RaisePoint(token="p"),
              OkPoint(token="b"), OkPoint(token="c")]
    with pytest.raises(RunnerError, match="point failed: raise:p"):
        Runner(workers=2).run(points)


# -- worker crash: pool respawn + isolation replay -----------------------
@pytest.mark.chaos
def test_worker_crash_quarantines_culprit_and_resolves_innocents():
    """Isolation replay pins the crash on its culprit: the batch fails
    naming ``crash:x`` and the innocent in flight with it resolves."""
    registry = MetricRegistry()
    runner = Runner(workers=2, registry=registry, backoff_s=0.001)
    resolved = []
    points = [OkPoint(token="a"), CrashPoint(token="x"),
              OkPoint(token="b"), OkPoint(token="c")]
    with pytest.raises(RunnerError, match="point failed: crash:x"):
        runner.run(points, progress=lambda done, total, point, cached:
                   resolved.append(point.describe()))
    assert "ok:a" in resolved and "crash:x" not in resolved
    assert runner.stats.pool_respawns >= 1
    assert _counter(registry, "runner_pool_respawns_total") >= 1
    # Innocents were replayed, never charged an attempt.
    assert runner.stats.retries == 0


@pytest.mark.chaos
@pytest.mark.slow
def test_worker_crash_retry_recovers(tmp_path):
    runner = Runner(workers=2, retries=1, backoff_s=0.001)
    points = [
        OkPoint(token="a"),
        FlakyPoint(token="f", sentinel=str(tmp_path / "seen"), crash=True),
        OkPoint(token="b"),
    ]
    results = runner.run(points)
    assert results[0] == {"token": "a"}
    assert results[1]["recovered"] is True
    assert results[2] == {"token": "b"}
    # The crasher recovered either on its isolation replay (uncharged)
    # or on a charged retry, depending on which futures were in flight
    # when the pool broke; either way the pool respawned and the batch
    # completed without losing an innocent.
    assert runner.stats.retries <= 1
    assert runner.stats.pool_respawns >= 1


# -- watchdog timeouts ---------------------------------------------------
@pytest.mark.chaos
@pytest.mark.slow
def test_hung_point_is_killed_and_quarantined():
    registry = MetricRegistry()
    runner = Runner(workers=2, registry=registry, timeout_s=0.5)
    points = [HangPoint(token="h"), OkPoint(token="a"), OkPoint(token="b")]
    start = time.perf_counter()
    with pytest.raises(RunnerError) as err:
        runner.run(points)
    elapsed = time.perf_counter() - start
    assert elapsed < 30  # nowhere near the 60 s hang
    assert str(err.value) == ("point failed: hang:h (TimeoutError("
                              "'point exceeded timeout_s=0.5'))")
    assert runner.stats.timeouts == 1
    assert _counter(registry, "runner_timeouts_total") == 1


@pytest.mark.chaos
@pytest.mark.slow
def test_hung_point_timeout_raises_by_default():
    runner = Runner(workers=2, timeout_s=0.5)
    with pytest.raises(RunnerError, match="point failed: hang:h"):
        runner.run([HangPoint(token="h"), OkPoint(token="a")])
    assert runner.stats.timeouts == 1


# -- a one-miss batch still runs in the pool ------------------------------
@pytest.mark.chaos
def test_lone_hung_point_is_killed_and_quarantined():
    runner = Runner(workers=2, timeout_s=0.5)
    start = time.perf_counter()
    with pytest.raises(RunnerError, match="point failed: hang:h"):
        runner.run([HangPoint(token="h", sleep_s=3.0)])
    elapsed = time.perf_counter() - start
    assert elapsed < 2.5  # the watchdog fired well before the sleep ended
    assert runner.stats.timeouts == 1


_LONE_CRASH = """
import json
from repro.runner import Runner, RunnerError
from tests.runner.test_chaos import CrashPoint
runner = Runner(workers=2, backoff_s=0.001)
try:
    runner.run([CrashPoint(token="c")])
except RunnerError as err:
    print(json.dumps({"error": str(err)}))
"""


@pytest.mark.chaos
def test_lone_crash_point_cannot_kill_the_caller():
    """Run in a child interpreter: a crash that escaped the pool would
    kill the caller, which must show as a failed assertion here."""
    root = Path(__file__).resolve().parents[2]
    proc = subprocess.run([sys.executable, "-c", _LONE_CRASH], cwd=root,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    error = json.loads(proc.stdout.splitlines()[-1])["error"]
    assert error.startswith("point failed: crash:c (BrokenProcessPool(")


# -- graceful drain on interrupt -----------------------------------------
@pytest.mark.chaos
def test_keyboard_interrupt_drains_pool():
    def progress(done, total, point, cached):
        raise KeyboardInterrupt

    runner = Runner(workers=2, progress=progress)
    points = [OkPoint(token=t) for t in ("a", "b", "c", "d")]
    with pytest.raises(KeyboardInterrupt):
        runner.run(points)
    # The driver killed its pool on the way out; a fresh run still works.
    assert Runner(workers=2).run(points[:2]) == [
        {"token": "a"}, {"token": "b"}]
