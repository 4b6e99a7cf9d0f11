"""The fault injector: schedules applied to a live simulation.

:class:`FaultInjector` turns a declarative :class:`~repro.faults.spec.FaultSchedule`
into discrete-event processes — one per fault — that mutate the live
topology / runtime / trainer at each fault's virtual start time and
revert the mutation when the window expires (restoring route caches and
link specs exactly), or when the run ends first (:meth:`FaultInjector.close`).
Crash/restart faults drive the trainer's process lifecycle and the
runtime's membership reports instead.

Wiring order for a full training run::

    injector = FaultInjector(env, schedule, topology=topo, timeline=runtime.timeline)
    injector.bind(runtime=runtime, trainer=trainer)
    injector.start()          # before env.run() / trainer.run()
    injector.close()          # when the run ends (the trainer calls it)

The injector is deliberately duck-typed towards the trainer: anything
with ``kill_rank`` / ``restart_rank`` works, and
:meth:`compute_multiplier` is the hook the trainer polls for straggler
slowdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.topology import Device, Topology
from repro.faults.spec import (
    DegradedRail,
    FaultSchedule,
    LinkFlap,
    ProcessKill,
    RankCrash,
    RankRestart,
    StragglerGPU,
)
from repro.horovod.timeline import Timeline
from repro.sim import Environment

__all__ = ["FaultInjector", "InjectorStats"]


@dataclass
class InjectorStats:
    """What the injector did, for run reports."""

    applied: int = 0
    reverted: int = 0
    flap_cycles: int = 0
    crashes: int = 0
    restarts: int = 0
    kills: int = 0


class FaultInjector:
    """Executes a fault schedule against a live simulation."""

    def __init__(self, env: Environment, schedule: FaultSchedule,
                 topology: Topology | None = None,
                 timeline: Timeline | None = None) -> None:
        self.env = env
        self.schedule = schedule
        self.topology = topology
        self.timeline = timeline
        self.runtime: Any | None = None
        self.trainer: Any | None = None
        self.stats = InjectorStats()
        self._straggler_mult: dict[int, list[float]] = {}
        #: Applied windows not yet reverted, keyed ``(start, index)``
        #: (application order): the spec and the link factor it restores.
        self._windows: dict[tuple[float, int], tuple[Any, float]] = {}
        self._started = False

    def bind(self, runtime: Any | None = None, trainer: Any | None = None) -> "FaultInjector":
        """Attach the runtime/trainer that rank faults act on."""
        if runtime is not None:
            self.runtime = runtime
        if trainer is not None:
            self.trainer = trainer
        return self

    def start(self) -> "FaultInjector":
        """Spawn one driver process per scheduled fault (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index, spec in enumerate(self.schedule):
            self.env.process(self._drive(index, spec))
        return self

    def close(self) -> None:
        """End every fault window still open: the run is over.

        Called once, when the run's coordinator exits.  Each open window
        is reverted (its link back to the factor it found, up), counted
        in ``reverted`` and its FAULT span ends at this instant; the
        latest-applied window goes first, so windows stacked on one link
        unwind to its base factor.
        """
        for key in sorted(self._windows, reverse=True):
            self._end(key, closing=True)

    # -- trainer hook ----------------------------------------------------------
    def compute_multiplier(self, rank: int) -> float:
        """Product of the active straggler slowdowns for ``rank``."""
        mult = 1.0
        for factor in self._straggler_mult.get(rank, ()):
            mult *= factor
        return mult

    # -- per-fault processes ---------------------------------------------------
    def _drive(self, index: int, spec):
        yield self.env.timeout(spec.start_s)
        yield from self._fire(index, spec)

    def _fire(self, index: int, spec):
        if isinstance(spec, StragglerGPU):
            yield from self._drive_straggler(index, spec)
        elif isinstance(spec, DegradedRail):
            yield from self._drive_degraded_rail(index, spec)
        elif isinstance(spec, LinkFlap):
            yield from self._drive_link_flap(index, spec)
        elif isinstance(spec, RankCrash):
            self._apply_crash(spec)
        elif isinstance(spec, RankRestart):
            self._apply_restart(spec)
        elif isinstance(spec, ProcessKill):
            self._apply_kill(spec)

    def _drive_straggler(self, index: int, spec: StragglerGPU):
        self._straggler_mult.setdefault(spec.rank, []).append(spec.slowdown)
        self.stats.applied += 1
        key = self._open(index, spec, self.env.now)
        yield self.env.timeout(spec.duration_s)
        self._end(key)

    def _drive_degraded_rail(self, index: int, spec: DegradedRail):
        a, b = self._endpoints(spec)
        prior = self.topology.link_factor(a, b)
        self.topology.set_link_factor(a, b, prior * spec.factor)
        self.stats.applied += 1
        key = self._open(index, spec, self.env.now, prior)
        yield self.env.timeout(spec.duration_s)
        self._end(key)

    def _drive_link_flap(self, index: int, spec: LinkFlap):
        start = self.env.now
        a, b = self._endpoints(spec)
        self.stats.applied += 1
        prior = self.topology.link_factor(a, b)
        key = self._open(index, spec, start, prior)
        end = start + spec.duration_s
        while self.env.now < end:
            # Down window (clipped at the fault's end).
            down = min(spec.down_s, end - self.env.now)
            if spec.severity == 0.0:
                self.topology.set_link_up(a, b, False)
            else:
                self.topology.set_link_factor(a, b, prior * spec.severity)
            self.stats.flap_cycles += 1
            yield self.env.timeout(down)
            self.topology.set_link_up(a, b, True)
            self.topology.set_link_factor(a, b, prior)
            remainder = spec.period_s - spec.down_s
            if remainder <= 0 or self.env.now >= end:
                break
            yield self.env.timeout(min(remainder, end - self.env.now))
        self._end(key)

    def _apply_crash(self, spec: RankCrash) -> None:
        if self.trainer is not None:
            self.trainer.kill_rank(spec.rank)
        if self.runtime is not None:
            self.runtime.report_crash(spec.rank)
        if self.trainer is None and self.runtime is None:
            raise RuntimeError(
                "RankCrash fired but neither trainer nor runtime is bound"
            )
        self.stats.applied += 1
        self.stats.crashes += 1
        self._record(f"crash_rank{spec.rank}", self.env.now)

    def _apply_restart(self, spec: RankRestart) -> None:
        if self.trainer is None and self.runtime is None:
            raise RuntimeError(
                "RankRestart fired but neither trainer nor runtime is bound"
            )
        if self.trainer is not None:
            # The trainer's restart process drains stale state and then
            # re-admits the rank via runtime.report_restart itself.
            self.trainer.restart_rank(spec.rank)
        elif self.runtime is not None:
            self.runtime.report_restart(spec.rank)
        self.stats.applied += 1
        self.stats.restarts += 1
        self._record(f"restart_rank{spec.rank}", self.env.now)

    def _apply_kill(self, spec: ProcessKill) -> None:
        if self.trainer is None:
            raise RuntimeError("ProcessKill fired but no trainer is bound")
        self.stats.applied += 1
        self.stats.kills += 1
        self._record("kill_job", self.env.now)
        self.trainer.kill_job(f"process_kill at {spec.start_s:g}s")

    # -- checkpoint resume -----------------------------------------------------
    def start_resumed(self) -> "FaultInjector":
        """Rejoin the schedule mid-flight at the current simulated time.

        :func:`repro.core.sweep.simulate` calls it instead of
        :meth:`start` for a resumed run, after the trainer's ``restore``
        put :attr:`stats` back.  Replays the schedule's link mutations up
        to ``env.now`` with the exact float arithmetic of the live
        drivers, sets the resulting absolute (factor, up) state on the
        fresh topology, re-applies straggler multipliers for windows
        spanning the instant, and spawns continuation processes that walk
        each in-flight window's remaining edges at their original
        absolute times (:meth:`~repro.sim.Environment.timeout_until` — no
        float drift).  Those windows are open as in the uninterrupted
        run, so :meth:`close` ends them the same way.  Already-counted
        ``applied``/``flap_cycles`` are not re-counted.
        """
        if self._started:
            return self
        self._started = True
        now = self.env.now
        final, windows = _link_history(self.schedule, now)
        if self.topology is not None:
            for (a_s, b_s), (factor, up) in final.items():
                a, b = Device.parse(a_s), Device.parse(b_s)
                self.topology.set_link_factor(a, b, factor)
                self.topology.set_link_up(a, b, up)
        for i, spec in enumerate(self.schedule):
            if spec.start_s > now:
                self.env.process(self._drive_pending_resumed(i, spec))
            elif isinstance(spec, StragglerGPU) and now < spec.start_s + spec.duration_s:
                self._straggler_mult.setdefault(spec.rank, []).append(
                    spec.slowdown
                )
                key = self._open(i, spec, spec.start_s)
                self.env.process(self._resume_straggler(key, spec))
            elif isinstance(spec, (DegradedRail, LinkFlap)):
                w = windows[i]
                if now < w.finish_t:
                    key = self._open(i, spec, spec.start_s, w.prior)
                    self.env.process(self._resume_window(key, spec, w))
        return self

    def _drive_pending_resumed(self, index: int, spec):
        # timeout_until keeps the original absolute fire time exact
        # (0.0 + start_s == start_s, but now + (start_s - now) need not be).
        yield self.env.timeout_until(spec.start_s)
        yield from self._fire(index, spec)

    def _resume_straggler(self, key, spec: StragglerGPU):
        # applied was counted (and the multiplier re-added) already —
        # only the revert remains.
        yield self.env.timeout_until(spec.start_s + spec.duration_s)
        self._end(key)

    def _resume_window(self, key, spec, w: "_Window"):
        a, b = self._endpoints(spec)
        for t, op in w.ops:
            if t <= self.env.now:
                continue
            yield self.env.timeout_until(t)
            if op == "down":
                if spec.severity == 0.0:
                    self.topology.set_link_up(a, b, False)
                else:
                    self.topology.set_link_factor(a, b, w.prior * spec.severity)
                self.stats.flap_cycles += 1
            elif op == "up":
                self.topology.set_link_up(a, b, True)
                self.topology.set_link_factor(a, b, w.prior)
        if self.env.now < w.finish_t:
            yield self.env.timeout_until(w.finish_t)
        self._end(key)

    # -- helpers ---------------------------------------------------------------
    def _open(self, index: int, spec, start: float,
              prior: float = 1.0) -> tuple[float, int]:
        """Register an applied window; :meth:`_end` reverts it."""
        key = (start, index)
        self._windows[key] = (spec, prior)
        return key

    def _end(self, key: tuple[float, int], closing: bool = False) -> None:
        """Revert one window, count it and record its FAULT span.

        A flap's driver restores its link at every up edge, so its own
        end leaves the link alone; ``closing`` (the run ended mid-window)
        takes the up edge a flap may still owe.
        """
        spec, prior = self._windows.pop(key)
        if isinstance(spec, StragglerGPU):
            self._straggler_mult[spec.rank].remove(spec.slowdown)
            label = f"straggler_rank{spec.rank}_x{spec.slowdown:g}"
        else:
            a, b = self._endpoints(spec)
            if isinstance(spec, DegradedRail):
                self.topology.set_link_factor(a, b, prior)
                label = f"degraded_{a}--{b}_x{spec.factor:g}"
            else:
                if closing:
                    self.topology.set_link_up(a, b, True)
                    self.topology.set_link_factor(a, b, prior)
                label = f"flap_{a}--{b}"
        self.stats.reverted += 1
        self._record(label, key[0])

    def _endpoints(self, spec) -> tuple[Device, Device]:
        if self.topology is None:
            raise RuntimeError(
                f"{type(spec).__name__} needs a topology but none was given"
            )
        return Device.parse(spec.link[0]), Device.parse(spec.link[1])

    def _record(self, label: str, start_s: float) -> None:
        if self.timeline is not None:
            self.timeline.record("FAULT", label, start_s, self.env.now)


@dataclass
class _Window:
    """One link-mutating window's replayed edge history."""

    index: int
    link: tuple[str, str]
    #: Link factor at window start (what the live driver captured).
    prior: float
    #: ``(time, op)`` edges: apply/revert (rail) or down/up (flap).
    ops: list
    #: When the live driver's generator ends (reverted++ / record).
    finish_t: float


def _link_history(schedule, until: float):
    """Replay the schedule's link mutations with live-driver arithmetic.

    Returns ``(final, windows)``: ``final`` maps each touched link to its
    absolute ``(factor, up)`` state once every edge with time <= ``until``
    has been applied (events at exactly ``until`` fired before the
    checkpoint finalizer, so they count as done), and ``windows`` carries
    per-window priors and edge lists for the continuation processes.

    The edge times use the same incremental float expressions the live
    generators evaluate (``t = t + down``, ``end = start + duration``),
    so continuation sleeps land on bit-identical instants.
    """
    windows: list[_Window] = []
    for i, spec in enumerate(schedule):
        if isinstance(spec, DegradedRail):
            start = spec.start_s
            end = start + spec.duration_s
            windows.append(_Window(
                index=i, link=tuple(spec.link), prior=1.0,
                ops=[(start, "apply"), (end, "revert")], finish_t=end,
            ))
        elif isinstance(spec, LinkFlap):
            start = spec.start_s
            end = start + spec.duration_s
            ops = []
            t = start
            while t < end:
                down = min(spec.down_s, end - t)
                ops.append((t, "down"))
                t = t + down
                ops.append((t, "up"))
                remainder = spec.period_s - spec.down_s
                if remainder <= 0 or t >= end:
                    break
                t = t + min(remainder, end - t)
            windows.append(_Window(
                index=i, link=tuple(spec.link), prior=1.0,
                ops=ops, finish_t=t,
            ))
    by_index = {w.index: w for w in windows}
    merged = sorted(
        ((t, w.index, seq, op, w) for w in windows
         for seq, (t, op) in enumerate(w.ops)),
        key=lambda e: (e[0], e[1], e[2]),
    )
    factor: dict[tuple[str, str], float] = {}
    up: dict[tuple[str, str], bool] = {}
    for t, index, seq, op, w in merged:
        if t > until:
            continue
        spec = schedule.faults[index]
        link = w.link
        cur = factor.get(link, 1.0)
        if op == "apply":
            w.prior = cur
            factor[link] = cur * spec.factor
        elif op == "revert":
            factor[link] = w.prior
        elif op == "down":
            if seq == 0:
                w.prior = cur
            if spec.severity == 0.0:
                up[link] = False
            else:
                factor[link] = w.prior * spec.severity
        elif op == "up":
            up[link] = True
            factor[link] = w.prior
    final = {
        link: (factor.get(link, 1.0), up.get(link, True))
        for link in set(factor) | set(up)
    }
    return final, by_index
