"""The synchronous data-parallel training loop as simulation processes.

One process per rank, per iteration:

1. stall on the input pipeline if the next batch isn't ready
   (:class:`~repro.data.pipeline.PipelineClock`);
2. run forward (a timed compute segment);
3. run backward, submitting each gradient tensor to the
   :class:`~repro.horovod.runtime.HorovodRuntime` at its emission offset —
   this is where communication/computation overlap comes from;
4. wait for *all* averaged gradients: one
   :meth:`~repro.horovod.runtime.HorovodRuntime.synchronize` event per
   rank (the synchronous-SGD barrier);
5. apply the optimizer update.

Per-rank compute jitter (a lognormal multiplier per rank × iteration)
models real kernel-time variation; it is what makes negotiation wait on
stragglers, one of the effects cycle-time tuning trades against.

Fault hooks: a :class:`~repro.faults.injector.FaultInjector` (or anything
with a ``compute_multiplier(rank)`` method) can be attached to slow ranks
down, and :meth:`DistributedTrainer.kill_rank` /
:meth:`DistributedTrainer.restart_rank` model process death and elastic
rejoin.  A restarted rank first drains its stale submissions from the
runtime, waits for the survivors' next iteration boundary, re-admits
itself at that instant, then runs in lockstep with them (gradient
tensors are matched by name, so the barrier self-aligns).
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.data.pipeline import InputPipelineModel, PipelineClock
from repro.horovod.runtime import HorovodRuntime
from repro.models.costmodel import IterationProfile
from repro.mpi.payload import VirtualBuffer
from repro.sim import Environment, Interrupt
from repro.sim.rng import RandomStreams
from repro.train.stats import TrainStats

__all__ = ["DistributedTrainer", "TrainJob"]


@dataclass(frozen=True)
class TrainJob:
    """What to run: length, batch, jitter, input pipeline."""

    iterations: int = 5
    per_gpu_batch: int = 8
    warmup_iterations: int = 1
    #: Lognormal sigma of the per-rank, per-iteration compute multiplier.
    jitter_std: float = 0.0
    pipeline: InputPipelineModel | None = field(default_factory=InputPipelineModel)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.per_gpu_batch < 1:
            raise ValueError("per_gpu_batch must be >= 1")
        if not 0 <= self.warmup_iterations < self.iterations:
            raise ValueError("warmup_iterations must be in [0, iterations)")
        if self.jitter_std < 0:
            raise ValueError("jitter_std must be >= 0")


class DistributedTrainer:
    """Drives a training run over an existing runtime and profile.

    The ``profile`` must have been computed at ``job.per_gpu_batch``
    (checked).  ``run()`` owns the simulation clock: it executes the whole
    job, shuts the runtime's coordinator down, runs until the coordinator
    exits (the run's end) and returns statistics.  A run continued from a
    checkpoint is the same run after :meth:`restore`.

    ``faults`` is an optional duck-typed hook exposing
    ``compute_multiplier(rank) -> float``, by which compute segments of
    that rank are stretched (1.0 = healthy), and ``close()``, called once
    when the run ends.
    """

    def __init__(self, runtime: HorovodRuntime, profile: IterationProfile,
                 job: TrainJob, faults: Any | None = None,
                 checkpoint: Any | None = None) -> None:
        if profile.batch_size != job.per_gpu_batch:
            raise ValueError(
                f"profile computed at batch {profile.batch_size}, "
                f"job uses {job.per_gpu_batch}"
            )
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.profile = profile
        self.job = job
        self.faults = faults
        #: Optional observer (:class:`repro.trace.SpanRecorder`).
        self.tracer: Any = None
        #: Optional :class:`~repro.checkpoint.CheckpointPlan` controlling
        #: state capture at iteration boundaries (duck-typed: anything
        #: with ``every`` / ``stop_at`` works).
        self.checkpoint_plan = checkpoint
        #: The backward pass's (emission offset, tensor name, payload)
        #: triples.  Virtual buffers are immutable, so every rank and
        #: iteration submits the same one per tensor.
        self._emissions = [
            (offset, tensor.name, VirtualBuffer(tensor.nbytes))
            for offset, tensor in profile.emission_schedule
        ]
        self._iteration_marks: dict[int, float] = {}
        self._input_stall = 0.0
        self._alive: set[int] = set(range(runtime.size))
        self._rank_procs: dict[int, Any] = {}
        self._procs: list[Any] = []
        self._next_barrier = 0
        self._boundary: Any | None = None
        #: Ranks mid-rejoin (drained, not yet re-admitted) — checkpoints
        #: are skipped while any rank is in this limbo.
        self._rejoining: set[int] = set()
        self._capture_pending: dict[int, dict[int, dict]] = {}
        #: Per-rank loop state to continue from (see :meth:`restore`).
        self._captured: dict[int, dict] | None = None
        self._run_start_s = 0.0
        #: Iterations finished per rank (survivors end at ``job.iterations``).
        self.completed_iterations: dict[int, int] = {}
        #: Most recent state dict captured by the checkpoint plan.
        self.last_checkpoint_state: dict | None = None
        #: Boundaries at which a checkpoint was successfully captured.
        self.checkpoint_boundaries: list[int] = []
        #: Captures skipped because the boundary was not quiescent.
        self.checkpoints_skipped = 0
        #: True once :meth:`kill_job` interrupted the run.
        self.job_killed = False
        self.halt_reason: str | None = None

    @property
    def world_size(self) -> int:
        """Number of ranks in the run."""
        return self.runtime.size

    @property
    def alive_ranks(self) -> list[int]:
        """Ranks whose training process is currently running, sorted."""
        return sorted(self._alive)

    def run(self) -> TrainStats:
        """Execute the job and return measured statistics."""
        captured = self._captured
        if captured is None:
            self._run_start_s = self.env.now
        # Sorted spawn order: a resumed run's ranks keep the relative
        # event order the uninterrupted run's have at the barrier instant.
        for rank in sorted(self._alive):
            proc = self.env.process(self._rank_loop(
                rank, None if captured is None else captured[rank]
            ))
            self._rank_procs[rank] = proc
            self._procs.append(proc)
        return self._finish()

    def _finish(self) -> TrainStats:
        # Restarts spawn new processes mid-run, so loop until no process
        # (original or dynamically added) is still pending.
        while True:
            pending = [p for p in self._procs if not p.triggered]
            if not pending:
                break
            self.env.run(until=self.env.all_of(pending))
        # The run ends when the coordinator exits: a fault due later
        # never fires, and a fault window still open closes now.
        self.env.run(until=self.runtime.shutdown())
        if self.faults is not None:
            self.faults.close()
        marks = [self._run_start_s]
        marks += [t for _, t in sorted(self._iteration_marks.items())]
        return TrainStats(
            world_size=self.world_size,
            per_gpu_batch=self.job.per_gpu_batch,
            iteration_seconds=[b - a for a, b in zip(marks, marks[1:])],
            warmup_iterations=self.job.warmup_iterations,
            input_stall_seconds=self._input_stall,
            runtime=self.runtime.stats,
            compute_iteration_seconds=self.profile.compute_s,
        )

    # -- fault hooks -----------------------------------------------------------
    def kill_rank(self, rank: int) -> None:
        """Kill ``rank``'s training process mid-flight (a crash).

        The runtime is *not* told directly — its failure detector has to
        notice the missing rank, as in a real deployment (pair this with
        :meth:`~repro.horovod.runtime.HorovodRuntime.report_crash`).
        """
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range")
        self._alive.discard(rank)
        proc = self._rank_procs.get(rank)
        if proc is not None and not proc.triggered:
            proc.interrupt("rank killed by fault injection")

    def restart_rank(self, rank: int) -> None:
        """Spawn a replacement process for a crashed ``rank``.

        The new process drains the rank's stale submissions, re-admits
        the rank into the runtime's active set, and joins the survivors
        at the next iteration barrier.  No-op if the rank is alive.
        """
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range")
        if rank in self._alive or self.job_killed:
            # A restart after kill_job would poll a shut-down coordinator
            # forever; the killed run has nothing left to rejoin.
            return
        self._rejoining.add(rank)
        proc = self.env.process(self._restart_loop(rank))
        self._rank_procs[rank] = proc
        self._procs.append(proc)

    def kill_job(self, reason: str = "interrupted") -> None:
        """Interrupt the whole run — the external preemption/SIGKILL model.

        Every live training process is interrupted; ``run()`` then winds
        down normally and returns partial statistics.  Pair with a
        checkpoint plan: the state captured at the last boundary
        (:attr:`last_checkpoint_state`) survives the kill and feeds
        :func:`repro.checkpoint.resume_training`.
        """
        self.job_killed = True
        self.halt_reason = reason
        active = self.env.active_process
        for proc in self._procs:
            if proc is not active and not proc.triggered:
                proc.interrupt(reason)

    def _fault_mult(self, rank: int) -> float:
        if self.faults is None:
            return 1.0
        return float(self.faults.compute_multiplier(rank))

    # -- per-rank process ------------------------------------------------------
    def _rank_loop(self, rank: int, captured: dict | None):
        job = self.job
        streams = RandomStreams(job.seed).child(f"rank{rank}")
        jitter_gen = streams.get("compute-jitter")
        clock = (
            PipelineClock(job.pipeline, job.per_gpu_batch, self.env.now)
            if job.pipeline is not None
            else None
        )
        try:
            if captured is not None:
                jitter_gen.bit_generator.state = captured["rng_state"]
                if captured["pipeline_ready_at"] is None:
                    clock = None  # a restarted rank runs without one
                elif clock is not None:
                    clock._ready_at = list(captured["pipeline_ready_at"])
                # The capture was taken at this iteration's barrier,
                # before any of its optimizer time elapsed.
                yield from self._optimizer_step(
                    rank, captured["iteration"], captured["jitter"],
                    captured["sample"],
                )
            for iteration in range(self._next_barrier, job.iterations):
                yield from self._one_iteration(rank, iteration, jitter_gen, clock)
        except Interrupt:
            return

    def _restart_loop(self, rank: int):
        job = self.job
        streams = RandomStreams(job.seed).child(f"rank{rank}-restart")
        jitter_gen = streams.get("compute-jitter")
        try:
            yield from self.runtime.drain_rank(rank)
            # Re-admission must land exactly on an iteration boundary.
            # Joining mid-iteration would re-submit tensor names the
            # survivors already reduced this iteration, creating entries
            # only the *next* iteration can complete — a deadlock on the
            # final one.  At the barrier instant no survivor has emitted
            # anything for the next iteration yet (optimizer + forward
            # time still ahead of them), so every name merges cleanly.
            if self._alive and self._next_barrier < job.iterations:
                yield self._iteration_boundary()
            self.runtime.report_restart(rank)
            self._alive.add(rank)
            self._rejoining.discard(rank)
            while self._next_barrier < job.iterations:
                yield from self._one_iteration(
                    rank, self._next_barrier, jitter_gen, None
                )
        except Interrupt:
            return
        finally:
            self._rejoining.discard(rank)

    def _iteration_boundary(self):
        """Shared event fired each time an iteration barrier completes."""
        if self._boundary is None or self._boundary.triggered:
            self._boundary = self.env.event()
        return self._boundary

    def _one_iteration(self, rank: int, iteration: int, jitter_gen, clock):
        job = self.job
        profile = self.profile
        start_s = self.env.now
        if clock is not None:
            stall = clock.wait(self.env.now)
            if stall > 0:
                yield self.env.timeout(stall)
                self._input_stall += stall
        stall_end_s = self.env.now
        jitter = (
            float(jitter_gen.lognormal(0.0, job.jitter_std))
            if job.jitter_std > 0
            else 1.0
        )
        yield self.env.timeout(profile.forward_s * jitter * self._fault_mult(rank))
        forward_end_s = self.env.now
        # Backward: submit each tensor at its (jittered) emission time.
        previous = 0.0
        submit = self.runtime.submit
        for offset, name, payload in self._emissions:
            delta = (offset - previous) * jitter * self._fault_mult(rank)
            if delta > 0:
                yield self.env.timeout(delta)
            previous = offset
            submit(rank, name, payload)
        last_emit_s = self.env.now
        yield self.runtime.synchronize(rank)
        barrier_s = self.env.now
        # All barrier participants pass here at the same instant, before
        # any optimizer time elapses — a race-free shared iteration count.
        if iteration + 1 > self._next_barrier:
            self._next_barrier = iteration + 1
        if self._boundary is not None and not self._boundary.triggered:
            self._boundary.succeed()
        times = (start_s, stall_end_s, forward_end_s, last_emit_s, barrier_s)
        if self.checkpoint_plan is not None and self._capture_wanted(iteration + 1):
            self._report_barrier(rank, iteration, jitter, jitter_gen, clock,
                                 times)
        yield from self._optimizer_step(rank, iteration, jitter, times)

    def _optimizer_step(self, rank: int, iteration: int, jitter: float,
                        times: tuple):
        """An iteration's tail: the optimizer update after its barrier."""
        yield self.env.timeout(
            self.profile.optimizer_s * jitter * self._fault_mult(rank)
        )
        self.completed_iterations[rank] = self.completed_iterations.get(rank, 0) + 1
        if self._alive and rank == min(self._alive):
            self._iteration_marks.setdefault(iteration, self.env.now)
        if self.tracer is not None:
            self.tracer.on_iteration(rank, iteration, *times, self.env.now)

    # -- checkpointing ---------------------------------------------------------
    def _capture_wanted(self, barrier: int) -> bool:
        plan = self.checkpoint_plan
        if self.job_killed or barrier >= self.job.iterations:
            return False
        if plan.stop_at is not None and barrier >= plan.stop_at:
            # A boundary can be skipped (not quiescent), so the stop
            # request stays armed until a capture actually lands.
            return True
        return plan.every > 0 and barrier % plan.every == 0

    def _report_barrier(self, rank, iteration, jitter, jitter_gen, clock,
                        times) -> None:
        """One rank deposits its loop-local state at a barrier instant.

        The barrier is the only moment the rank generators hold no
        in-flight work, but their loop locals (jitter RNG, the drawn
        multiplier for the iteration whose optimizer segment is still
        ahead, the pipeline clock) live on the generator frames — each
        rank passing the barrier parks a copy here, and a zero-delay
        finalizer process assembles the full snapshot once every alive
        rank has reported.
        """
        barrier = iteration + 1
        reports = self._capture_pending.get(barrier)
        first = reports is None
        if first:
            reports = {}
            self._capture_pending[barrier] = reports
        reports[rank] = {
            "iteration": iteration,
            "jitter": jitter,
            "rng_state": jitter_gen.bit_generator.state,
            "pipeline_ready_at": (
                list(clock._ready_at) if clock is not None else None
            ),
            "sample": tuple(times),
        }
        if first:
            # timeout(0) puts the finalizer after every event already
            # scheduled at this instant: all rank reports, plus any fault
            # driver firing exactly now (classified as done, not pending).
            self._procs.append(
                self.env.process(self._finalize_checkpoint(barrier))
            )

    def _finalize_checkpoint(self, barrier: int):
        yield self.env.timeout(0.0)
        reports = self._capture_pending.pop(barrier, {})
        runtime = self.runtime
        quiescent = (
            set(reports) == self._alive
            and not self._rejoining
            and not runtime._entries
            and not runtime._ready
        )
        if not quiescent:
            self.checkpoints_skipped += 1
            self._ckpt_count("checkpoint_skips_total")
            return
        self.last_checkpoint_state = self._snapshot_state(barrier, reports)
        self.checkpoint_boundaries.append(barrier)
        self._ckpt_count("checkpoint_captures_total")
        plan = self.checkpoint_plan
        if plan.stop_at is not None and barrier >= plan.stop_at:
            self.kill_job(f"checkpoint plan stop_at boundary {barrier}")

    def _snapshot_state(self, barrier: int, reports: dict[int, dict]) -> dict:
        runtime = self.runtime
        comm = runtime.comm
        fabric = comm.fabric
        inj_stats = getattr(self.faults, "stats", None)
        return {
            "clock": self.env.now,
            "barrier": barrier,
            "run_start_s": self._run_start_s,
            "alive": sorted(self._alive),
            "ranks": {r: dict(rec) for r, rec in sorted(reports.items())},
            "iteration_marks": dict(self._iteration_marks),
            "input_stall": self._input_stall,
            "completed_iterations": dict(self.completed_iterations),
            "runtime": {
                "stats": dataclasses.replace(runtime.stats),
                "response_cache": sorted(runtime._response_cache),
                "active": sorted(runtime.active),
                "removed": sorted(runtime._removed),
                "crash_reports": sorted(runtime._crash_reports),
                "suspects": {
                    r: dataclasses.replace(s)
                    for r, s in runtime._suspects.items()
                },
            },
            "comm": {
                "messages_sent": comm.messages_sent,
                "transfer_retries": comm.transfer_retries,
                "transfer_timeouts": comm.transfer_timeouts,
            },
            "fabric": {
                "stats": dataclasses.replace(
                    fabric.stats,
                    bytes_by_link_type=dict(fabric.stats.bytes_by_link_type),
                ),
                "links": [
                    (link.bytes_carried, link.busy_seconds)
                    for link in fabric.topology.links()
                ],
            },
            "timeline": list(runtime.timeline.events),
            "injector": (
                dataclasses.replace(inj_stats)
                if dataclasses.is_dataclass(inj_stats)
                else None
            ),
            "trace": (
                pickle.dumps(self.tracer) if self.tracer is not None else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Continue from ``state``, a snapshot :meth:`_snapshot_state` took.

        The one reader of the snapshot format.  Call it before :meth:`run`
        on a trainer over a freshly built stack whose environment starts
        at ``state["clock"]``: it puts the runtime, communicator, fabric
        and injector counters, the timeline and the span recorder
        (:attr:`tracer`, not yet attached) back as captured, and
        :meth:`run` then continues every alive rank from its loop state.
        """
        runtime = self.runtime
        comm = runtime.comm
        fabric = comm.fabric
        r = state["runtime"]
        runtime.stats = dataclasses.replace(r["stats"])
        runtime._response_cache = set(r["response_cache"])
        runtime.active = set(r["active"])
        runtime._removed = set(r["removed"])
        runtime._crash_reports = set(r["crash_reports"])
        runtime._suspects = {
            rank: dataclasses.replace(s) for rank, s in r["suspects"].items()
        }
        runtime.timeline.events = list(state["timeline"])
        comm.messages_sent = state["comm"]["messages_sent"]
        comm.transfer_retries = state["comm"]["transfer_retries"]
        comm.transfer_timeouts = state["comm"]["transfer_timeouts"]
        f = state["fabric"]
        fabric.stats = dataclasses.replace(
            f["stats"], bytes_by_link_type=dict(f["stats"].bytes_by_link_type)
        )
        for link, (carried, busy) in zip(fabric.topology.links(), f["links"]):
            link.bytes_carried = carried
            link.busy_seconds = busy
        if state["injector"] is not None:
            self.faults.stats = dataclasses.replace(state["injector"])
        if state["trace"] is not None:
            self.tracer = pickle.loads(state["trace"])
        self._run_start_s = state["run_start_s"]
        self._alive = set(state["alive"])
        self._next_barrier = state["barrier"]
        self._iteration_marks = dict(state["iteration_marks"])
        self._input_stall = state["input_stall"]
        self.completed_iterations = dict(state["completed_iterations"])
        self._captured = state["ranks"]

    def _ckpt_count(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.registry.counter(
                name, "checkpoint lifecycle events").inc()
