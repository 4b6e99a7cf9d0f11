"""The one observer of a simulated run: hierarchical spans plus metrics.

A :class:`SpanRecorder` is an observation-only hook threaded through the
simulated system — trainer, Horovod runtime, communicator and fabric
all carry an optional slot that defaults to ``None``.  It leaves the DES
kernel's ``Environment.monitor`` alone, so a traced run makes no
recorder call per kernel event.  When attached, each layer records
*spans*:
``(category, name, start_s, end_s, parent, tags)`` intervals in simulated
seconds, nested parent/child:

    ITERATION (rank)
      ├─ INPUT_STALL / FORWARD / BACKWARD / BARRIER_WAIT / OPTIMIZER
    NEGOTIATE (coordinator cycle)
    GROUP (fused buffer)
      ├─ QUEUE / MEMCPY_IN / COMPRESS / DECOMPRESS / MEMCPY_OUT
      └─ ALLREDUCE
           └─ COLLECTIVE (algorithm)
                └─ ALG_STEP (per rank)
                     └─ TRANSFER (per link traversal; ``level="links"``)

The same hooks update the run's simulated-time
:class:`~repro.telemetry.MetricRegistry` (``recorder.registry``):
collective counts/bytes/seconds, Horovod cycles, negotiations and fusion
occupancy, per-phase trainer seconds, and — pulled by
:meth:`SpanRecorder.finalize` — per-link-type traffic.

The recorder never creates simulation events and never reads anything but
``env.now`` at instants the instrumented code already reaches: an
observed run is bit-identical to a bare one (enforced by
``tests/trace/test_perturbation``).

Spans are picklable (they ride inside training checkpoints) and round-trip
through a self-contained JSON format via :func:`save_spans` /
:func:`load_spans`, together with the run context (GPU count, config
label, warmup iterations) that :func:`~repro.trace.compute_critical_path`
takes its defaults from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.telemetry.metrics import MetricRegistry

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "Span",
    "SpanRecorder",
    "load_spans",
    "save_spans",
    "well_nested_violations",
]

#: Version stamp for the on-disk span JSON format (2: adds ``run``).
SPAN_SCHEMA_VERSION = 2

#: Recorder detail levels: ``"spans"`` stops at per-rank algorithm steps,
#: ``"links"`` additionally records one TRANSFER span per link traversal.
LEVELS = ("spans", "links")


@dataclass
class Span:
    """One traced interval in simulated seconds.

    ``end_s`` is mutable so begin/end style spans (GROUP, ALLREDUCE,
    COLLECTIVE, ALG_STEP) can exist — and parent children — before they
    finish.  ``parent`` is a span id or ``None`` for roots.
    """

    sid: int
    parent: int | None
    cat: str
    name: str
    start_s: float
    end_s: float
    tags: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "sid": self.sid, "parent": self.parent, "cat": self.cat,
            "name": self.name, "start_s": self.start_s, "end_s": self.end_s,
            "tags": self.tags,
        }


class SpanRecorder:
    """Spans and simulated-time metrics from every layer of one simulation.

    Attach with :meth:`attach` after the stack is built.  The recorder
    keeps a little cross-layer rendezvous state so children can find
    parents created in other layers:

    - ``comm_parent``: sid of the runtime's in-flight ALLREDUCE span,
      set around the ``comm.allreduce`` yield (the coordinator serialises
      groups, so a single slot suffices).
    - ``_rank_parent``: world rank -> sid of that rank's open ALG_STEP,
      registered by :meth:`wrap_alg` so fabric TRANSFER spans can parent
      under the algorithm step that issued the send.

    ``run`` holds the run context (``gpus``, ``label``,
    ``warmup_iterations``) that :func:`~repro.core.sweep.measure_training`
    stores and :func:`save_spans` persists.
    """

    def __init__(self, level: str = "spans") -> None:
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
        self.level = level
        self.spans: list[Span] = []
        self.run: dict = {}
        self._next_sid = 0
        self.comm_parent: int | None = None
        self._rank_parent: dict[int, int] = {}
        self._env: Any = None
        self._device_rank: dict[Any, int] = {}
        self._fabric: Any = None
        self._comm: Any = None
        self._runtime: Any = None
        self.registry = r = MetricRegistry()
        # -- MPI ----------------------------------------------------------
        self._allreduce_ops = r.counter(
            "mpi_allreduce_total", "collective invocations",
            labelnames=("algorithm",))
        self._allreduce_seconds = r.counter(
            "mpi_allreduce_seconds_total", "wall seconds inside collectives",
            labelnames=("algorithm",))
        self._allreduce_bytes = r.counter(
            "mpi_allreduce_bytes_total", "payload bytes per collective",
            labelnames=("algorithm",))
        self._messages_total = r.counter(
            "mpi_messages_total", "point-to-point messages (control + data)")
        # -- Horovod runtime ----------------------------------------------
        self._cycles = r.counter(
            "hvd_cycles_total", "coordinator ticks")
        self._outstanding = r.gauge(
            "hvd_outstanding_tensors", "tensors awaiting negotiation",
            track=True)
        self._negotiations = r.counter(
            "hvd_negotiations_total", "negotiation rounds",
            labelnames=("cached",))
        self._negotiation_latency = r.histogram(
            "hvd_negotiation_seconds", "per-round negotiation latency")
        self._fusion_occupancy = r.histogram(
            "hvd_fusion_occupancy_ratio",
            "fused-group bytes / fusion threshold",
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0, float("inf")))
        self._fusion_tensors = r.histogram(
            "hvd_fusion_tensors_per_group", "tensors packed per fused op",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, float("inf")))
        self._fusion_wait = r.histogram(
            "hvd_fusion_queue_wait_seconds",
            "ready-to-execution wait (cycle wait + serialization)")
        self._detector_seconds = r.counter(
            "hvd_detector_seconds_total", "failure-detector probe time")
        self._cache_hit_ratio = r.gauge(
            "hvd_cache_hit_ratio", "response-cache hits / negotiations")
        # -- trainer ------------------------------------------------------
        self._phase_seconds = r.counter(
            "train_phase_seconds_total", "per-phase busy/wait seconds",
            labelnames=("phase",))
        self._iterations = r.counter(
            "train_iterations_total", "rank-iterations completed")
        # -- links (pulled at finalize) -----------------------------------
        self._link_bytes = r.counter(
            "link_bytes_total", "bytes carried per link type",
            labelnames=("type",))
        self._link_busy = r.counter(
            "link_busy_seconds_total", "busy seconds per link type",
            labelnames=("type",))
        self._link_utilization = r.gauge(
            "link_mean_utilization", "mean utilization per link type",
            labelnames=("type",))
        self._link_queue = r.gauge(
            "link_contention_queued", "transfers queued on busy links",
            track=True)

    # -- properties ---------------------------------------------------

    @property
    def link_detail(self) -> bool:
        return self.level == "links"

    @property
    def now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    # -- recording ----------------------------------------------------

    def record(self, cat: str, name: str, start_s: float, end_s: float,
               parent: int | None = None, **tags: Any) -> int:
        """Record a completed span; returns its id."""
        sid = self._next_sid
        self._next_sid += 1
        self.spans.append(Span(sid, parent, cat, name, start_s, end_s,
                               dict(tags)))
        return sid

    def begin(self, cat: str, name: str, start_s: float,
              parent: int | None = None, **tags: Any) -> int:
        """Open a span whose end is not yet known (``end_s == start_s``)."""
        return self.record(cat, name, start_s, start_s, parent, **tags)

    def end(self, sid: int, end_s: float) -> None:
        """Close a span opened with :meth:`begin`."""
        self.spans[sid].end_s = end_s

    # -- attachment ---------------------------------------------------

    def attach(self, env: Any = None, comm: Any = None, runtime: Any = None,
               trainer: Any = None, fabric: Any = None) -> None:
        """Install this recorder on the given layer objects (any subset)."""
        if env is not None:
            self._env = env
            self.registry.bind_clock(lambda: env.now)
        if comm is not None:
            comm.tracer = self
            self._comm = comm
            self._device_rank = {dev: rank
                                 for rank, dev in enumerate(comm.devices)}
        if runtime is not None:
            runtime.tracer = self
            self._runtime = runtime
        if trainer is not None:
            trainer.tracer = self
        if fabric is not None:
            fabric.tracer = self
            self._fabric = fabric

    def finalize(self) -> None:
        """Pull run-level aggregates (links, message counts, cache ratio)."""
        if self._fabric is not None:
            for name, entry in self._fabric.utilization_report().items():
                self._link_bytes.labels(type=name).inc(entry["bytes"])
                self._link_busy.labels(type=name).inc(entry["busy_s"])
                self._link_utilization.labels(type=name).set(
                    entry["mean_utilization"])
        if self._comm is not None:
            self._messages_total.inc(self._comm.messages_sent)
        if self._runtime is not None:
            stats = self._runtime.stats
            if stats.negotiations:
                self._cache_hit_ratio.set(stats.cache_hits / stats.negotiations)

    # -- MPI hooks ----------------------------------------------------

    def wrap_alg(self, gen: Iterator, world_rank: int, parent: int,
                 name: str) -> Iterator:
        """Wrap one rank's algorithm generator in an ALG_STEP span.

        Pure generator delegation — the wrapped process schedules exactly
        the events the bare one would.  While the step is open the rank is
        registered in ``_rank_parent`` so its TRANSFER spans nest here.
        """
        sid = self.begin("ALG_STEP", name, self.now, parent=parent,
                         rank=world_rank)
        prev = self._rank_parent.get(world_rank)
        self._rank_parent[world_rank] = sid
        try:
            result = yield from gen
        finally:
            if prev is None:
                self._rank_parent.pop(world_rank, None)
            else:
                self._rank_parent[world_rank] = prev
            self.end(sid, self.now)
        return result

    def on_allreduce(self, algorithm: str, nbytes: int,
                     seconds: float) -> None:
        """One collective completed."""
        self._allreduce_ops.labels(algorithm=algorithm).inc()
        self._allreduce_seconds.labels(algorithm=algorithm).inc(seconds)
        self._allreduce_bytes.labels(algorithm=algorithm).inc(nbytes)

    def on_transfer(self, src: Any, dst: Any, nbytes: int, start_s: float,
                    acquired_s: float, end_s: float, info: Any) -> None:
        """Record one fabric link traversal (``level="links"`` only)."""
        src_rank = self._device_rank.get(src)
        parent = (self._rank_parent.get(src_rank)
                  if src_rank is not None else None)
        links = [link.label for link in info.links]
        kinds = sorted({link.spec.name for link in info.links})
        self.record(
            "TRANSFER", "->".join(kinds) if kinds else "route",
            start_s, end_s, parent=parent,
            src=src_rank, dst=self._device_rank.get(dst),
            bytes=int(nbytes), wait_s=acquired_s - start_s, links=links,
        )

    # -- Horovod runtime hooks ----------------------------------------

    def on_cycle(self, outstanding: int) -> None:
        """One coordinator tick; sample queue state."""
        self._cycles.inc()
        self._outstanding.set(outstanding)
        if self._fabric is not None:
            queued = sum(
                link.resource.queue_len
                for link in self._fabric.topology.links()
                if link.resource.queue_len
            )
            self._link_queue.set(queued)

    def on_negotiation(self, seconds: float, cached: bool) -> None:
        """One negotiation round finished."""
        self._negotiations.labels(cached="yes" if cached else "no").inc()
        self._negotiation_latency.observe(seconds)

    def on_group(self, nbytes: int, tensors: int, threshold_bytes: int,
                 queue_wait_s: float) -> None:
        """One fused allreduce group is about to execute."""
        if threshold_bytes > 0:
            self._fusion_occupancy.observe(nbytes / threshold_bytes)
        self._fusion_tensors.observe(tensors)
        self._fusion_wait.observe(queue_wait_s)

    def on_detect(self, seconds: float) -> None:
        """The failure detector spent ``seconds`` re-probing a suspect."""
        self._detector_seconds.inc(seconds)

    # -- trainer hooks ------------------------------------------------

    def on_iteration(self, rank: int, iteration: int, start_s: float,
                     stall_end_s: float, forward_end_s: float,
                     last_emit_s: float, barrier_s: float,
                     end_s: float) -> None:
        """One rank finished one iteration: its span stack and phases.

        Called post hoc, at the optimizer-completion instant ``end_s``;
        ``start_s <= stall_end_s <= forward_end_s <= last_emit_s <=
        barrier_s <= end_s`` are the phase boundaries.
        """
        it = self.record("ITERATION", f"iter_{iteration}", start_s, end_s,
                         rank=rank, iteration=iteration)
        if stall_end_s > start_s:
            self.record("INPUT_STALL", "input stall", start_s, stall_end_s,
                        parent=it)
        self.record("FORWARD", "forward", stall_end_s, forward_end_s,
                    parent=it)
        self.record("BACKWARD", "backward", forward_end_s, last_emit_s,
                    parent=it)
        if barrier_s > last_emit_s:
            self.record("BARRIER_WAIT", "allreduce wait", last_emit_s,
                        barrier_s, parent=it)
        self.record("OPTIMIZER", "optimizer", barrier_s, end_s, parent=it)
        self._iterations.inc()
        phases = self._phase_seconds
        phases.labels(phase="input_stall").inc(stall_end_s - start_s)
        phases.labels(phase="forward").inc(forward_end_s - stall_end_s)
        phases.labels(phase="backward").inc(last_emit_s - forward_end_s)
        phases.labels(phase="allreduce_wait").inc(barrier_s - last_emit_s)
        phases.labels(phase="optimizer").inc(end_s - barrier_s)

    # -- queries ------------------------------------------------------

    def by_cat(self, *cats: str) -> list[Span]:
        wanted = set(cats)
        return [s for s in self.spans if s.cat in wanted]

    def children_of(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def child_index(self) -> dict[int | None, list[Span]]:
        index: dict[int | None, list[Span]] = {}
        for span in self.spans:
            index.setdefault(span.parent, []).append(span)
        return index

    def iteration_records(self) -> list[dict]:
        """Per-rank iteration phases, one dict per ITERATION span.

        Phase seconds are differences of the span stack's boundary
        instants — the ``"iteration"`` records of the JSONL event log
        (:func:`~repro.telemetry.to_jsonl`).
        """
        children = self.child_index()
        records = []
        for it in self.by_cat("ITERATION"):
            kids = {c.cat: c for c in children.get(it.sid, [])}
            fw, bw, opt = kids["FORWARD"], kids["BACKWARD"], kids["OPTIMIZER"]
            records.append({
                "rank": it.tags["rank"],
                "iteration": it.tags["iteration"],
                "start_s": it.start_s,
                "stall_s": fw.start_s - it.start_s,
                "forward_s": fw.end_s - fw.start_s,
                "backward_s": bw.end_s - bw.start_s,
                "wait_s": opt.start_s - bw.end_s,
                "optimizer_s": opt.end_s - opt.start_s,
                "end_s": it.end_s,
            })
        return records

    # -- persistence --------------------------------------------------

    def __getstate__(self) -> dict:
        """Checkpoint-safe state: drop live references, keep the record.

        Live layer objects hold the simulation kernel's generators and
        cannot cross a process boundary; the spans and the metric
        registry can.  ``comm_parent``/``_rank_parent`` are transient
        rendezvous slots; checkpoints are cut at iteration barriers where
        no collective is in flight, so they are always empty there.
        """
        state = self.__dict__.copy()
        state["_env"] = None
        state["_device_rank"] = {}
        state["_fabric"] = None
        state["_comm"] = None
        state["_runtime"] = None
        state["comm_parent"] = None
        state["_rank_parent"] = {}
        return state

    def to_payload(self) -> dict:
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "level": self.level,
            "run": self.run,
            "spans": [s.to_dict() for s in self.spans],
        }


def save_spans(recorder: SpanRecorder, path: str | Path) -> Path:
    """Write a recorder's spans as self-contained JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(recorder.to_payload(), indent=1))
    return path


def load_spans(source: str | Path | dict) -> SpanRecorder:
    """Rebuild a :class:`SpanRecorder` from :func:`save_spans` output."""
    payload = (source if isinstance(source, dict)
               else json.loads(Path(source).read_text()))
    version = payload.get("schema_version")
    if version != SPAN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported span schema {version!r} "
            f"(this build reads {SPAN_SCHEMA_VERSION})")
    rec = SpanRecorder(level=payload.get("level", "spans"))
    rec.run = dict(payload.get("run", {}))
    for item in payload["spans"]:
        rec.spans.append(Span(
            sid=int(item["sid"]),
            parent=item["parent"],
            cat=item["cat"],
            name=item["name"],
            start_s=float(item["start_s"]),
            end_s=float(item["end_s"]),
            tags=dict(item.get("tags", {})),
        ))
    rec._next_sid = 1 + max((s.sid for s in rec.spans), default=-1)
    return rec


def well_nested_violations(spans: Iterable[Span],
                           slop: float = 1e-9) -> list[str]:
    """Structural checks: every parent exists, children fit inside it.

    Returns human-readable violation strings (empty == well-nested).
    Shared helper for the property tests and ``repro trace`` validation.
    """
    spans = list(spans)
    by_sid = {s.sid: s for s in spans}
    problems = []
    for span in spans:
        if span.end_s < span.start_s - slop:
            problems.append(f"span {span.sid} ({span.cat}) ends before start")
        if span.parent is None:
            continue
        parent = by_sid.get(span.parent)
        if parent is None:
            problems.append(
                f"span {span.sid} ({span.cat}) has orphan parent "
                f"{span.parent}")
            continue
        if (span.start_s < parent.start_s - slop
                or span.end_s > parent.end_s + slop):
            problems.append(
                f"span {span.sid} ({span.cat} [{span.start_s:.6f},"
                f" {span.end_s:.6f}]) escapes parent {parent.sid}"
                f" ({parent.cat} [{parent.start_s:.6f}, {parent.end_s:.6f}])")
    return problems
