"""Efficiency attribution as an exact simulated critical path.

The paper's headline is a scaling-efficiency number; this module explains
it.  Each steady iteration of the marking rank (the lowest-numbered
alive rank, whose optimizer completion defines the trainer's iteration
marks) is walked into an ordered *critical path*: a sequence of
:class:`PathSegment` intervals that tile its wall time, each pinned to
the concrete span (and rank, and link) that bounded the simulation
during that interval.  Folding segment seconds per bucket gives E14's
attribution, which sums to wall time by construction:

``compute``
    The marking rank's own busy time: forward + backward + optimizer,
    including its compute jitter and any fault slowdown.
``input_stall``
    Waiting on the input pipeline before the forward pass.
``straggler_skew``
    From the marking rank's last gradient emission until the *slowest*
    rank's last emission — time the synchronous barrier is stretched by
    peer compute skew, before any communication could finish.
``exposed_comm``
    Within the tail window (last emission anywhere → barrier), the time
    covered by communication work on the coordinator's critical path:
    negotiation, pack/unpack memcpys, compression, and the allreduce
    itself (a clipped-union sweep of those spans over the window).
``fusion_wait``
    The remainder of the tail window: the coordinator idling for its next
    cycle tick while gradients sit in the fusion queue — the
    ``HOROVOD_CYCLE_TIME`` cost the paper tunes.
``fault_suspect``
    The idle-tail fraction that co-occurs with an active failure-detector
    suspicion (``SUSPECT`` windows of the runtime timeline): stall
    attributable to a suspected-missing rank rather than to cycle cadence.

On top of the per-iteration paths the report ranks *dwell*: longest-path
seconds by phase, by bounding rank (the straggler that stretched the
barrier, or the rank whose algorithm step finished last), and — at
``level="links"`` — by fabric link.  Per-span slack is the time a span
could have grown without moving the barrier (0 for on-path spans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.trace.spans import Span, SpanRecorder

__all__ = [
    "BUCKETS",
    "CriticalPathReport",
    "IterationPath",
    "PathSegment",
    "compute_critical_path",
    "explain_measurement",
]

#: Attribution buckets, in report order.
BUCKETS = (
    "compute",
    "input_stall",
    "straggler_skew",
    "exposed_comm",
    "fusion_wait",
    "fault_suspect",
)

#: Span categories that are communication work on the critical path.
COMM_PHASES = (
    "NEGOTIATE", "ALLREDUCE", "MEMCPY_IN", "MEMCPY_OUT",
    "COMPRESS", "DECOMPRESS",
)


def _union_seconds(spans: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Total length of the union of ``spans`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in spans if e > lo and s < hi
    )
    total = 0.0
    cursor = lo
    for s, e in clipped:
        s = max(s, cursor)
        if e > s:
            total += e - s
            cursor = e
    return total


@dataclass(frozen=True)
class PathSegment:
    """One interval of the critical path.

    ``bucket`` is an attribution bucket name, or ``"cycle_wait"`` for
    idle-tail intervals that the iteration-level suspect fraction later
    splits into ``fusion_wait``/``fault_suspect``.  ``sid`` points at the
    bounding span when one exists; ``rank`` at the rank whose work
    bounded the interval.
    """

    start_s: float
    end_s: float
    bucket: str
    cat: str
    name: str
    sid: int | None = None
    rank: int | None = None

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


@dataclass
class IterationPath:
    """The ordered critical path of one steady iteration."""

    iteration: int
    wall_s: float
    suspect_frac: float
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def path_s(self) -> float:
        """Total critical-path length (== ``wall_s`` up to rounding)."""
        return sum(seg.seconds for seg in self.segments)

    def buckets(self) -> dict[str, float]:
        """Segment seconds folded into the six attribution buckets."""
        vals = dict.fromkeys(BUCKETS, 0.0)
        idle = 0.0
        for seg in self.segments:
            if seg.bucket == "cycle_wait":
                idle += seg.seconds
            else:
                vals[seg.bucket] += seg.seconds
        vals["fusion_wait"] += idle * (1.0 - self.suspect_frac)
        vals["fault_suspect"] += idle * self.suspect_frac
        return vals


def _bounding_step(allreduce_span: Span,
                   children: dict[int | None, list[Span]]) -> Span | None:
    """The latest-finishing per-rank ALG_STEP under an ALLREDUCE span."""
    steps = [
        step
        for coll in children.get(allreduce_span.sid, [])
        if coll.cat == "COLLECTIVE"
        for step in children.get(coll.sid, [])
        if step.cat == "ALG_STEP"
    ]
    return max(steps, key=lambda s: (s.end_s, s.sid)) if steps else None


def compute_critical_path(recorder: SpanRecorder, timeline: Any = None,
                          warmup_iterations: int | None = None,
                          gpus: int | None = None,
                          label: str | None = None) -> "CriticalPathReport":
    """Walk the span DAG into per-iteration critical paths.

    ``timeline`` (optional) supplies failure-detector SUSPECT windows for
    the idle-tail split; without it the suspect fraction is 0 (fault-free
    traces are unaffected).  ``warmup_iterations``, ``gpus`` and
    ``label`` default to the recorder's run context (``recorder.run``),
    falling back to 1, 0 and ``""``.
    """
    run = recorder.run
    if warmup_iterations is None:
        warmup_iterations = run.get("warmup_iterations", 1)
    if gpus is None:
        gpus = run.get("gpus", 0)
    if label is None:
        label = run.get("label", "")
    children = recorder.child_index()
    comm = sorted((s for s in recorder.spans if s.cat in COMM_PHASES),
                  key=lambda s: (s.start_s, s.end_s, s.sid))
    suspect_spans = (
        [(ev.start_s, ev.end_s) for ev in timeline.spans("SUSPECT")]
        if timeline is not None else []
    )

    by_iteration: dict[int, list[Span]] = {}
    for span in recorder.spans:
        if span.cat == "ITERATION":
            by_iteration.setdefault(span.tags["iteration"], []).append(span)
    if not by_iteration:
        raise ValueError("trace contains no ITERATION spans")

    paths: list[IterationPath] = []
    slack_s: dict[int, float] = {}
    link_dwell_s: dict[str, float] = {}

    for iteration in sorted(by_iteration):
        if iteration < warmup_iterations:
            continue
        group = by_iteration[iteration]
        mark = min(group, key=lambda s: s.tags["rank"])
        mrank = mark.tags["rank"]
        kids = {c.cat: c for c in children.get(mark.sid, [])}
        fw, bw, opt = kids["FORWARD"], kids["BACKWARD"], kids["OPTIMIZER"]
        start, end = mark.start_s, mark.end_s
        stall_end, forward_end = fw.start_s, fw.end_s
        last_emit, barrier = bw.end_s, opt.start_s

        # Peer emissions: straggler skew and backward-span slack.
        emits = []
        for span in group:
            b = next(c for c in children.get(span.sid, [])
                     if c.cat == "BACKWARD")
            emits.append((b.end_s, span.tags["rank"], b.sid))
        emit_max, straggler_rank, straggler_sid = max(emits)
        for emit, _rank, sid in emits:
            slack_s[sid] = emit_max - emit

        segments: list[PathSegment] = []
        if stall_end > start:
            stall = kids.get("INPUT_STALL")
            segments.append(PathSegment(
                start, stall_end, "input_stall", "INPUT_STALL",
                "input pipeline stall",
                sid=stall.sid if stall is not None else None, rank=mrank))
        segments.append(PathSegment(
            stall_end, forward_end, "compute", "FORWARD", "forward pass",
            sid=fw.sid, rank=mrank))
        segments.append(PathSegment(
            forward_end, last_emit, "compute", "BACKWARD", "backward pass",
            sid=bw.sid, rank=mrank))

        skew = max(0.0, emit_max - last_emit)
        if skew > 0:
            segments.append(PathSegment(
                last_emit, last_emit + skew, "straggler_skew", "BACKWARD",
                f"rank {straggler_rank} backward (straggler)",
                sid=straggler_sid, rank=straggler_rank))

        # Tail window: a clipped-union sweep of the communication spans
        # that keeps *which* span covered each interval.
        tail_lo = min(emit_max, barrier)
        window = [s for s in comm
                  if s.end_s > tail_lo and s.start_s < barrier]
        window.sort(key=lambda s: (max(s.start_s, tail_lo),
                                   min(s.end_s, barrier), s.sid))
        cursor = tail_lo
        for span in window:
            lo = max(span.start_s, tail_lo)
            hi = min(span.end_s, barrier)
            if hi <= cursor:
                continue
            if lo > cursor:
                segments.append(PathSegment(
                    cursor, lo, "cycle_wait", "CYCLE_WAIT",
                    "fusion cycle wait"))
            lo = max(lo, cursor)
            rank = None
            if span.cat == "ALLREDUCE":
                step = _bounding_step(span, children)
                if step is not None:
                    rank = step.tags.get("rank")
                    for transfer in children.get(step.sid, []):
                        if transfer.cat != "TRANSFER":
                            continue
                        overlap = (min(transfer.end_s, hi)
                                   - max(transfer.start_s, lo))
                        if overlap <= 0:
                            continue
                        for link in transfer.tags.get("links", []):
                            link_dwell_s[link] = (
                                link_dwell_s.get(link, 0.0) + overlap)
            segments.append(PathSegment(
                lo, hi, "exposed_comm", span.cat, span.name,
                sid=span.sid, rank=rank))
            cursor = hi
        if barrier > cursor:
            segments.append(PathSegment(
                cursor, barrier, "cycle_wait", "CYCLE_WAIT",
                "fusion cycle wait"))

        segments.append(PathSegment(
            barrier, end, "compute", "OPTIMIZER", "optimizer update",
            sid=opt.sid, rank=mrank))

        tail = barrier - tail_lo
        idle = sum(seg.seconds for seg in segments
                   if seg.bucket == "cycle_wait")
        suspect_frac = 0.0
        if idle > 0 and suspect_spans:
            overlap = _union_seconds(suspect_spans, tail_lo, barrier)
            suspect_frac = min(1.0, overlap / tail) if tail > 0 else 0.0
        paths.append(IterationPath(iteration, end - start, suspect_frac,
                                   segments))

    if not paths:
        raise ValueError(
            f"all {len(by_iteration)} traced iterations fell inside the "
            f"{warmup_iterations}-iteration warmup")

    # On-path spans have no slack; per-collective step slack is global.
    for path in paths:
        for seg in path.segments:
            if seg.sid is not None and seg.sid not in slack_s:
                slack_s[seg.sid] = 0.0
    for span in recorder.spans:
        if span.cat != "COLLECTIVE":
            continue
        steps = [c for c in children.get(span.sid, [])
                 if c.cat == "ALG_STEP"]
        if steps:
            bound = max(s.end_s for s in steps)
            for step in steps:
                slack_s[step.sid] = bound - step.end_s

    return CriticalPathReport(
        gpus=gpus, label=label, level=recorder.level,
        warmup_iterations=warmup_iterations, iterations=paths,
        slack_s=slack_s, link_dwell_s=link_dwell_s,
        spans={s.sid: s for s in recorder.spans})


@dataclass
class CriticalPathReport:
    """Per-iteration critical paths plus ranked dwell aggregations."""

    gpus: int
    label: str
    level: str
    warmup_iterations: int
    iterations: list[IterationPath]
    slack_s: dict[int, float]
    link_dwell_s: dict[str, float]
    spans: dict[int, Span]

    @property
    def n(self) -> int:
        return len(self.iterations)

    @property
    def mean_wall_s(self) -> float:
        return sum(p.wall_s for p in self.iterations) / self.n

    @property
    def mean_path_s(self) -> float:
        """Mean critical-path length (== mean wall up to rounding)."""
        return sum(p.path_s for p in self.iterations) / self.n

    def totals(self) -> dict[str, float]:
        """Mean seconds per attribution bucket — E14's numbers."""
        return {
            bucket: sum(p.buckets()[bucket] for p in self.iterations) / self.n
            for bucket in BUCKETS
        }

    def shares(self) -> dict[str, float]:
        """Mean bucket seconds as a fraction of mean wall time."""
        wall = self.mean_wall_s
        return {k: v / wall for k, v in self.totals().items()}

    def overhead_share(self) -> float:
        """Exposed-comm + fusion-wait share (the tunable overhead)."""
        shares = self.shares()
        return shares["exposed_comm"] + shares["fusion_wait"]

    @property
    def max_sum_error(self) -> float:
        """Worst relative |Σ buckets − wall| across iterations."""
        return max(
            abs(sum(p.buckets().values()) - p.wall_s) / p.wall_s
            if p.wall_s > 0 else 0.0
            for p in self.iterations
        )

    def share_of_cat(self, cat: str) -> float:
        """Critical-path share of one span category (e.g. ALLREDUCE)."""
        total = sum(seg.seconds for p in self.iterations
                    for seg in p.segments if seg.cat == cat)
        return total / self.n / self.mean_wall_s

    @property
    def exposed_allreduce_share(self) -> float:
        """Share of the critical path spent inside exposed allreduces —
        the quantity the paper's fusion/cycle tuning collapses."""
        return self.share_of_cat("ALLREDUCE")

    def dwell_by_phase(self) -> list[tuple[str, float]]:
        """Mean on-path seconds per phase, longest dwell first."""
        acc: dict[str, float] = {}
        for p in self.iterations:
            for seg in p.segments:
                acc[seg.cat] = acc.get(seg.cat, 0.0) + seg.seconds
        return sorted(((cat, s / self.n) for cat, s in acc.items()),
                      key=lambda kv: -kv[1])

    def dwell_by_rank(self) -> list[tuple[int, float]]:
        """Mean on-path seconds per bounding rank, longest first."""
        acc: dict[int, float] = {}
        for p in self.iterations:
            for seg in p.segments:
                if seg.rank is not None:
                    acc[seg.rank] = acc.get(seg.rank, 0.0) + seg.seconds
        return sorted(((r, s / self.n) for r, s in acc.items()),
                      key=lambda kv: -kv[1])

    def dwell_by_link(self) -> list[tuple[str, float]]:
        """Mean on-path seconds per fabric link (``level="links"``)."""
        return sorted(((label, s / self.n)
                       for label, s in self.link_dwell_s.items()),
                      key=lambda kv: -kv[1])

    def top_spans(self, count: int = 3) -> list[dict]:
        """The spans with the most critical-path dwell."""
        acc: dict[int, float] = {}
        for p in self.iterations:
            for seg in p.segments:
                if seg.sid is not None:
                    acc[seg.sid] = acc.get(seg.sid, 0.0) + seg.seconds
        ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:count]
        wall = self.mean_wall_s
        out = []
        for sid, seconds in ranked:
            span = self.spans[sid]
            out.append({
                "sid": sid, "cat": span.cat, "name": span.name,
                "seconds_per_iter": seconds / self.n,
                "share": seconds / self.n / wall if wall > 0 else 0.0,
            })
        return out

    def trace_summary(self, count: int = 3) -> dict:
        """Compact envelope block for results and ``measure --json``."""
        return {
            "critical_path_ms": self.mean_path_s * 1e3,
            "iterations": self.n,
            "level": self.level,
            "exposed_allreduce_share": self.exposed_allreduce_share,
            "shares": self.shares(),
            "top_spans": [
                {k: v for k, v in item.items() if k != "sid"}
                for item in self.top_spans(count)
            ],
        }

    def report(self) -> str:
        """Plain-text critical-path report."""
        totals, shares = self.totals(), self.shares()
        lines = [
            f"-- critical path: {self.label or 'run'} @ {self.gpus} GPUs "
            f"({self.mean_path_s * 1e3:.1f} ms/iter over {self.n} steady "
            f"iterations, level={self.level}) --",
            f"{'bucket':<16} {'ms/iter':>10} {'share':>8}",
        ]
        for bucket in BUCKETS:
            lines.append(f"{bucket:<16} {totals[bucket] * 1e3:>10.2f} "
                         f"{shares[bucket] * 100:>7.1f}%")
        lines.append(
            f"exposed allreduce critical-path share: "
            f"{self.exposed_allreduce_share * 100:.1f}%")
        lines.append("dwell by phase (ms/iter):")
        for cat, seconds in self.dwell_by_phase():
            lines.append(f"  {cat:<14} {seconds * 1e3:>10.2f}")
        ranks = self.dwell_by_rank()[:5]
        if ranks:
            lines.append("dwell by bounding rank (ms/iter):")
            for rank, seconds in ranks:
                lines.append(f"  rank {rank:<9} {seconds * 1e3:>10.2f}")
        links = self.dwell_by_link()[:5]
        if links:
            lines.append("dwell by link (ms/iter):")
            for label, seconds in links:
                lines.append(f"  {label:<14} {seconds * 1e3:>10.2f}")
        lines.append("top bottleneck spans:")
        for item in self.top_spans():
            lines.append(
                f"  {item['cat']:<12} {item['name']:<28} "
                f"{item['seconds_per_iter'] * 1e3:>8.2f} ms/iter "
                f"({item['share'] * 100:.1f}%)")
        return "\n".join(lines)


def explain_measurement(measurement) -> CriticalPathReport:
    """Critical path of a traced :class:`~repro.core.sweep.Measurement`.

    The runtime timeline adds the failure detector's SUSPECT windows,
    which a saved span file does not carry.
    """
    recorder = getattr(measurement, "trace", None)
    if recorder is None:
        raise ValueError(
            "measurement carries no trace; run measure_training with "
            "trace='spans' (or 'links')")
    return compute_critical_path(recorder, timeline=measurement.timeline)
