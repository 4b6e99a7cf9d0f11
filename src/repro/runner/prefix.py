"""Prefix memoization for iterations-laddered training sweeps.

Sweep points that differ **only** in ``iterations`` share a simulation
prefix: the trainer's per-iteration behaviour never depends on the total
iteration count, so iterations ``1..k`` of an ``iterations=n`` run are
bit-identical to the whole ``iterations=k`` run up to its final barrier.
This module exploits that instead of re-simulating the shared prefix
once per ladder member:

1. partition a batch of :class:`~repro.runner.simpoint.TrainPoint` into
   *ladder groups* (same knobs, different ``iterations``) and singletons
   (:func:`plan_groups`);
2. run only the **largest** member of each group, with a
   :class:`~repro.checkpoint.CheckpointPlan` capturing resumable state at
   every smaller member's final boundary (``CheckpointPlan(at=...)``);
3. materialize each smaller member by resuming its boundary checkpoint
   with ``spec["iterations"]`` rewritten
   (:func:`~repro.checkpoint.resume_training`) — the resumed run only
   replays the already-drawn optimizer tail, simulating ~zero new
   iterations.

The correctness contract is the resume contract
(:mod:`repro.checkpoint.train`): a memoized Measurement is equal to the
fresh run of the same point in every compared field — stats, timeline
events, runtime stats, link utilization — excluding kernel event counts.
``tests/runner/test_prefix_memo.py`` is the gate.

Eligibility is deliberately conservative (:func:`memoizable`): points
with a fault schedule or an observer stay on the fresh path — fault
windows are wall-clock-positioned (not per-iteration), and the span
recorder's metrics embed kernel event counters that would distinguish a
resumed run from a fresh one.

A :class:`PrefixStore` optionally persists the captured prefix
checkpoints in the :mod:`repro.checkpoint.format` container, keyed by
the ladder's knob hash, so a later process extending the same ladder
(e.g. a convergence study adding ``iterations=16``) resumes from the
stored prefix instead of re-simulating it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.runner.simpoint import TrainPoint, cache_salt

__all__ = [
    "PrefixStats",
    "PrefixStore",
    "ladder_key",
    "memoizable",
    "plan_groups",
    "prefix_run",
    "run_with_prefix_memo",
]


def memoizable(point) -> bool:
    """True when ``point`` may participate in an iterations ladder.

    Scheduled faults are positioned in simulated seconds, not
    iterations, so truncating a run changes which windows fire inside
    it; span-recorder snapshots embed kernel event counters that the
    resume contract explicitly excludes.  Such points run fresh.
    """
    return (
        isinstance(point, TrainPoint)
        and point.schedule is None
        and point.trace is None
        and point.iterations >= 1
    )


def ladder_key(point: TrainPoint) -> str:
    """Hash of every knob except ``iterations`` — the ladder identity.

    Salted exactly like :meth:`~repro.runner.simpoint.SimPoint.key`, so
    stored prefixes can never leak across simulation-semantics changes.
    """
    knobs = point.payload()
    del knobs["iterations"]
    doc = {"kind": "train-prefix", "salt": cache_salt(), "knobs": knobs}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def plan_groups(points):
    """Partition ``points`` into ladder groups and singleton indices.

    Returns ``(groups, singles)`` where ``groups`` maps
    :func:`ladder_key` to a list of ``(index, point)`` sorted by
    ``iterations`` (at least two *distinct* iteration counts each), and
    ``singles`` is the list of input indices outside any group.
    Duplicate points land in the same group entry and share one result.
    """
    by_key: dict[str, list[tuple[int, TrainPoint]]] = {}
    singles: list[int] = []
    for idx, point in enumerate(points):
        if memoizable(point):
            by_key.setdefault(ladder_key(point), []).append((idx, point))
        else:
            singles.append(idx)
    groups: dict[str, list[tuple[int, TrainPoint]]] = {}
    for key, members in by_key.items():
        if len({p.iterations for _, p in members}) >= 2:
            groups[key] = sorted(members, key=lambda ip: ip[1].iterations)
        else:
            singles.extend(idx for idx, _ in members)
    singles.sort()
    return groups, singles


class PrefixStore:
    """On-disk prefix checkpoints, one container file per ladder key.

    Each file (:mod:`repro.checkpoint.format`) holds
    ``{boundary: TrainCheckpoint}``; :meth:`save` merges with what is
    already stored, so successive sweeps accumulate boundaries.  Corrupt
    or unreadable files are treated as absent — the store is a pure
    accelerator, never a correctness dependency.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"{key[:40]}.ckpt"

    def load(self, key: str) -> dict:
        """Stored ``{boundary: TrainCheckpoint}`` for ``key`` (may be empty)."""
        from repro.checkpoint import CheckpointError, read_checkpoint

        try:
            obj = read_checkpoint(self._path(key))
        except (CheckpointError, OSError):
            return {}
        return obj if isinstance(obj, dict) else {}

    def save(self, key: str, checkpoints: dict) -> None:
        """Merge ``checkpoints`` into the stored set for ``key``."""
        from repro.checkpoint import write_checkpoint

        merged = {**self.load(key), **checkpoints}
        write_checkpoint(self._path(key), merged)


@dataclass
class PrefixStats:
    """Accounting of what one :func:`prefix_run` actually simulated."""

    #: Points in the batch / points materialized from a shared prefix.
    points: int = 0
    memoized_points: int = 0
    #: Ladder groups found.
    groups: int = 0
    #: Boundary checkpoints reused from a :class:`PrefixStore`.
    store_hits: int = 0
    #: Iterations a naive point-per-run sweep would simulate (distinct
    #: points only — the result cache already dedups exact repeats).
    iterations_reference: int = 0
    #: Full iterations actually simulated (resume tails count 0 — they
    #: replay the captured optimizer segment, no new iterations).
    iterations_simulated: int = 0
    #: Ladder keys touched, for journals/debugging.
    keys: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "points": self.points,
            "memoized_points": self.memoized_points,
            "groups": self.groups,
            "store_hits": self.store_hits,
            "iterations_reference": self.iterations_reference,
            "iterations_simulated": self.iterations_simulated,
        }


def _rewrite(checkpoint, iterations: int):
    """``checkpoint`` with its spec retargeted to ``iterations`` total."""
    return dataclasses.replace(
        checkpoint, spec={**checkpoint.spec, "iterations": iterations}
    )


def _run_ladder(members, store, key, stats):
    """Measure one ladder group; returns ``{iterations: Measurement}``.

    ``members`` is the group's point list sorted by ``iterations``.
    """
    from repro.checkpoint import CheckpointPlan, resume_training
    from repro.core.sweep import measure_training

    ladder = sorted({p.iterations for p in members})
    largest = ladder[-1]
    smaller = ladder[:-1]
    spec_point = members[-1]
    stored = store.load(key) if store is not None else {}

    results: dict[int, object] = {}
    missing = [b for b in smaller if b not in stored]
    # The deepest stored prefix every missing boundary can still be
    # captured from (captures happen strictly after the resume point).
    base = max(
        (b for b in stored
         if b <= largest and (not missing or b < min(missing))),
        default=None,
    )
    plan = CheckpointPlan(every=0, at=tuple(missing)) if missing else None
    if base is not None:
        # Extend the stored prefix, banking any still-missing boundaries
        # on the way (capture-on-resume).
        m = resume_training(_rewrite(stored[base], largest), plan=plan)
        stats.store_hits += 1
        stats.iterations_simulated += largest - base
        stats.memoized_points += 1
    else:
        # Simulate the whole ladder once: the largest member, capturing
        # resumable state at every smaller member's final boundary.
        kwargs = {
            f.name: getattr(spec_point, f.name)
            for f in dataclasses.fields(spec_point)
        }
        kwargs["iterations"] = largest
        m = measure_training(
            checkpoint=plan or CheckpointPlan(every=0, at=tuple(smaller)),
            **kwargs,
        )
        stats.iterations_simulated += largest
    results[largest] = m
    fresh_checkpoints = dict(m.checkpoints or {})
    available = {**stored, **fresh_checkpoints}
    for n in smaller:
        if n not in available:
            # A capture can be skipped when its barrier was not
            # quiescent; with no fault schedule that never happens, but
            # a fresh run is always a correct fallback.
            kwargs = {
                f.name: getattr(spec_point, f.name)
                for f in dataclasses.fields(spec_point)
            }
            kwargs["iterations"] = n
            results[n] = measure_training(**kwargs)
            stats.iterations_simulated += n
            continue
        if n in stored:
            stats.store_hits += 1
        results[n] = resume_training(_rewrite(available[n], n))
        stats.memoized_points += 1
    if store is not None and fresh_checkpoints:
        store.save(key, fresh_checkpoints)
    stats.iterations_reference += sum(ladder)
    return results


def prefix_run(points, runner=None, store=None):
    """Run ``points`` with prefix memoization; returns ``(results, stats)``.

    Results come back in input order, exactly like
    :meth:`~repro.runner.pool.Runner.run`.  Singleton points (and every
    non-memoizable point) go through ``runner`` — process pool, result
    cache, retry machinery — unchanged; ladder groups are simulated
    once per group as described in the module docstring.  Memoized
    results are written back to the runner's result cache under each
    member point's own key, so later plain runs hit the cache.
    """
    from repro.runner.pool import Runner

    stats = PrefixStats(points=len(points))
    groups, singles = plan_groups(points)
    stats.groups = len(groups)
    results: dict[int, object] = {}

    if singles:
        active = runner if runner is not None else Runner()
        single_results = active.run([points[i] for i in singles])
        for idx, value in zip(singles, single_results):
            results[idx] = value
        stats.iterations_reference += sum(
            points[i].iterations
            for i in set(singles)
            if isinstance(points[i], TrainPoint)
        )
        stats.iterations_simulated += sum(
            p.iterations
            for p in {points[i] for i in singles}
            if isinstance(p, TrainPoint)
        )

    cache = getattr(runner, "cache", None)
    for key, members in groups.items():
        stats.keys.append(key)
        by_iterations = _run_ladder([p for _, p in members], store, key, stats)
        for idx, point in members:
            results[idx] = by_iterations[point.iterations]
        if cache is not None:
            for point in {p for _, p in members}:
                cache.put(point.key(), by_iterations[point.iterations])
    return [results[i] for i in range(len(points))], stats


def run_with_prefix_memo(points, runner=None, store=None):
    """Drop-in :meth:`Runner.run` replacement (results only)."""
    return prefix_run(points, runner=runner, store=store)[0]
