"""Golden-trace regression test for the merged Chrome trace.

A small, fully deterministic training run (zero jitter, fixed seed) with
a fault schedule exercises every phase family — negotiation, queueing,
allreduce, and the fault/resilience phases — plus full span tracing
(``trace="links"``) and telemetry counters.  The merged Chrome trace
(:func:`repro.trace.merged_chrome_trace`: timeline rows, counter track
and span hierarchy under one pid/tid scheme, with cross-rank flow
events) is compared against a committed golden file.  Any change to the
trace format, the phase/span vocabulary, or the simulated timings shows
up as a diff here.

Regenerate after an intentional timing/format change with::

    PYTHONPATH=src python tests/horovod/test_timeline_golden.py --regen
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.horovod.timeline import FAULT_PHASES, PHASES

GOLDEN = Path(__file__).parent / "data" / "timeline_golden.json"

#: Span categories the traced golden run must produce.
SPAN_CATS = {
    "ITERATION", "INPUT_STALL", "FORWARD", "BACKWARD", "BARRIER_WAIT",
    "OPTIMIZER", "GROUP", "COLLECTIVE", "ALG_STEP", "TRANSFER",
}


def make_trace() -> str:
    """The deterministic run whose merged trace is pinned."""
    from repro.core.knobs import paper_tuned_config
    from repro.core.sweep import clear_profile_cache, measure_training
    from repro.faults import FaultSchedule, RankCrash, StragglerGPU
    from repro.trace import merged_chrome_trace

    clear_profile_cache()
    cfg = paper_tuned_config()
    # A long cycle keeps the trace small (fewer NEGOTIATE/QUEUE spans)
    # without losing any phase coverage.
    cfg = dataclasses.replace(cfg, horovod=cfg.horovod.with_(
        cycle_time_s=50e-3, negotiation_deadline_s=0.2, suspect_retries=1,
    ))
    schedule = FaultSchedule.of(
        StragglerGPU(rank=1, start_s=1.0, duration_s=1.0, slowdown=2.0),
        RankCrash(rank=2, start_s=2.5),
    )
    m = measure_training(3, cfg, iterations=3, jitter_std=0.0, seed=0,
                         schedule=schedule, telemetry=True, trace="links")
    return merged_chrome_trace(m.timeline, m.telemetry.registry, m.trace)


@pytest.fixture(scope="module")
def trace_events():
    return json.loads(make_trace())["traceEvents"]


def test_matches_golden(trace_events):
    golden = json.loads(GOLDEN.read_text())["traceEvents"]
    assert len(trace_events) == len(golden)
    for ours, theirs in zip(trace_events, golden):
        assert ours["name"] == theirs["name"]
        assert ours["ph"] == theirs["ph"]
        assert ours["pid"] == theirs["pid"]
        assert ours["tid"] == theirs["tid"]
        assert ours.get("cat") == theirs.get("cat")
        if "ts" in theirs:
            assert ours["ts"] == pytest.approx(theirs["ts"],
                                               rel=1e-9, abs=1e-6)
        if "dur" in theirs:
            assert ours["dur"] == pytest.approx(theirs["dur"],
                                                rel=1e-9, abs=1e-6)


def test_schema_is_valid_chrome_trace(trace_events):
    """Per-``ph`` schema: every event kind carries exactly its fields."""
    assert trace_events, "trace must not be empty"
    for ev in trace_events:
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name")
            assert set(ev) == {"name", "ph", "pid", "tid", "args"}
            assert isinstance(ev["args"]["name"], str)
        elif ev["ph"] == "X":
            if ev["pid"] == 0:
                # Runtime timeline rows: one thread per phase.
                assert set(ev) == {"name", "cat", "ph", "ts", "dur",
                                   "pid", "tid"}
                assert ev["cat"] in PHASES
                assert ev["tid"] == PHASES.index(ev["cat"])
            else:
                # Span rows from the recorder carry their tags.
                assert set(ev) == {"name", "cat", "ph", "ts", "dur",
                                   "pid", "tid", "args"}
                assert ev["cat"] in SPAN_CATS | {"NEGOTIATE", "QUEUE",
                                                 "MEMCPY_IN", "COMPRESS",
                                                 "ALLREDUCE", "DECOMPRESS",
                                                 "MEMCPY_OUT"}
            assert ev["dur"] >= 0
        elif ev["ph"] == "C":
            assert ev["pid"] == 0 and ev["tid"] == len(PHASES)
            assert ev["args"]
        elif ev["ph"] in ("s", "f"):
            assert ev["cat"] == "flow"
            assert "id" in ev
        else:
            raise AssertionError(f"unexpected event kind {ev['ph']!r}")


def test_metadata_first_then_sorted(trace_events):
    kinds = [ev["ph"] for ev in trace_events]
    n_meta = kinds.count("M")
    assert all(k == "M" for k in kinds[:n_meta])
    ts = [ev["ts"] for ev in trace_events[n_meta:]]
    assert ts == sorted(ts)


def test_known_phases_present(trace_events):
    cats = {ev.get("cat") for ev in trace_events}
    # Core lifecycle phases of any fused run…
    assert {"NEGOTIATE", "ALLREDUCE"} <= cats
    # …plus the fault phases this scenario injects…
    assert set(FAULT_PHASES) <= cats
    # …plus the span hierarchy from the recorder.
    assert SPAN_CATS <= cats
    names = {ev["name"] for ev in trace_events if ev.get("cat") == "FAULT"}
    assert any(n.startswith("straggler_rank1") for n in names)
    assert any(n.startswith("crash_rank2") for n in names)


def test_flow_events_tie_collectives_to_rank_steps(trace_events):
    """Each collective's flow fans out to its per-rank ALG_STEP events."""
    starts = {ev["id"] for ev in trace_events if ev["ph"] == "s"}
    finishes = {ev["id"] for ev in trace_events if ev["ph"] == "f"}
    assert starts, "no collective flow starts"
    assert finishes == starts
    collectives = [ev for ev in trace_events
                   if ev.get("cat") == "COLLECTIVE"]
    assert len(collectives) == len(starts)


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(make_trace())
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
