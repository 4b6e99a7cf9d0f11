"""Spans survive checkpoint/resume: every observation output is exact.

The recorder rides inside the trainer's checkpoint snapshot; a run
interrupted at a boundary and resumed must end with exactly the spans of
the uninterrupted run.  The gate compares canonical JSON payloads —
pickle bytes are not stable across an unpickle (memoization differs)
even when every value is equal — and the exports: the Prometheus text
and the JSONL log match line for line once the checkpoint lifecycle
counters, which only the interrupted run has, are dropped, and the
merged Chrome trace matches byte for byte.
"""

import json
import pickle

from repro.core import measure_training, paper_tuned_config
from repro.telemetry import to_jsonl, to_prometheus
from repro.trace import merged_chrome_trace

#: Series that count the interruption itself, not the simulated run.
CHECKPOINT_SERIES = ("checkpoint_captures_total", "checkpoint_resumes_total")


def _without_checkpoint_series(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if not any(name in line for name in CHECKPOINT_SERIES)]


def test_spans_survive_interrupt_resume():
    from repro.checkpoint import CheckpointPlan, resume_training

    kwargs = dict(iterations=5, jitter_std=0.03, seed=0, trace="spans")
    gpus = 6
    baseline = measure_training(gpus, paper_tuned_config(), **kwargs)

    interrupted = measure_training(
        gpus, paper_tuned_config(),
        checkpoint=CheckpointPlan(every=1, stop_at=2), **kwargs)
    assert interrupted.interrupted and interrupted.checkpoint is not None
    # The captured state carries the recorder mid-run.
    mid = pickle.loads(interrupted.checkpoint.state["trace"])
    assert 0 < len(mid.spans) < len(baseline.trace.spans)

    resumed = resume_training(interrupted.checkpoint)
    assert resumed.trace is not None
    assert (json.dumps(resumed.trace.to_payload())
            == json.dumps(baseline.trace.to_payload()))
    assert (pickle.dumps(resumed.stats)
            == pickle.dumps(baseline.stats))

    ours, theirs = resumed.trace, baseline.trace
    assert (_without_checkpoint_series(to_prometheus(ours.registry))
            == _without_checkpoint_series(to_prometheus(theirs.registry)))
    assert (_without_checkpoint_series(
                to_jsonl(ours.registry, ours.iteration_records()))
            == _without_checkpoint_series(
                to_jsonl(theirs.registry, theirs.iteration_records())))
    assert (merged_chrome_trace(resumed.timeline, ours.registry, ours)
            == merged_chrome_trace(baseline.timeline, theirs.registry,
                                   theirs))
