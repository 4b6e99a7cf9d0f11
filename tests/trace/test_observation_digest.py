"""Exactness gate: every observation output of a traced run, hashed.

Refactors of the observation plane (span recorder, metric registry,
exporters, critical-path engine) must not move a single byte of what an
observed run reports.  The golden-trace test compares the Chrome trace
field by field with a float tolerance; these digests pin the exact
bytes of every output instead:

* the Prometheus text exposition of the run's metric registry;
* the JSONL event log, iteration records included;
* the merged Chrome trace (timeline, counter tracks and spans);
* the span list as JSON;
* the plain-text critical-path report;
* the E14 bucket totals, pickled (protocol 4), so every float is exact.

Two scenarios: the golden trace's faulted run (3 GPUs, tuned, straggler
plus crash under a negotiation deadline) and a 6-GPU default run with
compute jitter, both traced at ``level="links"``.

The expected digests were recorded before the telemetry probe was
folded into the span recorder.  The Prometheus, JSONL and Chrome-trace
digests were re-recorded twice, each time because only the kernel-event
series (``sim_events_processed_total``, ``sim_event_queue_depth*``,
``sim_schedule_delay_seconds``) moved: when per-tensor completion
events left the Horovod runtime, and when the recorder stopped hooking
the DES kernel and those series were deleted, which removed their
records and nothing else.  A mismatch means an observation output
changed; only a deliberate change may re-record them (``--regen``
prints the current values)::

    PYTHONPATH=src python tests/trace/test_observation_digest.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.core import measure_training, paper_default_config
from repro.core.knobs import paper_tuned_config
from repro.faults import FaultSchedule, RankCrash, StragglerGPU

#: Outputs hashed per scenario, in this order.
OUTPUTS = ("prometheus", "jsonl", "chrome_trace", "spans", "report",
           "bucket_totals")

#: scenario -> {output: SHA-256 hex}.
EXPECTED = {
    "faulted_3": {
        "prometheus":
            "24cae110886650c1ff1136299a420ee13ab5aebf959badcaf1a4ef1f8f3a78ea",
        "jsonl":
            "e8aea27ee378d32b7edc15fc6e99b121509eb0686c7252d809a011072acf29d0",
        "chrome_trace":
            "9443a7d5cbcd1fb922f3ec80bd3f1bafd2e7cad794fc4caf5788708fa85bbf11",
        "spans":
            "ae1ec5da89ec92cd24553969f785479e9e8437947d6b35ad91d3ba859004cba4",
        "report":
            "de2365efd8d993889e6790fa2b5225d97be91ba1479966da5014a358217315ca",
        "bucket_totals":
            "6edfa5d7d4c4557a817a17b295487c855efa9e88e0aef0a54796b0e847ffac60",
    },
    "default_6": {
        "prometheus":
            "6ba9a5376e97e440e9d4697d26c2d9dc4fa031bc2fe47d0f40e50502a4f9267d",
        "jsonl":
            "ff7ac3f773e23d07a770b98494f3bd99b4f1f70aea4c3095bb27b5bc58f6dc03",
        "chrome_trace":
            "f27c7d2940ca66136ad3ec3bc4b95d297b9b82b9cf6ba2708645d2192002d911",
        "spans":
            "5013368a386979f800314a97019c39dbfeed1b94de31ed292ecbbe2e95a148c5",
        "report":
            "3631fcc41a77c893df71cc39b71a0bae586123e3f5b580418083fcc34db0392c",
        "bucket_totals":
            "d2a3296feac833ef2ba69083137dc258db34363f70aa9b3196f8c5febe69eb91",
    },
}


def run_faulted_3():
    # The golden trace's run: a long cycle keeps it small.
    cfg = paper_tuned_config()
    cfg = dataclasses.replace(cfg, horovod=cfg.horovod.with_(
        cycle_time_s=50e-3, negotiation_deadline_s=0.2, suspect_retries=1,
    ))
    schedule = FaultSchedule.of(
        StragglerGPU(rank=1, start_s=1.0, duration_s=1.0, slowdown=2.0),
        RankCrash(rank=2, start_s=2.5),
    )
    return measure_training(3, cfg, iterations=3, jitter_std=0.0, seed=0,
                            schedule=schedule, trace="links")


def run_default_6():
    return measure_training(6, paper_default_config(), iterations=3,
                            jitter_std=0.03, seed=0, trace="links")


SCENARIOS = {
    "faulted_3": run_faulted_3,
    "default_6": run_default_6,
}


def observation_outputs(m) -> dict[str, bytes]:
    """Every observation output of a traced measurement, as bytes."""
    from repro.telemetry import to_jsonl, to_prometheus
    from repro.trace import explain_measurement, merged_chrome_trace

    registry = m.trace.registry
    report = explain_measurement(m)
    return {
        "prometheus": to_prometheus(registry).encode(),
        "jsonl": to_jsonl(registry, m.trace.iteration_records()).encode(),
        "chrome_trace": merged_chrome_trace(
            m.timeline, registry, m.trace).encode(),
        "spans": json.dumps([s.to_dict() for s in m.trace.spans]).encode(),
        "report": report.report().encode(),
        "bucket_totals": pickle.dumps(report.totals(), protocol=4),
    }


def digests(m) -> dict[str, str]:
    outputs = observation_outputs(m)
    return {name: hashlib.sha256(outputs[name]).hexdigest()
            for name in OUTPUTS}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_observation_outputs_unchanged(name):
    assert digests(SCENARIOS[name]()) == EXPECTED[name]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        for key, fn in SCENARIOS.items():
            print(f'    "{key}": {{')
            for output, digest in digests(fn()).items():
                print(f'        "{output}":\n            "{digest}",')
            print("    },")
    else:
        print(__doc__)
