"""Unit and property tests for the span recorder and its JSON format."""

import json
import pickle

import pytest

from repro.trace import (
    SPAN_SCHEMA_VERSION,
    SpanRecorder,
    load_spans,
    save_spans,
    well_nested_violations,
)
from repro.trace.spans import Span


# -- recorder basics -------------------------------------------------------

def test_record_begin_end_and_queries():
    rec = SpanRecorder()
    root = rec.begin("ITERATION", "iter_0", 1.0, rank=0)
    child = rec.record("FORWARD", "forward", 1.0, 1.5, parent=root)
    rec.end(root, 2.0)
    assert rec.spans[root].duration_s == pytest.approx(1.0)
    assert rec.spans[child].parent == root
    assert [s.sid for s in rec.children_of(root)] == [child]
    assert [s.sid for s in rec.by_cat("FORWARD")] == [child]
    assert rec.child_index()[root][0].sid == child
    assert rec.spans[root].tags == {"rank": 0}


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        SpanRecorder(level="everything")


def test_link_detail_flag():
    assert not SpanRecorder(level="spans").link_detail
    assert SpanRecorder(level="links").link_detail


def test_recorder_does_not_hook_the_kernel():
    """Tracing observes the simulated system, not the simulator: the
    recorder takes no per-event kernel callback and exports no
    ``sim_*`` series."""
    from repro.sim import Environment

    env = Environment()
    rec = SpanRecorder()
    rec.attach(env=env)
    assert env.monitor is None
    names = [family.name for family in rec.registry.collect()]
    assert names and not [n for n in names if n.startswith("sim_")]


# -- persistence -----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rec = SpanRecorder(level="links")
    root = rec.record("ITERATION", "iter_0", 0.0, 2.0, rank=3)
    rec.record("TRANSFER", "nvlink", 0.5, 0.7, parent=root,
               src=3, dst=4, bytes=1024, links=["gpu:0:3->gpu:0:4"])
    path = save_spans(rec, tmp_path / "spans.json")
    loaded = load_spans(path)
    assert loaded.level == "links"
    assert loaded.to_payload() == rec.to_payload()
    # The loaded recorder can keep allocating fresh ids.
    assert loaded.record("FORWARD", "f", 0.0, 1.0) == 2


def test_load_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": SPAN_SCHEMA_VERSION + 1, "level": "spans",
        "spans": [],
    }))
    with pytest.raises(ValueError, match="unsupported span schema"):
        load_spans(bad)


def test_pickle_drops_live_references():
    from repro.sim import Environment

    rec = SpanRecorder()
    rec.attach(env=Environment())
    rec.comm_parent = 7
    rec._rank_parent[0] = 3
    rec.record("ITERATION", "iter_0", 0.0, 1.0)
    clone = pickle.loads(pickle.dumps(rec))
    assert clone._env is None
    assert clone.comm_parent is None and clone._rank_parent == {}
    assert clone.to_payload() == rec.to_payload()


# -- well-nestedness checker ----------------------------------------------

def test_well_nested_detects_violations():
    good = [Span(0, None, "ITERATION", "i", 0.0, 2.0),
            Span(1, 0, "FORWARD", "f", 0.0, 1.0)]
    assert well_nested_violations(good) == []
    orphan = [Span(0, 99, "FORWARD", "f", 0.0, 1.0)]
    assert any("orphan parent" in p for p in well_nested_violations(orphan))
    escape = [Span(0, None, "ITERATION", "i", 0.0, 1.0),
              Span(1, 0, "FORWARD", "f", 0.5, 1.5)]
    assert any("escapes parent" in p for p in well_nested_violations(escape))
    negative = [Span(0, None, "FORWARD", "f", 1.0, 0.5)]
    assert any("ends before start" in p
               for p in well_nested_violations(negative))


# -- properties of a real traced run ---------------------------------------

def test_traced_run_spans_are_well_nested(traced_measurement):
    rec = traced_measurement.trace
    assert rec.spans, "traced run recorded no spans"
    assert well_nested_violations(rec.spans) == []


def test_traced_run_span_taxonomy(traced_measurement):
    rec = traced_measurement.trace
    iterations = rec.by_cat("ITERATION")
    # One ITERATION span per (rank, iteration), warmup included.
    gpus = traced_measurement.gpus
    assert len(iterations) == gpus * len(
        traced_measurement.stats.iteration_seconds)
    for it in iterations:
        assert {"rank", "iteration"} <= set(it.tags)
        kid_cats = {c.cat for c in rec.children_of(it.sid)}
        assert {"FORWARD", "BACKWARD", "OPTIMIZER"} <= kid_cats
    # Every COLLECTIVE fans out to per-rank ALG_STEP children.
    for coll in rec.by_cat("COLLECTIVE"):
        steps = [c for c in rec.children_of(coll.sid)
                 if c.cat == "ALG_STEP"]
        assert steps and all("rank" in s.tags for s in steps)
    # links level: TRANSFER spans exist and parent under ALG_STEPs.
    transfers = rec.by_cat("TRANSFER")
    assert transfers
    by_sid = {s.sid: s for s in rec.spans}
    for t in transfers:
        assert {"src", "dst", "bytes", "wait_s", "links"} <= set(t.tags)
        if t.parent is not None:
            assert by_sid[t.parent].cat == "ALG_STEP"


def test_traced_run_payload_round_trips(traced_measurement, tmp_path):
    rec = traced_measurement.trace
    loaded = load_spans(save_spans(rec, tmp_path / "run.json"))
    assert json.dumps(loaded.to_payload()) == json.dumps(rec.to_payload())
