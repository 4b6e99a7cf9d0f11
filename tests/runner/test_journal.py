"""Tests for the append-only JSONL run journal behind `repro run --resume`."""

import json

from repro.runner import RunJournal
from repro.runner.fsio import atomic_write


def test_append_and_events_roundtrip(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("sweep_start", experiments=["E1", "E2"], variant="quick")
    journal.append("experiment_start", experiment="E1", variant="quick")
    journal.append("experiment_done", experiment="E1", variant="quick",
                   elapsed_s=1.25)
    events = journal.events()
    assert [e["event"] for e in events] == [
        "sweep_start", "experiment_start", "experiment_done"]
    assert events[0]["experiments"] == ["E1", "E2"]
    assert events[2]["elapsed_s"] == 1.25


def test_missing_journal_is_empty(tmp_path):
    journal = RunJournal(tmp_path / "nope.jsonl")
    assert journal.events() == []
    assert journal.completed() == set()


def test_truncated_last_line_is_dropped(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("experiment_done", experiment="E1", variant="quick")
    journal.append("experiment_done", experiment="E2", variant="quick")
    # Simulate a writer killed mid-append: cut the final line in half.
    text = journal.path.read_text()
    journal.path.write_text(text[: len(text) - 18])
    events = journal.events()
    assert [e.get("experiment") for e in events] == ["E1"]
    assert journal.completed("quick") == {"E1"}


def test_garbage_line_is_skipped_not_fatal(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("experiment_done", experiment="E1", variant="full")
    with open(journal.path, "a") as f:
        f.write("}{ definitely not json\n")
        f.write(json.dumps({"event": "experiment_done",
                            "experiment": "E2", "variant": "full"}) + "\n")
        f.write('"a bare string, not an object"\n')
    assert journal.completed("full") == {"E1", "E2"}


def test_completed_filters_by_variant(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("experiment_done", experiment="E1", variant="quick")
    journal.append("experiment_done", experiment="E2", variant="full")
    journal.append("experiment_failed", experiment="E3", variant="quick")
    assert journal.completed("quick") == {"E1"}
    assert journal.completed("full") == {"E2"}
    assert journal.completed() == {"E1", "E2"}  # no filter: any variant


def test_reset_removes_the_file(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("sweep_start", variant="quick")
    assert journal.path.exists()
    journal.reset()
    assert not journal.path.exists()
    journal.reset()  # idempotent
    assert journal.events() == []


def test_lines_are_single_sorted_json_objects(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("experiment_done", experiment="E9", variant="full",
                   path="bench_results/e9.json")
    (line,) = journal.path.read_text().splitlines()
    record = json.loads(line)
    assert list(record) == sorted(record)
    assert record["event"] == "experiment_done"


# -- compaction (`repro journal compact`) ---------------------------------

def test_compact_keeps_latest_done_per_experiment(tmp_path):
    from repro.runner.journal import compact_run_journal

    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("sweep_start", experiments=["E1", "E2"], variant="quick")
    for _ in range(3):  # three full sweeps of the same pair
        for exp in ("E1", "E2"):
            journal.append("experiment_start", experiment=exp,
                           variant="quick")
            journal.append("experiment_done", experiment=exp,
                           variant="quick", elapsed_s=1.0)
        journal.append("sweep_done", variant="quick", failed=[])
    before, after = compact_run_journal(journal)
    assert before == 16 and after == 3  # sweep marker + one done each
    assert journal.completed("quick") == {"E1", "E2"}


def test_compact_preserves_resume_semantics(tmp_path):
    from repro.runner.journal import compact_run_journal

    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("experiment_start", experiment="E1", variant="quick")
    journal.append("experiment_done", experiment="E1", variant="quick")
    journal.append("experiment_start", experiment="E2", variant="quick")
    journal.append("experiment_failed", experiment="E2", variant="quick",
                   error="boom")
    journal.append("experiment_done", experiment="E1", variant="full")
    compact_run_journal(journal)
    # Resume must see exactly what it saw before the rewrite: E1 done at
    # both variants, E2 still open (its failure record kept).
    assert journal.completed("quick") == {"E1"}
    assert journal.completed("full") == {"E1"}
    events = journal.events()
    assert any(e["event"] == "experiment_failed" for e in events)


def test_compact_is_idempotent(tmp_path):
    from repro.runner.journal import compact_run_journal

    journal = RunJournal(tmp_path / "journal.jsonl")
    for exp in ("E1", "E2", "E3"):
        journal.append("experiment_done", experiment=exp, variant="quick")
    compact_run_journal(journal)
    first = journal.path.read_text()
    before, after = compact_run_journal(journal)
    assert before == after == 3
    assert journal.path.read_text() == first


def test_rewrite_is_atomic_and_leaves_no_tmp(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    journal.append("experiment_done", experiment="E1", variant="quick")
    written = journal.rewrite([{"event": "experiment_done",
                                "experiment": "E9", "variant": "quick"}])
    assert written == 1
    assert journal.completed("quick") == {"E9"}
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "deep" / "result.json"
    assert atomic_write(target, "first") == target
    atomic_write(target, b"second")
    assert target.read_bytes() == b"second"
    assert list(target.parent.glob("*.tmp")) == []
