"""Append-only JSONL run journal for resumable sweeps.

``repro run all`` can take hours; a crash or Ctrl-C should not force the
whole sweep to repeat.  The journal records one JSON object per line
under ``bench_results/run_journal.jsonl`` — sweep start/stop markers and
per-experiment ``experiment_start`` / ``experiment_done`` /
``experiment_failed`` events — and ``repro run all --resume`` replays
only the experiments without an ``experiment_done`` record.

Robustness contract: every append is a single ``write()`` of one
newline-terminated line followed by ``flush()`` + ``fsync()``, so a
crash can corrupt at most the final line; :meth:`RunJournal.events`
silently drops a truncated tail instead of failing the resume that needs
it most.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.runner.fsio import LOCAL_FS, atomic_write

__all__ = ["DEFAULT_JOURNAL_PATH", "RunJournal", "compact_run_journal"]

#: Default location, next to the experiment results it tracks.
DEFAULT_JOURNAL_PATH = Path("bench_results") / "run_journal.jsonl"


class RunJournal:
    """Append-only JSONL event log keyed by experiment id.

    ``fs`` injects the filesystem seam (:mod:`repro.runner.fsio`) the
    durable writes go through — production uses the real disk; the
    chaos harness substitutes a fault-injecting one.  A failed append
    raises ``OSError`` to the caller, whose journal-failure policy
    (degrade, refuse leases, retry later) lives at the queue layer.
    """

    def __init__(self, path: str | Path | None = None, fs=None) -> None:
        self.path = Path(path) if path is not None else DEFAULT_JOURNAL_PATH
        self.fs = fs if fs is not None else LOCAL_FS

    # -- writing -----------------------------------------------------------
    def append(self, event: str, **fields) -> dict:
        """Durably append one ``{"event": ..., **fields}`` record."""
        record = {"event": str(event), **fields}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.fs.open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            self.fs.fsync(handle.fileno())
        return record

    # -- reading -----------------------------------------------------------
    def events(self) -> list[dict]:
        """Every parseable record, in append order.

        A truncated or garbled final line (writer killed mid-append) is
        dropped; a garbled line elsewhere is skipped the same way —
        resume must never die on the artifact of the crash it recovers
        from.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def completed(self, variant: str | None = None) -> set[str]:
        """Experiment ids with an ``experiment_done`` record.

        ``variant`` restricts matching to records carrying that variant
        tag (e.g. ``"quick"`` vs ``"paper"`` tiers), so a quick-tier
        completion never satisfies a paper-tier resume.
        """
        done = set()
        for record in self.events():
            if record.get("event") != "experiment_done":
                continue
            if variant is not None and record.get("variant") != variant:
                continue
            eid = record.get("experiment")
            if eid:
                done.add(str(eid))
        return done

    def reset(self) -> None:
        """Delete the journal (a fresh, non-resumed sweep starts clean)."""
        self.path.unlink(missing_ok=True)

    # -- compaction --------------------------------------------------------
    def rewrite(self, records: Iterable[dict]) -> int:
        """Atomically replace the journal with ``records``.

        Goes through :func:`~repro.runner.fsio.atomic_write` on the
        journal's ``fs`` seam, so a crash mid-compaction leaves either
        the old journal or the new one, never a torn mixture.  Returns
        the number of records written.
        """
        lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
                 + "\n" for record in records]
        atomic_write(self.path, "".join(lines), fs=self.fs)
        return len(lines)


def compact_run_journal(journal: RunJournal) -> tuple[int, int]:
    """Drop superseded run-journal entries; returns ``(before, after)``.

    Long-lived journals accumulate one ``experiment_start`` /
    ``experiment_done`` pair (plus sweep markers) per invocation.  Only
    the *latest* ``experiment_done`` per ``(experiment, variant)`` feeds
    ``--resume``, so compaction keeps exactly those, drops start/failed
    events that a later completion superseded, and keeps the trailing
    sweep marker for context.  The queue's JSONL store reuses
    :meth:`RunJournal.rewrite` with its own retention policy.
    """
    events = journal.events()
    latest_done: dict[tuple[str, str | None], dict] = {}
    open_experiments: list[dict] = []
    last_sweep: dict | None = None
    for record in events:
        event = record.get("event")
        if event == "experiment_done":
            key = (str(record.get("experiment")), record.get("variant"))
            latest_done[key] = record
        elif event in ("experiment_start", "experiment_failed"):
            open_experiments.append(record)
        elif event in ("sweep_start", "sweep_resume", "sweep_done",
                       "sweep_interrupted"):
            last_sweep = record
    done_keys = set(latest_done)
    keep = [r for r in open_experiments
            if (str(r.get("experiment")), r.get("variant")) not in done_keys]
    kept = ([last_sweep] if last_sweep is not None else [])
    kept += keep + list(latest_done.values())
    journal.rewrite(kept)
    return len(events), len(kept)
