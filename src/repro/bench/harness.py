"""Result containers and table/JSON rendering for the experiment drivers.

Results are **schema-versioned**: :meth:`ExperimentResult.to_json` wraps
the payload in an envelope carrying ``schema_version`` and the producing
``package_version``, plus a ``meta`` block stamped by whoever ran the
experiment.  :func:`load_result` is the inverse of :func:`save_result`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import package_version

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentResult",
    "format_rows",
    "load_result",
    "save_result",
]

#: Version of the on-disk result JSON layout.  History:
#: 0 — bare payload (no envelope; no longer read);
#: 1 — envelope with schema/package version + ``meta`` block;
#: 2 — optional ``trace_summary`` block (critical-path digest).
SCHEMA_VERSION = 2


@dataclass
class ExperimentResult:
    """One reproduced table/figure.

    ``rows`` is a list of flat dicts sharing the same keys (the table
    columns); ``paper`` maps claim names to the paper's values and
    ``measured`` to ours, so EXPERIMENTS.md can be generated from runs.
    ``meta`` is producer metadata that travels with the result but is
    *not* part of the measurement payload.  ``repro run`` and the
    service stamp the run variant alone (``{"variant": "quick"}``), so
    a saved file is the same bytes whichever backend produced it.
    ``trace_summary`` is an optional critical-path digest (see
    :meth:`repro.trace.CriticalPathReport.trace_summary`) attached when
    the experiment ran with span tracing; it *is* part of the payload
    (the simulation is deterministic, so the digest is too).
    """

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    paper: dict[str, float | str] = field(default_factory=dict)
    measured: dict[str, float | str] = field(default_factory=dict)
    notes: str = ""
    meta: dict = field(default_factory=dict)
    trace_summary: dict | None = None

    def table(self) -> str:
        """Rendered fixed-width table plus the paper-vs-measured block."""
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            parts.append(format_rows(self.rows))
        if self.paper:
            parts.append("paper vs measured:")
            for key, pval in self.paper.items():
                mval = self.measured.get(key, "—")
                parts.append(f"  {key:<38} paper={_fmt(pval):>10}  ours={_fmt(mval):>10}")
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)

    def payload(self) -> dict:
        """The measurement payload alone (no envelope, no ``meta``).

        This is what determinism gates compare: serial, parallel and
        warm-cache runs of the same experiment must agree byte-for-byte
        on ``json.dumps(result.payload(), ...)``.
        """
        out = {
            "experiment": self.experiment,
            "title": self.title,
            "rows": self.rows,
            "paper": self.paper,
            "measured": self.measured,
            "notes": self.notes,
        }
        if self.trace_summary is not None:
            out["trace_summary"] = self.trace_summary
        return out

    def to_json(self) -> str:
        """Versioned JSON form: envelope + payload + ``meta``."""
        return json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "package_version": package_version(),
                **self.payload(),
                "meta": self.meta,
            },
            indent=1,
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3g}" if abs(value) < 1000 else f"{value:,.0f}"
    return str(value)


def format_rows(rows: list[dict]) -> str:
    """Fixed-width table from a list of same-keyed dicts."""
    if not rows:
        return "(no rows)"
    columns = list(rows[0])
    for row in rows:
        if list(row) != columns:
            raise ValueError("rows must share identical column order")
    widths = {
        c: max(len(str(c)), max(len(_fmt(r[c])) for r in rows)) for c in columns
    }
    header = "  ".join(f"{c:>{widths[c]}}" for c in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(f"{_fmt(row[c]):>{widths[c]}}" for c in columns))
    return "\n".join(lines)


def save_result(result: ExperimentResult, directory: str | Path = "bench_results") -> Path:
    """Persist a result as ``<directory>/<experiment>.json``; returns the path."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{result.experiment.lower()}.json"
    path.write_text(result.to_json())
    return path


def load_result(source: str | Path) -> ExperimentResult:
    """Read a result saved by :func:`save_result`.

    ``source`` is a path to a result JSON file.  Round-trips exactly:
    ``load_result(save_result(r)) == r``.
    """
    text = Path(source).read_text()
    data = json.loads(text)
    if not isinstance(data, dict) or "experiment" not in data:
        raise ValueError(f"{source}: not an ExperimentResult JSON file")
    version = data.get("schema_version")
    if version is None:
        raise ValueError(f"{source}: no schema_version (a pre-envelope file)")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"{source}: schema_version {version} is newer than this "
            f"package understands ({SCHEMA_VERSION})"
        )
    return ExperimentResult(
        experiment=data["experiment"],
        title=data.get("title", ""),
        rows=data.get("rows", []),
        paper=data.get("paper", {}),
        measured=data.get("measured", {}),
        notes=data.get("notes", ""),
        meta=data.get("meta", {}),
        trace_summary=data.get("trace_summary"),
    )
