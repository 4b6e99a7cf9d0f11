"""Tests for the EXPERIMENTS.md generator."""

import json
from pathlib import Path

import pytest

from repro.bench import ExperimentResult, save_result
from repro.bench.report import generate

ROOT = Path(__file__).resolve().parents[2]


def test_generate_from_saved_results(tmp_path):
    save_result(
        ExperimentResult("E1", "demo one", rows=[{"a": 1}],
                         paper={"x": 1.0}, measured={"x": 1.1, "y": 2}),
        tmp_path,
    )
    save_result(
        ExperimentResult("E2", "demo two", notes="line one\nline two"),
        tmp_path,
    )
    text = generate(tmp_path)
    assert "## E1 — demo one" in text
    assert "## E2 — demo two" in text
    assert "paper" in text and "measured" in text
    # Extra measured keys surface too.
    assert "y = 2" in text
    # Only the first note line is quoted.
    assert "line one" in text and "line two" not in text


def test_generate_orders_by_experiment_id(tmp_path):
    for exp in ("E10", "E2", "E1"):
        save_result(ExperimentResult(exp, exp), tmp_path)
    text = generate(tmp_path)
    assert text.index("## E1 ") < text.index("## E2 ") < text.index("## E10 ")


def test_generate_requires_results(tmp_path):
    with pytest.raises(FileNotFoundError):
        generate(tmp_path / "empty")


def test_generated_json_parsable_roundtrip(tmp_path):
    res = ExperimentResult("E3", "t", rows=[{"k": 1.5}])
    path = save_result(res, tmp_path)
    assert json.loads(path.read_text())["rows"][0]["k"] == 1.5


def test_committed_experiments_md_is_generated():
    # Regenerate with ``python -m repro.bench.report``.
    assert generate(ROOT / "bench_results") == (
        ROOT / "EXPERIMENTS.md").read_text()
