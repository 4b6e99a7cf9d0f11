"""Tests for the result container and table rendering."""

import json

import pytest

from repro.bench import ExperimentResult, format_rows, save_result


def test_format_rows_alignment():
    rows = [{"a": 1, "b": "xx"}, {"a": 100, "b": "y"}]
    text = format_rows(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["a", "b"]
    assert len(lines) == 4  # header, rule, two rows


def test_format_rows_requires_same_columns():
    with pytest.raises(ValueError):
        format_rows([{"a": 1}, {"b": 2}])


def test_format_rows_empty():
    assert format_rows([]) == "(no rows)"


def test_result_table_sections():
    res = ExperimentResult(
        experiment="EX",
        title="demo",
        rows=[{"k": 1}],
        paper={"claim": 92.0},
        measured={"claim": 93.1},
        notes="a note",
    )
    text = res.table()
    assert "EX: demo" in text
    assert "paper=" in text and "ours=" in text
    assert "a note" in text


def test_result_missing_measured_shows_dash():
    res = ExperimentResult("EX", "demo", paper={"claim": 1.0})
    assert "—" in res.table()


def test_json_roundtrip(tmp_path):
    res = ExperimentResult("E1", "t", rows=[{"x": 1.5}], paper={"p": 2})
    path = save_result(res, tmp_path)
    assert path.name == "e1.json"
    data = json.loads(path.read_text())
    assert data["rows"] == [{"x": 1.5}]
    assert data["paper"] == {"p": 2}


def test_to_json_envelope_fields():
    from repro import package_version
    from repro.bench.harness import SCHEMA_VERSION

    res = ExperimentResult("E1", "t", meta={"variant": "quick"})
    data = json.loads(res.to_json())
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["package_version"] == package_version()
    assert data["meta"] == {"variant": "quick"}


def test_load_result_roundtrip(tmp_path):
    from repro.bench.harness import load_result

    res = ExperimentResult(
        "E5", "cycle", rows=[{"x": 1.5, "y": "2%"}],
        paper={"p": 2}, measured={"p": 2.1}, notes="n",
        meta={"variant": "full", "runner": {"workers": 4}},
    )
    assert load_result(save_result(res, tmp_path)) == res


def test_load_result_rejects_files_without_envelope(tmp_path):
    from repro.bench.harness import load_result

    legacy = tmp_path / "e9.json"
    legacy.write_text(json.dumps({
        "experiment": "E9", "title": "old", "rows": [{"a": 1}],
        "paper": {}, "measured": {"k": 2}, "notes": "",
    }))
    with pytest.raises(ValueError, match="schema_version"):
        load_result(legacy)


def test_load_result_rejects_newer_schema(tmp_path):
    from repro.bench.harness import SCHEMA_VERSION, load_result

    path = tmp_path / "e1.json"
    path.write_text(json.dumps({"experiment": "E1",
                                "schema_version": SCHEMA_VERSION + 1}))
    with pytest.raises(ValueError, match="newer"):
        load_result(path)


def test_load_result_rejects_non_result_json(tmp_path):
    from repro.bench.harness import load_result

    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError, match="not an ExperimentResult"):
        load_result(path)


def test_payload_excludes_envelope_and_meta():
    res = ExperimentResult("E1", "t", meta={"runner": {"workers": 8}})
    payload = res.payload()
    assert "meta" not in payload
    assert "schema_version" not in payload
    assert set(payload) == {"experiment", "title", "rows", "paper",
                            "measured", "notes"}
