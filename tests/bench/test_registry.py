"""Tests for the declarative experiment registry."""

import pytest

from repro.bench import experiments as E
from repro.bench.harness import ExperimentResult
from repro.bench.registry import REGISTRY, ExperimentSpec, get, ids


def test_every_spec_well_formed():
    for exp_id, spec in REGISTRY.items():
        assert spec.id == exp_id
        assert callable(spec.fn)
        assert spec.title
        assert isinstance(spec.full_kwargs, dict)
        assert isinstance(spec.quick_kwargs, dict)
        assert isinstance(spec.tags, tuple) and spec.tags


def test_ids_order_and_lookup():
    assert ids()[0] == "E1"
    assert "E14" in ids()
    assert get("E6").fn is E.e6_scaling_comparison
    with pytest.raises(KeyError, match="E99"):
        get("E99")


def test_kwargs_returns_a_copy():
    spec = get("E4")
    spec.kwargs(quick=True)["iterations"] = 999
    assert spec.quick_kwargs["iterations"] != 999


def test_parallelizable_specs_accept_runner():
    import inspect

    for spec in REGISTRY.values():
        params = inspect.signature(spec.fn).parameters
        if spec.parallelizable:
            assert "runner" in params, spec.id
        else:
            assert "runner" not in params, spec.id


def test_sweep_experiments_are_parallelizable():
    for exp_id in ("E1", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11",
                   "E12", "E13", "E13b", "E14"):
        assert get(exp_id).parallelizable, exp_id
    for exp_id in ("E2", "E7", "E7b", "E15"):
        assert not get(exp_id).parallelizable, exp_id


def test_spec_run_quick():
    result = get("E2").run(quick=True)
    assert isinstance(result, ExperimentResult)
    assert result.experiment == "E2"


def test_spec_run_with_runner(tmp_path):
    from repro.runner import ResultCache, Runner

    runner = Runner(cache=ResultCache(directory=tmp_path))
    spec = get("E4")
    result = spec.run(quick=True, runner=runner)
    assert result.experiment == "E4"
    assert runner.stats.points > 0


def test_specs_are_frozen():
    with pytest.raises(Exception):
        get("E1").title = "mutated"


def test_experiment_spec_defaults():
    spec = ExperimentSpec("EX", "demo", lambda: None)
    assert spec.kwargs() == {}
    assert not spec.parallelizable


def test_committed_results_are_the_registrys():
    # Both tiers of every experiment are committed with a current
    # envelope, and nothing else is: `repro run` rewrites these exact
    # files, so `git diff -- bench_results` is the result gate.
    import json
    from pathlib import Path

    from repro.bench.harness import SCHEMA_VERSION

    results = Path(__file__).resolve().parents[2] / "bench_results"
    for variant, directory in (("full", results),
                               ("quick", results / "quick")):
        for exp_id in REGISTRY:
            path = directory / f"{exp_id.lower()}.json"
            assert path.exists(), path
            doc = json.loads(path.read_text())
            assert doc["schema_version"] == SCHEMA_VERSION, path
            assert doc["experiment"] == exp_id, path
            assert doc["meta"] == {"variant": variant}, path
        committed = {p.stem for p in directory.glob("e*.json")}
        assert committed == {i.lower() for i in REGISTRY}, directory
