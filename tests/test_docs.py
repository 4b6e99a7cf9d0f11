"""Guardrails against documentation drift."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text()


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


def test_core_docs_exist():
    for name in ("README.md", "DESIGN.md"):
        assert (ROOT / name).exists(), name


def test_readme_mentions_all_packages(readme):
    for pkg in ("repro.sim", "repro.cluster", "repro.mpi", "repro.horovod",
                "repro.models", "repro.train", "repro.npnn", "repro.core",
                "repro.bench", "repro.data", "repro.faults",
                "repro.telemetry", "repro.trace"):
        assert pkg in readme, pkg


def test_readme_headline_numbers(readme):
    for anchor in ("6.7", "300", "92%", "1.3", "80.8"):
        assert anchor in readme, anchor


def test_design_lists_every_bench_target(design):
    bench_dir = ROOT / "benchmarks"
    for path in bench_dir.glob("test_e*.py"):
        assert path.name in design, path.name


def test_design_experiment_ids_have_drivers(design):
    from repro.bench.registry import REGISTRY

    index = design.split("\n## 4.", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (E\w+) \|", index, flags=re.MULTILINE)
    assert rows
    for exp_id in rows:
        assert exp_id in REGISTRY, exp_id


def test_examples_referenced_exist(readme):
    examples = ROOT / "examples"
    assert (examples / "quickstart.py").exists()
    for line in readme.splitlines():
        if "examples/" in line and ".py" in line:
            name = line.split("examples/")[1].split(".py")[0] + ".py"
            assert (examples / name).exists(), name


def test_cli_registry_matches_design(design):
    from repro.bench.registry import REGISTRY

    for exp_id in REGISTRY:
        base = exp_id.rstrip("b")
        assert f"| {base} |" in design or f"| {exp_id} |" in design, exp_id
