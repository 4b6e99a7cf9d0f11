"""Claim checks over the committed full-tier results.

Each ``test_e*.py`` asserts a paper claim's *shape* (who wins, by
roughly what factor) against ``bench_results/<id>.json``, the file
``python -m repro run <id>`` writes from the registry's full-tier
kwargs.  Regenerate with ``python -m repro run all --parallel``:
``git diff -- bench_results`` shows what moved, and these checks judge
whether the claims still hold.
"""

from pathlib import Path

import pytest

from repro.bench import load_result

RESULTS = Path(__file__).resolve().parents[1] / "bench_results"


@pytest.fixture
def result():
    """Load the committed full-tier result of one experiment id."""
    return lambda exp_id: load_result(RESULTS / f"{exp_id.lower()}.json")
