"""Shared fixtures: one small traced run reused across the trace tests."""

import pytest

from repro.core import measure_training, paper_default_config


@pytest.fixture(scope="package")
def traced_measurement():
    """A deterministic link-level traced run (6 GPUs, 2 iterations)."""
    return measure_training(6, paper_default_config(), iterations=2,
                            jitter_std=0.03, seed=0, trace="links")
