"""Tests for simulation points and their content-addressed keys."""

import dataclasses
import subprocess
import sys

import pytest

from repro.core import paper_default_config, paper_tuned_config
from repro.mpi.libraries import MPI_LIBRARIES
from repro.runner import OSUPoint, TrainPoint, cache_salt
from repro.runner.simpoint import _canonical


def _point(**overrides):
    base = dict(gpus=6, config=paper_tuned_config(), iterations=2)
    base.update(overrides)
    return TrainPoint(**base)


def test_key_is_sha256_hex():
    key = _point().key()
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")


def test_key_stable_within_process():
    assert _point().key() == _point().key()


def test_key_depends_on_every_knob():
    base = _point()
    variants = [
        _point(gpus=12),
        _point(config=paper_default_config()),
        _point(model="resnet50"),
        _point(per_gpu_batch=4),
        _point(iterations=3),
        _point(warmup_iterations=2),
        _point(jitter_std=0.0),
        _point(seed=1),
        _point(negotiation="simulated"),
        _point(trace="spans"),
    ]
    keys = {p.key() for p in variants}
    assert base.key() not in keys
    assert len(keys) == len(variants)


def test_key_kind_discriminates():
    lib = MPI_LIBRARIES["MVAPICH2-GDR"]
    assert OSUPoint(gpus=6, library=lib, nbytes=1024).key() != _point().key()


def test_key_ignores_compare_false_fields():
    lib = MPI_LIBRARIES["MVAPICH2-GDR"]
    relabeled = dataclasses.replace(lib, notes="cosmetic edit")
    a = OSUPoint(gpus=6, library=lib, nbytes=1024)
    b = OSUPoint(gpus=6, library=relabeled, nbytes=1024)
    assert a.key() == b.key()


def test_key_includes_salt(monkeypatch):
    before = _point().key()
    monkeypatch.setattr("repro.runner.simpoint.SIM_SALT", "sim-999")
    assert _point().key() != before


def test_key_stable_across_processes():
    """The key must survive interpreter restarts (fresh hash randomization)."""
    code = (
        "from repro.core import paper_tuned_config\n"
        "from repro.runner import TrainPoint\n"
        "print(TrainPoint(gpus=6, config=paper_tuned_config(),"
        " iterations=2).key())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == _point().key()


def test_canonical_rejects_callables():
    with pytest.raises(TypeError):
        _canonical(lambda: None)


def test_cache_salt_mentions_package_version():
    import repro

    assert repro.__version__ in cache_salt()


def test_execute_matches_measure_training():
    from repro.core import measure_training

    point = _point()
    direct = measure_training(6, point.config, iterations=2)
    via_point = point.execute()
    assert via_point.images_per_second == direct.images_per_second
    assert via_point.stats.mean_iteration_seconds == \
        direct.stats.mean_iteration_seconds


def test_describe_is_informative():
    assert "deeplab@6gpus" in _point().describe()
    lib = MPI_LIBRARIES["MVAPICH2-GDR"]
    assert "osu_allreduce" in OSUPoint(gpus=6, library=lib,
                                       nbytes=1 << 16).describe()
