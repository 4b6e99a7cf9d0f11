"""The A/B determinism gate: serial vs parallel vs warm-cache.

Every runner-ported experiment must produce the same
``ExperimentResult.payload()`` — byte-for-byte as JSON — whether its
points run inline, fan out across worker processes, or come back from
the on-disk result cache.  The fast tier checks tiny variants of the
gate experiments (E1, E4, E6, E13, E13b, E14); the full quick-tier
variants run under the ``slow`` marker.
"""

import json

import pytest

from repro.bench import experiments as E
from repro.runner import ResultCache, Runner

#: (driver, tiny kwargs) per gate experiment.
TINY = {
    "E1": (E.e1_single_gpu_throughput, dict(iterations=2)),
    "E4": (E.e4_fusion_sweep,
           dict(gpus=6, iterations=2, thresholds=(0, 1 << 25))),
    "E6": (E.e6_scaling_comparison,
           dict(gpu_counts=(1, 6), iterations=2)),
    "E13": (E.e13_fault_injection,
            dict(gpus=12, iterations=3, slowdowns=(3.0,),
                 flap_fractions=(0.3,))),
    "E13b": (E.e13_degraded_rail,
             dict(gpus=12, iterations=2, factors=(1.0, 0.01))),
    "E14": (E.e14_efficiency_attribution,
            dict(gpu_counts=(6,), iterations=2)),
}


def _payload_json(result):
    return json.dumps(result.payload(), sort_keys=True)


def _gate(driver, kwargs, tmp_path, workers=2):
    serial = driver(**kwargs)
    cache = ResultCache(directory=tmp_path / "cache")
    parallel = driver(**kwargs, runner=Runner(workers=workers, cache=cache))
    warm_runner = Runner(workers=workers, cache=cache)
    warm = driver(**kwargs, runner=warm_runner)
    assert warm_runner.stats.executed == 0, "warm run re-executed points"
    assert _payload_json(parallel) == _payload_json(serial)
    assert _payload_json(warm) == _payload_json(serial)


@pytest.mark.parametrize("exp_id", sorted(TINY))
def test_serial_parallel_warm_identical(exp_id, tmp_path):
    driver, kwargs = TINY[exp_id]
    _gate(driver, kwargs, tmp_path)


def test_cache_only_runner_identical(tmp_path):
    """workers=0 + cache: pure memoization is also bit-identical."""
    driver, kwargs = TINY["E4"]
    _gate(driver, kwargs, tmp_path, workers=0)


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", ["E1", "E4", "E6", "E13", "E13b",
                                    "E14"])
def test_quick_variant_gate(exp_id, tmp_path):
    from repro.bench.registry import get

    spec = get(exp_id)
    _gate(spec.fn, spec.kwargs(quick=True), tmp_path)
