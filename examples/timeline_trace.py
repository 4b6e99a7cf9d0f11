#!/usr/bin/env python
"""Dump a Horovod-timeline Chrome trace of one simulated training run.

The paper's tuning methodology leans on Horovod's timeline
(``HOROVOD_TIMELINE``) to see where iteration time goes — negotiation,
queueing, fusion memcpys, the allreduce itself.  This example runs a few
iterations and writes the same Chrome-trace JSON, loadable at
``chrome://tracing`` or https://ui.perfetto.dev.

Usage::

    python examples/timeline_trace.py [--gpus 24] [--out horovod_timeline.json]
"""

import argparse

from repro.core import measure_training, paper_default_config, paper_tuned_config
from repro.trace import merged_chrome_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gpus", type=int, default=24)
    parser.add_argument("--config", choices=("default", "tuned"),
                        default="default")
    parser.add_argument("--out", default="horovod_timeline.json")
    args = parser.parse_args()

    config = (paper_default_config() if args.config == "default"
              else paper_tuned_config())
    m = measure_training(args.gpus, config, iterations=3, jitter_std=0.0)

    totals = m.timeline.total_by_phase()
    iters = len(m.stats.iteration_seconds)
    print(f"{m.config.label} on {args.gpus} GPUs "
          f"({m.images_per_second:.1f} img/s)\n")
    print(f"{'phase':<12} {'total (ms)':>12} {'per iter (ms)':>15} {'spans':>7}")
    for phase, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        spans = len(m.timeline.spans(phase))
        print(f"{phase:<12} {seconds * 1e3:>12.1f} "
              f"{seconds / iters * 1e3:>15.2f} {spans:>7}")

    with open(args.out, "w") as fh:
        fh.write(merged_chrome_trace(m.timeline))
    print(f"\nwrote {len(m.timeline.events)} spans to {args.out} "
          f"(open in chrome://tracing)")


if __name__ == "__main__":
    main()
