"""Generate EXPERIMENTS.md from persisted benchmark results.

``python -m repro.bench.report`` reads every full-tier
``bench_results/e*.json`` written by ``python -m repro run`` and renders
the paper-vs-measured record the repository ships as ``EXPERIMENTS.md`` —
so the document is always a function of an actual run, never
hand-edited numbers.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.harness import format_rows, load_result

__all__ = ["generate", "main"]

#: Static per-experiment commentary (the part that is *about* the claim,
#: not the numbers).
COMMENTARY = {
    "E1": "Both single-GPU throughputs are calibration anchors: the two "
          "kernel-class efficiency constants in `repro.models.costmodel` "
          "are the only fitted values, and both paper numbers follow from "
          "the reconstructed layer graphs.",
    "E2": "Reconstructed from the DLv3+ layer graph: hundreds of tiny "
          "gradient tensors (median <16 KB) carrying <4% of the bytes — "
          "the distribution that motivates Horovod's tensor fusion.",
    "E3": "The two MPI library profiles reproduce the published OSU "
          "shape: GPUDirect RDMA wins at every size; local dips at "
          "algorithm-selection switch points appear as in real curves.",
    "E4": "Under the exposed-communication default base, small fusion "
          "thresholds are a first-order throughput penalty at 132 GPUs; "
          "under the tuned base fusion only shows in serialized "
          "allreduce time (communication hides).",
    "E5": "Large cycle times stall the backward tail. Model limitation "
          "(documented): the host-CPU cost that penalizes sub-ms cycles "
          "in production is not priced, so the small end is flat.",
    "E6": "The headline reproduction. Efficiency = measured throughput / "
          "(GPUs × calibrated single-GPU compute throughput), with 3% "
          "per-rank compute jitter.",
    "E7": "The convergence-model half of the accuracy claim: the paper's "
          "distributed run (16 GPUs × batch 8 with the linear-scaling "
          "warmup rule at the standard 45-epoch recipe) lands on 80.8%.",
    "E7B": "The mechanistic half: real numpy replicas exchanging real "
           "gradients through the simulated Horovod runtime stay bitwise "
           "identical and genuinely learn the segmentation task.",
    "E8": "Derived per-scale view of E6: the tuning gain concentrates "
          "entirely at scale.",
    "E9": "Model prediction beyond the paper: either escape route — the "
          "GDR library swap or the hierarchical-allreduce knob — "
          "independently recovers near-linear scaling; the default "
          "configuration is poor because it has neither.",
    "E10": "The paper's methodological claim: staged knob tuning with no "
           "code changes reaches ~92% efficiency; our staged procedure "
           "and Horovod-style coordinate-descent autotuning agree.",
    "E11": "Extension (not a paper table): what the tuning buys in "
           "practice — Summit hours per trained model at the standard "
           "VOC recipe.",
    "E12": "Extension: strong scaling at fixed global batch. Finding: "
           "DLv3+ strong-scales gracefully down to one image per GPU — "
           "its per-image compute dwarfs launch overheads and "
           "communication alike.",
    "E13": "Extension (fault injection): declarative fault schedules "
           "(`repro.faults`) drive stragglers, a flapping EDR rail and a "
           "mid-run rank crash through the tuned configuration; the "
           "failure detector suspects-but-clears stragglers, retries "
           "absorb the flaps, and a confirmed crash elastically shrinks "
           "the communicator while the survivors keep training.",
    "E13B": "Extension (fault injection): a single degraded EDR rail is "
            "absorbed by communication/computation overlap down to ~5% of "
            "rail bandwidth; only near-total rail loss gates the "
            "synchronous allreduce.",
    "E14": "Extension (efficiency attribution): span-traced runs fold "
           "each iteration's critical path on the marking rank into "
           "compute, input stall, straggler skew, exposed communication, "
           "fusion wait and fault suspicion — buckets that sum exactly "
           "to wall time. The default config's efficiency loss at scale "
           "is mostly exposed communication plus fusion wait (25.8% of "
           "the 132-GPU iteration, against 3.9% straggler skew); the "
           "tuned config's overhead share is strictly smaller at every "
           "count >= 24 GPUs.",
    "E15": "Extension (crash safety): the run is killed by a "
           "`process_kill` fault at 60% of its wall time, resumed from "
           "the last checkpoint, and the completed statistics are "
           "compared byte-for-byte against an uninterrupted run — at "
           "every checkpoint cadence the resumed run is bit-identical.",
    "E16": "Extension (critical-path diagnosis): span-traced runs "
           "(`repro.trace`) walk each iteration's dependency DAG to the "
           "exact simulated critical path and restate the tuning win at "
           "span level — the default config's exposed-allreduce share "
           "of the 132-GPU critical path collapses from ~25% to ~0.03% "
           "under tuning. The per-bucket fold of the same paths is "
           "E14's attribution, and its bucket totals sum to the mean "
           "wall time (measured reconcile error: 0).",
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.bench.report`` from the full-tier
``bench_results/*.json`` (written by ``python -m repro run``).  Do not
edit by hand; re-run the experiments and regenerate:

```bash
python -m repro run all --parallel    # ~12 minutes on 2 cores, deterministic
python -m repro.bench.report          # rewrites this file
```

Result JSONs are schema-versioned (`schema_version` + producing
`package_version`, see `repro.bench.harness`). Serial, parallel, fabric,
warm-cache and resumed runs of an experiment write the same bytes, so
`git diff -- bench_results` after a re-run shows any output that moved.

Every E-series experiment can also be run through the simulation
service instead of the CLI: `python -m repro serve`, then
`python -m repro submit E6 --variant quick --wait` (or `POST /v1/jobs`
with `{"experiment": "E6", "variant": "quick"}`). The envelope fetched
from `GET /v1/jobs/{id}/result` is byte-identical to the file
`repro run` writes for the same experiment and variant, and identical
resubmissions resolve from the shared result cache without
re-simulating — see README "Running as a service" and DESIGN.md §11.

Reproduction scope note: absolute times come from a calibrated simulation
(see DESIGN.md §2/§5); the claims checked here are the paper's *shapes
and headline ratios* — who wins, by how much, and where the crossovers
fall — plus the two single-GPU throughputs the calibration is anchored
to.  E1–E10 reproduce the paper; E11–E16 are documented extensions.

Headline (abstract) claims at 132 GPUs:

| claim | paper | this repo |
|---|---|---|
| DLv3+ single-V100 throughput | 6.7 img/s | see E1 |
| ResNet-50 single-V100 throughput | 300 img/s | see E1 |
| tuned scaling efficiency | 92% | see E6 |
| default scaling efficiency | ≈92/1.3 ≈ 71% | see E6 |
| tuning speedup | 1.3× | see E6 |
| efficiency gain | +23.9 points | see E6 |
| distributed mIOU | 80.8% | see E7 |
"""


def generate(results_dir: str | Path = "bench_results") -> str:
    """Render the full EXPERIMENTS.md text from saved results."""
    results_dir = Path(results_dir)
    paths = sorted(
        results_dir.glob("e*.json"),
        key=lambda p: (len(p.stem), p.stem),
    )
    if not paths:
        raise FileNotFoundError(
            f"no results under {results_dir}; run the benchmarks first"
        )
    parts = [HEADER]
    for path in paths:
        result = load_result(path)
        exp = result.experiment
        parts.append(f"## {exp} — {result.title}\n")
        commentary = COMMENTARY.get(exp.upper())
        if commentary:
            parts.append(commentary + "\n")
        if result.paper:
            claim_rows = [
                {
                    "claim": key,
                    "paper": str(value),
                    "measured": str(result.measured.get(key, "—")),
                }
                for key, value in result.paper.items()
            ]
            parts.append("```\n" + format_rows(claim_rows) + "\n```\n")
        extra = {
            k: v for k, v in result.measured.items()
            if k not in result.paper
        }
        if extra:
            parts.append(
                "Additional measurements: "
                + ", ".join(f"{k} = {v}" for k, v in extra.items())
                + "\n"
            )
        if result.rows:
            parts.append("```\n" + format_rows(result.rows) + "\n```\n")
        if result.notes:
            note = result.notes.splitlines()[0]
            parts.append(f"*Note: {note}*\n")
    return "\n".join(parts)


def main() -> int:
    """Write EXPERIMENTS.md in the current directory."""
    text = generate()
    Path("EXPERIMENTS.md").write_text(text)
    print(f"wrote EXPERIMENTS.md ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
