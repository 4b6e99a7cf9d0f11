"""Command-line entry point: run reproduction experiments by id.

Usage::

    python -m repro list                  # show the experiment index
    python -m repro run E1 E2 E7          # run selected experiments
    python -m repro run E6 --quick        # scaled-down, faster variants
    python -m repro run all --parallel    # fan sweeps across worker processes
    python -m repro run all --resume      # finish an interrupted sweep
    python -m repro cache stats           # inspect the result cache
    python -m repro measure --gpus 48 --config tuned
    python -m repro serve --port 8765     # simulation-as-a-service API
    python -m repro submit E6 --wait      # queue a job on a server
    python -m repro jobs ls               # inspect the job queue
    python -m repro run E6 --backend fabric   # sweep via pulled workers
    python -m repro worker --url URL      # join a fabric as a worker
    python -m repro fabric status --url URL   # inspect a fabric queue

Results are printed as tables and saved as ``bench_results/<id>.json``
(``--quick``: ``bench_results/quick/<id>.json``).  A file is the same
bytes whichever backend wrote it, so ``git diff -- bench_results`` after
a run is the result gate.  ``run --parallel`` executes sweep-shaped
experiments through :mod:`repro.runner` (process pool +
content-addressed result cache).

Exit codes follow one convention across every subcommand: 0 = ok,
1 = domain failure (an experiment/job/server-side error), 2 = usage
error (bad arguments, unknown ids, unreadable inputs).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.harness import save_result
from repro.bench.registry import REGISTRY
from repro.core import (
    measure_training,
    paper_default_config,
    paper_tuned_config,
)

#: Exit codes shared by every subcommand.
EXIT_OK, EXIT_FAILURE, EXIT_USAGE = 0, 1, 2


def fail(message: str, *, usage: bool = False) -> int:
    """The single error envelope every subcommand reports through.

    Prints ``error: <message>`` to stderr and returns the conventional
    exit code: 2 for usage errors (bad arguments, unknown ids), 1 for
    domain failures (an experiment or request that legitimately
    failed).
    """
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE if usage else EXIT_FAILURE


def package_version() -> str:
    """Installed package version, falling back to the source tree's."""
    from repro import package_version as _pv

    return _pv()


def cmd_list() -> int:
    """Print the experiment index."""
    print(f"{'id':<5} {'par':<4} description")
    for spec in REGISTRY.values():
        par = "yes" if spec.parallelizable else "-"
        print(f"{spec.id:<5} {par:<4} {spec.title}")
    return 0


def _build_runner(parallel: bool, workers: int, no_cache: bool,
                  retries: int = 0, trace_dir: str | None = None,
                  backend: str = "local"):
    """Execution backend for ``run`` (None = plain serial execution).

    ``--backend fabric`` builds a :class:`~repro.fabric.FabricRunner`:
    a local coordinator plus ``repro worker`` subprocesses pulling
    points over the lease protocol.  Otherwise ``--parallel`` (or
    ``--trace-dir`` alone — trace capture rides on the runner's
    resolution pass) builds the inline process-pool
    :class:`~repro.runner.Runner`.  Both share the Runner's batch
    front-end, so ``--trace-dir`` works with either backend.
    """
    from repro.runner import ResultCache

    if backend == "fabric":
        from repro.fabric import FabricRunner

        runner = FabricRunner(workers=workers or 2,
                              cache=None if no_cache else ResultCache(),
                              retries=retries, trace_dir=trace_dir)
        url = runner.start()
        print(f"[fabric coordinator on {url} — {runner.workers} "
              f"worker(s); extra workers: repro worker --url {url}]")
        return runner
    if not parallel and trace_dir is None:
        return None
    from repro.runner import Runner

    workers = (workers or (os.cpu_count() or 1)) if parallel else 0
    return Runner(workers=workers,
                  cache=None if no_cache else ResultCache(),
                  retries=retries, trace_dir=trace_dir)


def cmd_run(ids: list[str], quick: bool, parallel: bool = False,
            workers: int = 0, no_cache: bool = False, resume: bool = False,
            journal_path: str | None = None, retries: int = 1,
            trace_dir: str | None = None, backend: str = "local") -> int:
    """Run the selected experiments, journaling each for ``--resume``."""
    from repro.runner import RunJournal

    if ids == ["all"]:
        ids = list(REGISTRY)
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        return fail(f"unknown experiment ids: {unknown}; "
                    f"try `python -m repro list`", usage=True)
    variant = "quick" if quick else "full"
    results_dir = "bench_results/quick" if quick else "bench_results"
    journal = RunJournal(journal_path)
    if resume:
        completed = journal.completed(variant)
        skipped = [i for i in ids if i in completed]
        ids = [i for i in ids if i not in completed]
        if skipped:
            print(f"[resume: skipping {len(skipped)} already-completed "
                  f"experiment(s): {' '.join(skipped)}]")
        if not ids:
            print("[resume: nothing left to run]")
            return 0
        journal.append("sweep_resume", experiments=ids, variant=variant)
    else:
        journal.append("sweep_start", experiments=ids, variant=variant)
    runner = _build_runner(parallel, workers, no_cache, retries=retries,
                           trace_dir=trace_dir, backend=backend)
    failures = []
    try:
        for exp_id in ids:
            spec = REGISTRY[exp_id]
            journal.append("experiment_start", experiment=exp_id,
                           variant=variant)
            before = runner.stats.as_dict() if runner is not None else None
            start = time.time()
            try:
                result = spec.run(quick=quick, runner=runner)
            except KeyboardInterrupt:
                raise
            except Exception as err:
                journal.append("experiment_failed", experiment=exp_id,
                               variant=variant, error=repr(err))
                failures.append(exp_id)
                print(f"[{exp_id} failed: {err!r}; continuing]",
                      file=sys.stderr)
                continue
            elapsed = time.time() - start
            # ``meta`` is the variant alone so the file is the same bytes
            # on every backend; runner accounting goes to the journal.
            result.meta = {"variant": variant}
            run_meta = None
            if runner is not None and spec.parallelizable:
                run_meta = dict(runner.meta(), **runner.stats.delta(before))
            print(result.table())
            path = save_result(result, results_dir)
            journal.append("experiment_done", experiment=exp_id,
                           variant=variant, elapsed_s=round(elapsed, 3),
                           path=str(path), runner=run_meta)
            line = f"[{exp_id}: {elapsed:.1f}s, saved {path}]"
            if run_meta:
                line += (f" [runner: {run_meta['workers']} workers, "
                         f"{run_meta['cache_hits']} hits / "
                         f"{run_meta['cache_misses']} misses]")
            if trace_dir is not None:
                captured = (runner.stats.as_dict()["traces_captured"]
                            - before["traces_captured"]) if before else 0
                state = (f"{captured} trace file(s) -> {trace_dir}"
                         if captured else "no traced points")
                print(f"[{exp_id} trace capture: {state}]")
            print(line + "\n")
    except KeyboardInterrupt:
        journal.append("sweep_interrupted", variant=variant)
        print(f"\n[interrupted — journal saved to {journal.path}; "
              f"rerun with --resume to finish the remaining experiments]",
              file=sys.stderr)
        return 130
    finally:
        close = getattr(runner, "close", None)
        if close is not None:
            close()
    journal.append("sweep_done", variant=variant, failed=failures)
    if runner is not None and runner.cache is not None:
        s = runner.cache.stats
        print(f"[cache: {s.hits} hits, {s.misses} misses, "
              f"{runner.cache.snapshot()['entries']} entries on disk]")
    if failures:
        print(f"[{len(failures)} experiment(s) failed: {' '.join(failures)}]",
              file=sys.stderr)
        return 1
    return 0


def cmd_cache(action: str, directory: str | None, as_json: bool) -> int:
    """``repro cache stats`` / ``repro cache clear``."""
    from repro.runner import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(directory=directory or DEFAULT_CACHE_DIR)
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.directory}")
        return 0
    snap = cache.snapshot()
    if as_json:
        import json

        print(json.dumps(snap, indent=1))
        return 0
    print(f"cache directory : {snap['directory']}")
    print(f"entries         : {snap['entries']}")
    print(f"total bytes     : {snap['total_bytes']}")
    print(f"max bytes       : {snap['max_bytes']}")
    print(f"hits / misses   : {snap['hits']} / {snap['misses']}")
    print(f"hit ratio       : {snap['hit_ratio']:.3f}")
    print(f"salt            : {snap['salt']}")
    return 0


def cmd_journal_compact(journal_path: str | None) -> int:
    """``repro journal compact``: drop superseded run-journal entries."""
    from repro.runner import RunJournal
    from repro.runner.journal import compact_run_journal

    journal = RunJournal(journal_path)
    if not journal.path.exists():
        return fail(f"no journal at {journal.path}", usage=True)
    before, after = compact_run_journal(journal)
    print(f"compacted {journal.path}: {before} -> {after} record(s)")
    return 0


def _service_client(url: str, token: str | None):
    from repro.service import ServiceClient

    return ServiceClient(url=url, token=token)


def cmd_serve(host: str, port: int, state_dir: str, tokens: str | None,
              workers: int, lease_s: float,
              max_queue_depth: int = 128, backend: str = "local",
              fabric_workers: int = 2, obs_dir: str | None = None) -> int:
    """``repro serve``: run the blocking simulation-service HTTP server."""
    from pathlib import Path

    from repro.obs import configure as configure_obs
    from repro.service import Service, ServiceConfig, serve

    try:
        config = ServiceConfig(
            host=host, port=port, state_dir=Path(state_dir),
            tokens_path=Path(tokens) if tokens else None,
            workers=workers, lease_s=lease_s,
            max_queue_depth=max_queue_depth, backend=backend,
            fabric_workers=fabric_workers)
        # Structured events on by default, next to the queue journal;
        # configure() also exports REPRO_OBS_DIR so fabric worker
        # subprocesses log into the same directory (REPRO_OBS=0 is the
        # kill switch).
        emitter = configure_obs(Path(obs_dir) if obs_dir
                                else config.obs_dir)
        service = Service(config)
    except ValueError as err:
        return fail(str(err), usage=True)
    recovered = service.start()
    for job in recovered:
        print(f"[recovered job {job.id}: now {job.state}]")

    def ready(bound_host: str, bound_port: int) -> None:
        auth = "bearer-token" if service.auth.enabled else "open"
        obs = emitter.directory if emitter.enabled else "off"
        print(f"[repro service listening on http://{bound_host}:{bound_port} "
              f"— state {config.state_dir}, {workers} worker(s), "
              f"backend={backend}, auth={auth}, obs={obs}]", flush=True)

    try:
        serve(service, ready=ready)
    except KeyboardInterrupt:
        print("\n[shutting down]", file=sys.stderr)
    except OSError as err:
        service.stop(drain=True)
        return fail(f"cannot bind {host}:{port}: {err}")
    service.stop(drain=True)
    return 0


def _print_follow_line(doc: dict) -> None:
    """One progress line per followed job update."""
    progress = doc.get("progress") or {}
    if progress.get("total"):
        cached = progress.get("cached", 0)
        extra = f" ({cached} cached)" if cached else ""
        print(f"[job {doc['id']}: {doc['state']} "
              f"{progress.get('done', 0)}/{progress['total']}{extra}]",
              flush=True)
    else:
        print(f"[job {doc['id']}: {doc['state']}]", flush=True)


def cmd_submit(target: str, variant: str, priority: int, url: str,
               token: str | None, wait: bool, timeout: float,
               busy_retries: int = 2, follow: bool = False) -> int:
    """``repro submit``: queue an experiment id or a points JSON file."""
    import json
    from pathlib import Path

    from repro.service import ApiError, TransportError

    client = _service_client(url, token)
    points = None
    experiment = None
    if target in REGISTRY:
        experiment = target
    else:
        path = Path(target)
        if not path.exists():
            return fail(f"{target!r} is neither an experiment id (known: "
                        f"{', '.join(REGISTRY)}) nor a points JSON file",
                        usage=True)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            return fail(f"cannot read points file {path}: {err}", usage=True)
        points = loaded.get("points") if isinstance(loaded, dict) else loaded
        if not isinstance(points, list) or not points:
            return fail(f"{path} must hold a JSON list of points or "
                        f"{{\"points\": [...]}}", usage=True)
    try:
        job = client.submit(experiment=experiment, variant=variant,
                            points=points, priority=priority,
                            busy_retries=busy_retries)
    except ApiError as err:
        return fail(str(err), usage=err.status in (400, 404))
    except TransportError as err:
        return fail(str(err))
    print(f"[submitted job {job['id']} "
          f"(tenant={job['tenant']}, priority={job['priority']})]")
    if not (wait or follow):
        return 0
    try:
        if follow:
            for doc in client.follow(job["id"], timeout_s=timeout):
                job = doc
                _print_follow_line(doc)
            if job["state"] not in ("DONE", "FAILED", "QUARANTINED",
                                    "CANCELLED"):
                job = client.job(job["id"])
        else:
            job = client.wait(job["id"], timeout_s=timeout)
    except TimeoutError as err:
        return fail(str(err))
    except TransportError as err:
        return fail(f"lost connection to {url}: {err}")
    print(f"[job {job['id']}: {job['state']} "
          f"in {job.get('elapsed_s') or 0.0:.3f}s]")
    if job["state"] != "DONE":
        return fail(f"job finished {job['state']}: {job.get('error')}")
    runner = job.get("runner") or {}
    if runner:
        print(f"[runner: {runner.get('cache_hits', 0)} hits / "
              f"{runner.get('cache_misses', 0)} misses, "
              f"{runner.get('executed', 0)} executed]")
    return 0


def cmd_jobs(action: str, job_id: str | None, url: str, token: str | None,
             state: str | None, out: str | None) -> int:
    """``repro jobs ls|show|result|cancel``: inspect the remote queue."""
    import json

    from repro.service import ApiError, TransportError

    client = _service_client(url, token)
    try:
        if action == "ls":
            jobs = client.jobs(state=state)
            print(f"{'id':<16} {'state':<11} {'tenant':<10} "
                  f"{'prio':>4} {'elapsed_s':>9}  spec")
            for job in jobs:
                spec = job["spec"]
                label = (f"{spec['experiment']}/{spec['variant']}"
                         if "experiment" in spec
                         else f"{len(spec['points'])} point(s)")
                elapsed = job.get("elapsed_s")
                print(f"{job['id']:<16} {job['state']:<11} "
                      f"{job['tenant']:<10} {job['priority']:>4} "
                      f"{elapsed if elapsed is not None else '—':>9}  "
                      f"{label}")
            return 0
        if job_id is None:
            return fail(f"jobs {action} needs a JOB_ID", usage=True)
        if action == "show":
            print(json.dumps(client.job(job_id), indent=1))
            return 0
        if action == "tail":
            job = client.job(job_id)
            _print_follow_line(job)
            if job["state"] not in ("DONE", "FAILED", "QUARANTINED",
                                    "CANCELLED"):
                try:
                    for doc in client.follow(job_id):
                        job = doc
                        _print_follow_line(doc)
                except TimeoutError as err:
                    return fail(str(err))
            if job["state"] == "DONE":
                return 0
            return fail(f"job finished {job['state']}: {job.get('error')}")
        if action == "result":
            blob = client.result_bytes(job_id)
            if out is not None:
                from pathlib import Path

                Path(out).write_bytes(blob)
                print(f"[result written to {out}]")
            else:
                print(blob.decode("utf-8"))
            return 0
        job = client.cancel(job_id)
        print(f"[job {job['id']}: {job['state']}]")
        return 0
    except ApiError as err:
        return fail(str(err), usage=err.status == 404)
    except TransportError as err:
        return fail(str(err))


def cmd_worker(url: str, token: str | None, poll_s: float, lease_s: float,
               timeout_s: float | None) -> int:
    """``repro worker``: join a fabric as a pull worker.

    Leases points off the coordinator at ``url``, executes each one
    directly and ships the result (or the point's exception) back
    exactly-once; retrying a failed point is the coordinator's job.
    SIGTERM (and Ctrl-C) drain gracefully: the in-flight point finishes
    and is reported before the loop exits.
    """
    import signal

    from repro.fabric import (
        FabricClient,
        FabricWorker,
        HttpTransport,
        ServiceError,
    )

    client = FabricClient(HttpTransport(url, token=token))
    try:
        client.status()
    except ServiceError as err:
        return fail(str(err))
    worker = FabricWorker(client, poll_s=poll_s, lease_s=lease_s,
                          timeout_s=timeout_s)
    signal.signal(signal.SIGTERM, lambda signum, frame: worker.stop())
    print(f"[fabric worker {worker.worker} pulling from {url}]", flush=True)
    try:
        done = worker.run_forever()
    except KeyboardInterrupt:
        worker.stop()
        done = worker.done
    print(f"[fabric worker {worker.worker}: {done} point(s) executed]",
          flush=True)
    return 0


def cmd_fabric(action: str, url: str, token: str | None,
               as_json: bool) -> int:
    """``repro fabric status``: inspect a running fabric coordinator."""
    import json

    from repro.fabric import FabricClient, HttpTransport, ServiceError

    client = FabricClient(HttpTransport(url, token=token))
    try:
        snap = client.status()
    except ServiceError as err:
        return fail(str(err))
    if as_json:
        print(json.dumps(snap, indent=1))
        return 0
    states = snap.get("states", {})
    print(f"coordinator : {url}"
          f"{'  (draining)' if snap.get('draining') else ''}")
    health = snap.get("health") or {}
    if health:
        reasons = health.get("reasons") or {}
        detail = ("  (" + "; ".join(
            f"{k}: {v}" for k, v in sorted(reasons.items())) + ")"
            if reasons else "")
        print(f"health      : {health.get('state', 'unknown')}{detail}")
    print(f"items       : {snap.get('items', 0)}  ("
          + ", ".join(f"{k}={v}" for k, v in sorted(states.items())) + ")")
    print(f"lease_s     : {snap.get('lease_s')}")
    workers = snap.get("workers", {})
    detail = snap.get("worker_detail") or {}
    if not workers:
        print("workers     : none seen")
    else:
        print(f"workers     : {len(workers)}")
        for name, age in workers.items():
            info = detail.get(name) or {}
            beat = info.get("last_heartbeat_s")
            extra = (f", heartbeat {beat:.1f}s ago" if beat is not None
                     else ", no heartbeat seen")
            stale = "  STALE" if info.get("stale") else ""
            print(f"  {name:<28} last contact {age:.1f}s ago{extra}{stale}")
    return 0


def cmd_top(url: str, token: str | None, interval_s: float,
            once: bool, iterations: int | None, no_color: bool) -> int:
    """``repro top``: live dashboard over a running repro service."""
    from repro.obs import top
    from repro.service import ServiceError

    client = _service_client(url, token)
    try:
        client.healthz()
    except ServiceError as err:
        return fail(str(err))
    frames = top.run(client, interval_s=interval_s,
                     iterations=1 if once else iterations,
                     color=(not no_color) and sys.stdout.isatty())
    return 0 if frames else 1


def cmd_faults_run(schedule_path: str, gpus: int, config_name: str,
                   iterations: int, model: str, deadline_ms: float) -> int:
    """Run one training job under a JSON fault schedule and report."""
    import dataclasses
    from pathlib import Path

    from repro.faults import FaultSchedule

    configs = {"default": paper_default_config, "tuned": paper_tuned_config}
    if config_name not in configs:
        return fail(f"config must be one of {sorted(configs)}", usage=True)
    path = Path(schedule_path)
    if not path.exists():
        return fail(f"schedule file not found: {path}", usage=True)
    try:
        schedule = FaultSchedule.from_json(path.read_text())
    except ValueError as err:
        return fail(f"bad schedule {path}: {err}", usage=True)
    bad_ranks = sorted({getattr(f, "rank", 0) for f in schedule
                        if not 0 <= getattr(f, "rank", 0) < gpus})
    if bad_ranks:
        return fail(f"bad schedule {path}: ranks {bad_ranks} out of range "
                    f"for --gpus {gpus}", usage=True)
    if deadline_ms <= 0 and any(type(f).__name__ == "RankCrash"
                                for f in schedule):
        return fail("schedule contains a rank_crash but the failure "
                    "detector is off; pass --deadline-ms > 0 or the run "
                    "will never terminate", usage=True)
    cfg = configs[config_name]()
    if deadline_ms > 0:
        cfg = dataclasses.replace(cfg, horovod=cfg.horovod.with_(
            negotiation_deadline_s=deadline_ms * 1e-3
        ))
    m = measure_training(gpus, cfg, model=model, iterations=iterations,
                         jitter_std=0.0, schedule=schedule)
    report = m.fault_report or {}
    print(f"{m.config.label}  model={model}  faults={len(schedule)}")
    print(f"{gpus} GPUs: {m.images_per_second:.1f} img/s, "
          f"mean iteration {m.stats.mean_iteration_seconds * 1e3:.1f} ms")
    for key in ("faults_applied", "faults_reverted", "flap_cycles",
                "transfer_retries", "transfer_timeouts", "suspects",
                "suspects_cleared", "rank_crashes", "rank_restarts",
                "surviving_ranks", "job_kills"):
        print(f"  {key:<22} {report.get(key, 0)}")
    if m.interrupted:
        done = len(m.stats.iteration_seconds)
        print(f"  job killed after {done}/{iterations} iterations"
              f" (stats cover the completed prefix)")
    print(f"  {'suspect_seconds':<22} {report.get('suspect_seconds', 0.0):.4f}")
    for phase, seconds in report.get("fault_phase_seconds", {}).items():
        print(f"  {phase + '_seconds':<22} {seconds:.4f}")
    return 0


def _run_arg_error(gpus: int, iterations: int) -> str | None:
    """Why ``--gpus``/``--iterations`` cannot make a measured run, if so."""
    if gpus < 1:
        return f"--gpus must be >= 1, got {gpus}"
    if iterations < 2:
        return (f"--iterations must be >= 2 (one warmup iteration plus at "
                f"least one measured), got {iterations}")
    return None


def cmd_measure(gpus: int, config_name: str, iterations: int,
                model: str, as_json: bool = False,
                trace: bool = False) -> int:
    """One ad-hoc measurement of a named configuration."""
    configs = {"default": paper_default_config, "tuned": paper_tuned_config}
    if config_name not in configs:
        return fail(f"config must be one of {sorted(configs)}", usage=True)
    error = _run_arg_error(gpus, iterations)
    if error:
        return fail(error, usage=True)
    m = measure_training(gpus, configs[config_name](), model=model,
                         iterations=iterations, jitter_std=0.03,
                         trace="spans" if as_json or trace else None)
    report = None
    if as_json or trace:
        from repro.trace import explain_measurement

        report = explain_measurement(m)
    trace_summary = report.trace_summary() if trace else None
    if as_json:
        import json

        print(json.dumps({
            "gpus": gpus,
            "config": config_name,
            "config_label": m.config.label,
            "model": model,
            "iterations": iterations,
            "images_per_second": m.images_per_second,
            "scaling_efficiency": m.scaling_efficiency,
            "mean_iteration_seconds": m.stats.mean_iteration_seconds,
            "single_gpu_images_per_second": m.single_gpu_images_per_second,
            "runtime": {
                "cycles": m.runtime_stats.cycles,
                "negotiations": m.runtime_stats.negotiations,
                "cache_hits": m.runtime_stats.cache_hits,
                "fused_ops": m.runtime_stats.fused_ops,
                "tensors_reduced": m.runtime_stats.tensors_reduced,
                "bytes_reduced": m.runtime_stats.bytes_reduced,
            },
            "link_utilization": m.link_utilization,
            "attribution": {
                "mean_wall_s": report.mean_wall_s,
                "totals_s": report.totals(),
                "shares": report.shares(),
                "overhead_share": report.overhead_share(),
                "max_sum_error": report.max_sum_error,
            },
            **({"trace_summary": trace_summary}
               if trace_summary is not None else {}),
        }, indent=1))
        return 0
    print(f"{m.config.label}  model={model}")
    print(f"{gpus} GPUs: {m.images_per_second:.1f} img/s, "
          f"{m.scaling_efficiency * 100:.1f}% scaling efficiency")
    if trace_summary is not None:
        print(f"critical path: {trace_summary['critical_path_ms']:.1f} ms, "
              f"exposed allreduce share "
              f"{trace_summary['exposed_allreduce_share'] * 100:.2f}%")
    return 0


def cmd_telemetry(gpus: int, config_name: str, iterations: int, model: str,
                  export_dir: str | None) -> int:
    """Run one instrumented measurement and print/export the attribution."""
    from pathlib import Path

    from repro.telemetry import to_jsonl, to_prometheus
    from repro.trace import explain_measurement, merged_chrome_trace

    configs = {"default": paper_default_config, "tuned": paper_tuned_config}
    if config_name not in configs:
        return fail(f"config must be one of {sorted(configs)}", usage=True)
    error = _run_arg_error(gpus, iterations)
    if error:
        return fail(error, usage=True)
    m = measure_training(gpus, configs[config_name](), model=model,
                         iterations=iterations, jitter_std=0.03,
                         trace="spans")
    print(f"{m.config.label}  model={model}")
    print(f"{gpus} GPUs: {m.images_per_second:.1f} img/s, "
          f"{m.scaling_efficiency * 100:.1f}% scaling efficiency\n")
    print(explain_measurement(m).table())
    if export_dir is not None:
        out = Path(export_dir)
        out.mkdir(parents=True, exist_ok=True)
        registry = m.trace.registry
        (out / "metrics.prom").write_text(to_prometheus(registry))
        (out / "telemetry.jsonl").write_text(
            to_jsonl(registry, m.trace.iteration_records()))
        (out / "trace.json").write_text(
            merged_chrome_trace(m.timeline, registry))
        print(f"\n[exported metrics.prom, telemetry.jsonl, trace.json "
              f"to {out}]")
    return 0


def cmd_trace_run(gpus: int, config_name: str, iterations: int, model: str,
                  level: str, out_dir: str | None) -> int:
    """One traced measurement: critical-path report + optional exports."""
    from pathlib import Path

    from repro.trace import (
        explain_measurement,
        merged_chrome_trace,
        save_spans,
    )

    configs = {"default": paper_default_config, "tuned": paper_tuned_config}
    if config_name not in configs:
        return fail(f"config must be one of {sorted(configs)}", usage=True)
    error = _run_arg_error(gpus, iterations)
    if error:
        return fail(error, usage=True)
    m = measure_training(gpus, configs[config_name](), model=model,
                         iterations=iterations, jitter_std=0.03,
                         trace=level)
    report = explain_measurement(m)
    print(f"{m.config.label}  model={model}")
    print(f"{gpus} GPUs: {m.images_per_second:.1f} img/s, "
          f"{m.scaling_efficiency * 100:.1f}% scaling efficiency\n")
    print(report.report())
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_spans(m.trace, out / "spans.json")
        (out / "trace.json").write_text(merged_chrome_trace(
            m.timeline, m.trace.registry, m.trace))
        (out / "critical_path.txt").write_text(report.report() + "\n")
        print(f"\n[exported spans.json, trace.json, critical_path.txt "
              f"to {out}]")
    return 0


def cmd_explain(target: str) -> int:
    """Critical-path diagnosis of a saved trace or experiment result.

    ``target`` is either a span JSON file written by
    ``repro trace run --out`` / the runner's ``--trace-dir``, or an
    experiment id whose saved ``bench_results/<id>.json`` carries a
    ``trace_summary`` block (E16).  A span file carries its run context
    (GPU count, config label, warmup iterations) but not the runtime
    timeline, so a faulted run's idle tail is never split off into
    ``fault_suspect`` here.
    """
    import json
    from pathlib import Path

    from repro.trace import compute_critical_path, load_spans

    path = Path(target)
    if path.suffix == ".json" or path.exists():
        if not path.exists():
            return fail(f"trace file not found: {path}", usage=True)
        try:
            recorder = load_spans(path)
        except (ValueError, json.JSONDecodeError) as err:
            return fail(f"bad trace file {path}: {err}", usage=True)
        print(compute_critical_path(recorder).report())
        return 0
    if target in REGISTRY:
        from repro.bench.harness import load_result

        saved = Path("bench_results") / f"{target.lower()}.json"
        if not saved.exists():
            return fail(f"no saved result for {target}; run "
                        f"`python -m repro run {target}` first", usage=True)
        result = load_result(saved)
        if result.trace_summary is None:
            return fail(f"{saved} carries no trace_summary; only traced "
                        f"experiments (E16) record one — or point explain "
                        f"at a span JSON from `repro trace run --out`",
                        usage=True)
        summary = result.trace_summary
        print(f"== {result.experiment}: {result.title} ==")
        print(f"critical path : {summary['critical_path_ms']:.1f} ms/iter "
              f"over {summary['iterations']} steady iterations "
              f"(level={summary['level']})")
        print(f"exposed allreduce share: "
              f"{summary['exposed_allreduce_share'] * 100:.2f}%")
        print("shares:")
        for bucket, share in summary["shares"].items():
            print(f"  {bucket:<16} {share * 100:6.2f}%")
        print("top spans:")
        for span in summary["top_spans"]:
            print(f"  {span['cat']:<12} {span['name']:<24} "
                  f"{span['seconds_per_iter'] * 1e3:8.2f} ms/iter "
                  f"({span['share'] * 100:.1f}%)")
        return 0
    return fail(f"unknown target {target!r}: not a trace file and not "
                f"an experiment id (known: {', '.join(REGISTRY)})",
                usage=True)


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch."""
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the experiment index")
    run_p = sub.add_parser("run", help="run experiments by id ('all' = every)")
    run_p.add_argument("ids", nargs="+", metavar="ID")
    run_p.add_argument("--quick", action="store_true",
                       help="scaled-down, faster variants (saved under "
                            "bench_results/quick/)")
    run_p.add_argument("--parallel", action="store_true",
                       help="fan sweep-shaped experiments across worker "
                            "processes with the result cache")
    run_p.add_argument("--workers", type=int, default=0,
                       help="worker processes for --parallel "
                            "(0 = CPU count)")
    run_p.add_argument("--no-cache", action="store_true",
                       help="with --parallel: skip the on-disk result cache")
    run_p.add_argument("--resume", action="store_true",
                       help="skip experiments the run journal already "
                            "records as done (same variant)")
    run_p.add_argument("--journal", metavar="PATH", default=None,
                       help="run journal path "
                            "(default bench_results/run_journal.jsonl)")
    run_p.add_argument("--retries", type=int, default=1,
                       help="with --parallel: per-point retries before a "
                            "failure is fatal (default 1)")
    run_p.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="capture span traces of traced points into DIR "
                            "(one <key>.trace.json per traced measurement)")
    run_p.add_argument("--backend", default="local",
                       choices=("local", "fabric"),
                       help="execution backend: 'local' (inline/process "
                            "pool) or 'fabric' (repro-worker subprocesses "
                            "pulling points over the lease protocol)")
    cache_p = sub.add_parser("cache", help="inspect/clear the result cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    for verb, help_ in (("stats", "show cache contents and hit accounting"),
                        ("clear", "delete every cached result")):
        cp = cache_sub.add_parser(verb, help=help_)
        cp.add_argument("--dir", default=None,
                        help="cache directory (default bench_results/.cache)")
        if verb == "stats":
            cp.add_argument("--json", action="store_true",
                            help="machine-readable output")
    journal_p = sub.add_parser("journal", help="run-journal utilities")
    journal_sub = journal_p.add_subparsers(dest="journal_command",
                                           required=True)
    jcomp_p = journal_sub.add_parser(
        "compact",
        help="drop superseded/completed entries (atomic rewrite)")
    jcomp_p.add_argument("--journal", metavar="PATH", default=None,
                         help="journal path "
                              "(default bench_results/run_journal.jsonl)")
    serve_p = sub.add_parser(
        "serve", help="run the simulation service (REST API + job queue)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8765,
                         help="TCP port (0 = ephemeral, printed at startup)")
    serve_p.add_argument("--state-dir", default="bench_results/service",
                         help="queue journal, results and cache live here")
    serve_p.add_argument("--tokens", metavar="PATH", default=None,
                         help="bearer-token config JSON "
                              "(omit for open, unauthenticated mode)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="scheduler worker threads (default 2)")
    serve_p.add_argument("--lease-s", type=float, default=60.0,
                         help="job lease duration in seconds (default 60)")
    serve_p.add_argument("--max-queue-depth", type=int, default=128,
                         help="shed submissions with 503 + Retry-After "
                              "past this many queued jobs (default 128)")
    serve_p.add_argument("--backend", default="local",
                         choices=("local", "fabric"),
                         help="job execution backend: 'local' (inline) or "
                              "'fabric' (repro-worker subprocess fleet)")
    serve_p.add_argument("--fabric-workers", type=int, default=2,
                         help="with --backend fabric: worker subprocesses "
                              "(default 2)")
    serve_p.add_argument("--obs-dir", metavar="DIR", default=None,
                         help="structured event log directory (default "
                              "<state-dir>/obs; REPRO_OBS=0 disables)")
    submit_p = sub.add_parser(
        "submit", help="submit a job to a running repro service")
    submit_p.add_argument("target", metavar="EXP_ID|points.json",
                          help="an experiment id or a JSON file of points")
    submit_p.add_argument("--variant", default="quick",
                          choices=("quick", "full"))
    submit_p.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    submit_p.add_argument("--url", default="http://127.0.0.1:8765",
                          help="service base URL")
    submit_p.add_argument("--token", default=None, help="bearer token")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until the job reaches a terminal state")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="--wait deadline in seconds (default 600)")
    submit_p.add_argument("--busy-retries", type=int, default=2,
                          help="re-submit after 429/503 honouring the "
                               "server's Retry-After (default 2)")
    submit_p.add_argument("--follow", action="store_true",
                          help="stream live progress (SSE, falling back "
                               "to long-polling) until the job finishes")
    jobs_p = sub.add_parser(
        "jobs", help="inspect/cancel jobs on a running repro service")
    jobs_p.add_argument("jobs_command",
                        choices=("ls", "show", "result", "cancel", "tail"))
    jobs_p.add_argument("job_id", nargs="?", default=None, metavar="JOB_ID")
    jobs_p.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service base URL")
    jobs_p.add_argument("--token", default=None, help="bearer token")
    jobs_p.add_argument("--state", default=None,
                        help="with ls: filter by job state")
    jobs_p.add_argument("--out", metavar="PATH", default=None,
                        help="with result: write the envelope to PATH")
    worker_p = sub.add_parser(
        "worker", help="join a fabric as a pull worker (repro worker)")
    worker_p.add_argument("--url", required=True,
                          help="fabric coordinator base URL")
    worker_p.add_argument("--token", default=None, help="bearer token")
    worker_p.add_argument("--poll-s", type=float, default=0.1,
                          help="idle poll interval in seconds (default 0.1)")
    worker_p.add_argument("--lease-s", type=float, default=30.0,
                          help="requested lease duration (default 30)")
    worker_p.add_argument("--timeout-s", type=float, default=None,
                          help="per-point budget; past it the worker stops "
                               "heartbeating so the lease lapses and the "
                               "point is reassigned")
    fabric_p = sub.add_parser(
        "fabric", help="inspect a running fabric coordinator")
    fabric_sub = fabric_p.add_subparsers(dest="fabric_command", required=True)
    fstat_p = fabric_sub.add_parser(
        "status", help="queue depth, item states and worker liveness")
    fstat_p.add_argument("--url", required=True,
                         help="fabric coordinator base URL")
    fstat_p.add_argument("--token", default=None, help="bearer token")
    fstat_p.add_argument("--json", action="store_true",
                         help="machine-readable output")
    top_p = sub.add_parser(
        "top", help="live dashboard: jobs, workers, latencies, events")
    top_p.add_argument("--url", default="http://127.0.0.1:8765",
                       help="service base URL")
    top_p.add_argument("--token", default=None, help="bearer token")
    top_p.add_argument("--interval", type=float, default=2.0,
                       help="refresh interval in seconds (default 2)")
    top_p.add_argument("--once", action="store_true",
                       help="print a single frame and exit (pipe-safe)")
    top_p.add_argument("--iterations", type=int, default=None,
                       help="stop after N frames (default: until Ctrl-C)")
    top_p.add_argument("--no-color", action="store_true",
                       help="plain text (no ANSI colors)")
    meas_p = sub.add_parser("measure", help="one ad-hoc training measurement")
    meas_p.add_argument("--gpus", type=int, default=24)
    meas_p.add_argument("--config", default="tuned",
                        choices=("default", "tuned"))
    meas_p.add_argument("--iterations", type=int, default=3)
    meas_p.add_argument("--model", default="deeplab",
                        choices=("deeplab", "resnet50", "resnet101",
                                 "mobilenetv2"))
    meas_p.add_argument("--json", action="store_true",
                        help="machine-readable output (includes the "
                             "efficiency attribution summary)")
    meas_p.add_argument("--trace", action="store_true",
                        help="also trace spans and report the critical "
                             "path (adds trace_summary to --json)")
    tele_p = sub.add_parser(
        "telemetry",
        help="instrumented measurement + efficiency attribution")
    tele_p.add_argument("--gpus", type=int, default=24)
    tele_p.add_argument("--config", default="tuned",
                        choices=("default", "tuned"))
    tele_p.add_argument("--iterations", type=int, default=3)
    tele_p.add_argument("--model", default="deeplab",
                        choices=("deeplab", "resnet50", "resnet101",
                                 "mobilenetv2"))
    tele_p.add_argument("--export", metavar="DIR", default=None,
                        help="also write metrics.prom, telemetry.jsonl and "
                             "trace.json into DIR")
    trace_p = sub.add_parser(
        "trace", help="span tracing + critical-path diagnosis")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trun_p = trace_sub.add_parser(
        "run", help="one traced measurement + critical-path report")
    trun_p.add_argument("--gpus", type=int, default=24)
    trun_p.add_argument("--config", default="tuned",
                        choices=("default", "tuned"))
    trun_p.add_argument("--iterations", type=int, default=3)
    trun_p.add_argument("--model", default="deeplab",
                        choices=("deeplab", "resnet50", "resnet101",
                                 "mobilenetv2"))
    trun_p.add_argument("--level", default="spans",
                        choices=("spans", "links"),
                        help="'links' adds per-transfer spans")
    trun_p.add_argument("--out", metavar="DIR", default=None,
                        help="also write spans.json, trace.json (Chrome) "
                             "and critical_path.txt into DIR")
    explain_p = sub.add_parser(
        "explain",
        help="critical-path diagnosis of a span JSON or saved experiment",
        description="Critical-path diagnosis of a span JSON file (from "
                    "`repro trace run --out` or `repro run --trace-dir`) "
                    "or of a saved experiment result with a trace_summary "
                    "block (E16).  A span file carries the run's GPU "
                    "count, config label and warmup iterations, but no "
                    "runtime timeline: a faulted run's file holds no "
                    "SUSPECT windows, so its idle tail is reported as "
                    "fusion_wait, never fault_suspect.")
    explain_p.add_argument("target",
                           help="a spans .json file or an experiment id "
                                "with a saved trace_summary (E16)")
    faults_p = sub.add_parser("faults",
                              help="fault-injection runs (see repro.faults)")
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)
    frun_p = faults_sub.add_parser(
        "run", help="train once under a JSON fault schedule")
    frun_p.add_argument("--schedule", required=True,
                        help="path to a fault-schedule JSON file")
    frun_p.add_argument("--gpus", type=int, default=24)
    frun_p.add_argument("--config", default="tuned",
                        choices=("default", "tuned"))
    frun_p.add_argument("--iterations", type=int, default=6)
    frun_p.add_argument("--model", default="deeplab",
                        choices=("deeplab", "resnet50", "resnet101",
                                 "mobilenetv2"))
    frun_p.add_argument("--deadline-ms", type=float, default=0.0,
                        help="negotiation deadline in ms (0 = detector off; "
                             "required for crash schedules to shrink)")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args.ids, args.quick, parallel=args.parallel,
                       workers=args.workers, no_cache=args.no_cache,
                       resume=args.resume, journal_path=args.journal,
                       retries=args.retries, trace_dir=args.trace_dir,
                       backend=args.backend)
    if args.command == "cache":
        return cmd_cache(args.cache_command, args.dir,
                         getattr(args, "json", False))
    if args.command == "journal":
        return cmd_journal_compact(args.journal)
    if args.command == "serve":
        return cmd_serve(args.host, args.port, args.state_dir, args.tokens,
                         args.workers, args.lease_s, args.max_queue_depth,
                         backend=args.backend,
                         fabric_workers=args.fabric_workers,
                         obs_dir=args.obs_dir)
    if args.command == "submit":
        return cmd_submit(args.target, args.variant, args.priority,
                          args.url, args.token, args.wait, args.timeout,
                          args.busy_retries, follow=args.follow)
    if args.command == "jobs":
        return cmd_jobs(args.jobs_command, args.job_id, args.url,
                        args.token, args.state, args.out)
    if args.command == "worker":
        return cmd_worker(args.url, args.token, args.poll_s, args.lease_s,
                          args.timeout_s)
    if args.command == "fabric":
        return cmd_fabric(args.fabric_command, args.url, args.token,
                          args.json)
    if args.command == "top":
        return cmd_top(args.url, args.token, args.interval, args.once,
                       args.iterations, args.no_color)
    if args.command == "faults":
        return cmd_faults_run(args.schedule, args.gpus, args.config,
                              args.iterations, args.model, args.deadline_ms)
    if args.command == "telemetry":
        return cmd_telemetry(args.gpus, args.config, args.iterations,
                             args.model, args.export)
    if args.command == "trace":
        return cmd_trace_run(args.gpus, args.config, args.iterations,
                             args.model, args.level, args.out)
    if args.command == "explain":
        return cmd_explain(args.target)
    return cmd_measure(args.gpus, args.config, args.iterations, args.model,
                       args.json, trace=args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
