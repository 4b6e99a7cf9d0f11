"""Tests for the `python -m repro` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.bench.registry import REGISTRY


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in REGISTRY:
        assert exp_id in out


def test_run_unknown_id(capsys):
    assert main(["run", "E99"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_run_quick_e2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "E2", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "E2" in out and "tensor" in out.lower()
    saved = json.loads(
        (tmp_path / "bench_results" / "quick" / "e2.json").read_text())
    assert saved["experiment"] == "E2"


def test_measure_command(capsys):
    assert main(["measure", "--gpus", "2", "--iterations", "2",
                 "--config", "tuned"]) == 0
    out = capsys.readouterr().out
    assert "img/s" in out and "efficiency" in out


def test_measure_with_model(capsys):
    assert main(["measure", "--gpus", "2", "--iterations", "2",
                 "--model", "mobilenetv2"]) == 0
    assert "mobilenetv2" in capsys.readouterr().out


def test_every_registered_experiment_has_quick_kwargs():
    for exp_id, spec in REGISTRY.items():
        assert callable(spec.fn), exp_id
        assert isinstance(spec.full_kwargs, dict)
        assert isinstance(spec.quick_kwargs, dict)
        assert spec.title


def test_version_flag(capsys):
    from repro.__main__ import package_version

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert package_version() in out


def test_package_version_matches_source():
    import repro
    from repro.__main__ import package_version

    assert package_version() == repro.__version__


def test_measure_json_includes_attribution(capsys):
    assert main(["measure", "--gpus", "2", "--iterations", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gpus"] == 2
    assert payload["images_per_second"] > 0
    att = payload["attribution"]
    assert att["max_sum_error"] < 0.02
    assert set(att["shares"]) == {
        "compute", "input_stall", "straggler_skew",
        "exposed_comm", "fusion_wait", "fault_suspect",
    }
    assert sum(att["shares"].values()) == pytest.approx(1.0)


def test_telemetry_command_prints_and_exports(tmp_path, capsys):
    out_dir = tmp_path / "export"
    assert main(["measure", "--gpus", "2", "--iterations", "2",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out and "fusion_wait" in out
    prom = (out_dir / "metrics.prom").read_text()
    assert "# TYPE train_iterations_total counter" in prom
    assert (out_dir / "telemetry.jsonl").stat().st_size > 0
    trace = json.loads((out_dir / "trace.json").read_text())
    assert trace["traceEvents"]


def test_run_quick_e14(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "E14", "--quick"]) == 0
    saved = json.loads(
        (tmp_path / "bench_results" / "quick" / "e14.json").read_text())
    assert saved["experiment"] == "E14"
    assert saved["measured"]["max_bucket_sum_error"] < 0.02
    # Tuned strictly beats default on tunable overhead at >= 24 GPUs.
    assert saved["measured"]["overhead_delta_24"] > 0


def test_list_marks_parallelizable(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "par" in out.splitlines()[0]
    assert any(line.startswith("E4") and "yes" in line
               for line in out.splitlines())


def test_run_parallel_cold_then_warm(tmp_path, monkeypatch, capsys):
    from repro.runner import RunJournal

    monkeypatch.chdir(tmp_path)
    saved = tmp_path / "bench_results" / "quick" / "e4.json"

    def runner_stats():
        done = [e for e in RunJournal().events()
                if e["event"] == "experiment_done"]
        return done[-1]["runner"]

    assert main(["run", "E4", "--quick", "--parallel", "--workers", "2"]) == 0
    cold = capsys.readouterr().out
    assert "0 hits" in cold
    cold_bytes = saved.read_bytes()
    assert runner_stats()["cache_misses"] > 0

    assert main(["run", "E4", "--quick", "--parallel", "--workers", "2"]) == 0
    warm = capsys.readouterr().out
    assert "0 misses" in warm
    assert runner_stats()["executed"] == 0
    assert saved.read_bytes() == cold_bytes

    # The file is the same bytes however it ran: runner accounting lives
    # in the journal, not in the result.
    assert main(["run", "E4", "--quick", "--no-cache"]) == 0
    assert saved.read_bytes() == cold_bytes
    assert runner_stats() is None


def test_run_stamps_variant_meta(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "E2", "--quick"]) == 0
    saved = json.loads(
        (tmp_path / "bench_results" / "quick" / "e2.json").read_text())
    assert saved["meta"]["variant"] == "quick"
    assert "runner" not in saved["meta"]  # serial run: no runner stats


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    from repro.runner import ResultCache

    ResultCache(directory=cache_dir).put("a" * 64, {"v": 1})
    assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "entries         : 1" in out
    assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["entries"] == 1 and "salt" in snap
    assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


class FakeSpec:
    """Registry stand-in that records run order and can misbehave."""

    parallelizable = False

    def __init__(self, exp_id, ran, fail=False, interrupt=False):
        self.id = exp_id
        self.ran = ran
        self.fail = fail
        self.interrupt = interrupt

    def run(self, quick=False, runner=None):
        self.ran.append(self.id)
        if self.interrupt:
            raise KeyboardInterrupt
        if self.fail:
            raise RuntimeError(f"{self.id} exploded")
        from repro.bench.harness import ExperimentResult

        return ExperimentResult(self.id, "fake")


def _fake_registry(cli, monkeypatch, ran, fail=(), interrupt=()):
    monkeypatch.setattr(cli, "save_result", lambda r, directory: "unsaved")
    fake = {
        exp_id: FakeSpec(exp_id, ran, fail=exp_id in fail,
                         interrupt=exp_id in interrupt)
        for exp_id in cli.REGISTRY
    }
    monkeypatch.setattr(cli, "REGISTRY", fake)
    return fake


def test_run_all_expands_to_every_experiment(tmp_path, monkeypatch):
    from repro import __main__ as cli

    monkeypatch.chdir(tmp_path)
    ran = []
    fake = _fake_registry(cli, monkeypatch, ran)
    assert cli.cmd_run(["all"], quick=True) == 0
    assert ran == list(fake)


def test_run_journals_every_experiment(tmp_path, monkeypatch):
    from repro import __main__ as cli
    from repro.runner import RunJournal

    monkeypatch.chdir(tmp_path)
    _fake_registry(cli, monkeypatch, [])
    assert cli.cmd_run(["E1", "E2"], quick=True) == 0
    journal = RunJournal()
    events = [e["event"] for e in journal.events()]
    assert events == ["sweep_start", "experiment_start", "experiment_done",
                      "experiment_start", "experiment_done", "sweep_done"]
    assert journal.completed("quick") == {"E1", "E2"}


def test_run_failed_experiment_continues_and_reports(tmp_path, monkeypatch,
                                                     capsys):
    from repro import __main__ as cli
    from repro.runner import RunJournal

    monkeypatch.chdir(tmp_path)
    ran = []
    _fake_registry(cli, monkeypatch, ran, fail={"E2"})
    assert cli.cmd_run(["E1", "E2", "E3"], quick=True) == 1
    assert ran == ["E1", "E2", "E3"]  # the failure did not sink the sweep
    err = capsys.readouterr().err
    assert "E2 failed" in err
    journal = RunJournal()
    assert journal.completed("quick") == {"E1", "E3"}
    failed = [e for e in journal.events()
              if e["event"] == "experiment_failed"]
    assert [e["experiment"] for e in failed] == ["E2"]
    assert "exploded" in failed[0]["error"]


def test_run_interrupt_then_resume_completes_the_rest(tmp_path, monkeypatch,
                                                      capsys):
    from repro import __main__ as cli
    from repro.runner import RunJournal

    monkeypatch.chdir(tmp_path)
    ran = []
    fake = _fake_registry(cli, monkeypatch, ran, interrupt={"E3"})
    # Ctrl-C lands mid-sweep: clean journal, exit 130, resume hint.
    assert cli.cmd_run(["E1", "E2", "E3", "E4"], quick=True) == 130
    assert ran == ["E1", "E2", "E3"]
    assert "--resume" in capsys.readouterr().err
    events = [e["event"] for e in RunJournal().events()]
    assert events[-1] == "sweep_interrupted"
    assert "experiment_done" in events

    # Resume: completed experiments are skipped, the rest run.
    fake["E3"].interrupt = False
    ran.clear()
    assert cli.cmd_run(["E1", "E2", "E3", "E4"], quick=True,
                       resume=True) == 0
    assert ran == ["E3", "E4"]
    out = capsys.readouterr().out
    assert "skipping 2" in out
    assert RunJournal().completed("quick") == {"E1", "E2", "E3", "E4"}

    # A second resume finds nothing left.
    ran.clear()
    assert cli.cmd_run(["E1", "E2", "E3", "E4"], quick=True,
                       resume=True) == 0
    assert ran == []
    assert "nothing left" in capsys.readouterr().out


def test_resume_respects_variant(tmp_path, monkeypatch):
    from repro import __main__ as cli

    monkeypatch.chdir(tmp_path)
    ran = []
    _fake_registry(cli, monkeypatch, ran)
    assert cli.cmd_run(["E1"], quick=True) == 0
    # A quick-tier completion must not satisfy a full-tier resume.
    ran.clear()
    assert cli.cmd_run(["E1"], quick=False, resume=True) == 0
    assert ran == ["E1"]


def test_run_custom_journal_path(tmp_path, monkeypatch):
    from repro import __main__ as cli
    from repro.runner import RunJournal

    monkeypatch.chdir(tmp_path)
    _fake_registry(cli, monkeypatch, [])
    journal_path = tmp_path / "elsewhere" / "j.jsonl"
    assert cli.cmd_run(["E1"], quick=True,
                       journal_path=str(journal_path)) == 0
    assert journal_path.exists()
    assert not (tmp_path / "bench_results" / "run_journal.jsonl").exists()
    assert RunJournal(journal_path).completed("quick") == {"E1"}


# -- span tracing / critical-path surfaces ----------------------------------

def test_measure_json_trace_round_trip(capsys):
    assert main(["measure", "--gpus", "2", "--iterations", "2",
                 "--json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    summary = payload["trace_summary"]
    assert {"critical_path_ms", "iterations", "level",
            "exposed_allreduce_share", "shares",
            "top_spans"} <= set(summary)
    assert summary["critical_path_ms"] > 0
    assert summary["level"] == "spans"
    for span in summary["top_spans"]:
        assert {"cat", "name", "seconds_per_iter", "share"} <= set(span)


def test_measure_trace_text_mentions_critical_path(capsys):
    assert main(["measure", "--gpus", "2", "--iterations", "2",
                 "--trace"]) == 0
    out = capsys.readouterr().out
    assert ("critical path" in out
            and "exposed allreduce critical-path share" in out)


def test_trace_run_exports_and_explain(tmp_path, capsys):
    out_dir = tmp_path / "trace_out"
    assert main(["measure", "--gpus", "6", "--iterations", "2",
                 "--trace", "links", "--out", str(out_dir)]) == 0
    report = capsys.readouterr().out
    assert "critical path" in report and "top bottleneck spans" in report
    for name in ("spans.json", "trace.json", "critical_path.txt"):
        assert (out_dir / name).exists(), name
    from repro.trace import load_spans

    assert load_spans(out_dir / "spans.json").by_cat("ITERATION")
    # The exported span file feeds straight back into `repro explain`.
    assert main(["explain", str(out_dir / "spans.json")]) == 0
    assert "critical path" in capsys.readouterr().out


def test_explain_span_file_matches_in_process_report(tmp_path, capsys):
    """A saved span file carries its run context: GPU count, config label
    and warmup count all survive the round trip through ``explain``."""
    from repro.core import measure_training, paper_default_config
    from repro.trace import explain_measurement, save_spans

    m = measure_training(6, paper_default_config(), iterations=3,
                         warmup_iterations=0, seed=0, trace="spans")
    path = save_spans(m.trace, tmp_path / "spans.json")
    assert main(["explain", str(path)]) == 0
    assert capsys.readouterr().out == explain_measurement(m).report() + "\n"


@pytest.mark.parametrize("flag,value", [("--gpus", "0"),
                                        ("--iterations", "1")])
@pytest.mark.parametrize("command", [["measure"]], ids=["measure"])
def test_observation_commands_reject_bad_run_args(command, flag, value,
                                                  capsys):
    assert main([*command, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_measure_out_writes_every_observation_file(tmp_path, capsys):
    """One command writes what ``telemetry --export`` and ``trace run
    --out`` wrote; the span file explains to the saved report exactly."""
    out_dir = tmp_path / "obs"
    assert main(["measure", "--gpus", "2", "--iterations", "2",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    for name in ("metrics.prom", "telemetry.jsonl", "trace.json",
                 "spans.json", "critical_path.txt"):
        assert (out_dir / name).stat().st_size > 0, name
    assert main(["explain", str(out_dir / "spans.json")]) == 0
    assert (capsys.readouterr().out
            == (out_dir / "critical_path.txt").read_text())
    for gone in (["telemetry"], ["trace", "run"]):
        with pytest.raises(SystemExit) as exc:
            main(gone)
        assert exc.value.code == 2, gone


def test_explain_unknown_target_fails(capsys):
    assert main(["explain", "E99"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_run_trace_dir_status_line(tmp_path, monkeypatch, capsys):
    from repro import __main__ as cli

    monkeypatch.chdir(tmp_path)
    _fake_registry(cli, monkeypatch, [])
    assert cli.cmd_run(["E1"], quick=True,
                       trace_dir=str(tmp_path / "traces")) == 0
    assert "E1 trace capture: no traced points" in capsys.readouterr().out


def test_run_e16_trace_dir_captures_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "E16", "--quick", "--trace-dir", "traces"]) == 0
    out = capsys.readouterr().out
    assert "[E16 trace capture: 4 trace file(s) -> traces]" in out
    files = list((tmp_path / "traces").glob("*.trace.json"))
    assert len(files) == 4
    saved = json.loads(
        (tmp_path / "bench_results" / "quick" / "e16.json").read_text())
    assert saved["trace_summary"]["critical_path_ms"] > 0
