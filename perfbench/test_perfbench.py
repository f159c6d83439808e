"""Self-tests of the benchmark: python3 -m pytest perfbench

They run every workload at d <= 4 through the same runner and checker as a
real run, check that a wrong expectation is counted as a failure, that the
files a run writes are deleted, that tracing covers every binding site, and
that a directory without the package sources yields no result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from ops import CommandResult, FreshProcess, Op, Runner, cli_op, run_in_process

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_runs_print():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_passes_its_checks(name):
    result, detail = run.run_workload(name, seed=3, seconds=1, trace=0, tiny=True)
    assert result["correct"], detail
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail[0]["fail_ratio"]["value"] == 0


def test_tiny_traced_run_covers_expected_layers():
    result, detail = run.run_workload("decide-cli", seed=3, seconds=1, trace=1, tiny=True)
    assert result["correct"], detail
    assert detail[0]["missing_spans"] == []
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == tracing.PER_LAYER
    assert result["metrics"]["serialize.load_json.calls"]["value"] > 0


def test_wrong_expected_exit_code_gives_nonzero_fail_ratio(monkeypatch):
    honest = workloads.WORKLOADS["decide-cli"]

    def with_wrong_expectation(ctx):
        workload = honest(ctx)
        # transpose is not CP, so check-cp exits 1; expecting 0 must fail
        workload.ops.append(cli_op("wrong", run_in_process,
                                   ["check-cp", "builtin:transpose?d=2"], 0))
        return workload

    monkeypatch.setitem(workloads.WORKLOADS, "decide-cli", with_wrong_expectation)
    result, detail = run.run_workload("decide-cli", seed=3, seconds=1, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] > 0
    assert detail[0]["fail_ratio"]["value"] > 0


def test_changed_report_bytes_on_repeat_fail():
    outputs = iter([b'{"a": 1}', b'{"a": 2}'])
    op = Op("flaky", lambda: CommandResult(0, next(outputs), ""), lambda r: [], key="same")
    runner = Runner()
    runner.run(op)
    runner.run(op)
    assert runner.failed == 1
    assert "differ" in runner.problems[0]


def test_outputs_deleted_after_each_op_and_inputs_at_end(tmp_path):
    ctx = workloads.Context(seed=3, workdir=tmp_path, tiny=True,
                            fresh=FreshProcess(env=run.child_env(), cwd=tmp_path))
    workload = workloads.decide_cli(ctx)
    inputs = sorted(tmp_path.iterdir())
    assert len(inputs) == 2
    runner = Runner()
    runner.run_pass(workload.ops)
    assert runner.failed == 0, runner.problems
    assert sorted(tmp_path.iterdir()) == inputs      # --out and --emit files are gone

    run.run_workload("decide-cli", seed=3, seconds=1, trace=0, tiny=True)
    assert not run.WORK.exists() or not any(run.WORK.rglob("*"))


def test_tracer_wraps_every_binding_site_and_restores_them():
    import gksl_kit
    from gksl_kit import cli, cp_maps, generators, operators, superops
    original = operators.is_positive_semidefinite
    sites = [m for m in (gksl_kit, operators, superops, cp_maps, generators)
             if getattr(m, "is_positive_semidefinite", None) is original]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(m.is_positive_semidefinite is not original for m in sites)
        assert cli.is_dcp is generators.is_dcp is not None
        lam = superops.identity_superop(2)
        with tracer.active():
            generators.is_cp_group_generator(lam)
    finally:
        tracer.uninstall()
    assert all(m.is_positive_semidefinite is original for m in sites)
    group = tracer.stats["generators.is_cp_group_generator"]
    assert tracer.stats["generators.is_dcp"]["calls"] == 2
    assert group["self_s"] < group["total_s"]


def test_checkout_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-lib", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
