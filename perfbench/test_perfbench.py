"""Tests of the benchmark itself, on shrunk workloads (a few seconds in all)."""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from outputs import check_outputs, make_reference  # noqa: E402

# Spans that only ever open inside runner.execute_records on a `run` workload.
INSIDE_EXECUTE = ("problems.", "linalg.", "runner.build_problem", "runner.resolve_run", "runner.make_rng")


def _units(report):
    return {name: m["unit"] for name, m in report["metrics"].items()}


def test_end_to_end_metrics_are_emitted_with_units():
    report = run.benchmark(run.Bench("quad-d200", 3, small=True), traced=False)
    assert report["correct"], report["failures"]
    assert _units(report) == run.metric_units()["end_to_end"]
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert report["env"]["seed"] == 3 and report["env"]["numpy"]


def test_traced_run_reports_every_layer_and_consistent_self_times():
    report = run.benchmark(run.Bench("saddle-8seed", 3, small=True), traced=True)
    assert report["correct"], report["failures"]
    assert _units(report) == run.metric_units()["per_layer"]
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    assert metrics["problems.sample_grad.calls"] == report["sampled_gradients"]
    assert metrics["linalg.eigh.work_d3"] == 8 * metrics["linalg.eigh.calls"]

    spans = report["spans"]
    assert all(s["self_s"] >= -1e-9 for s in spans.values())
    inside = sum(s["self_s"] for name, s in spans.items() if name.startswith(INSIDE_EXECUTE))
    execute = spans["runner.execute_records"]
    assert 0.0 <= inside + execute["self_s"] <= execute["s"] + 1e-9


def test_corrupted_reference_makes_fail_ratio_nonzero():
    bench = run.Bench("logistic-largestep", 3, small=True)
    try:
        out_dir = os.path.join(bench.work, "reference-run")
        assert bench.child("-m", "precondsgd.cli", *bench.cli_argv(out_dir)).rc == 0
        reference = make_reference("logistic-largestep", "run", 3, out_dir)
        assert not any(check_outputs("run", bench.spec, out_dir, reference).values())
        shutil.rmtree(out_dir)
    except BaseException:
        bench.close()
        raise

    cell = sorted(reference["values"])[0]
    reference["values"][cell]["final_f"] *= 1.0 + 1e-3
    bench.reference = reference
    report = run.benchmark(bench, traced=False)
    assert report["failed"] > 0 and report["fail_ratio"] > 0
    assert report["byte_identical_to_reference"] is False
    assert all(f"cell {cell}:" in line for line in report["failures"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad-d200", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
    assert not os.path.exists(tmp_path / ".perfbench_work")


def test_config_follows_the_seed():
    from workloads import WORKLOADS, config_text

    for w in WORKLOADS.values():
        assert config_text(w.spec(5)) == config_text(w.spec(5))
        assert config_text(w.spec(5)) != config_text(w.spec(6))
