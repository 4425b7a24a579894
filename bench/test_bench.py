"""Self-test of the benchmark: python -m pytest bench

Tiny ops exercise every workload under the tracer; the default seed's
full-size outputs are compared with the pinned digests; and the entry point is
run once per mode to check its result line.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from vmbpbb import pipeline, simulation  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Filled in by run.py from the untraced and traced loops, not by the tracer.
RUN_LEVEL = {"trace_overhead_frac", "failed_frac"}


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def traced_tiny_ops(name, workdir):
    workload = workloads.WORKLOADS[name](7, workdir, tiny=True)
    tracer = spans.Tracer()
    tracer.install()
    digests = []
    try:
        for _ in range(2):
            for index in range(len(workload.inputs)):
                with tracer.op_span():
                    result = workload.op(index)
                digests.append(workload.digest(index, result))
    finally:
        tracer.uninstall()
    return workload, tracer, digests


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name, tmp_path):
    workload, tracer, digests = traced_tiny_ops(name, tmp_path)
    metrics = spans.layer_metrics(tracer, workload.via_cli, 0.0)

    assert set(metrics) == set(run.PER_LAYER_UNITS) - RUN_LEVEL
    assert all(value >= 0 for value in metrics.values())
    assert spans.nesting_errors(tracer) == []
    assert tracer.missing == []
    half = len(digests) // 2
    assert digests[:half] == digests[half:]
    # The originals are back once the traced run ends.
    assert simulation.run_pipeline is pipeline.run_pipeline


def test_layer_counts_on_tiny_ops(tmp_path):
    desk, tracer, _ = traced_tiny_ops("desk_rep", tmp_path / "desk")
    m = spans.layer_metrics(tracer, desk.via_cli, 0.0)
    assert m["pipeline.run_calls"] == 2
    assert m["bootstrap.rows"] == 4 * desk.size["resamples"]
    # PBB and VMBPBB draw from the same streams.
    assert m["bootstrap.stream_unique_frac"] == 0.5
    assert m["csvio.rows_read"] == m["csvio.write_ms"] == m["cli.self_ms"] == 0

    hourly, tracer, _ = traced_tiny_ops("hourly_run", tmp_path / "hourly")
    m = spans.layer_metrics(tracer, hourly.via_cli, 0.0)
    assert m["csvio.rows_read"] == hourly.size["n"]
    assert m["csvio.rows_written"] == 3 * hourly.size["n"]
    assert m["bootstrap.band_useful_frac"] == pytest.approx(
        (24 + 168 + 168) / (24 + 168 + hourly.size["n"])
    )

    grid, tracer, _ = traced_tiny_ops("grid_sweep", tmp_path / "grid")
    m = spans.layer_metrics(tracer, grid.via_cli, 0.0)
    assert m["simulation.pool_starts"] == 3
    assert m["simulation.pool_tasks"] == 3 * grid.size["reps"]
    # Repetitions run in pool workers, whose spans are not captured.
    assert m["pipeline.run_calls"] == 0


def test_gone_hook_is_reported_with_zero_calls(monkeypatch):
    monkeypatch.delattr(simulation, "run_pipeline")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["vmbpbb.simulation.run_pipeline"]
    assert spans.layer_metrics(tracer, False, 0.0)["pipeline.run_calls"] == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_default_seed_outputs_match_pins(name, tmp_path):
    pins = json.loads(run.PINS.read_text())
    workload = workloads.WORKLOADS[name](pins["seed"], tmp_path)
    digests = [workload.digest(i, workload.op(i)) for i in range(len(workload.inputs))]
    assert digests == pins[name]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "desk_rep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_rep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
