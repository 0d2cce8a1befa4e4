"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs at a short horizon through the same code path as a full
benchmark run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SCALE = 0.05  # of each workload's horizon


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result, record = run.run_benchmark(workload, 42, 0.1, trace, duration_scale=SCALE, out_root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        for span in ("runtime.simulate", "cli.write_run_outputs"):
            assert 0 <= metrics[f"{span}_self_s"] <= metrics[f"{span}_s"]
        predicted = metrics["latency_model.predict_calls"]
        if workload == "traffic-long-mb":
            assert predicted == metrics["scheduler.schedule_calls"] > 0
        else:
            assert predicted == 0

    assert json.loads(Path(record["path"]).read_text())["result"] == result
    for key in ("commit", "src_sha256", "python", "nproc"):
        assert key in record
    for moment in ("start", "end"):
        assert len(record[moment]["loadavg"]) == 3


def test_corrupted_recorded_digest_is_a_failed_run(tmp_path):
    workload = "face-dense-reactive"
    rep = run.spawn_rep(workload, 42, tmp_path / "rep", duration_scale=SCALE)
    digests = dict(rep["digests"])
    digests["batches.csv"] = "0" * 64
    expected = {workload: {"42": {"digests": digests}}}
    result, _ = run.run_benchmark(workload, 42, 0.1, False, duration_scale=SCALE, expected=expected,
                                  out_root=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_missing_boundary_is_absent_not_zero():
    layers = {"simulate": {"calls": 1, "total_s": 2.0, "self_s": 1.5}}
    rep = {
        "trace": {"layers": layers, "memberships": 0, "schedule_s": [], "rss_growth_bytes": None},
        "facts": {"pairs": 10, "samples": 5},
        "calibration_s": run.REFERENCE_CALIBRATION_S,
        "output_bytes": 100,
    }
    metrics = run.layer_metrics(rep)
    assert metrics["runtime.simulate_self_s"] == (1.5, "s")
    assert not any(name.startswith("latency_model.predict") for name in metrics)
    assert "runtime.bytes_per_sample" not in metrics


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "traffic-long-rr", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
