"""cepsim benchmark: host time, memory and a per-layer trace of whole runs.

    python3 perfbench/run.py --workload traffic-long-rr --seed 42 --seconds 36 --trace 0

Each repetition is a fresh, single-threaded ``perfbench/rep.py`` process
that runs one workload from a validated config to its summary row; the
repetitions run one after another for ``--seconds``. With ``--trace 0`` the
last stdout line holds the end-to-end metrics (medians over repetitions);
with ``--trace 1`` it holds the per-layer metrics of traced repetitions.
Times are in reference seconds (see ``REFERENCE_CALIBRATION_S``).
Every repetition's outputs are checked against recorded digests (for the
recorded seeds), against each other, and against the workload's regime.
A result file with the raw repetitions and the host state at start and end
is written under ``perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("traffic-long-rr", "traffic-long-mb", "face-dense-reactive")
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUP_SPAWNS = 6  # set-up-only processes per run, so setup_s is a median of many
# Times are reported in reference seconds: measured seconds times
# (REFERENCE_CALIBRATION_S / C) ** CALIBRATION_EXPONENT, where C is the time
# of the calibration loop (rep.calibrate) in the same process. This removes
# most of a shared machine's speed drift. The workloads slow down less than
# the loop when the machine slows (exponents of 0.5 to 1 were measured), so
# the correction is partial. See perfbench/README.md.
REFERENCE_CALIBRATION_S = 0.04
CALIBRATION_EXPONENT = 0.75
REP_TIMEOUT_S = 150

# Each workload must stay in the regime it was chosen for, on every seed.
# (fact, lowest, highest); facts come from the run's output files.
REGIMES = {
    "traffic-long-rr": [
        ("batches_per_window", 1.0, 1.0),  # Round-Robin: one batch per window
        ("memberships_per_event", 15.0, 20.0),
        ("transmissions_per_pair", 0.35, 0.5),
        ("max_lo", 0.0, 10.0),
    ],
    "traffic-long-mb": [
        ("batches_per_window", 0.0, 0.5),  # the model batches windows
        ("memberships_per_event", 15.0, 20.0),
        ("transmissions_per_pair", 0.0, 0.3),  # about half of Round-Robin's
    ],
    "face-dense-reactive": [
        ("memberships_per_event", 140.0, 157.0),  # dense overlap
        ("max_lo", 0.0, 20.0),  # simulated queues stay bounded
        ("batches", 1, 120),  # output stays small
    ],
}

END_TO_END_UNITS = {"run_s": "s", "events_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# tracer boundary -> (metric prefix, whether a call count is reported)
BOUNDARIES = {
    "generate_stream": ("workload.generate_stream", False),
    "in_window_cost": ("workload.in_window_cost", True),
    "process": ("splitter.process", True),
    "route_event": ("splitter.route_event", False),
    "observe_latency": ("splitter.observe_latency", True),
    "end_monitoring_window": ("splitter.end_monitoring_window", True),
    "schedule": ("scheduler.schedule", True),
    "predict": ("latency_model.predict", True),
    "simulate": ("runtime.simulate", False),
    "make_feedback": ("runtime.make_feedback", True),
    "feedback_delays": ("runtime.feedback_delays", False),
    "write_run_outputs": ("cli.write_run_outputs", False),
    "summary_row": ("cli.summary_row", False),
}
SELF_TIMED = ("simulate", "write_run_outputs")


class BenchmarkError(Exception):
    """The program could not be started at all; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_state() -> dict:
    return {
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "loadavg": list(os.getloadavg()),
    }


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src/."""
    commit = None
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def spawn_rep(workload: str, seed: int, out: Path, *, setup_only=False, trace=False,
              duration_scale=1.0) -> dict:
    """Run one repetition process and return its report, or raise
    ``RuntimeError`` if it exits nonzero, times out or prints no report."""
    cmd = [
        sys.executable, str(BENCH_DIR / "rep.py"),
        "--config", str(BENCH_DIR / "workloads" / f"{workload}.yaml"),
        "--seed", str(seed), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    if duration_scale != 1.0:
        cmd += ["--duration-scale", repr(duration_scale)]
    cmd += ["--t-spawn", repr(_now())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"no report on stdout: {proc.stdout[-500:]!r}") from exc


def derived_facts(facts: dict) -> dict:
    out = dict(facts)
    out["batches_per_window"] = facts["batches"] / facts["windows"] if facts["windows"] else 0.0
    out["transmissions_per_pair"] = facts["transmissions"] / facts["pairs"] if facts["pairs"] else 0.0
    return out


def check_rep(workload: str, rep: dict, recorded: dict | None, reference: dict | None,
              check_regime: bool) -> list[str]:
    """Problems with one repetition's outputs; empty when they are correct."""
    problems = list(rep["facts"]["inconsistent"])
    if recorded is not None:
        for name, digest in recorded["digests"].items():
            if rep["digests"].get(name) != digest:
                problems.append(f"{name} differs from the recorded digest")
    if reference is not None and rep["digests"] != reference["digests"]:
        problems.append("outputs differ from the run's first repetition")
    if check_regime:
        facts = derived_facts(rep["facts"])
        for fact, lo, hi in REGIMES[workload]:
            if not lo <= facts[fact] <= hi:
                problems.append(f"regime: {fact}={facts[fact]} outside [{lo}, {hi}]")
    return problems


def calibrated(seconds: float, calibration_s: float) -> float:
    return seconds * (REFERENCE_CALIBRATION_S / calibration_s) ** CALIBRATION_EXPONENT


def layer_metrics(rep: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, times in reference
    seconds like the end-to-end ones. A boundary the tracer could not find
    yields no metrics (absent, never 0)."""
    tr = rep["trace"]
    layers = tr["layers"]
    facts = rep["facts"]
    scale = calibrated(1.0, rep["calibration_s"])
    out: dict[str, tuple[float, str]] = {}
    for boundary, (prefix, with_calls) in BOUNDARIES.items():
        agg = layers.get(boundary)
        if agg is None:
            continue
        out[f"{prefix}_s"] = (agg["total_s"] * scale, "s")
        if with_calls:
            out[f"{prefix}_calls"] = (agg["calls"], "count")
        if boundary in SELF_TIMED:
            out[f"{prefix}_self_s"] = (agg["self_s"] * scale, "s")
    if "process" in layers and layers["process"]["calls"]:
        out["splitter.memberships_per_event"] = (
            tr["memberships"] / layers["process"]["calls"], "windows/event")
    if tr["schedule_s"]:
        out["scheduler.schedule_us_p50"] = (statistics.median(tr["schedule_s"]) * scale * 1e6, "us")
    if "simulate" in layers:
        out["runtime.pairs_per_s"] = (facts["pairs"] / out["runtime.simulate_s"][0], "1/s")
    out["runtime.samples"] = (facts["samples"], "count")
    if tr["rss_growth_bytes"] is not None and facts["samples"]:
        out["runtime.bytes_per_sample"] = (tr["rss_growth_bytes"] / facts["samples"], "B")
    out["cli.output_bytes"] = (rep["output_bytes"], "B")
    return out


def layer_picture(workload: str, metrics: dict[str, dict], run_s: float,
                  windows: int) -> dict[str, bool]:
    """The layer shares each workload was chosen for, as measured (reported,
    not enforced)."""
    val = {k: m["value"] for k, m in metrics.items()}
    if workload == "traffic-long-rr":
        composite = {"runtime.simulate_s", "cli.write_run_outputs_s", "trace.overhead_s"}
        times = {k: m["value"] for k, m in metrics.items() if m["unit"] == "s" and k not in composite}
        return {
            "feedback_delays is the largest layer":
                bool(times) and max(times, key=times.get) == "runtime.feedback_delays_s",
            "predict calls == 0": val.get("latency_model.predict_calls") == 0,
        }
    if workload == "traffic-long-mb":
        return {"predict calls == windows": val.get("latency_model.predict_calls") == windows}
    return {
        "predict calls == 0": val.get("latency_model.predict_calls") == 0,
        "simulate >= 80% of run_s": val.get("runtime.simulate_s", 0.0) >= 0.8 * run_s,
        "write_run_outputs <= 15% of run_s": val.get("cli.write_run_outputs_s", run_s) <= 0.15 * run_s,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, *,
                  duration_scale: float = 1.0, expected: dict | None = None,
                  out_root: Path = BENCH_DIR) -> tuple[dict, dict]:
    """Run one benchmark run. Returns the result (the object printed as the
    last stdout line) and the full record, which is also written to
    ``record["path"]`` under ``out_root/results``. ``duration_scale``
    shortens the workload's horizon; the recorded digests and the regime
    checks apply only at full scale unless ``expected`` supplies digests."""
    if workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    full_scale = duration_scale == 1.0
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text()) if full_scale else {}
    recorded = expected.get(workload, {}).get(str(seed))
    work = out_root / "_work" / f"{workload}-{os.getpid()}"
    started = host_state()
    identity = source_identity()

    def rep(**kw) -> dict:
        return spawn_rep(workload, seed, work, duration_scale=duration_scale, **kw)

    # warm-up: compiles bytecode and fills the file cache; also the check
    # that the program is present at all
    try:
        rep(setup_only=True)
    except RuntimeError as exc:
        raise BenchmarkError(f"cepsim could not be set up: {exc}") from exc
    setup_only = [] if trace else [rep(setup_only=True) for _ in range(SETUP_SPAWNS)]

    reps: list[dict] = []
    walls: list[float] = []

    def measure(traced: bool) -> None:
        t0 = _now()
        try:
            r = rep(trace=traced)
        except RuntimeError as exc:
            r = {"error": str(exc)}
        walls.append(_now() - t0)
        r["traced"] = traced
        reps.append(r)

    deadline = _now() + seconds
    if trace:
        # an untraced repetition first: it gives the tracing overhead and the
        # outputs the traced ones must equal
        measure(False)
    measure(trace)
    while _now() + statistics.median(walls) <= deadline:
        measure(trace)

    ok_reps = [r for r in reps if "error" not in r]
    reference = ok_reps[0] if ok_reps else None
    failed = 0
    for r in reps:
        if "error" in r:
            r["problems"] = [r["error"]]
        else:
            r["problems"] = check_rep(workload, r, recorded, reference if r is not reference else None,
                                      full_scale)
        failed += bool(r["problems"])

    metrics: dict[str, dict] = {}
    measured = None
    picture = None
    if not trace and ok_reps:
        setups = setup_only + ok_reps
        run_s = [calibrated(r["run_s"], r["calibration_s"]) for r in ok_reps]
        events = ok_reps[0]["facts"]["events"]
        values = {
            "run_s": statistics.median(run_s),
            "events_per_s": statistics.median(events / t for t in run_s),
            "setup_s": statistics.median(calibrated(r["setup_s"], r["calibration_s"]) for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_reps),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        measured = {
            "run_s": statistics.median(r["run_s"] for r in ok_reps),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "calibration_s": statistics.median(r["calibration_s"] for r in setups),
        }
    traced_reps = [r for r in ok_reps if r["traced"]]
    if trace and traced_reps:
        per_rep = [layer_metrics(r) for r in traced_reps]
        for name, (_, unit) in per_rep[0].items():
            vals = [m[name][0] for m in per_rep if name in m]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        untraced = [calibrated(r["run_s"], r["calibration_s"]) for r in ok_reps if not r["traced"]]
        traced_run_s = statistics.median(calibrated(r["run_s"], r["calibration_s"]) for r in traced_reps)
        if untraced:
            metrics["trace.overhead_s"] = {"value": traced_run_s - statistics.median(untraced), "unit": "s"}
        picture = layer_picture(workload, metrics, traced_run_s, traced_reps[0]["facts"]["windows"])

    for r in traced_reps:
        del r["trace"]["schedule_s"]  # summarised by scheduler.schedule_us_p50
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = out_root / "results" / f"{workload}_seed{seed}_trace{int(trace)}_{stamp}_{os.getpid()}.json"
    record = {
        "path": str(path),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "duration_scale": duration_scale,
        "digests_recorded_for_seed": recorded is not None,
        **identity,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "start": started,
        "end": host_state(),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "calibration_exponent": CALIBRATION_EXPONENT,
        "measured_medians": measured,
        "layer_picture": picture,
        "setup_only_processes": setup_only,
        "repetition_wall_s": walls,
        "repetitions": reps,
        "result": result,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in (record["measured_medians"] or {}).items():
        print(f"measured {name:31s} {value:>16.6g} s")
    for claim, holds in (record["layer_picture"] or {}).items():
        print(f"layer picture: {claim}: {'holds' if holds else 'does not hold'}")
    print(f"attempted {result['attempted']}, failed {result['failed']}; details in {record['path']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
