"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The desk-scale scenarios are deterministic (fixed seeds), so the asserted
margins are exact reproductions, not statistical hopes.
"""

import filecmp
import random
import statistics
import time
from pathlib import Path

import pytest

from cepsim.cli import ExperimentConfig, main
from cepsim.latency_model import (
    ModelParams,
    gains_from_event_values,
    lindley_peak,
    pair_bins,
    predict_peak,
)
from cepsim.runtime import run
from cepsim.scheduler import SchedulerConfig
from cepsim.workload import (
    BurstIat,
    ConstantIat,
    CostModel,
    ScopeProfile,
    SinusoidalExponentialIat,
    WorkloadConfig,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- scenario builders -------------------------------------------------------


def traffic_tradeoff_cfg(kind, lb=None, seed=42):
    model = ModelParams(n_iat_bins=8, n_lat_bins=4, delta_iat=0.75, delta_lp=2.0)
    wl = WorkloadConfig(
        scenario="traffic",
        seed=seed,
        duration_ms=240_000.0,
        iat=SinusoidalExponentialIat(100.0, 1000.0, 60_000.0),
        scope=ScopeProfile(ws_min_ms=2000.0, ws_max_ms=4000.0),
        cost=CostModel("equi_join", {"L1": 0.1, "L2": 0.2}, incr_ms=0.005),
    )
    return ExperimentConfig(
        workload=wl,
        scheduler=SchedulerConfig(kind, n_instances=8, lb_ms=lb, model=model),
        model=model,
        mtime_ms=5_000.0,
        warmup_ms=10_000.0,
    )


def reactive_sweep_cfg(kind, ws, seed=42, th=None, lb=None):
    model = ModelParams(n_iat_bins=8, n_lat_bins=8, delta_iat=0.75, delta_lp=2.0)
    wl = WorkloadConfig(
        scenario="traffic",
        seed=seed,
        duration_ms=360_000.0,
        iat=SinusoidalExponentialIat(120.0, 1000.0, 120_000.0),
        scope=ScopeProfile(ws_min_ms=ws[0], ws_max_ms=ws[1]),
        cost=CostModel("equi_join", {"L1": 0.1, "L2": 0.2}, incr_ms=0.08),
    )
    return ExperimentConfig(
        workload=wl,
        scheduler=SchedulerConfig(kind, n_instances=8, th_ms=th, lb_ms=lb, model=model),
        model=model,
        mtime_ms=2_000.0,
        feedback_interval_ms=300.0,
        feedback_delivery_delay_ms=1_000.0,
        warmup_ms=20_000.0,
    )


def face_accuracy_cfg(n_iat_bins, seed=42):
    model = ModelParams(n_iat_bins=n_iat_bins, n_lat_bins=2, delta_iat=0.0, delta_lp=0.0)
    wl = WorkloadConfig(
        scenario="face",
        seed=seed,
        duration_ms=600_000.0,
        iat=BurstIat(burst_size=4, intra_gap_ms=10.0, inter_gap_ms=1970.0),
        scope=ScopeProfile(ws_ms=10_000.0),
        opener=ConstantIat(1000.0),
        opener_etype="query",
        cost=CostModel("flat_per_type", {"face": 8.0, "query": 2.0}),
    )
    return ExperimentConfig(
        workload=wl,
        scheduler=SchedulerConfig("model_based", n_instances=1, lb_ms=float("inf"), model=model),
        model=model,
        mtime_ms=10_000.0,
    )


def post_warmup_peak(metrics, warmup_ms):
    return max(metrics.lambda_o_values(warmup_ms))


def within_fraction(metrics, lb, warmup_ms):
    los = metrics.lambda_o_values(warmup_ms)
    return 1.0 - sum(lo > lb for lo in los) / len(los)


# -- criteria ----------------------------------------------------------------


def test_criterion_1_worked_example_exactness():
    t0 = time.perf_counter()
    gm, gp = gains_from_event_values([8.0, 8.0, 7.0, 7.0, 4.0, 4.0, 2.0], 5.0)
    peaks = {a: predict_peak(gm, gp, a, 0.0, 0.0)[0] for a in (0.0, 0.8, 1.0)}
    elapsed = time.perf_counter() - t0
    ok = (
        gm == 10.0
        and gp == -5.0
        and peaks == {0.0: 10.0, 0.8: 6.0, 1.0: 5.0}
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        f"gains=({gm}, {gp}), lambda_q_max(alpha 0/0.8/1)="
        f"{peaks[0.0]}/{peaks[0.8]}/{peaks[1.0]}, {elapsed * 1000:.1f} ms",
    )


def test_criterion_2_oracle_bracket():
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.randint(1, 500)
        lams = [rng.uniform(0.0, 25.0) for _ in range(n)]
        iats = [rng.uniform(0.05, 25.0) for _ in range(n)]
        gm, gp = gains_from_event_values(lams, iats)
        oracle = lindley_peak(lams, iats)
        upper = predict_peak(gm, gp, 0.0, 0.0, 0.0)[0]
        lower = predict_peak(gm, gp, 1.0, 0.0, 0.0)[0]
        if not (max(0.0, gm + gp) - 1e-9 <= oracle <= gm + 1e-9):
            violations += 1
        if not (lower - 1e-9 <= oracle <= upper + 1e-9):
            violations += 1
    verdict(2, violations == 0, f"1000 sequences, {violations} bracket violations")


def test_criterion_3_gain_conservation():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(500):
        lat = [(rng.uniform(0.1, 30.0), rng.uniform(0.0, 50.0)) for _ in range(rng.randint(1, 10))]
        iat = [(rng.uniform(0.1, 30.0), rng.uniform(0.0, 50.0)) for _ in range(rng.randint(1, 10))]
        theta = rng.uniform(1.0, 5.0)
        pairs = pair_bins(lat, iat, theta)
        paired = sum(c for c, _ in pairs)
        expected = min(sum(c for _, c in lat), sum(c for _, c in iat))
        scale = max(expected, 1e-12)
        worst = max(worst, abs(paired - expected) / scale)
        gm = sum(c * g for c, g in pairs if c * g > 0)
        gp = sum(c * g for c, g in pairs if c * g <= 0)
        identity = sum(c * g for c, g in pairs)
        mag = max(abs(identity), 1e-12)
        worst = max(worst, abs((gm + gp) - identity) / mag)
    verdict(3, worst <= 1e-9, f"500 bin configurations, worst relative error {worst:.2e}")


def test_criterion_4_tradeoff_reproduction():
    warmup = 10_000.0
    t0 = time.perf_counter()
    m_rr = run(traffic_tradeoff_cfg("round_robin"))
    rr_time = time.perf_counter() - t0
    rr_peak = post_warmup_peak(m_rr, warmup)
    tx = [m_rr.transmissions]
    fractions = []
    run_times = [rr_time]
    for mult in (2.5, 5.0, 10.0):
        lb = mult * rr_peak
        t0 = time.perf_counter()
        m = run(traffic_tradeoff_cfg("model_based", lb=lb))
        run_times.append(time.perf_counter() - t0)
        tx.append(m.transmissions)
        fractions.append(within_fraction(m, lb, warmup))
    monotone = all(a >= b for a, b in zip(tx[1:], tx[2:]))
    reduction = 1.0 - tx[-1] / tx[0]
    ok = (
        all(f >= 0.995 for f in fractions)
        and monotone
        and reduction >= 0.25
        and max(run_times) < 120.0
    )
    verdict(
        4,
        ok,
        f"RR peak {rr_peak:.1f} ms, within-LB {['%.3f' % f for f in fractions]}, "
        f"transmissions {tx} (reduction {reduction:.1%}), slowest run {max(run_times):.1f} s",
    )


def test_criterion_5_reactive_failure():
    warmup = 20_000.0
    ws_small = (2_000.0, 3_000.0)
    ws_big = (7_000.0, 10_500.0)  # scope grown well past the +40% threshold
    th = 5.0
    reactive_small = post_warmup_peak(run(reactive_sweep_cfg("reactive", ws_small, th=th)), warmup)
    lb = round(reactive_small * 1.25)
    reactive_big = post_warmup_peak(run(reactive_sweep_cfg("reactive", ws_big, th=th)), warmup)
    model_small = within_fraction(run(reactive_sweep_cfg("model_based", ws_small, lb=float(lb))), lb, warmup)
    model_big = within_fraction(run(reactive_sweep_cfg("model_based", ws_big, lb=float(lb))), lb, warmup)
    ok = (
        reactive_small <= lb
        and reactive_big >= 5.0 * lb
        and model_small >= 0.995
        and model_big >= 0.995
    )
    verdict(
        5,
        ok,
        f"LB={lb} ms (TH={th}); reactive peak small/big = {reactive_small:.0f}/{reactive_big:.0f} ms "
        f"({reactive_big / lb:.1f}x LB); model within-LB small/big = {model_small:.4f}/{model_big:.4f}",
    )


def test_criterion_6_bin_count_accuracy_trend():
    def median_ratio(n_bins):
        m = run(face_accuracy_cfg(n_bins))
        predicted = {d.wid: d.prediction.gamma_minus for d in m.decisions if d.prediction}
        ratios = [
            predicted[w.wid] / w.actual_gamma_minus
            for w in m.windows
            if w.close_ts is not None
            and w.open_ts >= 30_000.0  # let the monitoring stats settle
            and w.actual_gamma_minus > 0
            and w.wid in predicted
        ]
        assert len(ratios) > 100
        return statistics.median(ratios)

    med1 = median_ratio(1)
    med2 = median_ratio(2)
    dev1 = abs(med1 - 1.0)
    dev2 = abs(med2 - 1.0)
    ok = 0.5 <= med2 <= 2.0 and dev1 >= 2.0 * dev2
    verdict(
        6,
        ok,
        f"median predicted/actual gain ratio: 1 bin {med1:.3f} (dev {dev1:.3f}), "
        f"2 bins {med2:.3f} (dev {dev2:.3f})",
    )


def test_criterion_7_scheduling_cost():
    from cepsim.bench import bench_decision_ms, bench_stats_update_s

    # the bound is on the first decision on a snapshot, which compiles it
    cold_ms, warm_ms = bench_decision_ms(total_bins=32, calls=501)
    small = bench_stats_update_s(100_000)
    large = bench_stats_update_s(1_000_000)
    ratio = large / small
    ok = cold_ms <= 1.0 and 5.0 <= ratio <= 20.0
    verdict(
        7,
        ok,
        f"32-bin decision median {cold_ms:.4f} ms on a fresh snapshot, {warm_ms:.4f} ms after; statistics update "
        f"1e5={small * 1000:.0f} ms, 1e6={large * 1000:.0f} ms (ratio {ratio:.1f})",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = CONFIG_DIR / "traffic_tradeoff.yaml"
    names = ["latency.csv", "decisions.csv", "predictions.csv",
             "transmissions.csv", "windows.csv", "batches.csv"]
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    identical = [
        filecmp.cmp(tmp_path / "a" / "traffic" / n, tmp_path / "b" / "traffic" / n, shallow=False)
        for n in names
    ]
    identical.append(filecmp.cmp(tmp_path / "a" / "summary.csv", tmp_path / "b" / "summary.csv", shallow=False))
    verdict(8, all(identical), f"{sum(identical)}/{len(identical)} output files byte-identical across reruns")
