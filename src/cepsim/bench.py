"""Micro-benchmarks of the controller's per-decision cost and of the
monitoring statistics, behind ``cepsim bench-scheduling-latency``."""

from __future__ import annotations

import argparse
import random
import statistics
import time

from .core import Event
from .latency_model import ModelParams, compile_model, predict
from .splitter import StreamStats, StreamStatsSnapshot


def _synthetic_snapshot(n_types: int, n_iat_bins: int, n_lat_bins: int) -> StreamStatsSnapshot:
    """A warmed-up snapshot with n_iat_bins + n_types * n_lat_bins bins."""
    entries = 4000
    rng = random.Random(7)
    stats = StreamStats(n_iat_bins, n_lat_bins)
    etypes = [f"T{i}" for i in range(n_types)]
    # window scope and shift are observed in the first monitoring window only
    stats.observe_window_opened(0.0)
    stats.observe_window_opened(1000.0)
    stats.observe_window_closed(10_000.0)
    ts = 0
    prev = None
    # two monitoring windows, so the second one's bin ranges are warmed
    for first_seq in (0, entries):
        for i in range(entries):
            ts += rng.randint(1, 40)
            e = Event(first_seq + i, ts, etypes[i % n_types])
            stats.observe_event(e, prev)
            prev = ts
            stats.observe_latency(e.etype, rng.uniform(1.0, 10.0) * (1 + i % n_types))
        snapshot = stats.end_monitoring_window()
    return snapshot


def bench_decision_ms(total_bins: int = 32, calls: int = 2001) -> tuple[float, float]:
    """Model-based decision times in ms with ``total_bins`` bins, as the
    median of the first decision after each compile (it includes the
    compile) and the median of the later ones. The snapshot is compiled
    afresh every 20 calls."""
    n_types = 3
    n_lat_bins = max(1, (total_bins - 8) // n_types)
    snapshot = _synthetic_snapshot(n_types, 8, n_lat_bins)
    params = ModelParams(n_iat_bins=8, n_lat_bins=n_lat_bins, delta_iat=0.5, delta_lp=0.5)
    queued = {"T0": 3, "T1": 2, "T2": 1}
    cold, warm = [], []
    for i in range(calls):
        t0 = time.perf_counter()
        if i % 20 == 0:
            model = compile_model(snapshot, params)
        predict(model, 4 + i % 4, queued, 1.5)
        (warm if i % 20 else cold).append(time.perf_counter() - t0)
    return statistics.median(cold) * 1000.0, statistics.median(warm) * 1000.0


def bench_stats_update_s(entries: int) -> float:
    """Seconds to feed ``entries`` monitoring observations into 32 bins and freeze."""
    rng = random.Random(11)
    gaps = [rng.randint(1, 40) for _ in range(entries)]
    lats = [rng.uniform(1.0, 10.0) for _ in range(entries)]
    stats = StreamStats(n_iat_bins=16, n_lat_bins=16)
    t0 = time.perf_counter()
    ts = 0
    prev = None
    for i in range(entries):
        ts += gaps[i]
        stats.observe_event(Event(i, ts, "T0"), prev)
        prev = ts
        stats.observe_latency("T0", lats[i])
    stats.end_monitoring_window()
    return time.perf_counter() - t0


def cmd_bench(args: argparse.Namespace) -> int:
    cold, warm = bench_decision_ms(total_bins=args.bins)
    print(
        f"model-based decision, {args.bins} bins: median {cold:.4f} ms on a fresh snapshot, "
        f"{warm:.4f} ms after"
    )
    small = bench_stats_update_s(args.entries // 10)
    large = bench_stats_update_s(args.entries)
    ratio = large / small if small > 0 else float("inf")
    print(
        f"statistics update: {args.entries // 10} entries {small * 1000:.1f} ms, "
        f"{args.entries} entries {large * 1000:.1f} ms (ratio {ratio:.1f})"
    )
    return 0
