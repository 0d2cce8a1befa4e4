"""Queueing-theory oracle: the busy-server recursion against closed forms.

One Round-Robin instance receives a face stream. Each face event costs D ms
and sits in at most one window: a query event of cost 0 opens a 999 ms window
every 1,000 ms, or one window covers the whole run. So the instance is a FIFO
queue with one server and deterministic service times, and the lambda_q of a
face event's pair is that customer's wait. Timestamps are whole ms, so a
Poisson stream arrives at rounded times; a face event at the timestamp of a
window's opener comes before it and is not routed. Both shift the closed
forms by less than the tolerances below.
"""

import math
import statistics

import pytest

from cepsim.cli import build_experiment
from cepsim.runtime import run


def face_queue(iat, cost_ms, duration_ms, seed=0, one_window=False):
    """The face pairs of one run: (ts, lambda_q), in arrival order."""
    opener = {"kind": "constant", "mu_ms": 2 * duration_ms if one_window else 1000}
    m = run(build_experiment({
        "seed": seed,
        "workload": {
            "scenario": "face", "duration_ms": duration_ms, "iat": iat,
            "scope": {"ws_ms": 2 * duration_ms if one_window else 999},
            "opener": opener, "opener_etype": "query",
            "cost": {"kind": "flat_per_type", "base_ms": {"face": cost_ms, "query": 0.0}},
        },
        "scheduler": {"kind": "round_robin", "n_instances": 1},
    }))
    assert set(m.tx_instances) <= {0, 1}  # one instance, each event in at most one window
    tss = [ts for ts, n in zip(m.tx_ts, m.tx_instances) if n]
    return [(ts, q) for ts, q, p in zip(tss, m.lambda_q, m.lambda_p) if p > 0]


@pytest.mark.parametrize("gap_ms, cost_ms", [(10, 6.0), (7.25, 6.5)])
def test_dd1_below_capacity_never_waits(gap_ms, cost_ms):
    # D/D/1 at rho < 1: every service ends before the next arrival, also with
    # gaps rounded to 7 or 8 ms
    pairs = face_queue({"kind": "constant", "mu_ms": gap_ms}, cost_ms, 30_000)
    assert len(pairs) > 0.98 * 30_000 / gap_ms
    assert all(q == 0.0 for _, q in pairs)


@pytest.mark.parametrize("seed", [1, 2])
def test_md1_mean_wait_is_pollaczek_khinchine(seed):
    # M/D/1 at rho = 0.6: mean wait rho * D / (2 * (1 - rho)) = 4.5 ms. The
    # tolerance is four standard errors of the mean from 20 batch means, each
    # 50 s of run, far longer than a busy period (about D / (1 - rho) = 15 ms)
    mean_gap_ms, cost_ms = 10.0, 6.0
    rho = cost_ms / mean_gap_ms
    waits = [q for _, q in face_queue({"kind": "exponential", "mu_ms": mean_gap_ms}, cost_ms, 1_000_000, seed)]
    assert len(waits) > 95_000
    size = len(waits) // 20
    batch_means = [statistics.fmean(waits[k * size:(k + 1) * size]) for k in range(20)]
    stderr = statistics.stdev(batch_means) / math.sqrt(20)
    assert stderr < 0.1  # so the bound below is within about 10% of the wait
    assert abs(statistics.fmean(waits) - rho * cost_ms / (2 * (1 - rho))) < 4 * stderr


def test_dd1_overload_wait_grows_at_rho_minus_one():
    # D/D/1 at rho = 1.2 in one window: the k-th routed face event waits
    # k * (D - gap) ms, rho - 1 per ms since the first
    pairs = face_queue({"kind": "constant", "mu_ms": 10}, 12.0, 20_000, one_window=True)
    assert len(pairs) == 2000
    (ts0, q0), *rest = pairs
    assert q0 == 0.0
    assert [q for _, q in rest] == pytest.approx([(12.0 / 10 - 1) * (ts - ts0) for ts, _ in rest], rel=1e-12)


def test_md1_overload_wait_grows_at_rho_minus_one():
    # M/D/1 at rho = 1.2 in one window: the server never idles once the
    # backlog has built, so the wait grows by D per arrival, less the time
    # passed, rho - 1 per ms on average. The tolerance is four standard
    # deviations of D * (Poisson count) / time, the slope's only random part
    mean_gap_ms, cost_ms, duration_ms = 5.0, 6.0, 200_000
    rho = cost_ms / mean_gap_ms
    pairs = face_queue({"kind": "exponential", "mu_ms": mean_gap_ms}, cost_ms, duration_ms, seed=3, one_window=True)
    (ts0, q0), (ts1, q1) = pairs[len(pairs) // 100], pairs[-1]
    span = ts1 - ts0
    assert span > 0.98 * duration_ms
    slope_sd = cost_ms * math.sqrt(span / mean_gap_ms) / span
    assert abs((q1 - q0) / span - (rho - 1)) < 4 * slope_sd
