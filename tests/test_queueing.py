"""Queueing-theory oracle: the busy-server recursion against closed forms.

One Round-Robin instance receives a face stream. Each face event costs D ms
and sits in at most one window: a query event of cost 0 opens a 999 ms window
every 1,000 ms, or one window covers the whole run. So the instance is a FIFO
queue with one server and deterministic service times, and the lambda_q of a
face event's pair is that customer's wait. Timestamps are whole ms, so a
Poisson stream arrives at rounded times; a face event at the timestamp of a
window's opener comes before it and is not routed, and an opener is a
customer of cost 0. These shift the closed forms by less than the
tolerances below, but for the mean queue length, which is compared with
the closed form of the queue in whole ms.
"""

import math
import statistics
from collections import deque
from dataclasses import replace

import pytest

from cepsim import runtime
from cepsim.cli import build_experiment
from cepsim.runtime import InstanceState, run
from cepsim.workload import (BurstIat, ConstantIat, CostModel, ExponentialIat, ScopeProfile, SinusoidalExponentialIat,
                             WorkloadConfig, generate_stream)
from oracles import pair_rows, per_pair


def face_experiment(iat, cost_ms, duration_ms, seed=0, one_window=False):
    opener = {"kind": "constant", "mu_ms": 2 * duration_ms if one_window else 1000}
    return build_experiment({
        "seed": seed,
        "workload": {
            "scenario": "face", "duration_ms": duration_ms, "iat": iat,
            "scope": {"ws_ms": 2 * duration_ms if one_window else 999},
            "opener": opener, "opener_etype": "query",
            "cost": {"kind": "flat_per_type", "base_ms": {"face": cost_ms, "query": 0.0}},
        },
        "scheduler": {"kind": "round_robin", "n_instances": 1},
    })


def face_run(*args, **kwargs):
    """The run of :func:`face_experiment`: one instance, each event in at most one window."""
    m = run(face_experiment(*args, **kwargs))
    assert set(m.tx_instances) <= {0, 1}
    return m


def face_queue(*args, **kwargs):
    """The face pairs of one run: (ts, lambda_q), in arrival order."""
    m = face_run(*args, **kwargs)
    tss = [ts for ts, n in zip(m.tx_ts, m.tx_instances) if n]
    return [(ts, q) for ts, q, p in zip(tss, m.lambda_q, m.lambda_p) if p > 0]


def face_queue_lengths(m):
    """The queue length of each face pair of ``m``, recomputed from its pair columns."""
    return [queue_len for (*_, queue_len), p in zip(pair_rows(m, 0.0), m.lambda_p) if p > 0]


@pytest.fixture(scope="module", params=[1, 2])
def md1(request):
    """M/D/1 at rho = 0.6, at seeds 1 and 2: exponential 10 ms gaps and a
    face cost of 6 ms, 1,000 s of run, in a 999 ms window every 1,000 ms."""
    return face_run({"kind": "exponential", "mu_ms": 10.0}, 6.0, 1_000_000, request.param)


def batch_means_bound(values, n_batches=20):
    """The mean of ``values`` and four standard errors of it, from
    ``n_batches`` batch means, each far longer than a busy period."""
    size = len(values) // n_batches
    batch_means = [statistics.fmean(values[k * size:(k + 1) * size]) for k in range(n_batches)]
    return statistics.fmean(values), 4 * statistics.stdev(batch_means) / math.sqrt(n_batches)


def md1_in_whole_ms(rate, cost_ms):
    """The mean wait and queue length of M/D/1 with arrivals rounded to whole
    ms and a whole-ms service time D, as a run measures them. Each ms
    receives a Poisson(rate) count K of arrivals. The work U ahead of its
    first arrival is whole ms, as every start is, and is max(0, U + D K - 1)
    at the next ms. Its j-th arrival waits U + D j, behind
    ceil((U + D j) / D) - 1 customers yet to start: one starting at the
    arrival's ms is not waiting. U's stationary law solves its balance
    equations forwards from P(U = 0) = (1 - rho) / P(K = 0), which
    E[U + D K - 1] + P(U = K = 0) = 0 gives."""
    d = int(cost_ms)
    p_k = [math.exp(-rate) * rate ** k / math.factorial(k) for k in range(12)]
    p_u = [(1 - rate * d) / p_k[0]]
    for u in range(40 * d):
        # balance at u: P(U = u) is the sum over k of P(K = k) P(U = u + 1 - D k),
        # plus P(K = 0) P(U = 0) at u = 0; solved for its k = 0 term, P(U = u + 1)
        ahead = sum(p * p_u[u + 1 - d * k] for k, p in enumerate(p_k) if k and u + 1 - d * k >= 0)
        p_u.append((p_u[u] - ahead - (p_k[0] * p_u[0] if u == 0 else 0.0)) / p_k[0])
    assert sum(p_u) == pytest.approx(1.0, abs=1e-9)
    wait = queued = 0.0
    for u, p in enumerate(p_u):
        for k, q in enumerate(p_k):
            wait += p * q * sum(u + d * j for j in range(k))
            queued += p * q * sum(math.ceil((u + d * j) / d) - 1 for j in range(k) if u + d * j)
    return wait / rate, 1 + queued / rate


def test_a_window_leaves_out_the_events_at_its_openers_millisecond():
    # events at one ms keep their generation order, and the face scenario
    # generates its openers after its face events: with 10 ms gaps and a
    # 999 ms window every 1,000 ms, the face event at each opener's ms comes
    # before the opener and is in no window, the one before having closed
    cfg = face_experiment({"kind": "constant", "mu_ms": 10}, 6.0, 30_000)
    events = generate_stream(cfg.workload, cfg.seed)
    m = run(cfg)
    face = [(e.ts, n) for e, n in zip(events, m.tx_instances) if e.etype == "face"]
    assert len(face) == 3001
    assert [ts for ts, n in face if not n] == list(range(0, 30_001, 1000))
    assert sum(n for _, n in face) == 2970
    openers = [i for i, e in enumerate(events) if e.etype == "query"]
    assert all(events[i - 1].ts == events[i].ts for i in openers)


@pytest.mark.parametrize("gap_ms, cost_ms", [(10, 6.0), (7.25, 6.5)])
def test_dd1_below_capacity_never_waits(gap_ms, cost_ms):
    # D/D/1 at rho < 1: every service ends before the next arrival, also with
    # gaps rounded to 7 or 8 ms
    pairs = face_queue({"kind": "constant", "mu_ms": gap_ms}, cost_ms, 30_000)
    assert len(pairs) > 0.98 * 30_000 / gap_ms
    assert all(q == 0.0 for _, q in pairs)


def test_md1_mean_wait_is_pollaczek_khinchine(md1):
    # M/D/1 at rho = 0.6: mean wait rho * D / (2 * (1 - rho)) = 4.5 ms. The
    # tolerance is four standard errors of the mean from 20 batch means, each
    # 50 s of run, far longer than a busy period (about D / (1 - rho) = 15 ms)
    rate, cost_ms = 0.1, 6.0
    rho = rate * cost_ms
    waits = [q for q, p in zip(md1.lambda_q, md1.lambda_p) if p > 0]
    assert len(waits) > 95_000
    mean, tolerance = batch_means_bound(waits)
    assert tolerance < 0.4  # within about 10% of the wait
    assert abs(mean - rho * cost_ms / (2 * (1 - rho))) < tolerance
    assert md1_in_whole_ms(rate, cost_ms)[0] == pytest.approx(4.5)  # rounding to whole ms keeps the mean wait


@pytest.mark.parametrize("seed", [1, 2])
def test_md1_mean_wait_at_a_higher_load(seed):
    # M/D/1 at rho = 0.75: exponential 8 ms gaps and a face cost of 6 ms,
    # mean wait rho * D / (2 * (1 - rho)) = 9 ms, within four standard
    # errors of 20 batch means of 50 s each (a busy period is about
    # D / (1 - rho) = 24 ms)
    rate, cost_ms = 1 / 8.0, 6.0
    rho = rate * cost_ms
    m = face_run({"kind": "exponential", "mu_ms": 1 / rate}, cost_ms, 1_000_000, seed)
    waits = [q for q, p in zip(m.lambda_q, m.lambda_p) if p > 0]
    assert len(waits) > 120_000
    mean, tolerance = batch_means_bound(waits)
    assert tolerance < 1.0  # within about 10% of the wait
    assert abs(mean - rho * cost_ms / (2 * (1 - rho))) < tolerance
    assert md1_in_whole_ms(rate, cost_ms)[0] == pytest.approx(9.0)


class RecordedStarts(deque):
    """An instance's pending starts, also keeping every start appended, in order."""

    def __init__(self):
        super().__init__()
        self.appended = []

    def append(self, start):
        self.appended.append(start)
        super().append(start)


def test_transfer_delay_shifts_every_arrival_and_changes_no_wait(monkeypatch):
    # a transfer delay is a delay line in front of the queue: each customer
    # arrives delay_ms after its timestamp, into the undelayed queue shifted
    # by delay_ms, so every wait stays as it was. A start is its arrival plus
    # its wait; times are multiples of 0.5 ms, so the shift is exact
    delay_ms = 2.5
    cfg = face_experiment({"kind": "exponential", "mu_ms": 10.0}, 6.0, 200_000, seed=1)
    undelayed = run(cfg)
    starts = RecordedStarts()
    monkeypatch.setattr(runtime, "InstanceState", lambda: InstanceState(pending=starts))
    delayed = run(replace(cfg, sim=replace(cfg.sim, transfer_delay_ms=delay_ms)))
    assert delayed.lambda_q == undelayed.lambda_q and delayed.lambda_p == undelayed.lambda_p
    assert max(delayed.lambda_q) > 10 * delay_ms  # customers queue
    arrivals = [start - q for start, q in zip(starts.appended, delayed.lambda_q)]
    assert len(arrivals) == delayed.transmissions > 19_000
    assert arrivals == [ts + delay_ms for ts in per_pair(delayed, delayed.tx_ts)]


def test_md1_mean_queue_length(md1):
    # M/D/1 at rho = 0.6: by PASTA and Little's law an arrival finds
    # lambda W = 0.45 customers waiting, so its queue length, itself
    # included, is 1.45 on average. In whole ms a customer may start at the
    # ms of a later arrival, which then does not count it: 1.4207, which the
    # run's queue lengths, recomputed from its pair columns, must match
    rate, cost_ms = 0.1, 6.0
    expected = md1_in_whole_ms(rate, cost_ms)[1]
    assert 1 + rate * 4.5 - 0.04 < expected < 1 + rate * 4.5
    mean, tolerance = batch_means_bound(face_queue_lengths(md1))
    assert tolerance < 0.05
    assert abs(mean - expected) < tolerance


@pytest.mark.parametrize("seed", [1, 2])
def test_md1_batch_queue_length_peak_is_the_largest(seed):
    # one window on one instance: its one batch spans every pair, so the
    # queue-length peak simulate measures with its own pending starts is the
    # largest queue length recomputed from the pair columns, its lambda_o
    # peak the largest lambda_o
    m = face_run({"kind": "exponential", "mu_ms": 10.0}, 6.0, 200_000, seed, one_window=True)
    [fd] = m.feedback_delays()
    queue_lens = face_queue_lengths(m)
    assert fd.qlen_peak == max(queue_lens) > 1 == min(queue_lens)
    assert fd.lat_peak == max(m.lambda_o_values())


def test_dd1_overload_wait_grows_at_rho_minus_one():
    # D/D/1 at rho = 1.2 in one window: the k-th routed face event waits
    # k * (D - gap) ms, rho - 1 per ms since the first
    pairs = face_queue({"kind": "constant", "mu_ms": 10}, 12.0, 20_000, one_window=True)
    assert len(pairs) == 2000
    (ts0, q0), *rest = pairs
    assert q0 == 0.0
    assert [q for _, q in rest] == pytest.approx([(12.0 / 10 - 1) * (ts - ts0) for ts, _ in rest], rel=1e-12)


def test_dd1_overload_queue_length_leaves_out_a_start_at_its_arrival():
    # D/D/1 at rho = 1.2 in one window: the k-th routed face event arrives at
    # 10k ms and starts at 12k - 2, so it finds ahead of it the faces j < k
    # with 12j - 2 > 10k; the one that starts at its arrival, at every
    # k = 1 mod 6 from 7 on, is not queued. Its queue length is
    # k - (10k + 2) // 12 from k = 2 on. The run's one batch spans every
    # pair, so its queue-length peak is the largest, first reached at 19,940
    # ms, and its lambda_o peak the last face's wait 2k - 2 plus D
    m = face_run({"kind": "constant", "mu_ms": 10}, 12.0, 19_990, one_window=True)
    ks = range(1, 2000)
    assert sum((10 * k + 2) % 12 == 0 for k in ks[1:]) == 333  # a start at a later arrival
    assert face_queue_lengths(m) == [max(1, k - (10 * k + 2) // 12) for k in ks]
    [fd] = m.feedback_delays()
    assert (fd.qlen_peak, fd.qlen_peak_delay_ms) == (333, 19_940.0)
    assert (fd.lat_peak, fd.lat_peak_delay_ms) == (2 * 1999 - 2 + 12.0, 19_990.0)


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



# Arrival profiles against their closed forms: each profile is generated as
# a stream of one event type over [0, duration_ms], its first event at 0.


def arrival_times(iat, duration_ms, seed=0):
    """The timestamps of a custom stream of one type with arrival profile ``iat``."""
    workload = WorkloadConfig("custom", duration_ms, iat, ScopeProfile(ws_ms=1.0), type_mix={"A": 1.0},
                              cost=CostModel("flat_per_type", {"A": 0.0}))
    return [e.ts for e in generate_stream(workload, seed)]


@pytest.mark.parametrize("gap_ms, duration_ms", [(2.5, 10_000), (2.5, 10_001), (7, 9_999)])
def test_constant_profile_has_one_event_per_gap(gap_ms, duration_ms):
    # an event at 0 and at each whole gap up to and including duration_ms
    assert len(arrival_times(ConstantIat(gap_ms), duration_ms)) == duration_ms // gap_ms + 1


@pytest.mark.parametrize("size, intra_ms, inter_ms, duration_ms", [(5, 3, 91, 10_000), (4, 10, 1970, 8_000),
                                                                   (3, 0, 50, 1_000)])
def test_burst_profile_event_count(size, intra_ms, inter_ms, duration_ms):
    # burst k starts at k * period, period = (size - 1) * intra + inter, and
    # its j-th event is j * intra later; the last burst may be cut short
    period = (size - 1) * intra_ms + inter_ms
    starts = range(0, duration_ms + 1, period)
    expected = sum(size if intra_ms == 0 else min(size, (duration_ms - s) // intra_ms + 1) for s in starts)
    times = arrival_times(BurstIat(size, intra_ms, inter_ms), duration_ms)
    assert len(times) == expected
    assert times[:size + 1] == [j * intra_ms for j in range(size)] + [period]


@pytest.mark.parametrize("seed", [1, 2])
def test_exponential_profile_mean_gap(seed):
    # Poisson arrivals: the mean gap is mu_ms, within four standard errors
    # from 20 batch means. Rounding to whole ms moves a batch's summed gaps by
    # under 1 ms, far below the tolerance
    mu_ms = 10.0
    times = arrival_times(ExponentialIat(mu_ms), 200_000, seed)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert len(gaps) > 19_000
    mean, tolerance = batch_means_bound(gaps)
    assert tolerance < 0.04 * mu_ms
    assert abs(mean - mu_ms) < tolerance


@pytest.mark.parametrize("seed", [1, 2])
def test_sinusoidal_profile_events_per_period(seed):
    # A mean gap m(t) = mid + amp sin(2 pi t / period) gives rate 1 / m(t),
    # period / sqrt(mid^2 - amp^2) events per period: the traffic workloads'
    # 100-1,000 ms profile has one event per 316.2 ms. The generator draws
    # each gap with the mean at the previous event's time t, not over the
    # gap, so the gap covers 1 - m'(t) + 2 m'^2 - m m'' units of the rate's
    # integral on average, to second order. At events, spread with density
    # about (1 + m') / m, the m' and m m'' terms integrate to 0 over a period,
    # and the count falls short by the mean of m'^2 under 1 / m: less than
    # (2 pi amp / period)^2 = 0.22% here. The tolerance is that bias plus
    # four standard errors from 20 batch means, each of three whole periods.
    # A Poisson count of 190 per period puts those four errors near 7.1, 3.7%
    # of the count; 20 batches estimate them within about 30%, so 6% only
    # checks that the tolerance stays that tight
    lo, hi, period_ms, periods = 100, 1000, 60_000, 60
    mid, amp = (lo + hi) / 2, (hi - lo) / 2
    expected = period_ms / math.sqrt(mid * mid - amp * amp)
    assert period_ms / expected == pytest.approx(316.2, abs=0.05)
    times = arrival_times(SinusoidalExponentialIat(lo, hi, period_ms), periods * period_ms - 1, seed)
    per_period = [0] * periods
    for ts in times:
        per_period[ts // period_ms] += 1
    mean, tolerance = batch_means_bound(per_period)
    bias = (2 * math.pi * amp / period_ms) ** 2 * expected
    assert tolerance < 0.06 * expected
    assert abs(mean - expected) < tolerance + bias


def test_a_poisson_stream_leaves_out_the_events_just_before_its_openers():
    # Two tie rules leave face events in no window. Events are ordered by
    # their raw times, then rounded to whole ms, and an event at an opener's
    # raw time comes before it. So the face events in the half ms before an
    # opener share its ms but come before it, and are in no window (see the
    # constant-gap case above); on a Poisson stream of mean gap mu there are
    # about 1 / (2 mu) of them per opener but the one at 0. And a window
    # closes at its first event at or past its close, so the others at its
    # close's ms are in no window either: max(0, K - 1) per close on
    # average, K the Poisson count of mean 1 / mu in that ms. Each is within
    # four standard deviations of its closed form
    mu_ms, duration_ms = 2.0, 200_000
    cfg = face_experiment({"kind": "exponential", "mu_ms": mu_ms}, 0.5, duration_ms, seed=3)
    events = generate_stream(cfg.workload, cfg.seed)
    m = run(cfg)
    opener_at = {e.ts: i for i, e in enumerate(events) if e.etype == "query"}
    closes = {ts + 999 for ts in opener_at if ts + 999 <= duration_ms}
    assert len(opener_at) == duration_ms // 1000 + 1 == len(closes) + 1
    face = [(i, e.ts, n) for i, (e, n) in enumerate(zip(events, m.tx_instances)) if e.etype == "face"]
    before_opener = [n for i, ts, n in face if i < opener_at.get(ts, -1)]
    after_first_at_close = [n for i, ts, n in face if ts in closes and events[i - 1].ts == ts]
    assert not any(before_opener) and not any(after_first_at_close)
    assert sum(not n for *_, n in face) == len(before_opener) + len(after_first_at_close)
    rate = 1 / mu_ms
    expected = (len(opener_at) - 1) * rate / 2
    assert abs(len(before_opener) - expected) < 4 * math.sqrt(expected)
    beyond = rate - 1 + math.exp(-rate)  # E max(0, K - 1)
    variance = rate * rate - rate + 1 - math.exp(-rate) - beyond * beyond
    assert abs(len(after_first_at_close) - len(closes) * beyond) < 4 * math.sqrt(len(closes) * variance)
