import math
import multiprocessing
import random
from array import array
from collections import deque
from dataclasses import fields, replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cepsim import runtime
from cepsim.cli import build_experiment, load_config, summary_row
from cepsim.core import ConfigurationError, CostModelError, Event
from cepsim.latency_model import ModelParams
from cepsim.runtime import BatchTracker, FeedbackDelay, InstanceState, Monitor, RunMetrics, SimConfig, run, simulate
from cepsim.scheduler import Decision, InstanceView, SchedulerConfig, make_scheduler
from cepsim.splitter import KeyedAperiodicPolicy, Splitter, StreamStats, TimeWindowPolicy, make_policy
from cepsim.workload import BurstIat, CostModel, generate_stream, in_window_cost
from oracles import pair_rows, per_pair, reference_feedback_delays, reference_monitor_log


# 150 examples in tier-1; the "deep" profile of tests/conftest.py runs more
ORACLE = settings(max_examples=max(150, settings.default.max_examples), deadline=None)


def mk_events(rows):
    """rows: (ts, etype[, key]) tuples in arrival order."""
    out = []
    for seq, row in enumerate(rows):
        ts, etype = row[0], row[1]
        key = row[2] if len(row) > 2 else None
        out.append(Event(seq=seq, ts=ts, etype=etype, key=key))
    return out


def run_sim(events, *, policy, cost, kind="round_robin", n=1, mtime=10_000.0, **kw):
    sched_kw = {}
    if kind == "reactive":
        sched_kw["th_ms"] = kw.pop("th_ms")
    if kind == "model_based":
        sched_kw["lb_ms"] = kw.pop("lb_ms")
    scheduler = make_scheduler(SchedulerConfig(kind, n_instances=n, **sched_kw))
    return simulate(Splitter(events, policy), cost, scheduler, SimConfig(mtime_ms=mtime, **kw))


WORKED_COSTS = CostModel("flat_per_type", {"open": 0.0, "A": 8.0, "B": 7.0, "C": 4.0, "D": 2.0})


def worked_example_events(order):
    rows = [(0, "open")] + [(5 * i, etype) for i, etype in enumerate(order)]
    return mk_events(rows)


class TestWorkedExamples:
    def test_underload_steady_state(self):
        # windows tile the stream; every A event is in exactly one window
        rows = []
        for t in range(0, 400, 95):
            rows.append((t, "open"))
        rows = sorted(rows + [(t, "A") for t in range(2, 400, 10)])
        events = mk_events(rows)
        m = run_sim(events, policy=TimeWindowPolicy("open", 90.0),
                    cost=CostModel("flat_per_type", {"open": 0.0, "A": 5.0}))
        a_los = [q + p for q, p in zip(m.lambda_q, m.lambda_p) if p > 0]
        assert a_los, "no A samples routed"
        assert all(q == 0.0 for q in m.lambda_q)
        assert all(lo == 5.0 for lo in a_los)

    def test_worked_example_worst_order_peak(self):
        events = worked_example_events(["A", "A", "B", "B", "C", "C", "D"])
        m = run_sim(events, policy=TimeWindowPolicy("open", 30.0), cost=WORKED_COSTS)
        assert max(m.lambda_q) == 10.0

    def test_worked_example_best_order_peak(self):
        events = worked_example_events(["C", "A", "C", "A", "D", "B", "B"])
        m = run_sim(events, policy=TimeWindowPolicy("open", 30.0), cost=WORKED_COSTS)
        assert max(m.lambda_q) == 5.0

    def test_worked_example_mid_order_peak(self):
        events = worked_example_events(["A", "C", "A", "C", "B", "D", "B"])
        m = run_sim(events, policy=TimeWindowPolicy("open", 30.0), cost=WORKED_COSTS)
        assert max(m.lambda_q) == 6.0


class TestConservationAndIdentities:
    def traffic_metrics(self, n=3, seed=0):
        rng = random.Random(seed)
        rows = []
        t = 0
        for i in range(120):
            t += rng.randint(1, 40)
            rows.append((t, "L1", f"v{i}"))
            rows.append((t + rng.randint(50, 400), "L2", f"v{i}"))
        rows.sort(key=lambda r: r[0])
        events = mk_events(rows)
        cost = CostModel("equi_join", {"L1": 1.0, "L2": 2.0}, incr_ms=0.3)
        return events, run_sim(events, policy=KeyedAperiodicPolicy(), cost=cost, n=n, mtime=500.0)

    def test_every_routed_pair_processed_once(self):
        _, m = self.traffic_metrics()
        assert len(list(per_pair(m, m.tx_seq))) == m.transmissions
        assert m.transmissions == sum(m.tx_instances)
        pairs = list(zip(per_pair(m, m.tx_seq), m.instance))
        assert len(set(pairs)) == len(pairs), "pair processed twice"

    def test_latency_identities(self):
        _, m = self.traffic_metrics()
        assert list(m.lambda_o_values()) == [q + p for q, p in zip(m.lambda_q, m.lambda_p)]
        assert all(q >= 0.0 for q in m.lambda_q) and all(p >= 0.0 for p in m.lambda_p)

    def test_transmissions_bounded_by_memberships(self):
        _, m = self.traffic_metrics()
        for n_wins, n_inst in zip(m.tx_members, m.tx_instances):
            assert n_inst <= n_wins
            if n_wins > 0:
                assert n_inst >= 1  # every windowed event is transmitted

    def test_lindley_recursion_on_single_instance(self):
        # all events of one window on one instance: the busy-server identity
        rng = random.Random(7)
        rows = [(0, "open")]
        t = 0
        for _ in range(60):
            t += rng.randint(1, 12)
            rows.append((t, rng.choice("AB")))
        events = mk_events(rows)
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 8.0, "B": 2.0})
        m = run_sim(events, policy=TimeWindowPolicy("open", 10_000.0), cost=cost)
        ts, lambda_q, lambda_p = list(per_pair(m, m.tx_ts)), m.lambda_q, m.lambda_p
        for i in range(len(ts) - 1):
            iat = ts[i + 1] - ts[i]
            expected = max(0.0, lambda_q[i] + lambda_p[i] - iat)
            assert lambda_q[i + 1] == pytest.approx(expected)

    def test_a_pair_arriving_while_its_only_pending_start_runs_is_first_in_the_queue(self):
        # the first A starts at 1 and runs to 6; the second arrives at 3, so
        # its instance is busy, yet the one start pending there is before the
        # arrival: it drops, the queue empties, and the queue length is 1.
        # The second starts at 6, the third's arrival, which it does not wait behind
        events = mk_events([(0, "open"), (1, "A"), (3, "A"), (6, "A")])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 5.0})
        m = run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost)
        assert list(m.lambda_q) == [0.0, 0.0, 3.0, 5.0]
        assert [queue_len for *_, queue_len in pair_rows(m, 0.0)] == [1, 1, 1, 1]
        [fd] = m.feedback_delays()
        assert (fd.lat_peak, fd.lat_peak_delay_ms, fd.qlen_peak, fd.qlen_peak_delay_ms) == (10.0, 6.0, 1, 0.0)
        assert m.windows[0].actual_lambda_q_peak == 5.0

    def test_determinism(self):
        events1, m1 = self.traffic_metrics(seed=3)
        events2, m2 = self.traffic_metrics(seed=3)
        assert events1 == events2
        assert m1 == m2

    def test_backwards_timestamps_rejected(self):
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        run_sim(mk_events([(0, "open"), (5, "A"), (5, "A")]), policy=TimeWindowPolicy("open", 10.0), cost=cost)
        with pytest.raises(ValueError, match="must never decrease, got 4 < 5 at event 2"):
            run_sim(mk_events([(0, "open"), (5, "A"), (4, "A")]), policy=TimeWindowPolicy("open", 10.0), cost=cost)
        with pytest.raises(ValueError, match="must be >= 0 and must never decrease, got -1 < 0 at event 0"):
            run_sim(mk_events([(-1, "open")]), policy=TimeWindowPolicy("open", 10.0), cost=cost)

    @pytest.mark.parametrize("name", ["transfer_delay_ms", "feedback_delivery_delay_ms"])
    @pytest.mark.parametrize("delay", [-1.0, -1e-300, math.inf, -math.inf, math.nan])
    def test_bad_delays_rejected(self, name, delay):
        # an arrival before its event's timestamp would break queue lengths;
        # validate() and simulate() reject the delay with one message
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        events = mk_events([(0, "open"), (5, "A")])
        run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost, **{name: 0.0})
        message = f"sim.{name} must be {'finite' if delay == math.inf else '>= 0'}, got {delay}"
        with pytest.raises(ConfigurationError, match=message):
            SimConfig(**{name: delay}).validate()
        with pytest.raises(ConfigurationError, match=message):
            run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost, **{name: delay})

    @pytest.mark.parametrize("name", ["mtime_ms", "feedback_interval_ms"])
    @pytest.mark.parametrize("interval", [0.0, -5.0, 0.5, math.nan, math.inf])
    def test_bad_intervals_rejected(self, name, interval):
        # an interval that never passes the next event (0, negative or nan)
        # would fire forever; the child's time limit turns such a hang into a
        # failure. An infinite one is rejected as every infinite sim value
        # but lb_eval_ms is; validate() and simulate() give one message
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        events = mk_events([(0, "open"), (5, "A")])
        key = "mtime" if name == "mtime_ms" else name

        def run_at(value):
            return run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost,
                           kind="model_based", lb_ms=5.0, **{key: value})

        assert len(in_a_child(lambda: run_at(1e308)).decisions) == 1  # accepted: it never fires
        message = f"sim.{name} must be {'finite' if interval == math.inf else '>= 1'}, got {interval}"
        with pytest.raises(ConfigurationError, match=message):
            SimConfig(**{name: interval}).validate()
        with pytest.raises(ConfigurationError, match=message):
            in_a_child(lambda: run_at(interval))


def in_a_child(fn, seconds=5):
    """``fn()`` in a forked child process, which passes back its result or
    the exception it raised. A child still running after ``seconds`` is
    killed and the call fails with ``TimeoutError``: a hang fails the test
    that meets it, and nothing interrupts this process while it waits."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)

    def child():
        try:
            outcome = True, fn()
        except BaseException as exc:
            outcome = False, exc
        sender.send(outcome)

    proc = ctx.Process(target=child)
    proc.start()
    sender.close()
    try:
        if not receiver.poll(seconds):
            raise TimeoutError(f"still running after {seconds} s")
        ok, value = receiver.recv()
    finally:
        proc.kill()
        proc.join()
        proc.close()
        receiver.close()
    if not ok:
        raise value
    return value


@pytest.mark.parametrize("kind", ["reactive", "model_based"])
@pytest.mark.parametrize("cost_ms", [1e9, 1e308])
def test_a_backlog_beyond_the_last_event_ends_the_run_there(kind, cost_ms):
    # the instance stays busy far past the last event (forever at 1e308,
    # whose sum overflows to inf); nothing after that event reaches an
    # output, so no freeze or feedback instant fires past it
    events = mk_events([(0, "open"), (1, "A"), (2, "A")])
    cost = CostModel("flat_per_type", {"open": cost_ms, "A": cost_ms})
    kw = {"th_ms": 1.0} if kind == "reactive" else {"lb_ms": 5.0}
    m = in_a_child(lambda: run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost, kind=kind,
                                   mtime=10.0, **kw))
    assert list(m.lambda_p) == [cost_ms] * 3
    assert list(m.lambda_q) == [0.0, cost_ms - 1, cost_ms + cost_ms - 2]


def test_a_burst_at_one_timestamp_takes_time_linear_in_its_size():
    # 20,000 windows open and close at ts 0, Round-Robin on two instances:
    # each instance's pairs there reach its 10,000 batches as one fold, not
    # each pair every batch (quadratic: about 23 s when each pair did)
    from cepsim.cli import ExperimentConfig
    from cepsim.workload import ScopeProfile, WorkloadConfig

    wl = WorkloadConfig(scenario="traffic", duration_ms=1.0, iat=BurstIat(20_000, 0.00001, 1000.0),
                        scope=ScopeProfile(ws_min_ms=0.001, ws_max_ms=0.002),
                        cost=CostModel("flat_per_type", {"L1": 0.1, "L2": 0.3}))
    cfg = ExperimentConfig(workload=wl, scheduler=SchedulerConfig("round_robin", n_instances=2))

    def burst():
        m = run(cfg)
        top = instance_peaks((idx, lambda_o, 0) for idx, lambda_o in zip(m.instance, m.lambda_o_values()))
        return set(m.tx_ts), top, {(fd.instance, fd.lat_peak, fd.lat_peak_delay_ms, fd.qlen_peak_delay_ms)
                                   for fd in m.feedback_delays()}

    tss, top, batches = in_a_child(burst, seconds=8)
    # every span is ts 0 on its instance, so every batch there has its largest lambda_o
    assert tss == {0}
    assert batches == {(idx, lat, 0.0, 0.0) for idx, (lat, _) in top.items()}


@pytest.fixture
def reports(monkeypatch):
    """``(now, queued_counts, theta_bar_rep, last_lambda_o)`` of every
    feedback report the instances emit, in emission order."""
    out = []
    make_feedback = InstanceState.make_feedback

    def recording(self, now):
        rep = make_feedback(self, now)
        out.append((now, *rep))
        return rep

    monkeypatch.setattr(InstanceState, "make_feedback", recording)
    return out


class TestFeedback:
    """Reports of a controller that reads them: the reactive one, on one
    instance, places windows as Round-Robin does."""

    def queue_scenario(self):
        # two overlapping windows on one instance; X blocks the queue until
        # t=502 (cost 250 in each of 2 windows), three L2 events wait behind
        rows = [(0, "open"), (1, "open"), (2, "X"), (3, "L2"), (4, "L2"), (5, "L2"), (1200, "Z")]
        events = mk_events(rows)
        cost = CostModel("flat_per_type", {"open": 0.0, "X": 250.0, "L2": 1.0, "Z": 0.0})
        return run_sim(events, policy=TimeWindowPolicy("open", 600.0), cost=cost,
                       kind="reactive", th_ms=1.0, mtime=10_000.0, feedback_interval_ms=10.0)

    def test_queued_counts_and_overlap(self, reports):
        self.queue_scenario()
        _, queued_counts, theta_bar_rep, _ = next(r for r in reports if r[0] == 10.0)
        # X started at t=2; the L2 events wait behind it, each in 2 windows
        assert queued_counts == {"L2": 3}
        assert theta_bar_rep == 2.0

    def test_empty_queue_report(self, reports):
        # the first A completes at t=100; the second, at ts 100, comes after the report then
        events = mk_events([(0, "open"), (99, "A"), (100, "A")])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        run_sim(events, policy=TimeWindowPolicy("open", 150.0), cost=cost,
                kind="reactive", th_ms=1.0, mtime=10_000.0, feedback_interval_ms=100.0)
        now, queued_counts, theta_bar_rep, _ = reports[0]
        assert now == 100.0
        assert queued_counts == {}
        assert theta_bar_rep == 1.0

    def test_consecutive_reports_identical_without_processing(self, reports):
        self.queue_scenario()
        reps = [r for r in reports if r[0] in (10.0, 20.0)]
        assert len(reps) == 2
        assert reps[0][1:3] == reps[1][1:3]  # queued_counts and theta_bar_rep

    def test_reported_latency_only_after_completion(self, reports):
        self.queue_scenario()
        last_lambda_o = {now: lo for now, _, _, lo in reports}
        assert last_lambda_o[10.0] == 0.0  # only the opener events completed by t=10
        assert last_lambda_o[500.0] == 0.0  # X still running at t=500
        # by 510 everything drained; the most recent completion is the last L2
        assert last_lambda_o[510.0] == 503.0


class TestMerge:
    """The merge stage: per-instance output comes out in global seq order."""

    def test_latency_rows_are_seq_ordered(self):
        rng = random.Random(1)
        rows = [(0, "open")] + [(rng.randint(1, 500), "A") for _ in range(50)]
        rows.sort(key=lambda r: r[0])
        events = mk_events(rows)
        m = run_sim(events, policy=TimeWindowPolicy("open", 1000.0), cost=CostModel("flat_per_type", {"open": 0.0, "A": 2.0}), n=3)
        seqs = list(per_pair(m, m.tx_seq))
        assert seqs == sorted(seqs)


class TestFeedbackDelay:
    def test_growing_cost_peaks_at_window_close(self):
        rows = [(0, "open")] + [(10 * (i + 1), "A") for i in range(100)]
        events = mk_events(rows)
        cost = CostModel("custom_table", {"open": 0.0, "A": 1.0}, incr_ms=0.5)
        m = run_sim(events, policy=TimeWindowPolicy("open", 1001.0), cost=cost)
        [fd] = m.feedback_delays()
        span = 1000 - 0
        assert fd.lat_peak_delay_ms >= 0.9 * span

    def test_tiny_window_zero_delay(self):
        events = mk_events([(0, "open"), (1, "A"), (100, "B")])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0, "B": 1.0})
        m = run_sim(events, policy=TimeWindowPolicy("open", 2.0), cost=cost)
        [fd] = m.feedback_delays()
        assert fd.lat_peak_delay_ms <= 1.0

    def test_flat_costs_peak_at_max_queue(self):
        # burst in the middle of the stream drives the queue peak
        rows = [(0, "open")]
        rows += [(100 * i, "A") for i in range(1, 6)]
        rows += [(501 + i, "A") for i in range(10)]  # burst
        rows += [(700 + 100 * i, "A") for i in range(5)]
        events = mk_events(sorted(rows, key=lambda r: r[0]))
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 5.0})
        m = run_sim(events, policy=TimeWindowPolicy("open", 10_000.0), cost=cost)
        [fd] = m.feedback_delays()
        # oracle replay of the queue trace
        busy = 0.0
        qlen_peak, qlen_ts = -1, None
        pending = []
        for ts, lambda_p in zip(per_pair(m, m.tx_ts), m.lambda_p):
            start = max(busy, ts)
            pending = [p for p in pending if p > ts]
            pending.append(start)
            busy = start + lambda_p
            if len(pending) > qlen_peak:
                qlen_peak, qlen_ts = len(pending), ts
        assert fd.qlen_peak == qlen_peak
        assert fd.qlen_peak_delay_ms == qlen_ts - 0

    def test_a_batch_that_ends_past_its_end_keeps_its_earlier_peaks(self):
        # Round-Robin deals the windows a, b and c to instances 0, 1 and 0.
        # Batch 2 (c) spans [2, 3]. The pairs at 10 and 20 on instance 0,
        # where a is still open, pass its end while it is the latest batch,
        # so its peaks by 3 are kept aside; no window opens after c, and the
        # run's end restores them
        events = mk_events([(0, "L1", "a"), (1, "L1", "b"), (2, "L1", "c"), (3, "L2", "c"),
                            (4, "L2", "b"), (10, "L2", "z"), (20, "L2", "a")])
        cost = CostModel("equi_join", {"L1": 1.0, "L2": 2.0}, incr_ms=5.0)
        m = run_sim(events, policy=KeyedAperiodicPolicy(), cost=cost, n=2)
        fds = m.feedback_delays()
        assert fds == full_scan(m, 0.0)
        assert (fds[2].instance, fds[2].first_decision_ts) == (0, 2)
        assert (fds[2].lat_peak, fds[2].lat_peak_delay_ms) == (25.0, 1.0)

    def test_every_batch_is_reported(self):
        # a batch's instance processes the event that opened its first
        # window, so no batch goes without a row
        events = mk_events([(0, "open"), (50, "open")])
        cost = CostModel("flat_per_type", {"open": 1.0})
        m = run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost, n=2)
        # a batch is a run of decisions for one instance
        n_batches = 1 + sum(a.instance != b.instance for a, b in zip(m.decisions, m.decisions[1:]))
        assert n_batches == 2
        fds = m.feedback_delays()
        assert [fd.batch_id for fd in fds] == list(range(n_batches))
        for fd in fds:
            assert fd.lat_peak >= 0.0


def full_scan(m, transfer_delay_ms: float) -> list[FeedbackDelay]:
    """``reference_feedback_delays`` of the run ``m``, over its pairs with
    their queue lengths recomputed."""
    return reference_feedback_delays(m.decisions, list(m.window_extents()), pair_rows(m, transfer_delay_ms))


@st.composite
def small_runs(draw):
    """A short stream with runs of equal timestamps and integer costs (so
    peaks tie often), dealt to 1-4 instances by one of the three
    controllers. Either time windows over openers and A/B events, ending in
    an opener whose window stays open, or keyed windows over L1/L2 events
    with keys a-d, which close out of opening order, under an equi_join cost.
    Keyed streams are longer: a batch that sees pairs past its end and only
    then ends, which the short ones seldom hold, shows in most of them."""
    keyed = draw(st.booleans())
    if keyed:
        gaps = draw(st.lists(st.integers(0, 6), min_size=40, max_size=80))
    else:
        gaps = draw(st.lists(st.integers(0, 15), min_size=1, max_size=60))
    rows, t = [], 0
    for gap in gaps:
        t += gap
        if keyed:
            rows.append((t, draw(st.sampled_from(["L1", "L2"])), draw(st.sampled_from("abcd"))))
        else:
            rows.append((t, draw(st.sampled_from(["open", "A", "A", "B"]))))
    if keyed:
        policy = KeyedAperiodicPolicy()
        base = {"L1": draw(st.integers(0, 4)), "L2": draw(st.integers(1, 6))}
        cost = CostModel("equi_join", base, incr_ms=draw(st.sampled_from([0.0, 0.5])))
        transfer_delay_ms = draw(st.sampled_from([0.0, 0.5, 3.0]))
    else:
        rows.append((t, "open"))
        policy = TimeWindowPolicy("open", draw(st.integers(1, 80)))
        cost = CostModel("flat_per_type", {"open": 0.0, "A": draw(st.integers(1, 6)), "B": 2.0})
        transfer_delay_ms = draw(st.sampled_from([0.5, 1.0, 3.0]))
    kind = draw(st.sampled_from(["round_robin", "reactive", "model_based"]))
    kw = {"th_ms": draw(st.integers(1, 20))} if kind == "reactive" else {}
    if kind == "model_based":
        kw["lb_ms"] = draw(st.integers(1, 40))
    return dict(
        events=mk_events(rows),
        policy=policy,
        cost=cost,
        kind=kind,
        n=draw(st.integers(1, 4)),
        mtime=50.0,
        transfer_delay_ms=transfer_delay_ms,
        **kw,
    )


@ORACLE
@given(small_runs())
def test_feedback_delays_match_full_scan(run_kwargs):
    m = run_sim(**run_kwargs)
    if isinstance(run_kwargs["policy"], TimeWindowPolicy):
        assert None in m.close_ts
    pairs = pair_rows(m, run_kwargs["transfer_delay_ms"])
    fds = m.feedback_delays()
    assert fds == reference_feedback_delays(m.decisions, list(m.window_extents()), pairs)
    # every pair lies in a batch's span on its instance, so per instance the
    # largest batch peaks are the largest lambda_o and queue length
    assert instance_peaks((fd.instance, fd.lat_peak, fd.qlen_peak) for fd in fds) == \
        instance_peaks((inst, lambda_o, queue_len) for inst, _, lambda_o, queue_len in pairs)


ROUNDED = (32 + 0.3) - 32  # 0.29999999999999716, as an instance's clock makes it
LAMBDA_OS = [0.0, 0.3, ROUNDED, 0.6, 1.0, 2.5]
# per event: the gap to it, None or, a third as often, a decision (instance,
# close - ts or None, and its pair's lambda_o and queue length), and up to
# three pairs (instance, lambda_o, queue length); instances are taken modulo
# the instance count. Each field is one sampled_from: hypothesis generates
# these about twice as fast as one draw per number
TRACKED_PAIRS = list(product(range(3), LAMBDA_OS, range(1, 4)))
TRACKED_EVENT = st.tuples(
    st.sampled_from([0, 0, 0, 1, 2, 5]),
    st.none() | st.none() | st.sampled_from(
        [(idx, after, lambda_o, step) for idx, lambda_o, step in TRACKED_PAIRS for after in (None, 0, 1, 2, 4, 10)]),
    st.lists(st.sampled_from(TRACKED_PAIRS), max_size=3),
)


@st.composite
def tracked_streams(draw):
    """``(n_instances, rows)`` to drive a :class:`BatchTracker` with, one row
    ``(ts, decision, pairs)`` per event as ``simulate`` meets them: a
    decision ``(instance, close)`` or None, then the event's pairs
    ``(instance, lambda_o, queue_len)`` in ascending instance, the decision's
    among them. Timestamps tie often and some lambda_o round, as in
    ``ROUNDED``; queue lengths may go up or down within a timestamp, as the
    tracker reads only their largest there."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rows, ts = [], 0
    for gap, decision, drawn in draw(st.lists(TRACKED_EVENT, min_size=k, max_size=k)):
        ts += gap
        if decision is not None:
            idx, after, lambda_o, queue_len = decision
            decision = (idx % n, None if after is None else ts + after)
            drawn = [(idx, lambda_o, queue_len)] + drawn
        by_instance = {}  # the first pair drawn on each instance
        for idx, lambda_o, queue_len in drawn:
            by_instance.setdefault(idx % n, (lambda_o, queue_len))
        rows.append((ts, decision, [(idx, *pair) for idx, pair in sorted(by_instance.items())]))
    return n, rows


def tracked(n, rows) -> RunMetrics:
    """The run of ``rows`` of :func:`tracked_streams`, its batch peaks
    measured by a :class:`BatchTracker` driven as ``simulate`` drives one:
    the pairs of an event with no later event at its timestamp go straight to
    the batches collecting on their instance, the others into their
    instance's fold."""
    tss = array("q", [ts for ts, _, _ in rows])
    m = RunMetrics(tx_ts=tss)
    batches = BatchTracker(m, n)
    last = len(rows) - 1
    for i, (ts, decision, pairs) in enumerate(rows):
        if batches.touched and ts != tss[i - 1]:
            batches.flush(tss[i - 1])
        if decision is not None:
            batches.decide(decision[0], ts, decision[1])
            m.decisions.append(Decision(len(m.decisions), decision[0], "round_robin"))
            m.opened.append(i)
        alone = i == last or tss[i + 1] != ts
        for idx, lambda_o, queue_len in pairs:
            # simulate's per-pair update: direct when alone, else the fold
            if alone:
                if ts > batches.earliest_end[idx]:
                    batches.retire(idx, ts)
                for entry in batches.collecting[idx]:
                    if lambda_o > entry[1]:
                        entry[1], entry[2] = lambda_o, ts
                    if queue_len > entry[3]:
                        entry[3], entry[4] = queue_len, ts
            else:
                fold = batches.folds[idx]
                if fold is None:
                    batches.folds[idx] = fold = [idx, lambda_o, queue_len]
                    batches.touched.append(fold)
                else:
                    if lambda_o > fold[1]:
                        fold[1] = lambda_o
                    if queue_len > fold[2]:
                        fold[2] = queue_len
            m.instance.append(idx)
            m.lambda_q.append(lambda_o)
            m.lambda_p.append(0.0)
        m.tx_instances.append(len(pairs))
    batches.finish(tss[-1] if rows else 0)
    return m


@ORACLE
@given(tracked_streams())
# batches open at 32 on instances 1, 0 and 1 again, each after pairs there
# at 32 with a larger lambda_o than its opener's, 0.3 above ROUNDED among them
@example((2, [(32, (1, 32), [(1, 1.0, 1)]), (32, None, [(0, 0.3, 1), (1, 0.5, 2)]),
              (32, (0, 40), [(0, ROUNDED, 2)]), (32, (1, 50), [(1, 0.2, 3)])]))
# the latest batch, ending at 2, sees a pair at 5; then it grows, ends or the run ends
@example((2, [(0, (0, 2), [(0, 1.0, 1)]), (5, None, [(0, 3.0, 2)]), (6, (0, 10), [(0, 0.5, 1)])]))
@example((2, [(0, (0, 2), [(0, 1.0, 1)]), (5, None, [(0, 3.0, 2)]), (6, (1, 10), [(1, 0.5, 1)])]))
@example((2, [(0, (0, 2), [(0, 1.0, 1)]), (5, None, [(0, 3.0, 2)])]))
# an event alone at 3 right after a group tied at 0: the group's fold reaches
# the batch before the direct update at 3 retires it and keeps its peaks aside
@example((1, [(0, (0, 1), [(0, 1.0, 1)]), (0, None, [(0, 2.0, 2)]), (3, None, [(0, 0.5, 3)])]))
# an event alone at 0 right before a group tied at 2, whose first pair on
# instance 0 is in the span of the batch decided there by the group's last event
@example((2, [(0, (0, 1), [(0, 1.0, 1)]), (2, (1, 9), [(1, 0.5, 1), (0, 2.0, 2)]), (2, (0, 9), [(0, 0.3, 1)])]))
# a batch decided at 3 and ending there takes the pair of a later event at 3
@example((1, [(0, None, [(0, 0.5, 1)]), (3, (0, 3), [(0, 1.0, 1)]), (3, None, [(0, 2.0, 2)]), (5, None, [(0, 0.3, 1)])]))
def test_batch_tracker_matches_full_scan(stream):
    n, rows = stream
    m = tracked(n, rows)
    extents = [(rows[i][0], rows[i][1][1]) for i in m.opened]  # a window's open and close
    pairs = [(idx, ts, lambda_o, queue_len) for ts, _, row in rows for idx, lambda_o, queue_len in row]
    assert m.feedback_delays() == reference_feedback_delays(m.decisions, extents, pairs)


# intervals and delays that are whole or half ms, so instants tie often with
# each other, with timestamps and with completions, and add up exactly
INTERVALS = [1, 2, 3, 4, 6, 2.5]
# per event: the gap to it, then up to three pieces of work (instance, cost,
# etype, member-window count); instances are taken modulo the instance count
MONITORED_EVENT = st.tuples(
    st.sampled_from([0, 0, 1, 1, 2, 3, 7]),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]),
                       st.sampled_from("AB"), st.integers(1, 3)), max_size=3),
)


@st.composite
def monitored_runs(draw):
    """``(n_instances, reads_snapshot, reads_reports, sim, rows)``: a
    controller that reads the snapshot, the reports or both, and per event
    ``(ts, [(instance, work)])`` with its work on distinct instances,
    ascending, as ``InstanceState.work`` keeps it. Each instance is a FIFO
    queue: work arrives a fixed delay after its timestamp and starts at its
    arrival or at the previous completion there. Its latencies are a list,
    one per member window."""
    n = draw(st.integers(1, 3))
    reads_snapshot, reads_reports = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    sim = SimConfig(mtime_ms=draw(st.sampled_from(INTERVALS)), feedback_interval_ms=draw(st.sampled_from(INTERVALS)),
                    feedback_delivery_delay_ms=draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 6.0])))
    transfer_ms = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5]))
    busy_until = [0.0] * n
    rows, ts = [], 0
    for gap, drawn in draw(st.lists(MONITORED_EVENT, min_size=1, max_size=30)):
        ts += gap
        by_instance = {}
        for idx, cost, etype, k in drawn:
            by_instance.setdefault(idx % n, (cost, etype, k))
        row = []
        for idx, (cost, etype, k) in sorted(by_instance.items()):
            arrival = ts + transfer_ms
            start = max(arrival, busy_until[idx])
            busy_until[idx] = completion = start + cost
            row.append((idx, (start, completion, arrival, etype, k, completion - arrival, [cost / k] * k)))
        rows.append((ts, row))
    return n, reads_snapshot, reads_reports, sim, rows


class LoggedStats:
    """The monitor's stats as far as its loop calls them: each call logged."""

    def __init__(self, log):
        self.log = log

    def observe_latency(self, etype, latencies):
        self.log.append(("observe", etype, latencies))

    def end_monitoring_window(self):
        self.log.append(("freeze",))


def monitored(n, reads_snapshot, reads_reports, sim, rows):
    """The log of a :class:`Monitor` driven as ``simulate`` drives one, in
    the terms of :func:`oracles.reference_monitor_log`: advanced to each
    event's timestamp, its reports delivered then logged, then handed the
    event's work. The controller has ``params`` only if it reads the
    snapshot, so the monitor may read them only then."""
    log = []
    scheduler = SimpleNamespace(n=n, reads_snapshot=reads_snapshot, reads_reports=reads_reports)
    if reads_snapshot:
        scheduler.params = ModelParams()
    monitor = Monitor(scheduler, sim)
    assert monitor.keeps_work and (monitor.stats is not None) == reads_snapshot
    if reads_snapshot:
        monitor.stats = LoggedStats(log)
    make_feedback = InstanceState.make_feedback

    def logged(inst, now):
        report = make_feedback(inst, now)
        [idx] = [i for i, other in enumerate(monitor.instances) if other is inst]
        log.append(("report", now, idx, report))
        return report

    with mock.patch.object(InstanceState, "make_feedback", logged):
        for ts, row in rows:
            monitor.advance_to(ts)
            log.append(("delivered", ts, list(monitor.delivered)))
            for idx, work in row:
                monitor.instances[idx].work.append(work)
    return log


@ORACLE
@given(monitored_runs())
# a freeze and a feedback instant tie at 2 with a completion; the report is due 1 ms later
@example((1, True, True, SimConfig(mtime_ms=2, feedback_interval_ms=2, feedback_delivery_delay_ms=1.0),
          [(0, [(0, (0.0, 2.0, 0.0, "A", 1, 2.0, [2.0]))]), (2, []), (3, [])]))
def test_monitor_matches_naive_loop(run_):
    n, reads_snapshot, reads_reports, sim, rows = run_
    assert monitored(n, reads_snapshot, reads_reports, sim, rows) == reference_monitor_log(
        rows, n, reads_snapshot, reads_reports, sim.mtime_ms, sim.feedback_interval, sim.feedback_delivery_delay_ms)


def instance_peaks(rows) -> dict[int, tuple[float, int]]:
    """Per instance, the largest lambda_o and queue length of ``(instance, lambda_o, queue_len)`` rows."""
    peaks: dict[int, tuple[float, int]] = {}
    for inst, lat, qlen in rows:
        top_lat, top_qlen = peaks.get(inst, (lat, qlen))
        peaks[inst] = (max(top_lat, lat), max(top_qlen, qlen))
    return peaks


def filtered_lambda_o_values(m, warmup_ms) -> array:
    """lambda_o of the pairs at or after ``warmup_ms``, by a filter over every pair."""
    return array("d", (q + p for t, q, p in zip(per_pair(m, m.tx_ts), m.lambda_q, m.lambda_p) if t >= warmup_ms))


def assert_lambda_o_values_are_the_filters(m, warmup_ms):
    """``lambda_o_values`` has the filter's length and values, forwards and reversed, bit for bit."""
    los, want = m.lambda_o_values(warmup_ms), filtered_lambda_o_values(m, warmup_ms)
    assert len(los) == len(want) and bool(los) == bool(want)
    assert array("d", los).tobytes() == want.tobytes()
    assert array("d", reversed(los)).tobytes() == want[::-1].tobytes()


class TestDerivedPasses:
    """The passes over the pairs after ``simulate`` equal a filter or a scan
    over every pair, whose seq and ts are its event's."""

    @staticmethod
    def gapped_run():
        # windows of 5 ms: the events at 0, 20, 21 and 50 fall in none, the
        # ones at 10 and 15 in the first, 31 and 36 in the second
        rows = [(0, "A"), (10, "open"), (12, "A"), (15, "B"), (20, "A"), (21, "B"), (31, "open"),
                (36, "A"), (50, "B"), (50, "A")]
        cost = CostModel("flat_per_type", {"open": 0.5, "A": 3.0, "B": 1.0})
        return run_sim(mk_events(rows), policy=TimeWindowPolicy("open", 5), cost=cost, n=2)

    @pytest.mark.parametrize(
        "warmup_ms", [0, 0.0, -1.0, 10, 10.5, 12, 15, 20, 20.5, 21, 31, 36, 50, 50.0, 51, math.inf]
    )
    def test_lambda_o_values_cut_the_warmup_like_a_filter(self, warmup_ms):
        m = self.gapped_run()
        unrouted = [t for t, k in zip(m.tx_ts, m.tx_instances) if k == 0]
        assert unrouted == [0, 20, 21, 50, 50]  # before, at and after the warm-ups above
        assert_lambda_o_values_are_the_filters(m, warmup_ms)

    @settings(max_examples=100, deadline=None)
    @given(small_runs(), st.data())
    def test_lambda_o_values_match_the_filter(self, run_kwargs, data):
        m = run_sim(**run_kwargs)
        ts = sorted(set(m.tx_ts))
        warmup_ms = data.draw(st.sampled_from(ts) | st.sampled_from(ts).map(lambda t: t + 0.5)
                              | st.floats(-1.0, ts[-1] + 1.0))
        assert_lambda_o_values_are_the_filters(m, warmup_ms)

    def test_event_seq_and_ts_are_the_events(self):
        m = self.gapped_run()
        seqs, tss = list(per_pair(m, m.tx_seq)), list(per_pair(m, m.tx_ts))
        assert seqs == [1, 2, 3, 6, 7]
        assert tss == [10, 12, 15, 31, 36]
        assert len(seqs) == len(tss) == m.transmissions == sum(m.tx_instances)

    def test_feedback_delays_when_the_last_events_have_no_pair(self):
        m = self.gapped_run()
        assert list(m.tx_instances)[-2:] == [0, 0]
        assert m.feedback_delays() == full_scan(m, 0.0)
        # two windows of 2 ms on two instances, closed before two more events
        # without a pair; each batch's peaks come after its opener's pair at
        # the same timestamp: a queued A behind the first opener, and a B
        # behind the second
        rows = [(3, "open"), (3, "A"), (5, "A"), (5, "open"), (5, "B"), (8, "B"), (9, "B")]
        cost = CostModel("flat_per_type", {"open": 3.0, "A": 2.5, "B": 4.0})
        lone = run_sim(mk_events(rows), policy=TimeWindowPolicy("open", 2), cost=cost, n=2)
        assert list(lone.tx_instances) == [1, 1, 1, 1, 1, 0, 0]
        assert lone.close_ts == [5, 7]
        assert lone.feedback_delays() == full_scan(lone, 0.0) == [
            FeedbackDelay(0, 0, 3, 1, 6.0, 2.0, 2, 2.0), FeedbackDelay(1, 1, 5, 1, 7.0, 0.0, 1, 0.0),
        ]


class TestSchedulingIntegration:
    def overlap_stream(self):
        # opener every 100 ms, scope 1000 ms -> ~10 overlapping windows
        rows = [(100 * i, "open") for i in range(40)]
        rows += [(100 * i + 50, "A") for i in range(40)]
        return mk_events(sorted(rows, key=lambda r: r[0]))

    def test_round_robin_spreads_and_batching_saves_transmissions(self):
        events = self.overlap_stream()
        cost = CostModel("flat_per_type", {"open": 0.1, "A": 0.5})
        policy = lambda: TimeWindowPolicy("open", 1000.0)
        m_rr = run_sim(events, policy=policy(), cost=cost, n=8)
        m_batch = run_sim(events, policy=policy(), cost=cost, n=8,
                          kind="model_based", lb_ms=float("inf"))
        assert m_batch.transmissions < m_rr.transmissions
        assert set(m_batch.instance) == {0}
        assert len(set(m_rr.instance)) == 8
        # every event is transmitted once under full batching
        assert m_batch.transmissions == len(set(per_pair(m_batch, m_batch.tx_seq)))

    def test_dropped_close_counted(self):
        events = mk_events([(0, "L2", "ghost"), (10, "L1", "a"), (20, "L2", "a")])
        assert Splitter(events, KeyedAperiodicPolicy()).dropped_closes == 1


def test_monitor_sized_by_the_controllers_params(monkeypatch):
    # the model-based controller's params size the bins of every snapshot it reads
    frozen = []
    freeze = StreamStats.end_monitoring_window

    def recording(self):
        frozen.append(freeze(self))
        return frozen[-1]

    monkeypatch.setattr(StreamStats, "end_monitoring_window", recording)
    params = ModelParams(n_iat_bins=3, n_lat_bins=2)
    scheduler = make_scheduler(SchedulerConfig("model_based", n_instances=2, lb_ms=5.0), params)
    cost = CostModel("flat_per_type", {"open": 0.1, "A": 0.5})
    m = simulate(Splitter(TestSchedulingIntegration().overlap_stream(), TimeWindowPolicy("open", 1000.0)), cost,
                 scheduler, SimConfig(mtime_ms=500.0))
    fresh = [s for s in frozen if not s.stale]
    assert len(fresh) == 7 and len(m.decisions) == 40  # a freeze every 500 ms up to 3,950
    assert {len(s.iat_bins) for s in fresh} == {3}
    assert {len(bins) for s in fresh for bins in s.lat_bins.values()} == {2}


def test_run_with_experiment_config():
    from cepsim.cli import ExperimentConfig
    from cepsim.workload import ConstantIat, ScopeProfile, WorkloadConfig

    wl = WorkloadConfig(
        scenario="custom",
        duration_ms=3000.0,
        iat=ConstantIat(50.0),
        scope=ScopeProfile(ws_ms=400.0),
        opener=ConstantIat(200.0),
        opener_etype="open",
        type_mix={"A": 1.0},
        cost=CostModel("flat_per_type", {"A": 2.0, "open": 0.0}),
    )
    cfg = ExperimentConfig(
        workload=wl,
        scheduler=SchedulerConfig("round_robin", n_instances=2),
        model=ModelParams(n_iat_bins=2, n_lat_bins=2),
        sim=SimConfig(mtime_ms=1000.0),
        seed=1,
    )
    m1 = run(cfg)
    m2 = run(cfg)
    assert m1 == m2
    assert m1.transmissions


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", [f.name for f in fields(SimConfig)])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1, 0, 0.5, 1e308])
def test_validation_and_run_agree_on_the_sim_section(name, value):
    # a sim section set in code is checked as one loaded from YAML: either
    # validate() rejects it naming the field and simulate() raises the same
    # error, or the run completes. The model-based controller reads both the
    # snapshots and the reports, so every timing value is used
    cfg = build_experiment(load_config(CONFIG_DIR / "face_accuracy.yaml"))
    cfg = replace(cfg, workload=replace(cfg.workload, duration_ms=20_000))
    cfg = replace(cfg, sim=replace(cfg.sim, **{name: value}))
    try:
        cfg.validate()
    except ConfigurationError as exc:
        assert str(exc).startswith(f"sim.{name} ")
        splitter = Splitter(generate_stream(cfg.workload, cfg.seed), make_policy(cfg.workload))
        with pytest.raises(ConfigurationError) as raised:
            simulate(splitter, cfg.workload.cost, make_scheduler(cfg.scheduler, cfg.model), cfg.sim)
        assert str(raised.value) == str(exc)
    else:
        m = run(cfg)
        assert len(m.decisions) == 21  # a query every second from 0 to 20 s
        summary_row(cfg, m)


@pytest.mark.parametrize("section, name, value", [("model", "n_iat_bins", 1.5), ("model", "n_lat_bins", 1.5),
                                                    ("scheduler", "n_instances", 2.5), ("scheduler", "n_instances", 2.0)])
def test_non_integral_counts_set_in_code_are_rejected(section, name, value):
    # YAML rejects them in cli._value; set in code, run ended in a TypeError
    cfg = build_experiment(load_config(CONFIG_DIR / "face_accuracy.yaml"))
    cfg = replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    message = f"{section}.{name} must be an integer, got {value}"
    for call in (cfg.validate, lambda: run(cfg)):
        with pytest.raises(ConfigurationError) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize("profile", ["iat", "opener"])
@pytest.mark.parametrize("burst_size", [2.5, 2.0])
def test_non_integral_burst_sizes_set_in_code_are_rejected(profile, burst_size):
    # YAML rejects them in cli._value; set in code, run ended in a TypeError
    cfg = build_experiment(load_config(CONFIG_DIR / "face_accuracy.yaml"))
    wl = replace(cfg.workload, **{profile: BurstIat(burst_size, 10.0, 1970.0)})
    cfg = replace(cfg, workload=wl)
    message = f"workload.{profile}.burst_size must be an integer, got {burst_size}"
    for call in (cfg.validate, lambda: run(cfg)):
        with pytest.raises(ConfigurationError) as raised:
            call()
        assert str(raised.value) == message


def test_the_experiment_seed_is_the_streams():
    from cepsim.cli import ExperimentConfig
    from cepsim.workload import ConstantIat, ExponentialIat, ScopeProfile, WorkloadConfig

    wl = WorkloadConfig(
        scenario="face",
        duration_ms=3000.0,
        iat=ExponentialIat(50.0),
        scope=ScopeProfile(ws_ms=400.0),
        opener=ConstantIat(200.0),
        opener_etype="open",
        cost=CostModel("flat_per_type", {"face": 2.0, "open": 0.0}),
    )
    cfg = ExperimentConfig(workload=wl, scheduler=SchedulerConfig("round_robin", n_instances=2), seed=3)
    assert run(cfg).tx_ts == array("q", [e.ts for e in generate_stream(wl, 3)])
    assert run(replace(cfg, seed=4)).tx_ts == array("q", [e.ts for e in generate_stream(wl, 4)]) != run(cfg).tx_ts


def test_the_experiment_model_is_the_one_run(tmp_path):
    # the controller reads the experiment's model, whether it came from YAML
    # or was replaced afterwards
    from pathlib import Path

    from cepsim.cli import build_experiment, load_config, write_run_outputs

    raw = load_config(Path(__file__).resolve().parent.parent / "configs" / "traffic_tradeoff.yaml")
    raw["workload"]["duration_ms"] = 60_000
    del raw["sweep"]
    cfg = build_experiment(raw)
    from_yaml = run(cfg)
    coarse = run(replace(cfg, model=ModelParams(n_iat_bins=1, n_lat_bins=1, delta_iat=3.0, delta_lp=3.0)))
    assert len(from_yaml.decisions) == len(coarse.decisions) > 100
    assert coarse.decisions != from_yaml.decisions
    # the YAML model section, given directly, writes the same bytes
    given = run(replace(cfg, model=ModelParams(**raw["model"])))
    write_run_outputs(tmp_path / "yaml", from_yaml)
    write_run_outputs(tmp_path / "given", given)
    for f in sorted((tmp_path / "yaml").iterdir()):
        assert f.read_bytes() == (tmp_path / "given" / f.name).read_bytes(), f.name


class TestColumnStorage:
    """Samples are typed columns, and instances keep only in-flight work."""

    @staticmethod
    def traffic_config(scheduler=None):
        from pathlib import Path

        from cepsim.cli import build_experiment, load_config

        raw = load_config(Path(__file__).resolve().parent.parent / "configs" / "traffic_tradeoff.yaml")
        raw["scheduler"] = scheduler or {"kind": "round_robin", "n_instances": 8}
        del raw["sweep"]
        return build_experiment(raw)

    def test_sample_columns_take_24_bytes_per_sample(self):
        m = run(self.traffic_config())
        # one column per field that latency.csv writes and that differs
        # between an event's pairs, and no other per-pair column: a pair's
        # seq and ts are its event's, its queue length only reaches its
        # batches' peaks; the rest are per event and per window
        pair_columns = ["instance", "lambda_q", "lambda_p"]
        per_event = ["tx_seq", "tx_ts", "tx_members", "tx_instances"]
        per_batch = ["batch_start", "batch_lat_peak", "batch_lat_peak_ts", "batch_qlen_peak", "batch_qlen_peak_ts"]
        arrays = [f.name for f in fields(m) if isinstance(getattr(m, f.name), array)]
        assert arrays == pair_columns + per_event + ["opened", "closed"] + per_batch
        assert len(m.opened) == len(m.closed) == len(m.decisions) < len(m.tx_seq)
        # one entry per batch, a run of decisions for one instance
        n_batches = 1 + sum(a.instance != b.instance for a, b in zip(m.decisions, m.decisions[1:]))
        assert all(len(getattr(m, name)) == n_batches for name in per_batch)
        columns = [getattr(m, name) for name in pair_columns]
        n = m.transmissions
        assert n > 10_000
        assert all(len(c) == n for c in columns)
        assert sum(c.itemsize * len(c) for c in columns) / n == 24

    def test_instance_records_bounded_by_backlog(self, monkeypatch):
        # Round-Robin keeps no work, only the starts still ahead of each
        # instance's last arrival: one fewer than each of its pairs' queue
        # lengths, recomputed from the pairs' arrivals and starts
        class RecordingStarts(deque):
            def __init__(self):
                super().__init__()
                self.lengths = []  # starts held before each append

            def append(self, start):
                assert all(s <= start for s in self)  # starts never go down
                self.lengths.append(len(self))
                super().append(start)

        instances = []

        class RecordingInstance(InstanceState):
            def __init__(self):
                super().__init__(pending=RecordingStarts())
                instances.append(self)

        monkeypatch.setattr(runtime, "InstanceState", RecordingInstance)
        cfg = self.traffic_config()
        m = run(cfg)
        assert len(instances) == 8
        assert all(not inst.work for inst in instances)
        queue_lens = [row[3] for row in pair_rows(m, cfg.sim.transfer_delay_ms)]
        for i, inst in enumerate(instances):
            assert inst.pending.lengths == [n - 1 for j, n in zip(m.instance, queue_lens) if j == i]
            # all but the last pair's own start lie after the last arrival
            assert all(s > inst.last_arrival for s in list(inst.pending)[:-1])
        assert max(m.batch_qlen_peak) * 100 < m.transmissions

    def test_work_records_bounded_by_backlog(self, monkeypatch):
        # a controller that reads the snapshot keeps in-flight work until it
        # completes, and no longer
        longest = []
        advance_to = Monitor.advance_to

        def checking(self, now):
            advance_to(self, now)
            # work is (start, completion, ...): all of it is still queued,
            # in service or in transit
            assert all(r[1] > now for inst in self.instances for r in inst.work)
            longest.append(max(len(inst.work) for inst in self.instances))

        monkeypatch.setattr(Monitor, "advance_to", checking)
        m = run(self.traffic_config({"kind": "model_based", "n_instances": 8, "lb_ms": 8}))
        assert m.transmissions > 5_000
        assert longest and max(longest) * 100 < m.transmissions


def member_owners(m, e):
    """Owner of each window ``e`` belongs to, in wid order. Reads the
    windows only, so it needs distinct timestamps: then the members of a
    window are the events from its opener to the last one at or before its
    close. An opener's index in the stream is its seq."""
    return [
        d.instance for d, opener, close_ts in zip(m.decisions, m.opened, m.close_ts)
        if opener <= e.seq and (close_ts is None or e.ts <= close_ts)
    ]


def samples_by_event(m, events, cost):
    """Event seq -> [(instance, k)] of its processed pairs, in order. Every
    window charges an event the same under ``cost``, so a pair's lambda_p is
    that charge added k times, once per member window on its instance."""
    out = {}
    for seq, inst, lambda_p in zip(per_pair(m, m.tx_seq), m.instance, m.lambda_p):
        charge = in_window_cost(cost, events[seq], {})
        k, total = 0, 0.0
        while total < lambda_p:
            k, total = k + 1, total + charge
        assert total == lambda_p
        out.setdefault(seq, []).append((inst, k))
    return out


@st.composite
def routed_runs(draw):
    """A short stream with distinct timestamps under time-based or keyed
    windows (keyed ones close out of opening order), dealt to 1-5 instances
    by one of the three controllers. Each cost charges an event the same,
    nonzero amount in every window; the keyed one is still priced per
    window."""
    keyed = draw(st.booleans())
    gaps = draw(st.lists(st.integers(1, 15), min_size=3, max_size=40))
    rows, t = [], 0
    for gap in gaps:
        t += gap
        if keyed:
            rows.append((t, draw(st.sampled_from(["L1", "L2"])), draw(st.sampled_from("abc"))))
        else:
            rows.append((t, draw(st.sampled_from(["open", "A", "B"]))))
    events = mk_events(rows)
    if keyed:
        policy = KeyedAperiodicPolicy()
        cost = CostModel("equi_join", {"L1": 0.5, "L2": 1.0}, incr_ms=0.0)
    else:
        policy = TimeWindowPolicy("open", draw(st.sampled_from([5, 20, 60])))
        cost = CostModel("flat_per_type", {"open": 0.1, "A": 2.0, "B": 0.5})
    kind = draw(st.sampled_from(["round_robin", "reactive", "model_based"]))
    kw = {"th_ms": 1.0} if kind == "reactive" else {"lb_ms": 4.0} if kind == "model_based" else {}
    m = run_sim(events, policy=policy, cost=cost, kind=kind, n=draw(st.integers(1, 5)), mtime=50.0, **kw)
    return events, m, cost


class TestRouting:
    """Each event is sent once to every instance owning one of its member
    windows, in ascending instance order, and nowhere else."""

    @ORACLE
    @given(routed_runs())
    def test_one_transmission_per_owning_instance(self, run):
        events, m, cost = run
        by_event = samples_by_event(m, events, cost)
        for e, seq, n_members, n_instances in zip(events, m.tx_seq, m.tx_members, m.tx_instances):
            owners = member_owners(m, e)
            pairs = by_event.get(e.seq, [])
            got = [inst for inst, _ in pairs]
            assert seq == e.seq and n_members == len(owners)
            assert sorted(set(got)) == sorted(got) == sorted(set(owners))
            assert n_instances == len(got)
            for inst, k in pairs:
                assert k == owners.count(inst)

    @ORACLE
    @given(routed_runs())
    def test_instances_in_ascending_order(self, run):
        events, m, cost = run
        for pairs in samples_by_event(m, events, cost).values():
            instances = [inst for inst, _ in pairs]
            assert instances == sorted(instances)

    @ORACLE
    @given(routed_runs())
    def test_instances_without_member_windows_receive_nothing(self, run):
        events, m, cost = run
        by_event = samples_by_event(m, events, cost)
        for e in events:
            owners = set(member_owners(m, e))
            assert {inst for inst, _ in by_event.get(e.seq, [])} <= owners
        # an instance owning no window never receives an event
        assert set(m.instance) <= {d.instance for d in m.decisions}

    def test_batching_saves_transmissions(self):
        # k fully overlapping windows: one transmission per shared event on
        # one instance, k under per-window Round-Robin over k instances
        k = 4
        events = mk_events([(i, "open") for i in range(k)] + [(10 + i, "A") for i in range(5)])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        policy = lambda: TimeWindowPolicy("open", 1000.0)
        spread = run_sim(events, policy=policy(), cost=cost, n=k)
        batched = run_sim(events, policy=policy(), cost=cost, n=k, kind="model_based", lb_ms=float("inf"))
        assert [n for seq, n in zip(spread.tx_seq, spread.tx_instances) if seq >= k] == [k] * 5
        assert [n for seq, n in zip(batched.tx_seq, batched.tx_instances) if seq >= k] == [1] * 5
        assert batched.transmissions < spread.transmissions


    def test_windows_priced_in_wid_order(self):
        # the L2 closes w0 while w1 and w2 stay open, all on one instance; it
        # pays 0.1 per L1 seen: 0.1 * 3 in w0, 0.1 * 2 in w1 and 0.1 in w2,
        # and that sum is 0.6 in wid order but 0.6000000000000001 from w1
        events = mk_events([(1, "L1", "a"), (2, "L1", "b"), (3, "L1", "c"), (4, "L2", "a")])
        cost = CostModel("equi_join", {"L1": 0.0, "L2": 0.0}, incr_ms=0.1)
        m = run_sim(events, policy=KeyedAperiodicPolicy(), cost=cost)
        assert (list(per_pair(m, m.tx_seq))[-1], m.tx_members[-1], m.tx_instances[-1]) == (3, 3, 1)
        assert repr(m.lambda_p[-1]) == "0.6"


class TestUniformCost:
    def test_lambda_p_is_a_repeated_addition(self):
        # ten windows charging 0.1 on one instance: 0.1 added ten times is
        # 0.9999999999999999, while 10 * 0.1 is 1.0
        events = mk_events([(i, "open") for i in range(10)] + [(20, "A")])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 0.1})
        m = run_sim(events, policy=TimeWindowPolicy("open", 1000.0), cost=cost)
        assert (list(per_pair(m, m.tx_seq))[-1], m.tx_members[-1], m.tx_instances[-1]) == (10, 10, 1)
        assert repr(m.lambda_p[-1]) == "0.9999999999999999"
        assert 10 * 0.1 == 1.0


class TestWindowCountPricing:
    """A cost that reads the window's state is priced from one count per
    window; each pair's lambda_p must equal the wid-order sum of
    ``in_window_cost`` over its windows on its instance, each window priced
    against its own per-type counts."""

    @staticmethod
    def priced_by_definition(m, events, cost):
        out = []
        for seq, inst in zip(per_pair(m, m.tx_seq), m.instance):
            e = events[seq]
            total = 0.0
            # in wid order; an opener's index in the stream is its seq
            for d, opener, close_ts in zip(m.decisions, m.opened, m.close_ts):
                if d.instance != inst or not (opener <= seq and (close_ts is None or e.ts <= close_ts)):
                    continue
                counts = {}
                for before in events[opener:seq]:
                    counts[before.etype] = counts.get(before.etype, 0) + 1
                total += in_window_cost(cost, e, counts)
            out.append(total)
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_custom_table_with_payload_hints(self, seed):
        rng = random.Random(seed)
        events, t = [], 0
        for seq in range(150):
            t += rng.randint(1, 9)  # distinct timestamps
            etype = rng.choice(["open", "A", "A", "B"])
            events.append(Event(seq, t, etype, payload_cost_hint=rng.uniform(0.5, 1.5)))
        cost = CostModel("custom_table", {"open": 0.5, "A": 1.0, "B": 2.0}, incr_ms=0.1)
        m = run_sim(events, policy=TimeWindowPolicy("open", 60.0), cost=cost, n=3)
        assert max(m.tx_members) >= 3
        assert list(m.lambda_p) == self.priced_by_definition(m, events, cost)

    @pytest.mark.parametrize("seed", range(4))
    def test_equi_join_probes_in_several_windows(self, seed):
        rng = random.Random(seed)
        times = rng.sample(range(1, 2000), 160)  # distinct timestamps
        rows = []
        for i in range(80):
            a, b = sorted(times[2 * i:2 * i + 2])
            rows += [(a, "L1", f"v{i}"), (b, "L2", f"v{i}")]
        events = mk_events(sorted(rows))
        cost = CostModel("equi_join", {"L1": 1.0, "L2": 2.0}, incr_ms=0.3)
        m = run_sim(events, policy=KeyedAperiodicPolicy(), cost=cost, n=2)
        probes_in = [k for seq, k in zip(m.tx_seq, m.tx_members) if events[seq].etype == "L2"]
        assert max(probes_in) >= 3
        assert list(m.lambda_p) == self.priced_by_definition(m, events, cost)

    @pytest.mark.parametrize("kind", ["equi_join", "custom_table"])
    def test_type_without_base_cost_raises(self, kind):
        events = mk_events([(0, "L1", "a"), (1, "L2", "a")])
        cost = CostModel(kind, {"L1": 1.0}, incr_ms=0.3)
        with pytest.raises(CostModelError, match="'L2'"):
            run_sim(events, policy=KeyedAperiodicPolicy(), cost=cost)


class TestPricingCalls:
    """``simulate`` prices an event only when some instance receives it,
    through ``window_cost_terms``: once per event type, and a hinted event
    on its own."""

    @pytest.fixture
    def priced(self, monkeypatch):
        calls = []
        real = runtime.window_cost_terms

        def counting(model, e):
            calls.append(e)
            return real(model, e)

        monkeypatch.setattr(runtime, "window_cost_terms", counting)
        return calls

    @staticmethod
    def experiment(kind, jitter):
        return build_experiment({
            "seed": 5,
            "workload": {
                "scenario": "custom", "duration_ms": 3000, "cost_jitter_sigma": jitter,
                "iat": {"kind": "exponential", "mu_ms": 10}, "scope": {"ws_ms": 150},
                "opener": {"kind": "constant", "mu_ms": 200}, "opener_etype": "open",
                "type_mix": {"A": 0.5, "B": 0.5},
                "cost": {"kind": kind, "base_ms": {"A": 1.0, "B": 2.0, "open": 0.5}, "incr_ms": 0.1,
                         "build_etype": "A", "probe_etype": "B"},
            },
            "scheduler": {"kind": "round_robin", "n_instances": 3},
        })

    @staticmethod
    def routed(m):
        return [seq for seq, n in zip(m.tx_seq, m.tx_instances) if n]

    @pytest.mark.parametrize("kind", ["flat_per_type", "equi_join", "custom_table"])
    def test_a_hint_free_stream_prices_each_type_once(self, priced, kind):
        m = run(self.experiment(kind, 0.0))
        routed = self.routed(m)
        # events outside every window are not priced
        assert 0 < len(routed) < len(m.tx_seq)
        events = generate_stream(self.experiment(kind, 0.0).workload, 5)
        first = {}
        for seq in routed:
            first.setdefault(events[seq].etype, seq)
        assert sorted(first) == ["A", "B", "open"]
        assert [e.seq for e in priced] == sorted(first.values())

    def test_a_jittered_stream_prices_each_routed_event(self, priced):
        m = run(self.experiment("custom_table", 0.4))
        assert all(e.payload_cost_hint is not None for e in priced)
        assert [e.seq for e in priced] == self.routed(m)

    @pytest.mark.parametrize("kind", ["flat_per_type", "equi_join", "custom_table"])
    def test_a_type_without_base_cost_raises_at_its_first_routed_event(self, priced, kind):
        # X at 5 is outside every window, X at 22 inside the one opened at 20
        events = mk_events([(0, "open"), (2, "A"), (5, "X"), (20, "open"), (22, "X"), (30, "A")])
        cost = CostModel(kind, {"open": 0.0, "A": 1.0, "B": 1.0}, incr_ms=0.5, build_etype="A", probe_etype="X")
        with pytest.raises(CostModelError, match="'X'"):
            run_sim(events, policy=TimeWindowPolicy("open", 3.0), cost=cost)
        assert [e.seq for e in priced] == [0, 1, 4]
        # without the second X, no instance receives an X and the run ends
        m = run_sim(events[:4] + events[5:], policy=TimeWindowPolicy("open", 3.0), cost=cost)
        assert list(m.tx_instances) == [1, 1, 0, 1, 0]


class TestMemberCounts:
    def test_counts_at_close_and_at_end_of_run(self):
        # w0 opens at 0 and closes at 100 on an event at ts 100, a member;
        # w1 opens at 60 and closes at 160 on an event at ts 170, not a member;
        # w2 opens at 180 and is still open when the run ends
        events = mk_events([(0, "open"), (50, "A"), (60, "open"), (100, "B"), (170, "A"), (180, "open"), (190, "B")])
        cost = CostModel("equi_join", {"open": 0.0, "A": 1.0, "B": 2.0}, incr_ms=0.5, build_etype="A", probe_etype="B")
        m = run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost, n=2)
        w0, w1, w2 = m.window_extents()  # (open_ts, close_ts, n_member_events) each
        assert (w0[1], w1[1], w2[1]) == (100, 160, None)
        # w0 holds open, A, open and B; w1 open and B; w2 open and B
        assert (w0[2], w1[2], w2[2]) == (4, 2, 2)
        # the B at ts 100 is priced in w0 against the one A before it, and in w1 against none
        first_b = [(inst, p) for seq, inst, p in zip(per_pair(m, m.tx_seq), m.instance, m.lambda_p) if seq == 3]
        assert sorted(first_b) == [(0, 2.5), (1, 2.0)]


def test_controllers_build_only_the_views_they_read(monkeypatch):
    from cepsim import runtime

    built = []
    real = runtime.InstanceView

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "InstanceView", counting)
    events = TestSchedulingIntegration().overlap_stream()
    cost = CostModel("flat_per_type", {"open": 0.1, "A": 0.5})
    m = run_sim(events, policy=TimeWindowPolicy("open", 1000.0), cost=cost, n=8)
    assert len(m.decisions) == 40 and built == []  # Round-Robin reads no view
    m = run_sim(events, policy=TimeWindowPolicy("open", 1000.0), cost=cost, n=8, kind="reactive", th_ms=1.0)
    assert len(built) == len(m.decisions) == 40  # one view per decision


def test_run_records_are_slotted():
    # one event per arrival, one decision, prediction and window per opened
    # window, one instance view per reactive decision, one feedback delay
    # per batch: none carries a per-instance __dict__, and only the window
    # can be changed
    events = mk_events([(0, "open"), (5, "A"), (10, "open"), (15, "A")])
    cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
    m = run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost, n=2, kind="model_based", lb_ms=0.5)
    d = m.decisions[0]
    assert d.prediction is not None
    records = (events[0], d, d.prediction, InstanceView(), m.feedback_delays()[0])
    for record in (*records, m.windows[0]):
        assert not hasattr(record, "__dict__")
    for record in records:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    with pytest.raises(TypeError):  # the default report's counts are immutable too
        InstanceView().queued_counts["A"] = 1
