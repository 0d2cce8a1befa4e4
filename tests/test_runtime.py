import math
import random
import signal
from array import array
from collections import deque
from contextlib import contextmanager
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepsim import runtime
from cepsim.core import CostModelError, Event, WindowDescriptor
from cepsim.latency_model import ModelParams
from cepsim.runtime import FeedbackDelay, InstanceState, RunMetrics, run, simulate
from cepsim.scheduler import Decision, InstanceView, SchedulerConfig, make_scheduler
from cepsim.splitter import KeyedAperiodicPolicy, Splitter, StreamStats, TimeWindowPolicy
from cepsim.workload import CostModel, generate_stream, in_window_cost


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
    return simulate(Splitter(events, policy), cost, scheduler, mtime_ms=mtime, **kw)


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
        assert len(m.event_seq) == m.transmissions
        assert m.transmissions == sum(m.tx_instances)
        pairs = list(zip(m.event_seq, m.instance))
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
        ts, lambda_q, lambda_p = m.ts, m.lambda_q, m.lambda_p
        for i in range(len(ts) - 1):
            iat = ts[i + 1] - ts[i]
            expected = max(0.0, lambda_q[i] + lambda_p[i] - iat)
            assert lambda_q[i + 1] == pytest.approx(expected)

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
        # an arrival before its event's timestamp would break queue lengths
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        events = mk_events([(0, "open"), (5, "A")])
        run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost, **{name: 0.0})
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {delay}"):
            run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost, **{name: delay})

    @pytest.mark.parametrize("name", ["mtime_ms", "feedback_interval_ms"])
    @pytest.mark.parametrize("interval", [0.0, -5.0, 0.5, math.nan])
    def test_bad_intervals_rejected(self, name, interval):
        # an interval that never passes the next event (0, negative or nan)
        # would fire forever; the alarm turns such a hang into a failure
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        events = mk_events([(0, "open"), (5, "A")])
        key = "mtime" if name == "mtime_ms" else name

        def run_at(value):
            return run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost,
                           kind="model_based", lb_ms=5.0, **{key: value})

        with failing_after(5):
            assert len(run_at(math.inf).decisions) == 1  # accepted: it never fires
            with pytest.raises(ValueError, match=f"{name} must be >= 1, got {interval}"):
                run_at(interval)


@contextmanager
def failing_after(seconds):
    """Fail the block with ``TimeoutError`` once it runs ``seconds`` long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("kind", ["reactive", "model_based"])
@pytest.mark.parametrize("cost_ms", [1e9, 1e308])
def test_a_backlog_beyond_the_last_event_ends_the_run_there(kind, cost_ms):
    # the instance stays busy far past the last event (forever at 1e308,
    # whose sum overflows to inf); nothing after that event reaches an
    # output, so no freeze or feedback instant fires past it
    events = mk_events([(0, "open"), (1, "A"), (2, "A")])
    cost = CostModel("flat_per_type", {"open": cost_ms, "A": cost_ms})
    kw = {"th_ms": 1.0} if kind == "reactive" else {"lb_ms": 5.0}
    with failing_after(5):
        m = run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost, kind=kind, mtime=10.0, **kw)
    assert list(m.lambda_p) == [cost_ms] * 3
    assert list(m.lambda_q) == [0.0, cost_ms - 1, cost_ms + cost_ms - 2]


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
        assert list(m.event_seq) == sorted(m.event_seq)


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
        for ts, lambda_p in zip(m.ts, m.lambda_p):
            start = max(busy, ts)
            pending = [p for p in pending if p > ts]
            pending.append(start)
            busy = start + lambda_p
            if len(pending) > qlen_peak:
                qlen_peak, qlen_ts = len(pending), ts
        assert fd.qlen_peak == qlen_peak
        assert fd.qlen_peak_delay_ms == qlen_ts - 0

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


def reference_feedback_delays(m) -> list[FeedbackDelay]:
    """Per-batch feedback delays by a full scan of the batch instance's
    samples for every batch, O(batches x samples). Batches come from the
    decisions, in order: a decision for another instance than the one
    before it starts a new batch, first decided when its window opened."""
    window_by_wid = {w.wid: w for w in m.windows}
    batches: list[tuple[int, list[int]]] = []  # (instance, wids)
    for d in m.decisions:
        if not batches or batches[-1][0] != d.instance:
            batches.append((d.instance, []))
        batches[-1][1].append(d.wid)
    by_instance: dict[int, list[int]] = {}
    for i, inst in enumerate(m.instance):
        by_instance.setdefault(inst, []).append(i)
    pair_ts = m.ts
    end_of_run = pair_ts[-1] if pair_ts else 0
    out = []
    for batch_id, (instance, wids) in enumerate(batches):
        first_decision_ts = window_by_wid[wids[0]].open_ts
        closes = [window_by_wid[wid].close_ts for wid in wids]
        span_end = max((c for c in closes if c is not None), default=None)
        if span_end is None or any(c is None for c in closes):
            span_end = end_of_run
        lat_peak = -1.0
        lat_ts = first_decision_ts
        qlen_peak = -1
        qlen_ts = first_decision_ts
        for i in by_instance.get(instance, ()):
            ts = pair_ts[i]
            if ts < first_decision_ts or ts > span_end:
                continue
            lambda_o = m.lambda_q[i] + m.lambda_p[i]
            if lambda_o > lat_peak:
                lat_peak = lambda_o
                lat_ts = ts
            if m.queue_len[i] > qlen_peak:
                qlen_peak = m.queue_len[i]
                qlen_ts = ts
        out.append(
            FeedbackDelay(
                batch_id, instance, first_decision_ts, len(wids),
                lat_peak, float(lat_ts - first_decision_ts),
                qlen_peak, float(qlen_ts - first_decision_ts),
            )
        )
    return out


@st.composite
def small_runs(draw):
    """A short stream of openers and A/B events with integer costs (so peaks
    tie often), ending in an opener whose window stays open, and a
    scheduler over 1-4 instances."""
    gaps = draw(st.lists(st.integers(0, 15), min_size=1, max_size=60))
    rows, t = [], 0
    for gap in gaps:
        t += gap
        rows.append((t, draw(st.sampled_from(["open", "A", "A", "B"]))))
    rows.append((t, "open"))
    kind = draw(st.sampled_from(["round_robin", "reactive", "model_based"]))
    kw = {"th_ms": draw(st.integers(1, 20))} if kind == "reactive" else {}
    if kind == "model_based":
        kw["lb_ms"] = draw(st.integers(1, 40))
    return dict(
        events=mk_events(rows),
        policy=TimeWindowPolicy("open", draw(st.integers(1, 80))),
        cost=CostModel("flat_per_type", {"open": 0.0, "A": draw(st.integers(1, 6)), "B": 2.0}),
        kind=kind,
        n=draw(st.integers(1, 4)),
        mtime=50.0,
        transfer_delay_ms=draw(st.sampled_from([0.5, 1.0, 3.0])),
        **kw,
    )


@settings(max_examples=150, deadline=None)
@given(small_runs())
def test_feedback_delays_match_full_scan(run_kwargs):
    m = run_sim(**run_kwargs)
    assert any(w.close_ts is None for w in m.windows)
    assert m.feedback_delays() == reference_feedback_delays(m)


def filtered_lambda_o_values(m, warmup_ms) -> array:
    """lambda_o of the pairs at or after ``warmup_ms``, by a filter over every pair."""
    return array("d", (q + p for t, q, p in zip(m.ts, m.lambda_q, m.lambda_p) if t >= warmup_ms))


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
        assert m.lambda_o_values(warmup_ms).tobytes() == filtered_lambda_o_values(m, warmup_ms).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(small_runs(), st.data())
    def test_lambda_o_values_match_the_filter(self, run_kwargs, data):
        m = run_sim(**run_kwargs)
        ts = sorted(set(m.tx_ts))
        warmup_ms = data.draw(st.sampled_from(ts) | st.sampled_from(ts).map(lambda t: t + 0.5)
                              | st.floats(-1.0, ts[-1] + 1.0))
        assert m.lambda_o_values(warmup_ms).tobytes() == filtered_lambda_o_values(m, warmup_ms).tobytes()

    def test_event_seq_and_ts_are_the_events(self):
        m = self.gapped_run()
        assert list(m.event_seq) == [1, 2, 3, 6, 7]
        assert list(m.ts) == [10, 12, 15, 31, 36]
        assert len(m.event_seq) == len(m.ts) == m.transmissions == sum(m.tx_instances)

    def test_feedback_delays_when_the_last_events_have_no_pair(self):
        m = self.gapped_run()
        assert list(m.tx_instances)[-2:] == [0, 0]
        assert m.feedback_delays() == reference_feedback_delays(m)
        # a window open at the end, and more events without a pair after the
        # last pair: the span ends at the last event that has a pair
        lone = RunMetrics(
            instance=array("q", [0, 0, 1]), lambda_q=array("d", [0.0, 2.0, 0.0]),
            lambda_p=array("d", [1.0, 4.0, 7.0]), queue_len=array("q", [1, 2, 1]),
            tx_seq=array("q", [0, 1, 2, 3, 4]), tx_ts=array("q", [3, 5, 5, 8, 9]),
            tx_members=array("q", [1, 1, 1, 0, 0]), tx_instances=array("q", [1, 1, 1, 0, 0]),
            windows=[WindowDescriptor(0, 0, 3, None, 0), WindowDescriptor(1, 2, 5, None, 1)],
            decisions=[Decision(0, 0, "round_robin"), Decision(1, 1, "round_robin")],
        )
        assert lone.feedback_delays() == reference_feedback_delays(lone) == [
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
        assert m_batch.transmissions == len(set(m_batch.event_seq))

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
                 scheduler, mtime_ms=500.0)
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
        mtime_ms=1000.0,
        seed=1,
    )
    m1 = run(cfg)
    m2 = run(cfg)
    assert m1 == m2
    assert m1.transmissions


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

    def test_sample_columns_take_32_bytes_per_sample(self):
        m = run(self.traffic_config())
        # one column per field that differs between an event's pairs, and no
        # other per-pair column: a pair's seq and ts are its event's
        per_pair = ["instance", "lambda_q", "lambda_p", "queue_len"]
        arrays = [f.name for f in fields(m) if isinstance(getattr(m, f.name), array)]
        assert [a for a in arrays if not a.startswith("tx_")] == per_pair
        columns = [getattr(m, name) for name in per_pair]
        n = m.transmissions
        assert n > 10_000
        assert all(len(c) == n for c in columns)
        assert sum(c.itemsize * len(c) for c in columns) / n == 32

    def test_instance_records_bounded_by_backlog(self, monkeypatch):
        # Round-Robin keeps no work, only the starts still ahead of each
        # instance's last arrival: one fewer than each of its pairs' queue
        # lengths, which are checked against the reference elsewhere
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
        m = run(self.traffic_config())
        assert len(instances) == 8
        assert all(not inst.work for inst in instances)
        for i, inst in enumerate(instances):
            assert inst.pending.lengths == [n - 1 for j, n in zip(m.instance, m.queue_len) if j == i]
            # all but the last pair's own start lie after the last arrival
            assert all(s > inst.last_arrival for s in list(inst.pending)[:-1])
        assert max(m.queue_len) * 100 < m.transmissions

    def test_work_records_bounded_by_backlog(self, monkeypatch):
        # a controller that reads the snapshot keeps in-flight work until it
        # completes, and no longer
        longest = []
        complete = InstanceState.complete

        def checking(self, now, stats):
            complete(self, now, stats)
            # work is (start, completion, ...): all of it is still queued,
            # in service or in transit
            assert all(r[1] > now for r in self.work)
            longest.append(len(self.work))

        monkeypatch.setattr(InstanceState, "complete", checking)
        m = run(self.traffic_config({"kind": "model_based", "n_instances": 8, "lb_ms": 8}))
        assert m.transmissions > 5_000
        assert longest and max(longest) * 100 < m.transmissions


def member_owners(m, e):
    """Owner of each window ``e`` belongs to, in wid order. Reads the
    windows only, so it needs distinct timestamps: then the members of a
    window are the events from its opener to the last one at or before its
    close."""
    return [
        w.assigned_instance for w in m.windows
        if w.start_seq <= e.seq and (w.close_ts is None or e.ts <= w.close_ts)
    ]


def samples_by_event(m, events, cost):
    """Event seq -> [(instance, k)] of its processed pairs, in order. Every
    window charges an event the same under ``cost``, so a pair's lambda_p is
    that charge added k times, once per member window on its instance."""
    out = {}
    for seq, inst, lambda_p in zip(m.event_seq, m.instance, m.lambda_p):
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

    @settings(max_examples=150, deadline=None)
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

    @settings(max_examples=150, deadline=None)
    @given(routed_runs())
    def test_instances_in_ascending_order(self, run):
        events, m, cost = run
        for pairs in samples_by_event(m, events, cost).values():
            instances = [inst for inst, _ in pairs]
            assert instances == sorted(instances)

    @settings(max_examples=150, deadline=None)
    @given(routed_runs())
    def test_instances_without_member_windows_receive_nothing(self, run):
        events, m, cost = run
        by_event = samples_by_event(m, events, cost)
        for e in events:
            owners = set(member_owners(m, e))
            assert {inst for inst, _ in by_event.get(e.seq, [])} <= owners
        # an instance owning no window never receives an event
        assert set(m.instance) <= {w.assigned_instance for w in m.windows}

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
        assert (m.event_seq[-1], m.tx_members[-1], m.tx_instances[-1]) == (3, 3, 1)
        assert repr(m.lambda_p[-1]) == "0.6"


class TestUniformCost:
    def test_lambda_p_is_a_repeated_addition(self):
        # ten windows charging 0.1 on one instance: 0.1 added ten times is
        # 0.9999999999999999, while 10 * 0.1 is 1.0
        events = mk_events([(i, "open") for i in range(10)] + [(20, "A")])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 0.1})
        m = run_sim(events, policy=TimeWindowPolicy("open", 1000.0), cost=cost)
        assert (m.event_seq[-1], m.tx_members[-1], m.tx_instances[-1]) == (10, 10, 1)
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
        for seq, inst in zip(m.event_seq, m.instance):
            e = events[seq]
            total = 0.0
            for w in m.windows:  # in wid order
                if w.assigned_instance != inst or not (
                    w.start_seq <= seq and (w.close_ts is None or e.ts <= w.close_ts)
                ):
                    continue
                counts = {}
                for before in events[w.start_seq:seq]:
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


class TestMemberCounts:
    def test_counts_at_close_and_at_end_of_run(self):
        # w0 opens at 0 and closes at 100 on an event at ts 100, a member;
        # w1 opens at 60 and closes at 160 on an event at ts 170, not a member;
        # w2 opens at 180 and is still open when the run ends
        events = mk_events([(0, "open"), (50, "A"), (60, "open"), (100, "B"), (170, "A"), (180, "open"), (190, "B")])
        cost = CostModel("equi_join", {"open": 0.0, "A": 1.0, "B": 2.0}, incr_ms=0.5, build_etype="A", probe_etype="B")
        m = run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost, n=2)
        w0, w1, w2 = m.windows
        assert (w0.close_ts, w1.close_ts, w2.close_ts) == (100, 160, None)
        # w0 holds open, A, open and B; w1 open and B; w2 open and B
        assert (w0.n_member_events, w1.n_member_events, w2.n_member_events) == (4, 2, 2)
        # the B at ts 100 is priced in w0 against the one A before it, and in w1 against none
        first_b = [(inst, p) for seq, inst, p in zip(m.event_seq, m.instance, m.lambda_p) if seq == 3]
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
