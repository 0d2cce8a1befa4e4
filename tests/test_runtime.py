import random
from array import array
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepsim.core import CostModelError, Event
from cepsim.latency_model import ModelParams
from cepsim.runtime import FeedbackDelay, InstanceState, RowView, run, simulate
from cepsim.scheduler import SchedulerConfig, make_scheduler
from cepsim.splitter import KeyedAperiodicPolicy, TimeWindowPolicy
from cepsim.workload import CostModel, in_window_cost


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
    scheduler = make_scheduler(SchedulerConfig(kind, n_instances=n, model=ModelParams(), **sched_kw))
    return simulate(events, policy, cost, scheduler, ModelParams(), mtime_ms=mtime, **kw)


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
        with pytest.raises(ValueError, match="backwards"):
            run_sim(mk_events([(0, "open"), (5, "A"), (4, "A")]), policy=TimeWindowPolicy("open", 10.0), cost=cost)
        with pytest.raises(ValueError, match="backwards"):
            run_sim(mk_events([(-1, "open")]), policy=TimeWindowPolicy("open", 10.0), cost=cost)


@pytest.fixture
def reports(monkeypatch):
    """Every feedback report the instances emit, in emission order."""
    out = []
    make_feedback = InstanceState.make_feedback

    def recording(self, now):
        rep = make_feedback(self, now)
        out.append(rep)
        return rep

    monkeypatch.setattr(InstanceState, "make_feedback", recording)
    return out


class TestFeedback:
    def queue_scenario(self):
        # two overlapping windows on one instance; X blocks the queue until
        # t=502 (cost 250 in each of 2 windows), three L2 events wait behind
        rows = [(0, "open"), (1, "open"), (2, "X"), (3, "L2"), (4, "L2"), (5, "L2"), (1200, "Z")]
        events = mk_events(rows)
        cost = CostModel("flat_per_type", {"open": 0.0, "X": 250.0, "L2": 1.0, "Z": 0.0})
        return run_sim(events, policy=TimeWindowPolicy("open", 600.0), cost=cost,
                       mtime=10_000.0, feedback_interval_ms=10.0)

    def test_queued_counts_and_overlap(self, reports):
        self.queue_scenario()
        rep = next(r for r in reports if r.emitted_at == 10.0)
        # X started at t=2; the L2 events wait behind it, each in 2 windows
        assert rep.queued_counts == {"L2": 3}
        assert rep.theta_bar_rep == 2.0

    def test_empty_queue_report(self, reports):
        events = mk_events([(0, "open"), (99, "A")])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        run_sim(events, policy=TimeWindowPolicy("open", 150.0), cost=cost,
                mtime=10_000.0, feedback_interval_ms=100.0)
        rep = reports[0]
        assert rep.queued_counts == {}
        assert rep.theta_bar_rep == 1.0

    def test_consecutive_reports_identical_without_processing(self, reports):
        self.queue_scenario()
        reps = [r for r in reports if r.emitted_at in (10.0, 20.0)]
        assert len(reps) == 2
        assert reps[0].queued_counts == reps[1].queued_counts
        assert reps[0].theta_bar_rep == reps[1].theta_bar_rep

    def test_reported_latency_only_after_completion(self, reports):
        self.queue_scenario()
        early = next(r for r in reports if r.emitted_at == 10.0)
        assert early.last_lambda_o == 0.0  # only the opener events completed by t=10
        before = next(r for r in reports if r.emitted_at == 500.0)
        assert before.last_lambda_o == 0.0  # X still running at t=500
        late = next(r for r in reports if r.emitted_at == 510.0)
        # by 510 everything drained; the most recent completion is the last L2
        assert late.last_lambda_o == 503.0


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

    def test_batch_with_no_events_omitted(self):
        events = mk_events([(0, "open"), (50, "open")])
        cost = CostModel("flat_per_type", {"open": 1.0})
        m = run_sim(events, policy=TimeWindowPolicy("open", 10.0), cost=cost, n=2)
        ids = {fd.batch_id for fd in m.feedback_delays()}
        assert ids  # at least the batches that processed their opener
        for fd in m.feedback_delays():
            assert fd.lat_peak >= 0.0


def reference_feedback_delays(m) -> list[FeedbackDelay]:
    """Per-batch feedback delays by a full scan of the batch instance's
    samples for every batch, O(batches x samples)."""
    close_by_wid = {w.wid: w.close_ts for w in m.windows}
    by_instance: dict[int, list[int]] = {}
    for i, inst in enumerate(m.instance):
        by_instance.setdefault(inst, []).append(i)
    end_of_run = m.ts[-1] if m.ts else 0
    out = []
    for b in m.batches:
        closes = [close_by_wid.get(wid) for wid in b.wids]
        span_end = max((c for c in closes if c is not None), default=None)
        if span_end is None or any(c is None for c in closes):
            span_end = end_of_run
        lat_peak = -1.0
        lat_ts = b.first_decision_ts
        qlen_peak = -1
        qlen_ts = b.first_decision_ts
        for i in by_instance.get(b.instance, ()):
            ts = m.ts[i]
            if ts < b.first_decision_ts or ts > span_end:
                continue
            lambda_o = m.lambda_q[i] + m.lambda_p[i]
            if lambda_o > lat_peak:
                lat_peak = lambda_o
                lat_ts = ts
            if m.queue_len[i] > qlen_peak:
                qlen_peak = m.queue_len[i]
                qlen_ts = ts
        if lat_peak < 0:
            continue  # batch saw no events
        out.append(
            FeedbackDelay(
                b.batch_id, b.instance, b.first_decision_ts, len(b.wids),
                lat_peak, float(lat_ts - b.first_decision_ts),
                qlen_peak, float(qlen_ts - b.first_decision_ts),
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
        cost = CostModel("equi_join", {"L1": 1.0, "L2": 1.0})
        m = run_sim(events, policy=KeyedAperiodicPolicy(), cost=cost)
        assert m.dropped_closes == 1


def test_run_with_experiment_config():
    from cepsim.cli import ExperimentConfig
    from cepsim.workload import ConstantIat, ScopeProfile, WorkloadConfig

    wl = WorkloadConfig(
        scenario="custom",
        seed=1,
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
    )
    m1 = run(cfg)
    m2 = run(cfg)
    assert m1 == m2
    assert m1.transmissions


class TestColumnStorage:
    """Samples are typed columns, and instances keep only in-flight work."""

    @staticmethod
    def traffic_config():
        from pathlib import Path

        from cepsim.cli import build_experiment, load_config

        raw = load_config(Path(__file__).resolve().parent.parent / "configs" / "traffic_tradeoff.yaml")
        raw["scheduler"] = {"kind": "round_robin", "n_instances": 8}
        del raw["sweep"]
        return build_experiment(raw)

    def test_sample_columns_take_48_bytes_per_sample(self):
        m = run(self.traffic_config())
        # one column per field the outputs read, and no other per-pair column
        per_pair = ["event_seq", "instance", "ts", "lambda_q", "lambda_p", "queue_len"]
        arrays = [f.name for f in fields(m) if isinstance(getattr(m, f.name), array)]
        assert [a for a in arrays if not a.startswith("tx_")] == per_pair
        columns = [getattr(m, name) for name in per_pair]
        n = m.transmissions
        assert n > 10_000
        assert all(len(c) == n for c in columns)
        assert sum(c.itemsize * len(c) for c in columns) / n == 48

    def test_instance_records_bounded_by_backlog(self, monkeypatch):
        longest = []
        make_feedback = InstanceState.make_feedback

        def checking(self, now):
            rep = make_feedback(self, now)
            # work is (start, completion, ...): all of it is still queued,
            # in service or in transit
            assert all(r[1] > now for r in self.work)
            longest.append(len(self.work))
            return rep

        monkeypatch.setattr(InstanceState, "make_feedback", checking)
        m = run(self.traffic_config())
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


def test_row_view_builds_rows_on_access():
    built = []
    view = RowView(3, lambda i: built.append(i) or i * 10)
    assert len(view) == 3 and built == []
    assert view[2] == 20 and built == [2]
    assert list(view) == [0, 10, 20]
    for i in (3, -1):
        with pytest.raises(IndexError):
            view[i]


def test_run_records_are_slotted():
    # one decision, prediction, batch and window per opened window: none
    # carries a per-instance __dict__
    events = mk_events([(0, "open"), (5, "A"), (10, "open"), (15, "A")])
    cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
    m = run_sim(events, policy=TimeWindowPolicy("open", 100.0), cost=cost, n=2, kind="model_based", lb_ms=0.5)
    d = m.decisions[0]
    assert d.prediction is not None
    for record in (d, d.prediction, m.batches[0], m.windows[0]):
        assert not hasattr(record, "__dict__")
