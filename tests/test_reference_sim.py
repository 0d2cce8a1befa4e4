"""An independent reference simulator for the per-(event, window) path.

``reference_run`` shares no code with ``cepsim.runtime``: it finds every
window's opening and closing event by scanning the stream, takes each
window's instance from ``simulate``'s own decisions (the controllers are
checked elsewhere), derives memberships by brute force, prices every
(event, window) pair itself and runs the Lindley recursion per instance.
Everything it computes must equal what ``simulate`` produced, exactly.

``reference_reports`` derives every feedback report from the reference's
samples: at each feedback instant, from the events processed before it.
``reference_view`` derives from those the report a controller must be shown
at each decision.
"""

from collections import namedtuple
from contextlib import ExitStack, contextmanager
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepsim import runtime
from cepsim.core import Event
from cepsim.latency_model import ModelParams
from cepsim.runtime import InstanceState, simulate
from cepsim.scheduler import (
    ModelBasedScheduler,
    ReactiveScheduler,
    RoundRobinScheduler,
    SchedulerConfig,
    make_scheduler,
)
from cepsim.splitter import KeyedAperiodicPolicy, Splitter, StreamStats, TimeWindowPolicy
from cepsim.workload import CostModel


def reference_windows(events, policy):
    """[(open_seq, close_seq or None, open_ts, close_ts or None)] in opening
    order, found by scanning the stream for each window separately."""
    out = []
    if isinstance(policy, TimeWindowPolicy):
        for e in events:
            if e.etype != policy.opener_etype:
                continue
            end = e.ts + policy.ws_ms
            closer = next((c for c in events if c.seq > e.seq and c.ts >= end), None)
            if closer is None:
                out.append((e.seq, None, e.ts, None))
            else:
                out.append((e.seq, closer.seq, e.ts, int(end)))
        return out
    open_until: dict[str, int] = {}  # key -> seq of the closing event
    for e in events:
        if e.etype != policy.open_etype or e.key is None:
            continue
        if open_until.get(e.key, -1) >= e.seq:
            continue  # the key already holds an open window
        closer = next(
            (c for c in events if c.seq > e.seq and c.etype == policy.close_etype and c.key == e.key), None
        )
        if closer is None:
            open_until[e.key] = len(events)
            out.append((e.seq, None, e.ts, None))
        else:
            open_until[e.key] = closer.seq
            out.append((e.seq, closer.seq, e.ts, closer.ts))
    return out


def price(cost, e, counts):
    base = cost.base_ms[e.etype]
    if cost.kind == "flat_per_type":
        return base
    if cost.kind == "equi_join":
        if e.etype == cost.probe_etype:
            return base + cost.incr_ms * counts.get(cost.build_etype, 0)
        return base
    c = base + cost.incr_ms * sum(counts.values())
    if e.payload_cost_hint is not None:
        c *= e.payload_cost_hint
    return c


Sample = namedtuple(
    "Sample", "seq instance ts etype arrival start completion lambda_q lambda_p n_windows queue_len"
)


def reference_run(events, policy, cost, owner, transfer_delay_ms):
    """Samples, transmission rows and per-window ground truth.

    ``owner`` maps wid to instance."""
    windows = reference_windows(events, policy)
    counts = [{} for _ in windows]
    gamma_minus = [0.0] * len(windows)
    gamma_plus = [0.0] * len(windows)
    peak = [0.0] * len(windows)
    busy: dict[int, float] = {}
    last_arrival: dict[int, float] = {}
    starts: dict[int, list[float]] = {}
    samples = []
    tx_rows = []
    for e in events:
        members = [
            wid for wid, (open_seq, close_seq, _, close_ts) in enumerate(windows)
            if open_seq <= e.seq and (close_seq is None or (e.seq <= close_seq and e.ts <= close_ts))
        ]
        instances = sorted({owner[wid] for wid in members})
        for inst in instances:
            mine = [wid for wid in members if owner[wid] == inst]
            arrival = e.ts + transfer_delay_ms
            lambda_q = max(0.0, busy.get(inst, 0.0) - arrival)
            start = arrival + lambda_q
            lambda_p = 0.0
            for wid in mine:
                lambda_p += price(cost, e, counts[wid])
                counts[wid][e.etype] = counts[wid].get(e.etype, 0) + 1
            completion = start + lambda_p
            busy[inst] = completion
            queue_len = 1 + len([s for s in starts.get(inst, []) if s > arrival])
            starts.setdefault(inst, []).append(start)
            if inst in last_arrival:
                gamma = lambda_p - (arrival - last_arrival[inst])
                for wid in mine:
                    if gamma > 0:
                        gamma_minus[wid] += gamma
                    else:
                        gamma_plus[wid] += gamma
            last_arrival[inst] = arrival
            for wid in mine:
                peak[wid] = max(peak[wid], lambda_q)
            samples.append(Sample(e.seq, inst, e.ts, e.etype, arrival, start, completion,
                                  lambda_q, lambda_p, len(mine), queue_len))
        tx_rows.append((e.seq, e.ts, len(members), len(instances)))
    truth = [
        (open_ts, close_ts, counts[wid], gamma_minus[wid], gamma_plus[wid], peak[wid])
        for wid, (_, _, open_ts, close_ts) in enumerate(windows)
    ]
    return samples, tx_rows, truth


def reference_reports(events, samples, n_instances, interval):
    """``(emitted_at, queued_counts, theta_bar_rep, last_lambda_o)`` of every
    report, in emission order: at each t = k * interval up to the last
    event's timestamp (no later report can reach an output), one per
    instance, ascending. An event counts when it was processed before t
    (ts < t); it is queued at t when it has arrived but not started, and the
    last one completed by t gives the reported latency."""
    out = []
    k = 1
    while k * interval <= events[-1].ts:
        t = k * interval
        for inst in range(n_instances):
            mine = [s for s in samples if s.instance == inst and s.ts < t]
            queued = [s for s in mine if s.arrival <= t < s.start]
            counts = {}
            for s in queued:
                counts[s.etype] = counts.get(s.etype, 0) + 1
            theta = sum(s.n_windows for s in queued) / len(queued) if queued else 1.0
            done = [s for s in mine if s.completion <= t]
            last_lo = done[-1].lambda_q + done[-1].lambda_p if done else None
            out.append((t, counts, theta, last_lo))
        k += 1
    return out


def reference_view(reports, n_instances, delay, ts, inst):
    """``(queued_counts, theta_bar_rep, last_lambda_o)`` a decision at ``ts``
    must see of instance ``inst``: its report last due by then (emitted at
    t with t + delay <= ts), or the empty report before the first is due."""
    due = [r[1:] for k, r in enumerate(reports) if k % n_instances == inst and r[0] + delay <= ts]
    return due[-1] if due else ({}, 1.0, None)


def reference_open_counts(windows, owner, wid, inst):
    """Windows of ``inst`` open when window ``wid`` is scheduled: opened
    before it and not closed by its opening event."""
    open_seq = windows[wid][0]
    return sum(
        1 for v, (_, close_seq, _, _) in enumerate(windows[:wid])
        if owner[v] == inst and (close_seq is None or close_seq > open_seq)
    )


def simulate_recording_reports(w, scheduler=None):
    """``simulate`` the workload ``w`` as :func:`run_workload` does; return
    its metrics and ``(now, *report)`` of every report an instance made, in
    emission order."""
    out = []
    make_feedback = InstanceState.make_feedback

    def recording(self, now):
        rep = make_feedback(self, now)
        out.append((now, *rep))
        return rep

    with mock.patch.object(InstanceState, "make_feedback", recording):
        return run_workload(w, scheduler), out


def float_bits(rows):
    # repr tells -0.0 from 0.0, which == does not
    return [tuple(repr(x) for x in row) for row in rows]


@st.composite
def workloads(draw):
    """A short stream with time-based or keyed windows, one of the three
    cost models, a controller over 1-4 instances and a transfer delay."""
    keyed = draw(st.booleans())
    gaps = draw(st.lists(st.integers(0, 12), min_size=5, max_size=50))
    rows, t = [], 0
    for gap in gaps:
        t += gap
        if keyed:
            # few keys: nested windows, closes out of opening order, closes
            # with no open window and openers of a key that is still open
            rows.append((t, draw(st.sampled_from(["L1", "L1", "L2", "L2", "X"])), draw(st.sampled_from("abcd"))))
        else:
            rows.append((t, draw(st.sampled_from(["open", "A", "A", "B"])), None))
    hints = draw(st.booleans())
    events = [
        Event(seq, ts, etype, key, draw(st.floats(0.2, 3.0)) if hints else None)
        for seq, (ts, etype, key) in enumerate(rows)
    ]
    types = ["L1", "L2", "X"] if keyed else ["open", "A", "B"]
    base = {et: draw(st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 7.0])) for et in types}
    kind = draw(st.sampled_from(["flat_per_type", "equi_join", "custom_table"]))
    build, probe = ("L1", "L2") if keyed else ("A", "B")
    cost = CostModel(kind, base, draw(st.sampled_from([0.0, 0.05, 0.7])), build, probe)
    if keyed:
        policy = KeyedAperiodicPolicy()
    else:
        policy = TimeWindowPolicy("open", draw(st.sampled_from([1, 6, 7.5, 25, 60])))
    sched = draw(st.sampled_from(["round_robin", "reactive", "model_based"]))
    kw = {"th_ms": draw(st.sampled_from([0.5, 2.0, 10.0]))} if sched == "reactive" else {}
    if sched == "model_based":
        kw["lb_ms"] = draw(st.sampled_from([1.0, 5.0, 40.0]))
    config = SchedulerConfig(sched, n_instances=draw(st.integers(1, 4)), **kw)
    return dict(
        events=events,
        policy=policy,
        cost=cost,
        config=config,
        transfer_delay_ms=draw(st.sampled_from([0.0, 0.5, 2.5])),
        # at and beyond the 5.0 feedback interval, several instants are
        # pending at once and deliveries tie with decisions
        feedback_delivery_delay_ms=draw(st.sampled_from([0.0, 3.0, 5.0, 12.0])),
    )


def run_workload(w, scheduler=None):
    """``simulate`` the workload ``w`` under its own controller or ``scheduler``."""
    scheduler = scheduler or make_scheduler(w["config"])
    return simulate(
        Splitter(w["events"], w["policy"]), w["cost"], scheduler,
        mtime_ms=20.0, feedback_interval_ms=5.0, transfer_delay_ms=w["transfer_delay_ms"],
        feedback_delivery_delay_ms=w["feedback_delivery_delay_ms"],
    )


class RecordingViews:
    """Records ``(wid, i, view(i))`` of each view ``schedule`` reads."""

    def __init__(self, cfg, *params):
        super().__init__(cfg, *params)
        self.seen = []

    def schedule(self, window, snapshot, view):
        def recording(i):
            v = view(i)
            self.seen.append((window.wid, i, v))
            return v

        return super().schedule(window, snapshot, recording)


class ReactiveRecordingViews(RecordingViews, ReactiveScheduler):
    pass


class ModelBasedRecordingViews(RecordingViews, ModelBasedScheduler):
    pass


RECORDING_VIEWS = {
    "reactive": ReactiveRecordingViews,
    "model_based": lambda cfg: ModelBasedRecordingViews(cfg, ModelParams()),
}


@settings(max_examples=450, deadline=None)
@given(workloads())
def test_simulate_matches_reference(w):
    cfg = w["config"]
    recorder = RECORDING_VIEWS[cfg.kind](cfg) if cfg.kind in RECORDING_VIEWS else None
    m, reports = simulate_recording_reports(w, recorder)
    owner = {d.wid: d.instance for d in m.decisions}
    samples, tx_rows, truth = reference_run(w["events"], w["policy"], w["cost"], owner, w["transfer_delay_ms"])
    # a pair's type and window count reach the reports below, as queued
    # counts and theta_bar
    columns = zip(m.event_seq, m.instance, m.ts, m.lambda_q, m.lambda_p, m.queue_len)
    assert float_bits(columns) == float_bits(
        (s.seq, s.instance, s.ts, s.lambda_q, s.lambda_p, s.queue_len) for s in samples
    )
    assert list(zip(m.tx_seq, m.tx_ts, m.tx_members, m.tx_instances)) == tx_rows
    assert len(m.windows) == len(truth)
    for win, (open_ts, close_ts, counts, g_minus, g_plus, peak) in zip(m.windows, truth):
        assert (win.open_ts, win.close_ts) == (open_ts, close_ts)
        assert win.n_member_events == sum(counts.values())
        assert float_bits([(win.actual_gamma_minus, win.actual_gamma_plus, win.actual_lambda_q_peak)]) == \
            float_bits([(g_minus, g_plus, peak)])
    # only a controller that reads reports gets them made
    if recorder is None:
        assert not make_scheduler(cfg).reads_reports
        assert reports == []
        return
    expected = reference_reports(w["events"], samples, cfg.n_instances, 5.0)
    assert repr(reports) == repr(expected)
    # each decision reads one view: the open windows of the instance read
    # and its report last due by the decision
    assert [wid for wid, _, _ in recorder.seen] == [d.wid for d in m.decisions]
    windows = reference_windows(w["events"], w["policy"])
    for wid, inst, v in recorder.seen:
        assert v.open_window_count == reference_open_counts(windows, owner, wid, inst)
        due = reference_view(expected, cfg.n_instances, w["feedback_delivery_delay_ms"], windows[wid][2], inst)
        assert repr((v.queued_counts, v.theta_bar_rep, v.last_lambda_o)) == repr(due)


# a controller that reads the snapshot sizes the monitor by its params
class RoundRobinReadingAll(RoundRobinScheduler):
    reads_snapshot = reads_reports = True
    params = ModelParams()


class ReactiveReadingAll(ReactiveScheduler):
    reads_snapshot = reads_reports = True
    params = ModelParams()


@contextmanager
def counting_calls(cls, names):
    """Record the name of each call to the methods ``names`` of ``cls``."""
    calls = []
    with ExitStack() as stack:
        for name in names:
            def counting(*args, _name=name, _method=getattr(cls, name), **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)

            stack.enter_context(mock.patch.object(cls, name, counting))
        yield calls


@contextmanager
def keeping_instances():
    """Collect every ``InstanceState`` that ``simulate`` builds."""
    made = []

    class Kept(InstanceState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch.object(runtime, "InstanceState", Kept):
        yield made


STREAM_STATS_METHODS = [name for name, v in vars(StreamStats).items() if callable(v)]


def run_outputs(m):
    """Everything a run records that the outputs read, floats by their bits."""
    return (
        float_bits(zip(m.event_seq, m.instance, m.ts, m.lambda_q, m.lambda_p, m.queue_len)),
        list(zip(m.tx_seq, m.tx_ts, m.tx_members, m.tx_instances)),
        float_bits(astuple(w) for w in m.windows),
        m.decisions,
    )


@settings(max_examples=150, deadline=None)
@given(workloads().filter(lambda w: w["config"].kind != "model_based"))
def test_skipping_unread_inputs_changes_nothing(w):
    # the same controller declaring both inputs read makes the monitor
    # freeze and the instances report; its decisions must not change
    cfg = w["config"]
    reading_all = {"round_robin": RoundRobinReadingAll, "reactive": ReactiveReadingAll}[cfg.kind](cfg)
    with counting_calls(StreamStats, STREAM_STATS_METHODS) as monitored, \
            counting_calls(InstanceState, ["make_feedback", "complete"]) as instance_calls, \
            keeping_instances() as instances:
        plain = run_outputs(run_workload(w))
    assert monitored == []
    assert len(instances) == cfg.n_instances
    if cfg.kind == "round_robin":
        # no report, and no work kept to make one from: nothing is retired,
        # so a record ever kept would still be there
        assert instance_calls == []
        assert not any(inst.work for inst in instances)
    with counting_calls(StreamStats, STREAM_STATS_METHODS) as monitored:
        assert run_outputs(run_workload(w, reading_all)) == plain
    assert monitored  # the counting itself works


def test_report_counts_event_queued_behind_a_later_arrival():
    # work is (start, completion, arrival, etype, n_windows, lambda_o,
    # latencies, run): A runs from 0 to 10, X arrived at 2 and waits for it,
    # and Y, sent before t=5, arrives at 12
    inst = InstanceState()
    inst.work += [(0.0, 10.0, 0.0, "A", 1, 10.0, 10.0, 1), (10.0, 11.0, 2.0, "X", 1, 9.0, 1.0, 1),
                  (12.0, 13.0, 12.0, "Y", 1, 1.0, 1.0, 1)]
    inst.complete(5.0, StreamStats(1, 1))
    assert inst.make_feedback(5.0)[0] == {"X": 1}


def test_reports_match_reference_under_a_transfer_delay():
    # delay 7.5: A is in service from 7.5 to 11.5 and X, arrived at 8.5,
    # waits for it; Y (ts 4) arrives at 11.5, before the report at t=10 is
    # made, and the second Y, at ts 10, comes after that report
    w = dict(
        events=[Event(0, 0, "open"), Event(1, 0, "A"), Event(2, 1, "X"), Event(3, 4, "Y"), Event(4, 10, "Y")],
        policy=TimeWindowPolicy("open", 100),
        cost=CostModel("flat_per_type", {"open": 0.0, "A": 4.0, "X": 1.0, "Y": 1.0}),
        # reactive on one instance: windows placed as Round-Robin places them
        config=SchedulerConfig("reactive", n_instances=1, th_ms=1.0),
        transfer_delay_ms=7.5,
        feedback_delivery_delay_ms=0.0,
    )
    m, reports = simulate_recording_reports(w)
    owner = {d.wid: d.instance for d in m.decisions}
    samples, _, _ = reference_run(w["events"], w["policy"], w["cost"], owner, w["transfer_delay_ms"])
    expected = reference_reports(w["events"], samples, 1, 5.0)
    assert expected[1] == (10.0, {"X": 1}, 1.0, 0.0)
    assert repr(reports) == repr(expected)


# a, b and c open on the one instance; b's close is a member and a and c
# are still open there, so the closing event is in all three. Under
# equi_join it is a probe whose per-window costs 0.5 + 0.1 * (3, 2, 1) sum
# to 2.1 in wid order and to 2.0999999999999996 in the order a, c, b
CLOSING_AMONG_OPEN = [
    Event(0, 0, "L1", "a"), Event(1, 1, "L1", "b"), Event(2, 2, "L1", "c"),
    Event(3, 5, "L2", "b"), Event(4, 6, "L2", "a"), Event(5, 20, "L2", "c"),
]


@pytest.mark.parametrize("kind", ["flat_per_type", "equi_join"])
def test_closing_member_among_open_windows_matches_reference(kind):
    w = dict(
        events=CLOSING_AMONG_OPEN,
        policy=KeyedAperiodicPolicy(),
        cost=CostModel(kind, {"L1": 0.5, "L2": 0.5}, 0.1),
        config=SchedulerConfig("round_robin", n_instances=1),
        transfer_delay_ms=0.0,
        feedback_delivery_delay_ms=0.0,
    )
    m = run_workload(w)
    owner = {d.wid: d.instance for d in m.decisions}
    samples, _, truth = reference_run(w["events"], w["policy"], w["cost"], owner, 0.0)
    assert m.tx_members[3] == 3
    assert float_bits(zip(m.lambda_q, m.lambda_p)) == float_bits((s.lambda_q, s.lambda_p) for s in samples)
    assert float_bits((v.actual_gamma_minus, v.actual_gamma_plus, v.actual_lambda_q_peak) for v in m.windows) == \
        float_bits(t[3:] for t in truth)
