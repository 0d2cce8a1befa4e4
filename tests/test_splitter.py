import math
import re
from array import array
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepsim import runtime
from cepsim.core import Event
from cepsim.latency_model import ModelParams
from cepsim.runtime import SimConfig, simulate
from cepsim.scheduler import SchedulerConfig, make_scheduler
from cepsim.splitter import (
    EMPTY_SNAPSHOT,
    BinStat,
    KeyedAperiodicPolicy,
    PopulationStat,
    Splitter,
    StreamStats,
    TimeWindowPolicy,
    _bin_values,
    route_event,
)
from cepsim.workload import CostModel
from conftest import feed_window, snapshot_from
from oracles import Bin, PerEventSplitter, per_event_windows, reference_bin_values


def ev(seq, ts, etype="A", key=None):
    return Event(seq=seq, ts=ts, etype=etype, key=key)


class TestBinning:
    def test_single_bin(self):
        snap = snapshot_from(iats=[10, 10, 10], lats={}, n_iat_bins=1)
        assert len(snap.iat_bins) == 1
        b = snap.iat_bins[0]
        assert b.weight == 1.0
        assert b.mean == 10.0
        assert b.count == 3

    def test_two_equal_bins(self):
        gaps = [10] * 5 + [90] * 5
        snap = snapshot_from(iats=gaps, lats={}, n_iat_bins=2)
        w = [b.weight for b in snap.iat_bins]
        m = [b.mean for b in snap.iat_bins]
        assert w == [0.5, 0.5]
        assert m == [10.0, 90.0]
        assert snap.iat_pop.mean == 50.0

    def test_weights_sum_to_one(self):
        gaps = [3, 14, 15, 92, 65, 35, 89, 79, 32, 38, 46]
        snap = snapshot_from(iats=gaps, lats={}, n_iat_bins=4)
        assert sum(b.weight for b in snap.iat_bins) == pytest.approx(1.0, abs=1e-9)
        assert sum(b.count for b in snap.iat_bins) == len(gaps)

    def test_boundaries_come_from_previous_window_and_clamp(self):
        stats = StreamStats(2, 1)
        feed_window(stats, iats=[10, 10, 90, 90])  # range [10, 90] -> bins [10,50),[50,90]
        # 60 lies in the high bin of [10, 90], but would lie in the low bin
        # of this window's own range [5, 200]
        snap = feed_window(stats, iats=[5, 20, 60, 200], start_ts=1000)
        lo_bin, hi_bin = snap.iat_bins
        assert lo_bin.count == 2  # 5 clamps into the low bin
        assert hi_bin.count == 2  # 200 clamps into the high bin
        assert lo_bin.mean == 12.5
        assert hi_bin.mean == 130.0

    def test_type_ratio_sums_to_one(self):
        stats = StreamStats(1, 1)
        snap = feed_window(stats, iats=[1] * 9, etypes=["A", "B", "A", "B", "A"])
        assert sum(snap.type_ratio.values()) == pytest.approx(1.0, abs=1e-9)


def reference_bins(values, n_bins, vrange):
    """Bins filled one value at a time with Bin.add."""
    lo, hi = vrange if vrange is not None else (min(values), max(values))
    width = (hi - lo) / n_bins
    bins = [Bin() for _ in range(n_bins)]
    for v in values:
        idx = min(max(int((v - lo) / width), 0), n_bins - 1) if width > 0 else 0
        bins[idx].add(v)
    return tuple(BinStat(b.count, b.mean, b.count / len(values)) for b in bins)


def float_bits(stats):
    # repr tells -0.0 from 0.0, which == does not
    return [tuple(repr(x) for x in astuple(b)) for b in stats]


@st.composite
def binning_inputs(draw):
    """Values (often repeated, so ranges of zero width occur), a bin count
    (often one) and a range from the previous window that may be narrower
    than the values, so they clamp, or of zero width."""
    pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    values = draw(st.lists(st.sampled_from(pool) | st.floats(-1e3, 1e3), min_size=1, max_size=40))
    n_bins = draw(st.sampled_from([1, 1, 2, 3, 5]))
    shape = draw(st.sampled_from(["own", "other", "zero"]))
    if shape == "own":
        vrange = None
    elif shape == "zero":
        vrange = (draw(st.sampled_from(values)),) * 2
    else:
        # multiples of 1/8: under a subnormal width (v - lo) / width
        # overflows, and both binnings raise
        lo, hi = sorted(draw(st.lists(st.integers(-4000, 4000), min_size=2, max_size=2)))
        vrange = (lo / 8, hi / 8)
    return values, n_bins, vrange


class TestBinValues:
    @settings(max_examples=300, deadline=None)
    @given(binning_inputs())
    def test_inline_welford_equals_bin_add(self, args):
        values, n_bins, vrange = args
        stats, pop = _bin_values(values, n_bins, vrange)
        assert float_bits(stats) == float_bits(reference_bins(values, n_bins, vrange))
        assert pop.count == sum(b.count for b in stats) == len(values)

    @pytest.mark.parametrize("value, counts", [(108.0, [0, 1]), (-108.0, [1, 0])])
    def test_far_value_under_subnormal_range_clamps(self, value, counts):
        # (value - lo) / width overflows to +-inf; it clamps like any far value
        stats, _ = _bin_values([value], 2, (0.0, 1.19e-306))
        assert [b.count for b in stats] == counts


def expanded(values, counts):
    return [v for v, c in zip(values, counts) for _ in range(c)]


def assert_runs_bin_like_reference(values, counts, n_bins, vrange):
    flat = expanded(values, counts)
    stats, pop = _bin_values(flat, n_bins, vrange)
    want_stats, want_pop = reference_bin_values(flat, n_bins, vrange)
    assert float_bits(stats) == float_bits(want_stats)
    assert float_bits([pop]) == float_bits([want_pop])


class TestBinRuns:
    """Runs of equal values, among others or alone, bin as the reference
    does with no shortcut: values that are all equal are binned once."""

    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
    @given(binning_inputs(), st.data())
    def test_runs_equal_expanded_values(self, args, data):
        values, n_bins, vrange = args
        # a dict merges 0.0 and -0.0: mixes of zeros alone or among the values
        zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=5))
        values = data.draw(st.sampled_from([values + zeros, zeros or values]))
        counts = data.draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
        assert_runs_bin_like_reference(values, counts, n_bins, vrange)

    @pytest.mark.parametrize(
        "values, counts, n_bins, vrange",
        [
            ([1.0, 2.0, 1.0, 1.5], [3, 1, 2, 4], 1, None),  # one bin, repeated and distinct values
            ([0.1, 0.7, 0.1, 0.3], [5, 2, 1, 7], 2, None),  # the same within each of two bins
            ([0.0, -0.0], [2, 3], 2, None),
            ([-0.0], [4], 1, None),
            ([-0.0, 0.0, -0.0], [1, 1, 2], 3, (0.0, 0.0)),  # zero-width range
            ([-5.0, 0.5, 9.0, 0.5], [2, 1, 3, 2], 2, (0.0, 1.0)),  # clamped into the edge bins
            ([108.0, -108.0, 108.0], [2, 3, 1], 2, (0.0, 1.19e-306)),  # subnormal width
            ([0.1, 0.2, 1e16, 1.0, -1e16], [10, 3, 1, 1, 1], 2, None),  # cancellation
            ([math.inf, 1.0], [2, 3], 2, None),  # not finite: fsum of the values
            ([math.inf], [3], 2, None),  # all equal, not finite
            ([7.0], [50], 5, (3.0, 12.0)),  # inter-arrival gaps: whole ms, all equal, an inner bin
            ([0.1], [3], 2, None),  # all equal, but their mean is not 0.1: a nonzero sigma
        ],
    )
    def test_runs_equal_expanded_examples(self, values, counts, n_bins, vrange):
        assert_runs_bin_like_reference(values, counts, n_bins, vrange)

    @pytest.mark.parametrize(
        "values, counts, vrange, occupied",
        [
            ([0.3, 0.3], [600_000, 400_001], (0.0, 1.0), 1),  # an inner bin
            ([0.3], [1_000_001], (0.5, 1.0), 0),  # clamped into the edge bin
            ([0.0, -0.0, 0.0], [400_000, 400_000, 200_001], (-1.0, 1.0), 2),  # inner
            ([-0.0, 0.0], [700_000, 300_001], (0.0, 2.0), 0),  # the edge bin
        ],
    )
    def test_one_value_runs_at_scale(self, values, counts, vrange, occupied):
        # over 10**6 equal values are binned once: the moments are fsum's of
        # the values and the bins those of one Welford step per value, bit for bit
        flat = expanded(values, counts)
        n = len(flat)
        stats, pop = _bin_values(flat, 4, vrange)
        mean = math.fsum(flat) / n
        sigma = math.sqrt(math.fsum([(v - mean) ** 2 for v in flat]) / n)
        assert float_bits([pop]) == float_bits([PopulationStat(n, mean, sigma, min(flat), max(flat))])
        assert float_bits(stats) == float_bits(reference_bins(flat, 4, vrange))
        assert [b.count for b in stats] == [n if i == occupied else 0 for i in range(4)]

    def test_runs_observed_like_single_latencies(self):
        singles = StreamStats(1, 3)
        runs = StreamStats(1, 3)
        for s in (singles, runs):
            s.observe_event(ev(0, 0), None)
        for v, k in [(0.02, 61), (0.005, 3), (0.02, 1), (0.3, 2)]:
            runs.observe_latency("A", [v] * k)
            for _ in range(k):
                singles.observe_latency("A", [v])
        runs.observe_latency("A", [0.1, 0.02])
        singles.observe_latency("A", [0.1])
        singles.observe_latency("A", [0.02])
        assert runs.end_monitoring_window() == singles.end_monitoring_window()

    def test_an_empty_list_observes_nothing(self):
        stats = StreamStats(1, 1)
        stats.observe_latency("A", [])
        assert stats.end_monitoring_window() is EMPTY_SNAPSHOT
        first = feed_window(stats, iats=[10], lats={"A": [1.0]})
        stats.observe_latency("B", [])
        again = feed_window(stats, iats=[20], lats={"A": [2.0]}, start_ts=100)
        assert "B" not in again.lat_bins and "B" not in again.lat_pop
        assert again.lat_pop["A"].mean == 2.0 and first.lat_pop["A"].mean == 1.0


class TestFreeze:
    def test_empty_window_returns_stale_previous(self):
        stats = StreamStats(2, 2)
        first = feed_window(stats, iats=[10, 20, 30], lats={"A": [1.0, 2.0]})
        assert not first.stale
        again = stats.end_monitoring_window()
        assert again.stale
        assert again.iat_bins == first.iat_bins
        assert again.type_ratio == first.type_ratio

    def test_identical_windows_identical_snapshots(self):
        s1 = StreamStats(3, 2)
        s2 = StreamStats(3, 2)
        kw = dict(iats=[10, 25, 40, 5], lats={"A": [1.0, 3.0], "B": [9.0]}, ws_samples=[500.0], open_gaps=[0.0, 100.0])
        a = feed_window(s1, **kw)
        b = feed_window(s2, **kw)
        assert a == b

    def test_ws_and_delta_estimates(self):
        stats = StreamStats(1, 1)
        snap = feed_window(stats, iats=[10], ws_samples=[100.0, 300.0], open_gaps=[0.0, 40.0, 60.0])
        assert snap.ws_est == 200.0
        assert snap.delta_est == 50.0

    def test_estimates_inherited_when_no_new_samples(self):
        stats = StreamStats(1, 1)
        feed_window(stats, iats=[10], ws_samples=[100.0], open_gaps=[0.0, 40.0])
        snap = feed_window(stats, iats=[10], start_ts=1000)
        assert snap.ws_est == 100.0
        assert snap.delta_est == 40.0


class TestTCount:
    def grouped_stats(self):
        # window 1 establishes the type ranking: A is expensive, B is cheap
        stats = StreamStats(1, 1)
        snap = feed_window(stats, iats=[1, 1], lats={"A": [10.0, 10.0], "B": [1.0]})
        assert snap.t_minus_types == {"A"}
        assert snap.t_plus_types == {"B"}
        return stats

    def test_alternating_three_each(self):
        stats = self.grouped_stats()
        snap = feed_window(stats, iats=[1] * 5, etypes=["A", "B"], start_ts=100)
        assert (snap.c_minus, snap.c_plus) == (3, 3)
        assert snap.c_trans == 5

    def test_blocked_groups_single_transition(self):
        stats = self.grouped_stats()
        snap = feed_window(stats, iats=[1] * 5, etypes=["A", "A", "A", "B", "B", "B"], start_ts=100)
        assert snap.c_trans == 1

    def test_single_group_no_transitions(self):
        stats = self.grouped_stats()
        snap = feed_window(stats, iats=[1] * 3, etypes=["A"], start_ts=100)
        assert (snap.c_minus, snap.c_plus, snap.c_trans) == (4, 0, 0)

    def test_invariant_bound(self):
        stats = self.grouped_stats()
        snap = feed_window(stats, iats=[1] * 11, etypes=["A", "B", "B", "A"], start_ts=100)
        assert snap.c_trans <= 2 * min(snap.c_plus, snap.c_minus) + 1
        assert snap.c_trans >= 1

    def test_odd_type_count_median_goes_high(self):
        stats = StreamStats(1, 1)
        snap = feed_window(stats, iats=[1, 1], lats={"A": [10.0], "B": [5.0], "C": [1.0]})
        assert snap.t_minus_types == {"A", "B"}
        assert snap.t_plus_types == {"C"}


def one_pass(events, policy):
    """What :class:`Splitter` finds in ``events``, split event by event, in
    the terms of :func:`oracles.per_event_windows`."""
    sp = Splitter(events, policy)
    n = len(events)
    opened, closed, closes, members = [], [n] * len(sp.opened), [], []
    for i in range(n):
        res = sp.process(i)
        if res.opened:
            opened.append(i)
        for wid in res.closed:
            closed[wid] = i
        closes.append(list(res.closed))
        members.append(list(res.memberships))
    assert (opened, closed) == (list(sp.opened), list(sp.closed))
    assert [c is None for c in sp.close_ts] == [c == n for c in closed]  # a close only if reached
    close_ts = [0 if c is None else c for c in sp.close_ts]
    return dict(opened=opened, closed=closed, close_ts=close_ts, closes=closes,
                dropped_closes=sp.dropped_closes, members=members)


class RecordingStats(StreamStats):
    """Records each window and event observation, in order."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []
        RecordingStats.made.append(self)

    def observe_window_closed(self, scope):
        self.calls.append(("closed", repr(scope)))
        super().observe_window_closed(scope)

    def observe_window_opened(self, open_ts):
        self.calls.append(("opened", repr(open_ts)))
        super().observe_window_opened(open_ts)

    def observe_event(self, e, prev_ts):
        self.calls.append(("event", e.seq, prev_ts))
        super().observe_event(e, prev_ts)


def simulated(events, policy, n=1):
    """``simulate`` on ``events`` under a controller that reads the snapshot,
    with a monitor that never freezes; returns the metrics and the monitor."""
    RecordingStats.made.clear()
    cost = CostModel("flat_per_type", dict.fromkeys(sorted({e.etype for e in events}), 0.5))
    params = ModelParams(n_iat_bins=1, n_lat_bins=1)
    scheduler = make_scheduler(SchedulerConfig("model_based", n_instances=n, lb_ms=5.0), params)
    with mock.patch.object(runtime, "StreamStats", RecordingStats):
        m = simulate(Splitter(events, policy), cost, scheduler, SimConfig(mtime_ms=1e12))
    (stats,) = RecordingStats.made
    return m, stats


class TestDetectWindows:
    """The one-pass detection: ``Splitter(events, policy)``."""

    def test_traffic_minimal_window(self):
        events = [ev(0, 100, "L1", key="a"), ev(1, 400, "L2", key="a")]
        assert one_pass(events, KeyedAperiodicPolicy()) == dict(
            opened=[0], closed=[1], close_ts=[400], closes=[[], [0]], dropped_closes=0,
            members=[[0], [0]],  # the closing event is a member
        )
        m, stats = simulated(events, KeyedAperiodicPolicy())
        assert list(m.window_extents()) == [(100, 400, 2)]  # (open_ts, close_ts, n_member_events)
        assert ("closed", "300.0") in stats.calls  # its scope
        assert list(m.tx_members) == [1, 1]

    def test_time_window_closes_at_scope(self):
        events = [ev(0, 0, "query"), ev(1, 9_999, "face"), ev(2, 12_000, "face")]
        assert one_pass(events, TimeWindowPolicy("query", 10_000.0)) == dict(
            opened=[0], closed=[2], close_ts=[10_000], closes=[[], [], [0]], dropped_closes=0,
            members=[[0], [0], []],  # arrived after the scope ended
        )
        m, _ = simulated(events, TimeWindowPolicy("query", 10_000.0))
        assert list(m.window_extents()) == [(0, 10_000, 2)]
        assert list(m.tx_members) == [1, 1, 0]

    def test_time_window_boundary_event_is_member(self):
        events = [ev(0, 0, "query"), ev(1, 10_000, "face")]
        table = one_pass(events, TimeWindowPolicy("query", 10_000.0))
        assert (table["closed"], table["close_ts"], table["members"]) == ([1], [10_000], [[0], [0]])
        m, _ = simulated(events, TimeWindowPolicy("query", 10_000.0))
        assert list(m.window_extents()) == [(0, 10_000, 2)] and list(m.tx_members) == [1, 1]

    def test_nested_vehicle_windows(self):
        events = [
            ev(0, 0, "L1", key="a"),  # slow vehicle
            ev(1, 100, "L1", key="b"),  # fast vehicle
            ev(2, 150, "L1", key="c"),
            ev(3, 200, "L2", key="b"),
            ev(4, 500, "L2", key="a"),
        ]
        table = one_pass(events, KeyedAperiodicPolicy())
        assert table["members"] == [[0], [0, 1], [0, 1, 2], [0, 1, 2], [0, 2]]
        assert table["closed"] == [4, 3, 5] and table["closes"] == [[], [], [], [1], [0]]

    def test_unmatched_close_is_dropped_but_membership_kept(self):
        events = [ev(0, 0, "L1", key="a"), ev(1, 50, "L2", key="zzz")]
        assert one_pass(events, KeyedAperiodicPolicy()) == dict(
            opened=[0], closed=[2], close_ts=[0], closes=[[], []], dropped_closes=1, members=[[0], [0]],
        )
        m, _ = simulated(events, KeyedAperiodicPolicy())
        assert list(m.window_extents()) == [(0, None, 2)] and list(m.tx_members) == [1, 1]

    def test_keyed_close_merged_in_wid_order(self):
        # b closes before a and c, both opened around it: the closing event
        # is in all three
        events = [ev(0, 0, "L1", key="a"), ev(1, 10, "L1", key="b"), ev(2, 20, "L1", key="c"),
                  ev(3, 30, "L2", key="b"), ev(4, 40, "L2", key="c")]
        table = one_pass(events, KeyedAperiodicPolicy())
        assert table["members"][3:] == [[0, 1, 2], [0, 2]]
        assert table["closes"][3:] == [[1], [2]]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=60),
           st.sampled_from([1, 5, 7.5, 20, 30.25]))
    def test_time_closes_equal_full_scan(self, rows, ws):
        events, ts = [], 0
        for seq, (gap, opener) in enumerate(rows):
            ts += gap
            events.append(ev(seq, ts, "query" if opener else "face"))
        table = one_pass(events, TimeWindowPolicy("query", ws))
        opened, closed = table["opened"], table["closed"]
        for i, e in enumerate(events):
            open_before = [w for w in range(len(opened)) if opened[w] < i <= closed[w]]
            full_scan = [(w, int(events[opened[w]].ts + ws)) for w in open_before
                         if e.ts >= events[opened[w]].ts + ws]
            assert [(w, table["close_ts"][w]) for w in table["closes"][i]] == full_scan

    def test_stats_observed_through_splitter(self):
        # simulate makes the observations the splitter made per event
        events = [ev(0, 0, "L1", key="a"), ev(1, 300, "L1", key="b"), ev(2, 400, "L2", key="a")]
        _, stats = simulated(events, KeyedAperiodicPolicy())
        assert stats.calls == [("opened", "0.0"), ("event", 0, None), ("opened", "300.0"), ("event", 1, 0),
                               ("closed", "400.0"), ("event", 2, 300)]
        snap = stats.end_monitoring_window()
        assert snap.ws_est == 400.0
        assert snap.delta_est == 300.0
        assert snap.iat_bins[0].count == 2
        assert snap.type_ratio == {"L1": 2 / 3, "L2": 1 / 3}


@st.composite
def streams(draw):
    """A short stream and its policy: keyed windows with few keys (nested
    windows, keys reused after their close, closes with no open window,
    openers of a key still open, events without a key) or time windows of
    a whole, fractional or tiny scope; gaps of 0 give runs of equal
    timestamps, and windows still open at the end never close."""
    keyed = draw(st.booleans())
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 8]), max_size=40))
    events, ts = [], 0
    for seq, gap in enumerate(gaps):
        ts += gap
        if keyed:
            key = draw(st.sampled_from(["a", "b", "c", None]))
            events.append(ev(seq, ts, draw(st.sampled_from(["L1", "L1", "L2", "L2", "X"])), key))
        else:
            events.append(ev(seq, ts, draw(st.sampled_from(["open", "A", "A"]))))
    if keyed:
        return events, KeyedAperiodicPolicy()
    ws = draw(st.sampled_from([1, 3, 8, 2.5, 7.75, 1e-9, 0.3]) | st.floats(1e-6, 30.0))
    return events, TimeWindowPolicy("open", ws)


class TestDetectionOracle:
    """The one-pass table against the per-event splitter of ``oracles``."""

    @settings(max_examples=400, deadline=None)
    @given(streams())
    def test_one_pass_equals_per_event(self, stream):
        events, policy = stream
        want = per_event_windows(events, policy)
        assert one_pass(events, policy) == want
        # simulate counts the same members, closes each window as the
        # oracle does, and observes in its order
        m, stats = simulated(events, policy, n=2)
        assert list(m.tx_members) == [len(ws) for ws in want["members"]]
        closes = [(close_ts, n_members) for _, close_ts, n_members in m.window_extents()]
        n = len(events)
        assert closes == [
            (None if c == n else t, sum(wid in ws for ws in want["members"]))
            for wid, (c, t) in enumerate(zip(want["closed"], want["close_ts"]))
        ]
        oracle_stats = RecordingStats(1, 1)
        splitter = PerEventSplitter(policy, oracle_stats)
        for e in events:
            splitter.process(e)
        assert stats.calls == oracle_stats.calls

    @pytest.mark.parametrize("ws, member", [(10, True), (9.5, False), (8, False)])
    def test_closing_event_at_or_after_close(self, ws, member):
        # the window opened at 0 is due at ws and closes at int(ws); the
        # event at 10 closes it, and is in it only when 10 does not exceed
        # that close
        events = [ev(0, 0, "open"), ev(1, 5, "A"), ev(2, 10, "A"), ev(3, 10, "A")]
        table = one_pass(events, TimeWindowPolicy("open", ws))
        assert table == per_event_windows(events, TimeWindowPolicy("open", ws))
        assert table["closed"] == [2] and table["close_ts"] == [int(ws)]
        assert table["members"][2] == ([0] if member else [])

    def test_backwards_timestamps_rejected(self):
        rule = "timestamps must be >= 0 and must never decrease, got "
        with pytest.raises(ValueError, match=re.escape(rule + "4 < 5 at event 1")):
            Splitter([ev(0, 5, "open"), ev(1, 4, "A")], TimeWindowPolicy("open", 1))
        with pytest.raises(ValueError, match=re.escape(rule + "6 < 7 at event 4")):
            Splitter([ev(0, 0, "open"), ev(1, 3), ev(2, 3), ev(3, 7), ev(4, 6)], KeyedAperiodicPolicy())
        # an instance is idle from 0, so a negative first arrival would wait
        with pytest.raises(ValueError, match=re.escape(rule + "-5 < 0 at event 0")):
            Splitter([ev(0, -5, "open"), ev(1, 4, "A")], TimeWindowPolicy("open", 1))

    @pytest.mark.parametrize("policy", [KeyedAperiodicPolicy(), TimeWindowPolicy("open", 3)])
    def test_one_timestamp_column(self, policy):
        # read once from the events; detection, splitting and the run share it
        assert Splitter([], policy).ts == array("q")
        events = [ev(0, 2, "open"), ev(1, 2, "L1", key="a"), ev(2, 2), ev(3, 5, "L2", key="a"), ev(4, 5)]
        splitter = Splitter(events, policy)
        assert splitter.ts == array("q", [2, 2, 2, 5, 5])
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0, "L1": 0.5, "L2": 0.5})
        m = simulate(splitter, cost, make_scheduler(SchedulerConfig("round_robin", n_instances=2)),
                     SimConfig(mtime_ms=1000.0))
        assert m.tx_ts is splitter.ts

    @pytest.mark.parametrize("ws", [-5, 0, math.nan])
    def test_time_window_scope_must_be_positive(self, ws):
        # under a scope that is not > 0 each window would close before it
        # opened, and a nan one would end in int(nan); the run never starts
        events = [ev(0, 0, "open"), ev(1, 1), ev(2, 5, "open"), ev(3, 6)]
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0})
        with pytest.raises(ValueError, match=re.escape(f"ws_ms must be > 0, got {ws}")):
            simulate(Splitter(events, TimeWindowPolicy("open", ws)), cost,
                     make_scheduler(SchedulerConfig("round_robin", n_instances=2)), SimConfig(mtime_ms=1000.0))


class W:
    def __init__(self, wid, instance):
        self.wid = wid
        self.assigned_instance = instance


def closing_of(*windows):
    """Windows that closed at the event with the event in them, by owner."""
    out = {}
    for w in windows:
        out.setdefault(w.assigned_instance, []).append(w)
    return out


class TestRouteEvent:
    """``route_event(owners, closing)``: ``owners`` hold open windows, in
    ascending order; ``closing`` maps an instance to its windows that closed
    at the event with the event still in them."""

    def test_dedup_same_instance(self):
        # open windows and two closing members on instance 2: sent once
        assert route_event([2], closing_of(W(0, 2), W(1, 2))) == [2]

    def test_dedup_mixed(self):
        assert route_event([0, 2], closing_of(W(1, 1), W(3, 2), W(4, 1))) == [0, 1, 2]
        assert route_event([], closing_of(W(1, 3), W(4, 3))) == [3]

    def test_no_memberships(self):
        assert route_event([], {}) == []

    def test_transmission_bound(self, rng):
        for _ in range(200):
            owners = sorted(rng.sample(range(6), rng.randrange(0, 4)))
            closing = closing_of(*(W(i, rng.randrange(6)) for i in range(rng.randrange(0, 4))))
            targets = route_event(owners, closing)
            # each owning instance once, ascending
            assert targets == sorted(set(owners) | set(closing))
            assert len(targets) <= len(owners) + sum(map(len, closing.values()))


def test_batched_overlap_saves_transmissions():
    """k fully-overlapping windows on one instance: 1 transmission per shared
    event, vs k distinct instances under per-window round-robin."""
    k = 4
    assert len(route_event([0], {})) == 1
    assert len(route_event(list(range(k)), {})) == k
