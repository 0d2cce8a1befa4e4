import math
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepsim.core import Event
from cepsim.splitter import (
    BinStat,
    KeyedAperiodicPolicy,
    Splitter,
    StreamStats,
    TimeWindowPolicy,
    _bin_values,
    route_event,
)
from conftest import feed_window, snapshot_from
from oracles import Bin


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


def assert_runs_bin_like_expanded(values, counts, n_bins, vrange):
    stats, pop = _bin_values(values, n_bins, vrange, counts)
    want_stats, want_pop = _bin_values(expanded(values, counts), n_bins, vrange)
    assert float_bits(stats) == float_bits(want_stats)
    assert float_bits([pop]) == float_bits([want_pop])


class TestBinRuns:
    """A run (value, k) bins exactly like k copies of the value."""

    @settings(max_examples=300, deadline=None)
    @given(binning_inputs(), st.data())
    def test_runs_equal_expanded_values(self, args, data):
        values, n_bins, vrange = args
        # a dict merges 0.0 and -0.0: mixes of zeros alone or among the values
        zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=5))
        values = data.draw(st.sampled_from([values + zeros, zeros or values]))
        counts = data.draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
        assert_runs_bin_like_expanded(values, counts, n_bins, vrange)

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
            ([math.inf, 1.0], [2, 3], 2, None),  # not finite: fsum of the expanded values
        ],
    )
    def test_runs_equal_expanded_examples(self, values, counts, n_bins, vrange):
        assert_runs_bin_like_expanded(values, counts, n_bins, vrange)

    def test_long_runs_sum_like_fsum(self):
        values, counts = [0.1, 0.7, 0.1], [1_000_000, 3, 999]
        _, pop = _bin_values(values, 2, None, counts)
        n = sum(counts)
        assert pop.count == n
        assert repr(pop.mean) == repr(math.fsum(expanded(values, counts)) / n)

    def test_runs_observed_like_single_latencies(self):
        singles = StreamStats(1, 3)
        runs = StreamStats(1, 3)
        for s in (singles, runs):
            s.observe_event(ev(0, 0), None)
        for v, k in [(0.02, 61), (0.005, 3), (0.02, 1), (0.3, 2)]:
            runs.observe_latency("A", v, k)
            for _ in range(k):
                singles.observe_latency("A", v)
        runs.observe_latencies("A", [0.1, 0.02])
        singles.observe_latencies("A", [0.1, 0.02])
        assert runs.end_monitoring_window() == singles.end_monitoring_window()


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


class TestDetectWindows:
    def test_traffic_minimal_window(self):
        sp = Splitter(KeyedAperiodicPolicy(), StreamStats(1, 1))
        r1 = sp.process(ev(0, 100, "L1", key="a"))
        assert len(r1.opened) == 1 and not r1.closed
        w = r1.opened[0]
        assert r1.memberships == [w]
        r2 = sp.process(ev(1, 400, "L2", key="a"))
        assert r2.closed == [w]
        assert w.close_ts == 400 and w.scope_ms == 300.0
        assert r2.memberships == [w]  # the closing event is a member
        assert not sp.open_windows

    def test_time_window_closes_at_scope(self):
        sp = Splitter(TimeWindowPolicy("query", 10_000.0), StreamStats(1, 1))
        r1 = sp.process(ev(0, 0, "query"))
        w = r1.opened[0]
        r2 = sp.process(ev(1, 9_999, "face"))
        assert r2.memberships == [w] and not r2.closed
        r3 = sp.process(ev(2, 12_000, "face"))
        assert r3.closed == [w]
        assert w.close_ts == 10_000
        assert r3.memberships == []  # arrived after the scope ended

    def test_time_window_boundary_event_is_member(self):
        sp = Splitter(TimeWindowPolicy("query", 10_000.0), StreamStats(1, 1))
        w = sp.process(ev(0, 0, "query")).opened[0]
        r = sp.process(ev(1, 10_000, "face"))
        assert r.closed == [w]
        assert r.memberships == [w]

    def test_nested_vehicle_windows(self):
        sp = Splitter(KeyedAperiodicPolicy(), StreamStats(1, 1))
        wa = sp.process(ev(0, 0, "L1", key="a")).opened[0]      # slow vehicle
        wb = sp.process(ev(1, 100, "L1", key="b")).opened[0]    # fast vehicle
        mid = sp.process(ev(2, 150, "L1", key="c"))
        assert set(w.wid for w in mid.memberships) >= {wa.wid, wb.wid}
        rb = sp.process(ev(3, 200, "L2", key="b"))
        assert wb in rb.closed and wa in rb.memberships and wb in rb.memberships
        ra = sp.process(ev(4, 500, "L2", key="a"))
        assert wa in ra.closed and wb not in ra.memberships

    def test_unmatched_close_is_dropped_but_membership_kept(self):
        sp = Splitter(KeyedAperiodicPolicy(), StreamStats(1, 1))
        wa = sp.process(ev(0, 0, "L1", key="a")).opened[0]
        r = sp.process(ev(1, 50, "L2", key="zzz"))
        assert not r.opened and not r.closed
        assert r.memberships == [wa]
        assert sp.policy.dropped_closes == 1

    def test_keyed_close_merged_in_wid_order(self):
        # b closes before a and c, both opened around it: the closing event's
        # memberships must still come out strictly by wid
        sp = Splitter(KeyedAperiodicPolicy(), StreamStats(1, 1))
        wa = sp.process(ev(0, 0, "L1", key="a")).opened[0]
        wb = sp.process(ev(1, 10, "L1", key="b")).opened[0]
        wc = sp.process(ev(2, 20, "L1", key="c")).opened[0]
        r = sp.process(ev(3, 30, "L2", key="b"))
        assert r.closed == [wb]
        assert r.memberships == [wa, wb, wc]
        r = sp.process(ev(4, 40, "L2", key="c"))
        assert r.memberships == [wa, wc]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=60),
           st.sampled_from([1, 5, 7.5, 20, 30.25]))
    def test_time_closes_equal_full_scan(self, rows, ws):
        policy = TimeWindowPolicy("query", ws)
        sp = Splitter(policy, StreamStats(1, 1))
        ts = 0
        for seq, (gap, opener) in enumerate(rows):
            ts += gap
            e = ev(seq, ts, "query" if opener else "face")
            full_scan = [
                (wid, int(w.open_ts + ws)) for wid, w in sp.open_windows.items() if e.ts >= w.open_ts + ws
            ]
            assert policy.closes(e, sp.open_windows) == full_scan
            sp.process(e)

    def test_stats_observed_through_splitter(self):
        stats = StreamStats(1, 1)
        sp = Splitter(KeyedAperiodicPolicy(), stats)
        sp.process(ev(0, 0, "L1", key="a"))
        sp.process(ev(1, 300, "L1", key="b"))
        sp.process(ev(2, 400, "L2", key="a"))
        snap = stats.end_monitoring_window()
        assert snap.ws_est == 400.0
        assert snap.delta_est == 300.0
        assert snap.iat_bins[0].count == 2
        assert snap.type_ratio == {"L1": 2 / 3, "L2": 1 / 3}


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
