"""Window detection, event routing, and the splitter's monitoring statistics.

Windows are a property of the stream: :class:`Splitter` detects them once,
in one pass of the window policy over the whole stream, as columns per
window, and then splits the stream at them event by event.

The splitter watches the inbound stream inside tumbling monitoring windows of
``mtime_ms``, whose boundaries the simulation loop drives. At the end of each
monitoring window it freezes a snapshot: equal-width bins over inter-arrival
times and per-type in-window processing latencies, event-type ratios,
measured window scope and shift, and the T-COUNT transition counters. Bin
boundaries for a monitoring window come from the observed [min, max] range of
the previous one; values outside that range clamp into the edge bins.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain, count, repeat
from typing import Iterable, KeysView, Mapping, NamedTuple, Sequence

from .core import Event, WindowDescriptor


@dataclass(frozen=True)
class BinStat:
    """Frozen view of one bin inside a snapshot: what the latency model reads."""

    count: int
    mean: float
    weight: float


@dataclass(frozen=True)
class PopulationStat:
    """Whole-population moments of one measured quantity."""

    count: int
    mean: float
    sigma: float
    lo: float
    hi: float


_EMPTY_POP = PopulationStat(0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class StreamStatsSnapshot:
    """Immutable statistics frozen at the end of one monitoring window."""

    stale: bool
    iat_bins: tuple[BinStat, ...]
    iat_pop: PopulationStat
    lat_bins: Mapping[str, tuple[BinStat, ...]]
    lat_pop: Mapping[str, PopulationStat]
    type_ratio: Mapping[str, float]
    ws_est: float
    delta_est: float
    c_minus: int
    c_plus: int
    c_trans: int
    t_minus_types: frozenset[str]
    t_plus_types: frozenset[str]


EMPTY_SNAPSHOT = StreamStatsSnapshot(
    stale=True,
    iat_bins=(),
    iat_pop=_EMPTY_POP,
    lat_bins={},
    lat_pop={},
    type_ratio={},
    ws_est=0.0,
    delta_est=0.0,
    c_minus=0,
    c_plus=0,
    c_trans=0,
    t_minus_types=frozenset(),
    t_plus_types=frozenset(),
)


def _exact_sum(pairs: Iterable[tuple[float, int]]) -> float:
    """``math.fsum`` of finite values, each repeated its count times, without
    expanding them: the exact rational sum, rounded once. ``fsum`` is
    correctly rounded too, so the two agree bit for bit."""
    # every finite float is num / 2**p; sum over the largest denominator
    ratios = [(v.as_integer_ratio(), c) for v, c in pairs]
    den = max(d for (_, d), _ in ratios)
    return sum(n * c * (den // d) for (n, d), c in ratios) / den  # int / int is correctly rounded


def _bin_values(
    values: Sequence[float],
    n_bins: int,
    vrange: tuple[float, float] | None,
    counts: Sequence[int] | None = None,
) -> tuple[tuple[BinStat, ...], PopulationStat]:
    """Bin ``values`` into ``n_bins`` equal-width bins over ``vrange``.

    When ``vrange`` is None (first monitoring window) the values' own range is
    used. Out-of-range values clamp into the edge bins. Also returns the
    population moments of the values. Each bin's mean is Welford's running
    mean, updated one value at a time in value order.

    ``counts``, when given, holds the length of each value's run: the value
    occurs that many times in a row. The result is that of the expanded
    values, but only a bin holding different values is expanded.
    """
    vmin = min(values)
    vmax = max(values)
    if counts is not None:
        per_value: dict[float, int] = {}  # each distinct value once, with its total count
        for v, c in zip(values, counts):
            per_value[v] = per_value.get(v, 0) + c
        if not all(map(math.isfinite, per_value)):
            # fsum's inf, nan or error, from the expanded values
            values, counts = list(chain.from_iterable(map(repeat, values, counts))), None
    if counts is None:
        n = len(values)
        mean = math.fsum(values) / n
        var = math.fsum([(v - mean) ** 2 for v in values]) / n
    else:
        n = sum(counts)
        mean = _exact_sum(per_value.items()) / n
        var = _exact_sum([((v - mean) ** 2, c) for v, c in per_value.items()]) / n
    pop = PopulationStat(n, mean, math.sqrt(var), vmin, vmax)

    lo, hi = vrange if vrange is not None else (vmin, vmax)
    width = (hi - lo) / n_bins
    if width > 0 and n_bins > 1:
        members: list[list[float]] = [[] for _ in range(n_bins)]
        runs: list = [[] for _ in range(n_bins)]
        last = n_bins - 1
        # x is compared before int(), which cannot take the +-inf that a
        # subnormal width gives for a far value
        if counts is None:
            for v in values:
                x = (v - lo) / width
                members[last if x >= last else int(x) if x > 0 else 0].append(v)
        else:
            for v, c in zip(values, counts):
                x = (v - lo) / width
                idx = last if x >= last else int(x) if x > 0 else 0
                members[idx].append(v)
                runs[idx].append(c)
    else:
        members = [values] + [[] for _ in range(n_bins - 1)]
        runs = [counts] + [[] for _ in range(n_bins - 1)]
    stats = []
    for i, in_bin in enumerate(members):
        count = len(in_bin) if counts is None else sum(runs[i])
        if count and min(in_bin) == max(in_bin):
            # after the first step the mean equals every value, so each
            # further step leaves it as it is
            in_bin = in_bin[:1]
        elif counts is not None:
            in_bin = chain.from_iterable(map(repeat, in_bin, runs[i]))
        k = 0
        b_mean = 0.0
        for x in in_bin:
            k += 1
            b_mean += (x - b_mean) / k
        stats.append(BinStat(count, b_mean, count / n))
    return tuple(stats), pop


def _ratio_split(means: Mapping[str, float]) -> tuple[frozenset[str], frozenset[str]]:
    """Split event types into high-cost (T-) and low-cost (T+) halves.

    Types are ranked by mean in-window latency; the upper half goes to T-,
    with the median type and ties at the boundary resolved toward T-.
    """
    if not means:
        return frozenset(), frozenset()
    ranked = sorted(means, key=lambda t: (-means[t], t))
    cut = (len(ranked) + 1) // 2
    threshold = means[ranked[cut - 1]]
    t_minus = frozenset(t for t in ranked if means[t] >= threshold)
    t_plus = frozenset(t for t in ranked if means[t] < threshold)
    return t_minus, t_plus


class StreamStats:
    """Live monitoring-window accumulators feeding the latency model.

    Single-writer: only the simulation thread mutates it. Snapshots returned
    by :meth:`end_monitoring_window` are immutable.
    """

    def __init__(self, n_iat_bins: int, n_lat_bins: int):
        if n_iat_bins < 1 or n_lat_bins < 1:
            raise ValueError("bin counts must be >= 1")
        self.n_iat_bins = n_iat_bins
        self.n_lat_bins = n_lat_bins
        self.snapshot = EMPTY_SNAPSHOT
        self._iat_range: tuple[float, float] | None = None
        self._lat_ranges: dict[str, tuple[float, float]] = {}
        self._reset_window()

    def _reset_window(self) -> None:
        self._iats: list[float] = []
        # per type: in-window latencies and the length of each one's run;
        # a type's lists are made on its first observation only
        self._lats: defaultdict[str, tuple[list[float], list[int]]] = defaultdict(lambda: ([], []))
        self._type_counts: dict[str, int] = {}
        self._ws_sum = 0.0
        self._ws_n = 0
        self._delta_sum = 0.0
        self._delta_n = 0
        self._last_open_ts: float | None = None
        self._c_minus = 0
        self._c_plus = 0
        self._c_trans = 0
        self._last_group: str | None = None

    # -- observations ------------------------------------------------------

    def observe_event(self, e: Event, prev_ts: int | None) -> None:
        """Record one arrival: its inter-arrival gap, type, and T-COUNT group.

        The first event of a stream has no gap and is skipped for iat. Group
        membership comes from the last snapshot's type ranking; events of
        types without latency history stay ungrouped.
        """
        if prev_ts is not None:
            self._iats.append(float(e.ts - prev_ts))
        self._type_counts[e.etype] = self._type_counts.get(e.etype, 0) + 1
        snap = self.snapshot
        if e.etype in snap.t_minus_types:
            group = "-"
            self._c_minus += 1
        elif e.etype in snap.t_plus_types:
            group = "+"
            self._c_plus += 1
        else:
            return
        if self._last_group is not None and group != self._last_group:
            self._c_trans += 1
        self._last_group = group

    def observe_latency(self, etype: str, lambda_p_w: float, count: int = 1) -> None:
        """Record one reported in-window processing latency for a type,
        ``count`` times in a row."""
        values, counts = self._lats[etype]
        values.append(lambda_p_w)
        counts.append(count)

    def observe_latencies(self, etype: str, lambda_p_ws: Sequence[float]) -> None:
        """Record reported in-window processing latencies for a type, in order."""
        values, counts = self._lats[etype]
        values.extend(lambda_p_ws)
        counts.extend(repeat(1, len(lambda_p_ws)))

    def observe_window_opened(self, open_ts: float) -> None:
        if self._last_open_ts is not None:
            self._delta_sum += open_ts - self._last_open_ts
            self._delta_n += 1
        self._last_open_ts = open_ts

    def observe_window_closed(self, scope_ms: float) -> None:
        self._ws_sum += scope_ms
        self._ws_n += 1

    # -- freezing ----------------------------------------------------------

    def end_monitoring_window(self) -> StreamStatsSnapshot:
        """Freeze the current monitoring window into a snapshot and reset.

        An empty window returns the previous snapshot flagged stale (the same
        object when it already is); bin boundaries and estimates are left
        untouched so scheduling never blocks on statistics.
        """
        observed = bool(self._iats) or bool(self._lats) or bool(self._type_counts)
        if not observed:
            if not self.snapshot.stale:
                self.snapshot = replace(self.snapshot, stale=True)
            return self.snapshot

        prev = self.snapshot
        total = sum(self._type_counts.values())

        if self._iats:
            iat_bins, iat_pop = _bin_values(self._iats, self.n_iat_bins, self._iat_range)
            self._iat_range = (iat_pop.lo, iat_pop.hi)
        else:
            iat_bins, iat_pop = prev.iat_bins, prev.iat_pop

        lat_bins: dict[str, tuple[BinStat, ...]] = dict(prev.lat_bins)
        lat_pop: dict[str, PopulationStat] = dict(prev.lat_pop)
        for etype, (values, counts) in self._lats.items():
            runs = counts if len(counts) != sum(counts) else None
            bins, pop = _bin_values(values, self.n_lat_bins, self._lat_ranges.get(etype), runs)
            self._lat_ranges[etype] = (pop.lo, pop.hi)
            lat_bins[etype] = bins
            lat_pop[etype] = pop

        type_ratio = (
            {t: c / total for t, c in sorted(self._type_counts.items())}
            if total
            else dict(prev.type_ratio)
        )
        ws_est = self._ws_sum / self._ws_n if self._ws_n else prev.ws_est
        delta_est = self._delta_sum / self._delta_n if self._delta_n else prev.delta_est
        t_minus, t_plus = _ratio_split({t: p.mean for t, p in lat_pop.items()})

        self.snapshot = StreamStatsSnapshot(
            stale=False,
            iat_bins=iat_bins,
            iat_pop=iat_pop,
            lat_bins=lat_bins,
            lat_pop=lat_pop,
            type_ratio=type_ratio,
            ws_est=ws_est,
            delta_est=delta_est,
            c_minus=self._c_minus,
            c_plus=self._c_plus,
            c_trans=self._c_trans,
            t_minus_types=t_minus,
            t_plus_types=t_plus,
        )
        self._reset_window()
        return self.snapshot


# ---------------------------------------------------------------------------
# Window detection and routing


class KeyedAperiodicPolicy:
    """Traffic-style windows: an open-type event whose key holds no open
    window opens one; the close-type event with the matching key closes it,
    at its own timestamp. A close-type event whose key holds no open window
    closes nothing: a dropped close."""

    open_etype = "L1"
    close_etype = "L2"

    def detect(self, events: Sequence[Event]) -> tuple[array, array, array, int]:
        """``(opened, closed, close_order, dropped_closes)`` of ``events``,
        as :class:`Splitter` keeps them."""
        opened, closed, close_order = array("i"), array("i"), array("i")
        by_key: dict[str, int] = {}  # key -> wid of its open window
        dropped = 0
        for i, e in enumerate(events):
            # an event closes before it opens
            if e.etype == self.close_etype:
                wid = by_key.pop(e.key, None)  # no window has key None
                if wid is None:
                    dropped += 1
                else:
                    closed[wid] = i
                    close_order.append(wid)
            if e.etype == self.open_etype and e.key is not None and e.key not in by_key:
                by_key[e.key] = len(opened)
                opened.append(i)
                closed.append(len(events))  # until it closes
        close_order.extend(sorted(by_key.values()))  # never closed
        return opened, closed, close_order, dropped

    @staticmethod
    def close_of(open_ts: int, ts: int) -> int:
        """The close of a window opened at ``open_ts`` that closes at an event at ``ts``."""
        return ts


@dataclass(frozen=True)
class TimeWindowPolicy:
    """Face-style windows: an opener event starts a window that closes at the
    first later event with ts >= open_ts + ws, at ``int(open_ts + ws)``."""

    opener_etype: str
    ws_ms: float

    def detect(self, events: Sequence[Event]) -> tuple[array, array, array, int]:
        """``(opened, closed, close_order, dropped_closes)`` of ``events``, as
        :class:`Splitter` keeps them. Timestamps never go down, so each close
        is a bisection and windows close in opening order; none is dropped."""
        ts = [e.ts for e in events]
        opened = array("i", [i for i, e in enumerate(events) if e.etype == self.opener_etype])
        closed = array("i", [bisect_left(ts, ts[i] + self.ws_ms, i + 1) for i in opened])
        return opened, closed, array("i", range(len(opened))), 0

    def close_of(self, open_ts: int, ts: int) -> int:
        """The close of a window opened at ``open_ts`` that closes at an event at ``ts``."""
        return int(open_ts + self.ws_ms)


def make_policy(cfg) -> KeyedAperiodicPolicy | TimeWindowPolicy:
    """Window-detection policy for a workload config."""
    if cfg.scenario == "traffic":
        return KeyedAperiodicPolicy()
    return TimeWindowPolicy(cfg.opener_etype, cfg.scope.ws_ms)


class SplitResult(NamedTuple):
    """What the splitter finds at one event: the wids of the windows it
    closes and whether it opens the next window, and its member windows'
    wids, each in wid order (a live view, valid until the next event)."""

    closed: Sequence[int]
    opened: bool
    memberships: KeysView[int]


class Splitter:
    """The windows of one event stream, detected in one pass of its policy;
    :meth:`process` then splits the stream at them, event by event.

    A window comprises every event from its opening event to its closing
    event, which is a member when its timestamp does not exceed the
    window's close, ``close_of(open_ts, ts)``. Wids are handed out in
    opening order. Per wid, ``opened`` holds the index of its opening event
    and ``closed`` that of its closing event (``len(events)`` if none).
    ``close_order`` holds the wids in closing order (at one event, in wid
    order; those never closed last), ``dropped_closes`` the close-type
    events that closed no window. The members are one ordered set, not a
    list per event."""

    def __init__(self, events: Sequence[Event], policy):
        now = 0  # instances are idle from 0, so an earlier arrival would wait
        for i, e in enumerate(events):
            if e.ts < now:
                raise ValueError(f"timestamps must be >= 0 and must never decrease, got {e.ts} < {now} at event {i}")
            now = e.ts
        self.events = events
        self.close_of = policy.close_of
        self.opened, self.closed, self.close_order, self.dropped_closes = policy.detect(events)
        self._members: dict[int, None] = {}  # wid -> None: the last event's member windows
        self._leaving: list[int] = []  # the last event's members that closed at it
        # the result of an event that opens and closes nothing; every result shares its view
        self._quiet = SplitResult((), False, self._members.keys())
        # cursors on the (event, wid) pairs of the opens and of the closes, each in order
        self._opens = zip(self.opened, count())
        self._closes = zip(map(self.closed.__getitem__, self.close_order), self.close_order)
        self._end = (len(events), None)
        self._next_open, self._opening = next(self._opens, self._end)
        self._next_close, self._closing = next(self._closes, self._end)

    def process(self, i: int) -> SplitResult:
        """Split event ``i``. Each event is split once, in stream order."""
        members, leaving = self._members, self._leaving
        while leaving:
            del members[leaving.pop()]
        if i != self._next_close and i != self._next_open:
            return self._quiet
        closed = []
        ts = self.events[i].ts
        while i == self._next_close:
            wid = self._closing
            closed.append(wid)
            if ts <= self.close_of(self.events[self.opened[wid]].ts, ts):
                leaving.append(wid)  # a member of this event only
            else:
                del members[wid]
            self._next_close, self._closing = next(self._closes, self._end)
        opened = i == self._next_open
        if opened:
            members[self._opening] = None
            self._next_open, self._opening = next(self._opens, self._end)
        return SplitResult(closed, opened, self._quiet.memberships)


def route_event(owners: Sequence[int], closing: Mapping[int, list[WindowDescriptor]]) -> Sequence[int]:
    """The instances an event is sent to, once each and in ascending order:
    ``owners``, the instances holding open windows (ascending; the event is
    in each of those windows), and the keys of ``closing``, the owners of
    windows that closed at the event with the event still a member. Nothing
    in ``cepsim`` calls it; it stays as a boundary the benchmark's tracer wraps."""
    return sorted({*owners, *closing}) if closing else owners
