"""Brute-force oracles the tests check the optimised code against.

Nothing in ``cepsim`` calls these; each restates one computation in its
plainest form.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from cepsim.core import Event

from cepsim.latency_model import (
    LatencyPrediction,
    ModelParams,
    _lambda_q_init,
    _mean_latencies,
    _pairing,
    _split_gains,
    biased_iat_bins,
    biased_latency_bins,
    peak_processing_latency,
    predict_alpha_tcount,
    predict_event_counts,
    predict_overlap,
    predict_peak,
)
from cepsim.runtime import FeedbackDelay
from cepsim.scheduler import InstanceView
from cepsim.splitter import StreamStats, StreamStatsSnapshot, TimeWindowPolicy


@dataclass
class Bin:
    """One bin with Welford's running count and mean."""

    count: int = 0
    mean: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.mean += (x - self.mean) / self.count


def pair_bins(
    lat_bins: Iterable[tuple[float, float]],
    iat_bins: Iterable[tuple[float, float]],
    theta_bar: float,
) -> list[tuple[float, float]]:
    """Combine latency and iat bins, highest latency against lowest iat:
    (count, theta_bar * latency - iat) per pairing of
    :func:`cepsim.latency_model._pairing`."""
    return [(take, theta_bar * lat - iat) for take, lat, iat in _pairing(lat_bins, iat_bins)]


def lindley_peak(
    lambda_ps: Sequence[float],
    iats: Sequence[float] | float,
    lambda_q_init: float = 0.0,
) -> float:
    """Brute-force queuing peak of a concrete event sequence.

    Runs the busy-server recursion s_k = max(0, s_{k-1} + lambda_p_k - iat_k)
    where iat_k is the gap to the successor event, and returns the largest
    queue state reached. This is the independent oracle the gain model is
    checked against.
    """
    if isinstance(iats, (int, float)):
        iats = itertools.repeat(float(iats))
    s = lambda_q_init
    peak = 0.0
    for lam, iat in zip(lambda_ps, iats):
        s = max(0.0, s + lam - iat)
        peak = max(peak, s)
    return peak


def predict_gains(
    snapshot: StreamStatsSnapshot,
    per_type_counts: Mapping[str, float],
    n: float,
    theta_bar: float,
    params: ModelParams,
) -> tuple[float, float]:
    """Total negative and positive gains (gamma_minus >= 0 >= gamma_plus):
    the gains step of :func:`cepsim.latency_model.predict`, uncompiled."""
    pairing = _pairing(
        biased_latency_bins(snapshot, per_type_counts, params), biased_iat_bins(snapshot, n, params)
    )
    return _split_gains(pairing, theta_bar)


def predict_lambda_q_init(
    queued_counts: Mapping[str, float] | None,
    theta_bar_rep: float,
    snapshot: StreamStatsSnapshot,
    params: ModelParams,
) -> tuple[float, list[str]]:
    """Initial queuing latency of an instance from its feedback report: the
    summed processing latencies of every queued event at its reported average
    overlap. The queue step of :func:`cepsim.latency_model.predict`,
    uncompiled."""
    if not queued_counts:
        return 0.0, []
    return _lambda_q_init(queued_counts, theta_bar_rep, *_mean_latencies(snapshot, params))


def composed_prediction(snapshot, theta_hat, params, queued_counts, theta_bar_rep):
    """``predict`` composed from its steps, with nothing remembered."""
    n, per_type, flags = predict_event_counts(snapshot, snapshot.ws_est, params)
    theta_bar, f2 = predict_overlap(theta_hat, snapshot.ws_est, snapshot.delta_est)
    gamma_minus, gamma_plus = predict_gains(snapshot, per_type, n, theta_bar, params)
    if params.alpha_mode == "fixed":
        alpha = params.alpha_fixed
    else:
        alpha = predict_alpha_tcount(snapshot.c_minus, snapshot.c_plus, snapshot.c_trans)
    lambda_q_init, f3 = predict_lambda_q_init(queued_counts, theta_bar_rep, snapshot, params)
    lambda_p_max, f4 = peak_processing_latency(snapshot, theta_bar, params)
    _, lambda_o_max = predict_peak(gamma_minus, gamma_plus, alpha, lambda_q_init, lambda_p_max)
    return LatencyPrediction(
        n=n, theta_hat=theta_hat, theta_bar=theta_bar, gamma_minus=gamma_minus,
        gamma_plus=gamma_plus, alpha=alpha, lambda_q_init=lambda_q_init,
        lambda_p_max=lambda_p_max, lambda_o_max=lambda_o_max,
        flags=tuple(flags + f2 + f3 + f4),
    )


@dataclass
class Window:
    """A window as the per-event splitter tracks it: its close is set when it closes."""

    wid: int
    open_ts: int
    close_ts: int | None = None


@dataclass
class SplitResult:
    opened: list[Window] = field(default_factory=list)
    closed: list[Window] = field(default_factory=list)
    memberships: list[Window] = field(default_factory=list)


_wid = attrgetter("wid")


class PerEventSplitter:
    """Window detection one event at a time, with every event's member list:
    the policy's ``closes`` and ``opens`` steps and the splitter's
    ``process``, as the simulator ran them per event before windows were
    detected once per stream. ``stats``, when given, observes the closes,
    the open and the event, in that order."""

    def __init__(self, policy, stats: StreamStats | None = None):
        self.policy = policy
        self.stats = stats
        self.open_windows: dict[int, Window] = {}
        self.by_key: dict[str, int] = {}  # keyed windows: key -> wid
        self.dropped_closes = 0
        self._next_wid = 0
        self._prev_ts: int | None = None

    def closes(self, e: Event) -> list[tuple[int, int]]:
        """``(wid, close_ts)`` of each window ``e`` closes."""
        if isinstance(self.policy, TimeWindowPolicy):
            out = []
            for wid, w in self.open_windows.items():
                close_ts = w.open_ts + self.policy.ws_ms
                if e.ts < close_ts:
                    break
                out.append((wid, int(close_ts)))
            return out
        if e.etype != self.policy.close_etype:
            return []
        wid = self.by_key.pop(e.key, None)  # no window has key None
        if wid is None:
            self.dropped_closes += 1
            return []
        return [(wid, e.ts)]

    def opens(self, e: Event, wid: int) -> bool:
        """Whether ``e`` opens window ``wid``; a key already holding an open
        window cannot open a second one."""
        if isinstance(self.policy, TimeWindowPolicy):
            return e.etype == self.policy.opener_etype
        if e.etype != self.policy.open_etype or e.key is None or e.key in self.by_key:
            return False
        self.by_key[e.key] = wid
        return True

    def process(self, e: Event) -> SplitResult:
        """The windows ``e`` opens and closes, and its member windows in wid
        order; the closing event is a member when its timestamp does not
        exceed the close."""
        res = SplitResult()
        for wid, close_ts in self.closes(e):
            w = self.open_windows.pop(wid)
            w.close_ts = close_ts
            res.closed.append(w)
            if self.stats is not None:
                self.stats.observe_window_closed(float(w.close_ts - w.open_ts))

        if self.opens(e, self._next_wid):
            w = Window(wid=self._next_wid, open_ts=e.ts)
            self._next_wid += 1
            self.open_windows[w.wid] = w
            res.opened.append(w)
            if self.stats is not None:
                self.stats.observe_window_opened(float(e.ts))

        members = list(self.open_windows.values())
        for w in res.closed:
            if e.ts <= w.close_ts:
                members.insert(bisect_left(members, w.wid, key=_wid), w)
        res.memberships = members

        if self.stats is not None:
            self.stats.observe_event(e, self._prev_ts)
            self._prev_ts = e.ts
        return res


def per_event_windows(events: Sequence[Event], policy) -> dict:
    """What :class:`PerEventSplitter` finds in ``events``, in the terms of
    :class:`cepsim.splitter.Splitter`: per wid the index of the opening and
    closing event (``len(events)`` if it never closes) and the close (0 if
    it never closes), the dropped closes, and per event the wids it closes
    and its member wids."""
    sp = PerEventSplitter(policy)
    n = len(events)
    opened, closed, close_ts, closes, members = [], [], [], [], []
    for i, e in enumerate(events):
        res = sp.process(e)
        for w in res.closed:
            closed[w.wid] = i
            close_ts[w.wid] = w.close_ts
        for w in res.opened:
            opened.append(i)
            closed.append(n)
            close_ts.append(0)
        closes.append([w.wid for w in res.closed])
        members.append([w.wid for w in res.memberships])
    return dict(opened=opened, closed=closed, close_ts=close_ts, closes=closes,
                dropped_closes=sp.dropped_closes, members=members)


def per_pair(m, column: Iterable) -> Iterable:
    """The per-event ``column`` of the run ``m``, each entry repeated once
    per pair of its event: an event's pairs are the next ``tx_instances``
    entries of the pair columns."""
    return itertools.chain.from_iterable(map(itertools.repeat, column, m.tx_instances))


def pair_rows(m, transfer_delay_ms: float) -> list[tuple[int, int, float, int]]:
    """``(instance, ts, lambda_o, queue_len)`` of each pair of the run ``m``,
    in event order. The queue length is recomputed as the reference
    simulator defines it: the pair arrives at ts + the transfer delay and
    starts lambda_q later, and its queue length is one plus the earlier
    starts on its instance after its arrival."""
    starts: dict[int, list[float]] = {}
    out = []
    for inst, ts, q, p in zip(m.instance, per_pair(m, m.tx_ts), m.lambda_q, m.lambda_p):
        arrival = ts + transfer_delay_ms
        mine = starts.setdefault(inst, [])
        # sorted, so the starts after the arrival are the tail past a bisection
        assert not mine or mine[-1] <= arrival + q, "a start went down on its instance"
        out.append((inst, ts, q + p, 1 + len(mine) - bisect_right(mine, arrival)))
        mine.append(arrival + q)
    return out


def reference_feedback_delays(decisions, extents, pairs) -> list[FeedbackDelay]:
    """Per-batch feedback delays by a full scan of every pair on the batch's
    instance, O(batches x pairs). ``decisions`` give each wid's instance in
    scheduling order: a decision for another instance than the one before
    it starts a new batch, first decided when its window opened.
    ``extents[wid]`` starts with the window's open and close timestamps (the
    close None if it never closes); ``pairs`` holds ``(instance, ts,
    lambda_o, queue_len)`` per pair in event order. A batch's span runs from
    its first decision to its windows' last close, or to the end of the run
    if one never closes; its peaks are the first maxima in it."""
    batches: list[tuple[int, list[int]]] = []  # (instance, wids)
    for d in decisions:
        if not batches or batches[-1][0] != d.instance:
            batches.append((d.instance, []))
        batches[-1][1].append(d.wid)
    out = []
    for batch_id, (instance, wids) in enumerate(batches):
        first_decision_ts = extents[wids[0]][0]
        closes = [extents[wid][1] for wid in wids]
        span_end = math.inf if None in closes else max(closes)
        lat_peak, lat_ts, qlen_peak, qlen_ts = -1.0, first_decision_ts, -1, first_decision_ts
        for inst, ts, lambda_o, queue_len in pairs:
            if inst != instance or ts < first_decision_ts or ts > span_end:
                continue
            if lambda_o > lat_peak:
                lat_peak, lat_ts = lambda_o, ts
            if queue_len > qlen_peak:
                qlen_peak, qlen_ts = queue_len, ts
        out.append(
            FeedbackDelay(
                batch_id, instance, first_decision_ts, len(wids),
                lat_peak, float(lat_ts - first_decision_ts),
                qlen_peak, float(qlen_ts - first_decision_ts),
            )
        )
    return out


def reference_monitor_log(rows, n, reads_snapshot, reads_reports, mtime_ms, feedback_interval, delivery_delay_ms):
    """What a closed loop shows the controller, by full scans: the log of
    :class:`cepsim.runtime.Monitor` driven as ``simulate`` drives it, when
    the controller reads the snapshot, the reports, or both.

    ``rows`` holds ``(ts, [(instance, work)])`` per event in order, its work
    as ``InstanceState.work`` keeps it, handed to the instance after the
    loop has been advanced to ``ts``: so only the instants and events after
    it see it. Per instance, starts, completions and arrivals never go
    down. The log has, in order:
    - ``("observe", etype, latencies, run)`` of each piece of work the first
      time an instant or an event sees it completed, instances ascending;
    - ``("freeze",)`` at each ``k * mtime_ms`` up to the last event;
    - ``("report", t, instance, report)`` at each ``k * feedback_interval``
      up to the last event, from the work seen by then: queued when arrived
      and not started at ``t``, its latency from the last work completed;
    - ``("delivered", ts, reports)`` per event: the reports of the last
      feedback instant due by its timestamp, ``delivery_delay_ms`` later,
      else the empty ones.

    An instant on an event's timestamp comes before it, and a freeze before
    a feedback instant at the same time."""
    last = rows[-1][0]
    instants = []  # (t, 0 for a freeze or 1 for a feedback instant)
    for read, interval, kind in ((reads_snapshot, mtime_ms, 0), (reads_reports, feedback_interval, 1)):
        k = 1
        while read and k * interval <= last:
            instants.append((k * interval, kind))
            k += 1
    instants.sort()
    seen: list[tuple[int, tuple]] = []  # (instance, work) of the events so far
    observed: set[int] = set()  # indices into seen
    emitted = []  # (t, reports)
    log = []

    def observe(now):
        for inst in range(n):
            for k, (idx, work) in enumerate(seen):
                if idx == inst and k not in observed and work[1] <= now:
                    observed.add(k)
                    if reads_snapshot:
                        log.append(("observe", work[3], work[6], work[7]))

    fired = 0
    for ts, event_work in rows:
        while fired < len(instants) and instants[fired][0] <= ts:
            t, kind = instants[fired]
            fired += 1
            observe(t)
            if kind == 0:
                log.append(("freeze",))
                continue
            reports = []
            for inst in range(n):
                mine = [work for idx, work in seen if idx == inst]
                queued = [work for work in mine if work[2] <= t < work[0]]
                counts: dict[str, int] = {}
                for work in queued:
                    counts[work[3]] = counts.get(work[3], 0) + 1
                theta = sum(work[4] for work in queued) / len(queued) if queued else 1.0
                done = [work[5] for work in mine if work[1] <= t]
                reports.append((counts, theta, done[-1] if done else None))
                log.append(("report", t, inst, reports[-1]))
            emitted.append((t, reports))
        observe(ts)
        due = [reports for t, reports in emitted if t + delivery_delay_ms <= ts]
        log.append(("delivered", ts, due[-1] if due else [InstanceView()[1:]] * n))
        seen.extend(event_work)
    return log
