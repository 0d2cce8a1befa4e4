"""Discrete-event simulation of the split--process--merge pipeline.

The simulator walks the totally ordered event stream once, split at the
windows the splitter detected: at each event the monitor observes the closes,
the open and the event, the controller assigns the opened window, and the
event is transmitted to every instance owning one of its member windows.
Operator instances are simulated, not real threads: an event's service time
is the summed in-window cost over its member windows on that instance, and
the instance's busy-until clock advances accordingly. This yields exactly
the busy-server recursion lambda_q(e') = max(0, lambda_q(e) + lambda_p(e) -
iat) per instance, reproducibly and hardware-independently. A window that
closes at an event it contains leaves its instance after that event, so each
instance's windows stay in wid order.

An event's work on one instance runs once per (event, instance): routing,
queueing, one entry in each of ``RunMetrics``' pair columns and the latency
observations. A cost that is the same in every window is priced once, its
sum is a memoised repeated addition and its observations are one run of
equal values. Only a cost that reads the window's state is priced per
(event, window), in wid order, from one count: the stream-wide count of the
type it reads less that count at the window's opening. Each window's queuing
gains and peak are also accumulated per (event, window). A window's member
count is set when it opens, as if it never closed, and again if it closes.

A pair's queue length is one plus the number of events on its instance that
start after its arrival: those queued or still in transit. Each instance
keeps, in order, the starts still ahead at its last arrival. Starts and
arrivals never go down on one instance (an arrival is the event's timestamp
plus a fixed delay >= 0), so a start dropped at one arrival is at or before
every later one.

Monitoring-window freezes and instance feedback reports fire at their
simulated times between event arrivals, and only for a controller that reads
them (one that reads no snapshot gets the empty one, and nothing is observed);
feedback reflects only events whose processing already completed, so
controllers see realistically stale data. None fires after the last event,
whose output no later decision can change. The in-flight work that feeds
them is kept only for such a controller: Round-Robin's instances keep a
busy-until clock, their open windows, their last arrival and the starts
after it, and nothing completes or is retired.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress, groupby, islice, repeat
from operator import add, attrgetter
from typing import Iterable, NamedTuple, TYPE_CHECKING

from .core import WindowDescriptor
from .scheduler import Decision, InstanceView, WindowScheduler, make_scheduler
from .splitter import EMPTY_SNAPSHOT, Splitter, StreamStats, make_policy
from .workload import CostModel, counted_etype, generate_stream, uniform_cost, window_cost_terms
# uncalled: perfbench's self-test needs the boundaries that wrap these two names
from .splitter import route_event  # noqa: F401
from .workload import in_window_cost  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from .cli import ExperimentConfig


@dataclass
class InstanceState:
    """Simulated operator instance: FIFO queue driven by a busy-until clock.

    ``pending`` holds, in processing order, the starts still ahead at its
    last arrival (the events queued or in transit then), and that last
    pair's own start. A pair's queue length is one more than the count of
    starts after its arrival.

    ``work`` holds in-flight work, and only for a controller that reads the
    snapshot or the reports: one ``(start, completion, arrival, etype,
    n_windows, lambda_o, latencies, run)`` tuple per processed event that
    has not completed by the last ``complete``, in processing order, so
    starts, completions and arrivals all go up along it. ``latencies`` is a
    list of in-window latencies with ``run`` None, or one latency shared by
    ``run`` windows; only a read snapshot observes them, so without one the
    list is None.
    """

    busy_until: float = 0.0
    open_windows: dict[int, WindowDescriptor] = field(default_factory=dict)
    last_arrival: float | None = None
    pending: deque = field(default_factory=deque)
    work: deque = field(default_factory=deque)
    last_lambda_o: float | None = None  # of the last completed event

    def complete(self, now: float, stats: StreamStats | None) -> None:
        """Retire the work completed by ``now``, reporting its latencies to ``stats``, if any."""
        work = self.work
        while work and work[0][1] <= now:
            _, _, _, etype, _, self.last_lambda_o, lams, run = work.popleft()
            if stats is None:
                continue
            if run is None:
                stats.observe_latencies(etype, lams)
            else:
                stats.observe_latency(etype, lams, run)

    def make_feedback(self, now: float) -> tuple[dict[str, int], float, float | None]:
        """The report at ``now``: ``(queued_counts, theta_bar_rep, last_lambda_o)``.
        Only arrived-but-unstarted events count as queued, only completed
        events as reported latency."""
        counts: dict[str, int] = {}
        theta_sum = 0
        queued = 0
        for start, _, arrival, etype, n_windows, *_ in self.work:
            if arrival > now:
                break
            if now < start:
                counts[etype] = counts.get(etype, 0) + 1
                theta_sum += n_windows
                queued += 1
        theta = theta_sum / queued if queued else 1.0
        return counts, theta, self.last_lambda_o


class FeedbackDelay(NamedTuple):
    """Delay between a batch's first scheduling decision and the latency and
    queue-length peaks it caused on its instance."""

    batch_id: int
    instance: int
    first_decision_ts: int
    n_windows: int
    lat_peak: float
    lat_peak_delay_ms: float
    qlen_peak: int
    qlen_peak_delay_ms: float


def _column(typecode: str):
    return field(default_factory=lambda: array(typecode))


@dataclass
class RunMetrics:
    """Everything one simulation run produced.

    Processed (event, instance) pairs are stored as four typed columns, one
    entry per pair in event order: ``instance``, ``lambda_q``, ``lambda_p``
    and ``queue_len``; a pair's operational latency lambda_o is ``lambda_q +
    lambda_p``. Its seq and timestamp are its event's: the ``tx_*`` columns
    hold one transmission row per event, its seq, timestamp, member-window
    count and the number of instances it was sent to, and an event's pairs
    are the next ``tx_instances`` entries of the pair columns. ``event_seq``
    and ``ts`` expand the per-event columns to one entry per pair. The
    columns are the record of the run; nothing re-presents them per sample.
    ``windows`` holds every scheduled window, indexed by wid: the scheduling
    order, from which :meth:`feedback_delays` derives the batches.
    """

    instance: array = _column("q")
    lambda_q: array = _column("d")
    lambda_p: array = _column("d")
    queue_len: array = _column("q")
    tx_seq: array = _column("q")
    tx_ts: array = _column("q")
    tx_members: array = _column("q")
    tx_instances: array = _column("q")
    decisions: list[Decision] = field(default_factory=list)
    windows: list[WindowDescriptor] = field(default_factory=list)

    @property
    def transmissions(self) -> int:
        """Events sent to instances: one per processed (event, instance) pair."""
        return len(self.instance)

    def per_pair(self, column: Iterable):
        """An iterator over the per-event ``column``, each entry repeated once per pair of its event."""
        return chain.from_iterable(map(repeat, column, self.tx_instances))

    @property
    def event_seq(self) -> array:
        """Each pair's event seq, expanded afresh on every read."""
        return array("q", self.per_pair(self.tx_seq))

    @property
    def ts(self) -> array:
        """Each pair's event timestamp, expanded afresh on every read."""
        return array("q", self.per_pair(self.tx_ts))

    def lambda_o_values(self, warmup_ms: float = 0.0) -> array:
        """lambda_o of each pair whose event's timestamp is at least
        ``warmup_ms``. Timestamps never go down, so those pairs follow the
        pairs of the events before the first such event."""
        first = sum(islice(self.tx_instances, bisect_left(self.tx_ts, warmup_ms)))
        return array("d", map(add, islice(self.lambda_q, first, None), islice(self.lambda_p, first, None)))

    def feedback_delays(self) -> list[FeedbackDelay]:
        """Per-batch feedback delays, attributing to a batch every event
        processed on its instance between the batch's first scheduling
        decision and the close of its last window (the last processed
        event's timestamp if one of its windows never closed). Peaks are the
        first maximal samples. A batch is a maximal run of consecutive
        ``windows`` on one instance; its id is the run's index."""
        # per instance, in event order: timestamps, lambda_o and queue lengths
        by_instance: dict[int, tuple[array, array, array]] = {}
        los = map(add, self.lambda_q, self.lambda_p)
        for inst, t, lo, n in zip(self.instance, self.per_pair(self.tx_ts), los, self.queue_len):
            cols = by_instance.get(inst)
            if cols is None:
                cols = by_instance[inst] = (array("q"), array("d"), array("q"))
            cols[0].append(t)
            cols[1].append(lo)
            cols[2].append(n)
        # the timestamp of the last event that has a pair
        end_of_run = next(compress(reversed(self.tx_ts), reversed(self.tx_instances)), 0)
        out = []
        for batch_id, (instance, batch) in enumerate(groupby(self.windows, attrgetter("assigned_instance"))):
            batch = list(batch)
            first_decision_ts = batch[0].open_ts  # decided at the event that opened it
            closes = [w.close_ts for w in batch]
            span_end = end_of_run if None in closes else max(closes)
            ts, los, qlens = by_instance.get(instance, ((), (), ()))
            lo = bisect_left(ts, first_decision_ts)
            hi = bisect_right(ts, span_end)
            # never empty: the instance processed the event that opened the
            # batch's first window; index() finds the first maximal sample
            span_los, span_qlens = los[lo:hi], qlens[lo:hi]
            lat_peak, qlen_peak = max(span_los), max(span_qlens)
            lat_ts = ts[lo + span_los.index(lat_peak)]
            qlen_ts = ts[lo + span_qlens.index(qlen_peak)]
            out.append(
                FeedbackDelay(
                    batch_id,
                    instance,
                    first_decision_ts,
                    len(batch),
                    lat_peak,
                    float(lat_ts - first_decision_ts),
                    qlen_peak,
                    float(qlen_ts - first_decision_ts),
                )
            )
        return out


def simulate(
    splitter: Splitter,
    cost_model: CostModel,
    scheduler: WindowScheduler,
    mtime_ms: float,
    feedback_interval_ms: float | None = None,
    transfer_delay_ms: float = 0.0,
    feedback_delivery_delay_ms: float = 0.0,
) -> RunMetrics:
    """Run the split--process--merge pipeline over the stream of a fresh
    ``splitter``, which the run consumes.

    Deterministic: the same inputs produce identical metrics. A controller
    that reads the snapshot sizes the monitor's bins by its ``params``.
    """
    for name, delay in (("transfer_delay_ms", transfer_delay_ms),
                        ("feedback_delivery_delay_ms", feedback_delivery_delay_ms)):
        if not 0 <= delay < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {delay}")
    if feedback_interval_ms is None:
        feedback_interval_ms = mtime_ms / 10.0
    # timestamps are integer ms: a shorter interval only multiplies work, and
    # one that is 0, negative or nan never passes the next event (inf never fires)
    for name, interval in (("mtime_ms", mtime_ms), ("feedback_interval_ms", feedback_interval_ms)):
        if not interval >= 1:
            raise ValueError(f"{name} must be >= 1, got {interval}")
    n_instances = scheduler.n
    # monitoring and reports only for a controller that reads them, and
    # in-flight work only for one of those
    if scheduler.reads_snapshot:
        stats = StreamStats(scheduler.params.n_iat_bins, scheduler.params.n_lat_bins)
    else:
        stats = None
    keeps_work = scheduler.reads_snapshot or scheduler.reads_reports
    instances = [InstanceState() for _ in range(n_instances)]
    # the reports last delivered, by instance: the empty one until the first
    delivered = [({}, 1.0, None)] * n_instances
    pending_reports: deque[tuple[float, list]] = deque()  # (due, every instance's report)
    events = splitter.events
    n_events = len(events)
    seqs, tss = (array("q", map(attrgetter(name), events)) for name in ("seq", "ts"))
    metrics = RunMetrics(tx_seq=seqs, tx_ts=tss)
    windows = metrics.windows
    # column appends, bound once: the loop below runs once per pair
    add_instance, add_queue_len = metrics.instance.append, metrics.queue_len.append
    add_lambda_q, add_lambda_p = metrics.lambda_q.append, metrics.lambda_p.append
    add_tx_members, add_tx_instances = metrics.tx_members.append, metrics.tx_instances.append
    owners: list[int] = []  # instances holding open windows, ascending
    # a window's count of the type a window-reading cost counts (None: every
    # type) is the events before the current one, less those before its opener
    counted_type = counted_etype(cost_model)
    counted = 0
    counted_at_open = array("i")  # by wid
    lambda_p_sums: dict[float, list[float]] = {}  # cost -> [0.0, cost, cost + cost, ...]
    opened, close_of = splitter.opened, splitter.close_of

    next_freeze = mtime_ms if scheduler.reads_snapshot else math.inf
    next_feedback = feedback_interval_ms if scheduler.reads_reports else math.inf

    def advance_to(now: float) -> None:
        """Fire each monitoring freeze and feedback instant up to ``now`` in
        time order, each after the work completed by its instant, then
        retire the work completed by ``now``; deliver reports once due.
        Freezes and feedback instants are scheduled only when read."""
        nonlocal next_freeze, next_feedback, delivered
        while True:
            t = min(next_freeze, next_feedback, now)  # on a tie: freeze, feedback, now
            for inst in instances:
                if inst.work and inst.work[0][1] <= t:
                    inst.complete(t, stats)
            if t == next_freeze:
                stats.end_monitoring_window()
                next_freeze += mtime_ms
            elif t == next_feedback:
                reports = [inst.make_feedback(t) for inst in instances]
                pending_reports.append((t + feedback_delivery_delay_ms, reports))
                next_feedback += feedback_interval_ms
            while pending_reports and pending_reports[0][0] <= t:
                delivered = pending_reports.popleft()[1]
            if t == now and now < next_freeze and now < next_feedback:
                return

    def view(i: int) -> InstanceView:
        # controllers read one instance per decision, so views are built on call
        n_open = len(instances[i].open_windows) - sum(w.assigned_instance == i for w in leaving)
        return InstanceView(n_open, *delivered[i])

    leaving: list[WindowDescriptor] = []  # closed windows the current event is in
    for i, e in enumerate(events):
        now = e.ts
        if keeps_work:
            advance_to(now)

        closed, opens, memberships = splitter.process(i)
        # the monitor observes the closes, then the open, then the event. A
        # closed window leaves its instance after its last member: those the
        # last event closed as a member go now, with those closing without this one
        gone, leaving = leaving, []
        for wid in closed:
            w = windows[wid]
            w.close_ts = close_of(w.open_ts, now)
            member = wid in memberships
            w.n_member_events = i + member - opened[wid]
            if stats is not None:
                stats.observe_window_closed(w.scope_ms)
            (leaving if member else gone).append(w)
        for w in gone:
            idx = w.assigned_instance
            open_windows = instances[idx].open_windows
            del open_windows[w.wid]
            if not open_windows:
                owners.remove(idx)

        if stats is not None:
            if opens:
                stats.observe_window_opened(float(now))
            stats.observe_event(e, events[i - 1].ts if i else None)
        if opens:
            w = WindowDescriptor(len(windows), e.seq, now, n_member_events=n_events - i)  # unless it closes
            decision = scheduler.schedule(w, stats.snapshot if stats is not None else EMPTY_SNAPSHOT, view)
            idx = decision.instance
            w.assigned_instance = idx
            open_windows = instances[idx].open_windows
            if not open_windows:
                insort(owners, idx)
            open_windows[w.wid] = w
            counted_at_open.append(counted)
            metrics.decisions.append(decision)
            windows.append(w)

        etype = e.etype
        arrival = now + transfer_delay_ms
        # priced once per event when every window charges the same
        cost = uniform_cost(cost_model, e) if owners else None
        if cost is not None:
            sums = lambda_p_sums.get(cost)
            if sums is None:
                sums = lambda_p_sums[cost] = [0.0]
        elif owners:
            base, incr, hint = window_cost_terms(cost_model, e)
        for idx in owners:
            inst = instances[idx]
            wins = inst.open_windows.values()  # in wid order
            k = len(wins)
            lambda_q = max(0.0, inst.busy_until - arrival)
            start = arrival + lambda_q
            if cost is None:
                # the latencies are kept only to be observed
                lams, run = [] if stats is not None else None, None
                lambda_p = 0.0
                for w in wins:
                    c = base + incr * (counted - counted_at_open[w.wid])
                    if hint is not None:
                        c *= hint
                    if lams is not None:
                        lams.append(c)
                    lambda_p += c
            else:
                # a repeated addition, as the per-window sum would be
                while len(sums) <= k:
                    sums.append(sums[-1] + cost)
                lambda_p = sums[k]
                lams, run = cost, k
            completion = start + lambda_p
            inst.busy_until = completion
            # queued or in transit: the events that start after this arrival
            # (starts and arrivals never go down, so a start dropped here is
            # at or before every later arrival)
            pending = inst.pending
            while pending and pending[0] <= arrival:
                pending.popleft()
            queue_len = len(pending) + 1
            pending.append(start)
            if inst.last_arrival is not None:
                gamma = lambda_p - (arrival - inst.last_arrival)
                if gamma > 0:
                    for w in wins:
                        w.actual_gamma_minus += gamma
                else:
                    for w in wins:
                        w.actual_gamma_plus += gamma
            inst.last_arrival = arrival
            if lambda_q > 0.0:  # peaks start at 0.0
                for w in wins:
                    if lambda_q > w.actual_lambda_q_peak:
                        w.actual_lambda_q_peak = lambda_q

            if keeps_work:
                inst.work.append((start, completion, arrival, etype, k, lambda_q + lambda_p, lams, run))
            add_instance(idx)
            add_lambda_q(lambda_q)
            add_lambda_p(lambda_p)
            add_queue_len(queue_len)
        add_tx_members(len(memberships))
        add_tx_instances(len(owners))
        if counted_type is None or etype == counted_type:
            counted += 1

    return metrics


def run(cfg: "ExperimentConfig") -> RunMetrics:
    """Validate the experiment, generate its workload's stream and simulate it."""
    cfg.validate()
    scheduler = make_scheduler(cfg.scheduler, cfg.model)
    return simulate(
        Splitter(generate_stream(cfg.workload, cfg.seed), make_policy(cfg.workload)),
        cfg.workload.cost,
        scheduler,
        mtime_ms=cfg.mtime_ms,
        feedback_interval_ms=cfg.feedback_interval_ms,
        transfer_delay_ms=cfg.transfer_delay_ms,
        feedback_delivery_delay_ms=cfg.feedback_delivery_delay_ms,
    )
