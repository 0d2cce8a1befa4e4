"""Discrete-event simulation of the split--process--merge pipeline.

The simulator walks the totally ordered event stream once. Each event is run
through the splitter (window detection, monitoring statistics), newly opened
windows are assigned by the scheduling controller, and the event is then
transmitted to every instance owning at least one of its member windows.
Operator instances are simulated, not real threads: an event's service time
is the summed in-window cost over its member windows on that instance, and
the instance's busy-until clock advances accordingly. This yields exactly
the busy-server recursion lambda_q(e') = max(0, lambda_q(e) + lambda_p(e) -
iat) per instance, reproducibly and hardware-independently.

An event's work on one instance runs once per (event, instance): routing,
queueing, one entry in each of ``RunMetrics``' typed columns and the latency
observations. A cost that is the same in every window is priced once, its
sum is a memoised repeated addition and its observations are one run of
equal values. Only a cost that reads the window's state is priced per
(event, window), in wid order, from one count: the stream-wide count of the
type it reads less that count at the window's opening. Each window's queuing
gains and peak are also accumulated per (event, window). A window's member
count is set when it closes, from the events processed since its opener.

Monitoring-window freezes and instance feedback reports fire at their
simulated times between event arrivals; feedback reflects only events whose
processing already completed, so controllers see realistically stale data.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from collections import abc, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence, TYPE_CHECKING

from .core import Event, WindowDescriptor
from .latency_model import ModelParams
from .scheduler import Decision, InstanceView, WindowScheduler, make_scheduler
from .splitter import Splitter, StreamStats, make_policy, route_event
from .workload import CostModel, counted_etype, generate_stream, uniform_cost, window_cost_terms
# uncalled: perfbench's self-test needs its in_window_cost boundary, which wraps this name, to exist
from .workload import in_window_cost  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from .cli import ExperimentConfig


@dataclass(frozen=True)
class FeedbackReport:
    """Queue summary an instance sends to the splitter at feedback instants."""

    instance: int
    queued_counts: Mapping[str, int]
    theta_bar_rep: float
    last_lambda_o: float | None
    emitted_at: float


@dataclass
class InstanceState:
    """Simulated operator instance: FIFO queue driven by a busy-until clock.

    An instance holds only its in-flight work: ``work`` has one ``(start,
    completion, arrival, etype, n_windows, lambda_o, latencies, run)`` tuple
    per processed event that has not completed by the last ``complete``, in
    processing order, so starts, completions and arrivals all go up along
    it. ``latencies`` is a list of in-window latencies with ``run`` None, or
    one latency shared by ``run`` windows.
    """

    idx: int
    busy_until: float = 0.0
    open_windows: dict[int, WindowDescriptor] = field(default_factory=dict)
    last_arrival: float | None = None
    work: deque = field(default_factory=deque)
    last_lambda_o: float | None = None  # of the last completed event

    def complete(self, now: float, stats: StreamStats) -> None:
        """Retire the work completed by ``now``, reporting its latencies."""
        work = self.work
        while work and work[0][1] <= now:
            _, _, _, etype, _, self.last_lambda_o, lams, run = work.popleft()
            if run is None:
                stats.observe_latencies(etype, lams)
            else:
                stats.observe_latency(etype, lams, run)

    def make_feedback(self, now: float) -> FeedbackReport:
        """Snapshot of the queue at ``now``; only completed events count as
        reported latency, only arrived-but-unstarted events count as queued."""
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
        return FeedbackReport(self.idx, counts, theta, self.last_lambda_o, now)


@dataclass(slots=True)
class BatchRecord:
    """A maximal run of consecutive windows scheduled to one instance."""

    batch_id: int
    instance: int
    first_decision_ts: int
    wids: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class FeedbackDelay:
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


class RowView(abc.Sequence):
    """Read-only sequence of ``length`` rows, built by ``row(i)`` on access."""

    __slots__ = ("_len", "_row")

    def __init__(self, length: int, row: Callable[[int], Any]):
        self._len = length
        self._row = row

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int):
        if not 0 <= i < self._len:
            raise IndexError("row index out of range")
        return self._row(i)


_wid = attrgetter("wid")


def _column(typecode: str):
    return field(default_factory=lambda: array(typecode))


@dataclass
class RunMetrics:
    """Everything one simulation run produced.

    Processed (event, instance) pairs are stored as six typed columns, one
    entry per pair in event order: ``event_seq``, ``instance``, ``ts``,
    ``lambda_q``, ``lambda_p`` and ``queue_len``, the fields the outputs
    read; a pair's operational latency lambda_o is ``lambda_q + lambda_p``.
    The ``tx_*`` columns hold one transmission row per event: its seq,
    timestamp, member-window count and the number of instances it was sent
    to. The columns are the record of the run; nothing re-presents them per
    sample. ``windows`` holds every scheduled window, indexed by wid.
    """

    event_seq: array = _column("q")
    instance: array = _column("q")
    ts: array = _column("q")
    lambda_q: array = _column("d")
    lambda_p: array = _column("d")
    queue_len: array = _column("q")
    tx_seq: array = _column("q")
    tx_ts: array = _column("q")
    tx_members: array = _column("q")
    tx_instances: array = _column("q")
    decisions: list[Decision] = field(default_factory=list)
    windows: list[WindowDescriptor] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)
    dropped_closes: int = 0
    n_events: int = 0

    @property
    def transmissions(self) -> int:
        """Events sent to instances: one per processed (event, instance) pair."""
        return len(self.event_seq)

    def lambda_o_values(self, warmup_ms: float = 0.0) -> array:
        return array(
            "d", (q + p for t, q, p in zip(self.ts, self.lambda_q, self.lambda_p) if t >= warmup_ms)
        )

    def feedback_delays(self) -> list[FeedbackDelay]:
        """Per-batch feedback delays, attributing to a batch every event
        processed on its instance between the batch's first scheduling
        decision and the close of its last window (the end of the run if one
        of its windows never closed). Peaks are the first maximal samples."""
        # per instance, in event order: timestamps, lambda_o and queue lengths
        by_instance: dict[int, tuple[array, array, array]] = {}
        for inst, t, q, p, n in zip(self.instance, self.ts, self.lambda_q, self.lambda_p, self.queue_len):
            cols = by_instance.get(inst)
            if cols is None:
                cols = by_instance[inst] = (array("q"), array("d"), array("q"))
            cols[0].append(t)
            cols[1].append(q + p)
            cols[2].append(n)
        end_of_run = self.ts[-1] if self.ts else 0
        out = []
        for b in self.batches:
            closes = [self.windows[wid].close_ts for wid in b.wids]
            span_end = end_of_run if None in closes else max(closes)
            ts, los, qlens = by_instance.get(b.instance, ((), (), ()))
            lo = bisect_left(ts, b.first_decision_ts)
            hi = bisect_right(ts, span_end)
            if lo >= hi:
                continue  # batch saw no events
            # index() finds the first maximal sample
            span_los, span_qlens = los[lo:hi], qlens[lo:hi]
            lat_peak, qlen_peak = max(span_los), max(span_qlens)
            lat_ts = ts[lo + span_los.index(lat_peak)]
            qlen_ts = ts[lo + span_qlens.index(qlen_peak)]
            out.append(
                FeedbackDelay(
                    b.batch_id,
                    b.instance,
                    b.first_decision_ts,
                    len(b.wids),
                    lat_peak,
                    float(lat_ts - b.first_decision_ts),
                    qlen_peak,
                    float(qlen_ts - b.first_decision_ts),
                )
            )
        return out


def simulate(
    events: Sequence[Event],
    policy,
    cost_model: CostModel,
    scheduler: WindowScheduler,
    model_params: ModelParams,
    mtime_ms: float,
    feedback_interval_ms: float | None = None,
    transfer_delay_ms: float = 0.0,
    feedback_delivery_delay_ms: float = 0.0,
) -> RunMetrics:
    """Run the split--process--merge pipeline over a prepared event stream.

    Deterministic: the same inputs produce identical metrics.
    """
    if feedback_interval_ms is None:
        feedback_interval_ms = mtime_ms / 10.0
    n_instances = scheduler.n
    stats = StreamStats(model_params.n_iat_bins, model_params.n_lat_bins)
    splitter = Splitter(policy, stats)
    instances = [InstanceState(i) for i in range(n_instances)]
    delivered: list[FeedbackReport | None] = [None] * n_instances
    pending_reports: deque[tuple[float, FeedbackReport]] = deque()
    metrics = RunMetrics(n_events=len(events))
    # column appends, bound once: the loop below runs once per pair
    add_seq, add_instance, add_ts = metrics.event_seq.append, metrics.instance.append, metrics.ts.append
    add_lambda_q, add_lambda_p = metrics.lambda_q.append, metrics.lambda_p.append
    add_queue_len = metrics.queue_len.append
    now = 0
    owners: list[int] = []  # instances holding open windows, ascending
    # a window's count of the type a window-reading cost counts (None: every
    # type) is the events before the current one, less those before its opener
    counted_type = counted_etype(cost_model)
    counted = 0
    counted_at_open = array("q")  # by wid
    open_at: dict[int, int] = {}  # wid -> events processed at its opening
    lambda_p_sums: dict[float, list[float]] = {}  # cost -> [0.0, cost, cost + cost, ...]

    next_freeze = mtime_ms
    next_feedback = feedback_interval_ms
    last_batch_instance: int | None = None

    def advance_to(now: float) -> None:
        """Fire each monitoring freeze and feedback instant up to ``now`` in
        time order, each after the work completed by its instant, then
        retire the work completed by ``now``; deliver reports once due."""
        nonlocal next_freeze, next_feedback
        while True:
            t = min(next_freeze, next_feedback, now)  # on a tie: freeze, feedback, now
            for inst in instances:
                if inst.work and inst.work[0][1] <= t:
                    inst.complete(t, stats)
            if t == next_freeze:
                stats.end_monitoring_window(t)
                next_freeze += mtime_ms
            elif t == next_feedback:
                for inst in instances:
                    pending_reports.append((t + feedback_delivery_delay_ms, inst.make_feedback(t)))
                next_feedback += feedback_interval_ms
            while pending_reports and pending_reports[0][0] <= t:
                rep = pending_reports.popleft()[1]
                delivered[rep.instance] = rep
            if t == now and now < next_freeze and now < next_feedback:
                return

    def view(i: int) -> InstanceView:
        n_open = len(instances[i].open_windows)
        rep = delivered[i]
        if rep is None:
            return InstanceView(open_window_count=n_open)
        return InstanceView(n_open, rep.queued_counts, rep.theta_bar_rep, rep.last_lambda_o)

    # controllers read one instance per decision, so views are built on access
    views = RowView(n_instances, view)

    def count_members(w: WindowDescriptor, processed: int) -> None:
        # the events processed so far, less those before its opener
        w.n_member_events = processed - open_at.pop(w.wid)

    for processed, e in enumerate(events):
        if e.ts < now:
            raise ValueError(f"event timestamps cannot go backwards: {e.ts} < {now}")
        now = e.ts
        advance_to(now)

        res = splitter.process(e)
        closing: dict[int, list[WindowDescriptor]] = {}  # instance -> closed windows e is in
        for w in res.closed:
            idx = w.assigned_instance
            open_windows = instances[idx].open_windows
            del open_windows[w.wid]
            if not open_windows:
                owners.remove(idx)
            if e.ts <= w.close_ts:
                closing.setdefault(idx, []).append(w)
            else:
                count_members(w, processed)

        for w in res.opened:
            decision = scheduler.schedule(w, stats.snapshot, views)
            idx = decision.instance
            w.assigned_instance = idx
            open_windows = instances[idx].open_windows
            if not open_windows:
                insort(owners, idx)
            open_windows[w.wid] = w
            open_at[w.wid] = processed
            counted_at_open.append(counted)
            metrics.decisions.append(decision)
            if idx != last_batch_instance:
                metrics.batches.append(BatchRecord(len(metrics.batches), idx, e.ts))
                last_batch_instance = idx
            metrics.batches[-1].wids.append(w.wid)
            metrics.windows.append(w)

        targets = route_event(owners, closing)
        seq, ts, etype = e.seq, e.ts, e.etype
        arrival = ts + transfer_delay_ms
        # priced once per event when every window charges the same
        cost = uniform_cost(cost_model, e) if targets else None
        if cost is not None:
            sums = lambda_p_sums.get(cost)
            if sums is None:
                sums = lambda_p_sums[cost] = [0.0]
        elif targets:
            base, incr, hint = window_cost_terms(cost_model, e)
        for idx in targets:
            inst = instances[idx]
            wins = inst.open_windows.values()
            closed = closing.get(idx)
            if closed is not None:
                wins = sorted([*wins, *closed], key=_wid)
            k = len(wins)
            lambda_q = max(0.0, inst.busy_until - arrival)
            start = arrival + lambda_q
            if cost is None:
                lams, run = [], None
                lambda_p = 0.0
                for w in wins:
                    c = base + incr * (counted - counted_at_open[w.wid])
                    if hint is not None:
                        c *= hint
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
            # the work left is what had not completed by ts, in start order:
            # all but the leading records started by arrival are queued
            work = inst.work
            queue_len = len(work) + 1
            for r in work:
                if r[0] > arrival:
                    break
                queue_len -= 1
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

            work.append((start, completion, arrival, etype, k, lambda_q + lambda_p, lams, run))
            add_seq(seq)
            add_instance(idx)
            add_ts(ts)
            add_lambda_q(lambda_q)
            add_lambda_p(lambda_p)
            add_queue_len(queue_len)
        metrics.tx_seq.append(seq)
        metrics.tx_ts.append(ts)
        metrics.tx_members.append(len(res.memberships))
        metrics.tx_instances.append(len(targets))
        if counted_type is None or etype == counted_type:
            counted += 1
        for closed in closing.values():
            for w in closed:
                count_members(w, processed + 1)

    for wid in list(open_at):  # windows still open at the end of the run
        count_members(metrics.windows[wid], len(events))

    # drain: keep the monitoring and feedback machinery running until every
    # instance finished its queued work
    advance_to(max([now] + [inst.busy_until for inst in instances]))

    metrics.dropped_closes = splitter.dropped_closes
    return metrics


def run(cfg: "ExperimentConfig") -> RunMetrics:
    """Validate the experiment, generate its workload and simulate it."""
    cfg.validate()
    events = generate_stream(cfg.workload)
    policy = make_policy(cfg.workload)
    scheduler = make_scheduler(cfg.scheduler)
    return simulate(
        events,
        policy,
        cfg.workload.cost,
        scheduler,
        cfg.model,
        mtime_ms=cfg.mtime_ms,
        feedback_interval_ms=cfg.feedback_interval_ms,
        transfer_delay_ms=cfg.transfer_delay_ms,
        feedback_delivery_delay_ms=cfg.feedback_delivery_delay_ms,
    )
