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
observations. Each event type is priced once per run, by
``window_cost_terms`` at its first event some instance receives; an event
that carries a payload cost hint is priced on its own, and an event no
instance receives is not priced. A cost that is the same in every window is
charged once per (event, instance), its sum is a memoised repeated addition
and its observations are one run of equal values. Only a cost that reads the
window's state is charged per (event, window), in wid order, from one count:
the stream-wide count of the type it reads less that count at the window's
opening. Each window's queuing gains and peak are also accumulated per
(event, window); they are all a run records of a window itself, whose extent
is the splitter's and whose instance is its decision's.

A batch, a maximal run of decisions for one instance, has its peaks measured
by a :class:`BatchTracker`: the first maximal lambda_o and queue length over
its span on its instance, the timestamps from its first decision's to its
windows' last close. An event with no later event at its timestamp updates
its instances' batches directly; the earlier ones there are folded per
instance and handed over once, so a burst stays linear. Only the peaks and
their timestamps are kept per batch; no pair is copied.

A pair's queue length is one plus the number of events on its instance that
start after its arrival: those queued or still in transit. It is measured
only into its batches' peaks, and no pair keeps it. Each instance keeps, in
order, the starts still ahead at its last arrival. Starts and arrivals never
go down on one instance (an arrival is the event's timestamp plus a fixed
delay >= 0), so a start dropped at one arrival is at or before every later
one. Only a pair that waits walks them: every start is at or before the
busy-until clock, so at an idle instance all drop and the queue length is 1.

A :class:`Monitor` owns the closed loop. Before each event it fires the
monitoring-window freezes and instance feedback reports due by then, in time
order (on a tie: freeze, feedback, event), only for a controller that reads
them (one that reads no snapshot gets the empty one, and nothing is
observed); feedback reflects only events whose processing already
completed, so controllers see realistically stale data. None fires after the
last event, whose output no later decision can change. The in-flight work
that feeds them is kept only for such a controller: Round-Robin's instances
keep a busy-until clock, their open windows, their last arrival and the
starts after it, and nothing completes or is retired.

A run's timing is a :class:`SimConfig`, whose one ``validate()`` both
``simulate`` and ``ExperimentConfig.validate`` call.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from operator import add, attrgetter
from typing import Iterator, NamedTuple, TYPE_CHECKING

from .core import ConfigurationError, WindowDescriptor
from .scheduler import Decision, InstanceView, WindowScheduler, make_scheduler
from .splitter import EMPTY_SNAPSHOT, Splitter, StreamStats, make_policy
from .workload import CostModel, counted_etype, generate_stream, window_cost_terms
# uncalled: perfbench's self-test needs the boundaries that wrap these two names
from .splitter import route_event  # noqa: F401
from .workload import in_window_cost  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover
    from .cli import ExperimentConfig

_EMPTY_REPORT = InstanceView()[1:]  # an instance's report before its first: the view's defaults


@dataclass(frozen=True)
class SimConfig:
    """The YAML ``sim`` mapping: a run's simulated timing, plus the warm-up
    and the violation bound that ``summary_row`` applies."""

    mtime_ms: float = 60_000.0
    feedback_interval_ms: float | None = None  # None: the default feedback_interval
    transfer_delay_ms: float = 0.0
    feedback_delivery_delay_ms: float = 0.0
    warmup_ms: float = 0.0
    # bound used for violation accounting, > 0; default scheduler.lb_ms
    lb_eval_ms: float | None = field(default=None, metadata={"inf": ()})

    @property
    def feedback_interval(self) -> float:
        """``feedback_interval_ms``, by default a tenth of ``mtime_ms``."""
        return self.mtime_ms / 10 if self.feedback_interval_ms is None else self.feedback_interval_ms

    def validate(self) -> None:
        """Reject nan, and infinity but in ``lb_eval_ms``. Timestamps are
        integer ms, so a shorter interval only multiplies work; an arrival
        before its event's timestamp would break queue lengths."""
        for name, lo in (("mtime_ms", 1), ("feedback_interval_ms", 1), ("transfer_delay_ms", 0),
                         ("feedback_delivery_delay_ms", 0), ("warmup_ms", 0)):
            got = v = getattr(self, name)
            if v is None:
                v = self.feedback_interval
                got = f"its default sim.mtime_ms / 10 = {v}"
            if not lo <= v < math.inf:  # rejects nan too
                bound = "finite" if v == math.inf else f">= {lo}"
                raise ConfigurationError(f"sim.{name} must be {bound}, got {got}")
        if self.lb_eval_ms is not None and not self.lb_eval_ms > 0:
            raise ConfigurationError(f"sim.lb_eval_ms must be > 0, got {self.lb_eval_ms}")


@dataclass
class InstanceState:
    """Simulated operator instance: FIFO queue driven by a busy-until clock.

    ``pending`` holds, in processing order, the starts still ahead at its
    last arrival (the events queued or in transit then), and that last
    pair's own start. A pair's queue length is one more than the count of
    starts after its arrival; an idle instance has none, as no start is
    after ``busy_until``.

    ``work`` holds in-flight work, and only for a controller that reads the
    snapshot or the reports: one ``(start, completion, arrival, etype,
    n_windows, lambda_o, latencies, run)`` tuple per processed event that
    the :class:`Monitor` has not retired as completed, in processing order,
    so starts, completions and arrivals all go up along it. ``latencies`` is
    a list of in-window latencies with ``run`` None, or one latency shared by
    ``run`` windows; only a read snapshot observes them, so without one the
    list is None.
    """

    busy_until: float = 0.0
    open_windows: dict[int, WindowDescriptor] = field(default_factory=dict)
    last_arrival: float | None = None
    pending: deque = field(default_factory=deque)
    work: deque = field(default_factory=deque)
    last_lambda_o: float | None = None  # of the last completed event

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


class Monitor:
    """The closed loop: the run's ``instances``, the monitor's ``stats`` (None
    for a controller that reads no snapshot), ``keeps_work`` (whether the
    instances keep in-flight work: only for one that reads the snapshot or
    the reports), the ``next_freeze`` and ``next_feedback`` clocks (inf when
    unread), the ``pending_reports`` and, by instance, those ``delivered``."""

    def __init__(self, scheduler: WindowScheduler, sim: SimConfig):
        n, reads_snapshot, reads_reports = scheduler.n, scheduler.reads_snapshot, scheduler.reads_reports
        self.sim, self.instances = sim, [InstanceState() for _ in range(n)]
        # only a controller that reads the snapshot has the params that size its bins
        self.stats = StreamStats(scheduler.params.n_iat_bins, scheduler.params.n_lat_bins) if reads_snapshot else None
        self.keeps_work = reads_snapshot or reads_reports
        self.next_freeze = sim.mtime_ms if reads_snapshot else math.inf
        self.next_feedback = sim.feedback_interval if reads_reports else math.inf
        self.pending_reports: deque[tuple[float, list]] = deque()  # (due, every instance's report)
        self.delivered = [_EMPTY_REPORT] * n  # the empty report until the first is due

    def advance_to(self, now: float) -> None:
        """Fire each freeze and feedback instant up to ``now`` in time order,
        each after the work completed by its instant (on a tie: freeze,
        feedback, ``now``), retire the work completed by ``now`` and deliver
        the reports due. Retired work reports its latencies to ``stats``."""
        instances, stats = self.instances, self.stats
        while True:
            t = min(self.next_freeze, self.next_feedback, now)
            for inst in instances:
                work = inst.work
                while work and work[0][1] <= t:
                    _, _, _, etype, _, inst.last_lambda_o, lams, run = work.popleft()
                    if stats is None:
                        continue
                    if run is None:
                        stats.observe_latencies(etype, lams)
                    else:
                        stats.observe_latency(etype, lams, run)
            if t == self.next_freeze:
                stats.end_monitoring_window()
                self.next_freeze += self.sim.mtime_ms
            elif t == self.next_feedback:
                reports = [inst.make_feedback(t) for inst in instances]
                self.pending_reports.append((t + self.sim.feedback_delivery_delay_ms, reports))
                self.next_feedback += self.sim.feedback_interval
            else:  # t is now, before both clocks
                break
        pending_reports = self.pending_reports
        while pending_reports and pending_reports[0][0] <= now:
            self.delivered = pending_reports.popleft()[1]


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

    Processed (event, instance) pairs are stored as three typed columns, one
    entry per pair in event order: ``instance``, ``lambda_q`` and
    ``lambda_p``, what ``latency.csv`` writes of a pair; its operational
    latency lambda_o is ``lambda_q + lambda_p``. A pair's queue length is
    measured only into its batches' peaks. Its seq and timestamp are its
    event's: the ``tx_*`` columns hold one transmission row per event, its
    seq, timestamp (``tx_ts`` is the splitter's ``ts`` column itself),
    member-window count and the number of instances it was sent to, and an
    event's pairs are the next ``tx_instances`` entries of the pair columns.
    The columns are the record of the run; nothing re-presents them per sample.

    Per window, indexed by wid: ``decisions`` holds its scheduling decision,
    in scheduling order, from which :meth:`feedback_delays` derives the
    batches; ``windows`` what the run measured of it; ``opened``, ``closed``
    and ``close_ts`` the splitter's detection columns, its opening and
    closing event's index and its close (None if it never closed).

    Per batch, in batch order, the ``batch_*`` columns hold what a
    :class:`BatchTracker` folded over its span on its instance, the
    timestamps from its first decision's to its windows' last close: the
    first maximal lambda_o and queue length and their timestamps.
    """

    instance: array = _column("q")
    lambda_q: array = _column("d")
    lambda_p: array = _column("d")
    tx_seq: array = _column("q")
    tx_ts: array = _column("q")
    tx_members: array = _column("q")
    tx_instances: array = _column("q")
    decisions: list[Decision] = field(default_factory=list)
    windows: list[WindowDescriptor] = field(default_factory=list)
    opened: array = _column("i")
    closed: array = _column("i")
    close_ts: list[int | None] = field(default_factory=list)
    batch_lat_peak: array = _column("d")
    batch_lat_peak_ts: array = _column("q")
    batch_qlen_peak: array = _column("q")
    batch_qlen_peak_ts: array = _column("q")

    @property
    def transmissions(self) -> int:
        """Events sent to instances: one per processed (event, instance) pair."""
        return len(self.instance)

    def window_extents(self) -> Iterator[tuple[int, int | None, int]]:
        """Per wid, ``(open_ts, close_ts, n_member_events)``: its members,
        of every type, run from its opening event to its closing event,
        which is one when its timestamp does not exceed the close."""
        tss, n = self.tx_ts, len(self.tx_ts)
        for o, c, close in zip(self.opened, self.closed, self.close_ts):
            yield tss[o], close, c - o + (c < n and tss[c] <= close)

    def lambda_o_values(self, warmup_ms: float = 0.0) -> LambdaOValues:
        """lambda_o of each pair whose event's timestamp is at least
        ``warmup_ms``, computed on each pass. Timestamps never go down, so
        those pairs follow the pairs of the events before the first such event."""
        first = sum(islice(self.tx_instances, bisect_left(self.tx_ts, warmup_ms)))
        return LambdaOValues(self.lambda_q, self.lambda_p, first)

    def feedback_delays(self) -> list[FeedbackDelay]:
        """Per-batch feedback delays: the batches derived from ``decisions``
        zipped with the peaks ``simulate`` measured for them. A batch is a
        maximal run of consecutive ``windows`` on one instance; its id is the
        run's index, and it was first decided when its first window opened."""
        tss, opened = self.tx_ts, self.opened
        out = []
        batches = groupby(self.decisions, attrgetter("instance"))
        peaks = zip(self.batch_lat_peak, self.batch_lat_peak_ts, self.batch_qlen_peak, self.batch_qlen_peak_ts)
        for batch_id, ((instance, batch), (lat_peak, lat_ts, qlen_peak, qlen_ts)) in enumerate(zip(batches, peaks)):
            first = next(batch).wid
            first_decision_ts = tss[opened[first]]
            out.append(
                FeedbackDelay(
                    batch_id,
                    instance,
                    first_decision_ts,
                    1 + sum(1 for _ in batch),
                    lat_peak,
                    float(lat_ts - first_decision_ts),
                    qlen_peak,
                    float(qlen_ts - first_decision_ts),
                )
            )
        return out


class LambdaOValues:
    """lambda_o (``lambda_q + lambda_p``) of the pairs from index ``first``
    on: sized, and computed anew on each pass, forwards or reversed, so no
    per-pair copy is held."""

    __slots__ = ("lambda_q", "lambda_p", "first")

    def __init__(self, lambda_q: array, lambda_p: array, first: int):
        self.lambda_q, self.lambda_p, self.first = lambda_q, lambda_p, first

    def __len__(self) -> int:
        return len(self.lambda_q) - self.first

    def __iter__(self) -> Iterator[float]:
        return map(add, islice(self.lambda_q, self.first, None), islice(self.lambda_p, self.first, None))

    def __reversed__(self) -> Iterator[float]:
        return islice(map(add, reversed(self.lambda_q), reversed(self.lambda_p)), len(self))


class BatchTracker:
    """The batches of a run, whose ``batch_*`` columns of ``metrics`` it alone
    writes. Per instance, ``collecting`` holds the batches whose span may still hold a
    later timestamp, each ``[end, lambda_o peak, its ts, queue-length peak, its ts, batch
    id]``, and ``earliest_end`` the earliest end. ``simulate`` updates them with each pair
    of an event with no later event at its timestamp, after ``retire`` once past
    ``earliest_end``, as ``flush`` does. It folds the pairs of the earlier events there into
    ``folds[idx]``, their instance's ``[idx, largest lambda_o, largest queue length]`` (None
    before the first, then also in ``touched``), and ``flush`` hands each fold once to the
    batches whose span holds that timestamp."""

    def __init__(self, metrics: RunMetrics, n_instances: int):
        self.columns = (metrics.batch_lat_peak, metrics.batch_lat_peak_ts,
                        metrics.batch_qlen_peak, metrics.batch_qlen_peak_ts)
        self.collecting: list[list[list]] = [[] for _ in range(n_instances)]
        self.earliest_end = [math.inf] * n_instances
        self.folds, self.touched = [None] * n_instances, []
        # the latest batch and its instance. Once a timestamp passes its end, its peaks so far are
        # kept aside: they count if it grows (the new close is at or after them), not if it ends
        self.latest, self.instance, self.checkpoint = None, None, None

    def decide(self, idx: int, now: int, close: int | None) -> None:
        """Grow the latest batch by a window decided for instance ``idx`` at
        ``now`` and closing at ``close`` (None: never), or start one with it."""
        end = math.inf if close is None else close
        latest = self.latest
        if idx == self.instance:
            latest[0] = max(latest[0], end)  # the timestamps past its old end are in its span now
        else:
            if self.checkpoint is not None:
                # the latest batch ended, past its end: its peaks are those kept aside
                latest[1:5] = self.checkpoint
                self.collecting[self.instance].remove(latest)
                self.store(latest)
            latest = self.latest = [end, -1.0, now, 0, 0, len(self.columns[0])]
            self.instance = idx
            self.collecting[idx].append(latest)
            for column in self.columns:
                column.append(0)
        self.checkpoint = None
        self.earliest_end[idx] = min(self.earliest_end[idx], latest[0])

    def flush(self, now: int) -> None:
        """Hand each fold at ``now`` to the batches whose span holds ``now``, after ``retire``, and clear the folds."""
        folds, collecting, earliest_end, touched = self.folds, self.collecting, self.earliest_end, self.touched
        for idx, lambda_o, queue_len in touched:
            folds[idx] = None
            if now > earliest_end[idx]:
                self.retire(idx, now)
            for entry in collecting[idx]:
                if lambda_o > entry[1]:
                    entry[1], entry[2] = lambda_o, now
                if queue_len > entry[3]:
                    entry[3], entry[4] = queue_len, now
        touched.clear()

    def retire(self, idx: int, now: int) -> None:
        """Store the peaks of instance ``idx``'s batches whose span ends before ``now``."""
        left, earliest = [], math.inf
        for entry in self.collecting[idx]:
            end = entry[0]
            if now <= end:
                left.append(entry)
                earliest = min(earliest, end)
            elif entry is self.latest:
                self.checkpoint = self.checkpoint or entry[1:5]
                left.append(entry)
            else:
                self.store(entry)
        self.collecting[idx] = left
        self.earliest_end[idx] = earliest

    def store(self, entry: list) -> None:
        lat, lat_ts, qlen, qlen_ts = self.columns
        b = entry[5]
        lat[b], lat_ts[b], qlen[b], qlen_ts[b] = entry[1:5]

    def finish(self, now: int) -> None:
        """Flush the folds at ``now``, the last timestamp, and store every batch's peaks: every span has ended."""
        self.flush(now)
        if self.checkpoint is not None:
            self.latest[1:5] = self.checkpoint
        for entry in chain.from_iterable(self.collecting):
            self.store(entry)


def simulate(
    splitter: Splitter,
    cost_model: CostModel,
    scheduler: WindowScheduler,
    sim: SimConfig,
) -> RunMetrics:
    """Run the split--process--merge pipeline over the stream of a fresh
    ``splitter``, which the run consumes, with the timing ``sim``, checked
    by :meth:`SimConfig.validate`.

    Deterministic: the same inputs produce identical metrics. Before each
    event a :class:`Monitor` fires the freezes and feedback instants due (on
    a tie: freeze, feedback, event), sizing its bins by the ``params`` of a
    controller that reads the snapshot. A :class:`BatchTracker` takes the
    pairs of an event with no later event at its timestamp straight into
    their instance's batches, and the others folded per (instance, timestamp).
    """
    sim.validate()
    transfer_delay_ms = sim.transfer_delay_ms
    monitor = Monitor(scheduler, sim)
    instances, stats = monitor.instances, monitor.stats
    events, tss = splitter.events, splitter.ts
    seqs = array("q", map(attrgetter("seq"), events))
    opened, close_ts = splitter.opened, splitter.close_ts
    metrics = RunMetrics(tx_seq=seqs, tx_ts=tss, opened=opened, closed=splitter.closed, close_ts=close_ts)
    windows, decisions = metrics.windows, metrics.decisions
    # column appends, bound once: the loop below runs once per pair
    add_lambda_q, add_lambda_p = metrics.lambda_q.append, metrics.lambda_p.append
    add_tx_members, add_tx_instances = metrics.tx_members.append, metrics.tx_instances.append
    owners: list[int] = []  # instances holding open windows, ascending
    # a window's count of the type a window-reading cost counts (None: every
    # type) is the events before the current one, less those before its opener
    counted_type = counted_etype(cost_model)
    counted = 0
    counted_at_open = array("i")  # by wid
    lambda_p_sums: dict[float, list[float]] = {}  # cost -> [0.0, cost, cost + cost, ...]
    # by event type: window_cost_terms of its hint-free events, and their
    # lambda_p_sums entry when every window charges base (else None)
    priced: dict[str, tuple] = {}
    batches = BatchTracker(metrics, scheduler.n)
    folds, touched, add_fold, flush = batches.folds, batches.touched, batches.touched.append, batches.flush
    collecting, earliest_end, retire = batches.collecting, batches.earliest_end, batches.retire
    last = len(events) - 1

    def view(i: int) -> InstanceView:
        # controllers read one instance per decision, so views are built on call
        n_open = len(instances[i].open_windows) - sum(decisions[wid].instance == i for wid in leaving)
        return InstanceView(n_open, *monitor.delivered[i])

    leaving: list[int] = []  # the wids of closed windows the current event is in
    for i, e in enumerate(events):
        now = e.ts
        if touched and now != tss[i - 1]:  # the batches take the last timestamp's folds before its decisions
            flush(tss[i - 1])
        if monitor.keeps_work:
            monitor.advance_to(now)

        closed, opens, memberships = splitter.process(i)
        # the monitor observes the closes, then the open, then the event. A
        # closed window leaves its instance after its last member: those the
        # last event closed as a member go now, with those closing without this one
        gone, leaving = leaving, []
        for wid in closed:
            if stats is not None:
                stats.observe_window_closed(float(close_ts[wid] - tss[opened[wid]]))
            (leaving if wid in memberships else gone).append(wid)
        for wid in gone:
            idx = decisions[wid].instance
            open_windows = instances[idx].open_windows
            del open_windows[wid]
            if not open_windows:
                owners.remove(idx)

        if stats is not None:
            if opens:
                stats.observe_window_opened(float(now))
            stats.observe_event(e, tss[i - 1] if i else None)
        if opens:
            wid = len(windows)
            decision = scheduler.schedule(wid, stats.snapshot if stats is not None else EMPTY_SNAPSHOT, view)
            idx = decision.instance
            open_windows = instances[idx].open_windows
            if not open_windows:
                insort(owners, idx)
            open_windows[wid] = w = WindowDescriptor()
            batches.decide(idx, now, close_ts[wid])
            counted_at_open.append(counted)
            decisions.append(decision)
            windows.append(w)

        etype = e.etype
        arrival = now + transfer_delay_ms
        if owners:  # priced only when some instance receives it
            hinted = e.payload_cost_hint is not None
            terms = None if hinted else priced.get(etype)
            if terms is None:
                base, incr, hint = window_cost_terms(cost_model, e)
                # incr None: every window charges base, summed once per pair
                terms = base, incr, hint, None if incr is not None else lambda_p_sums.setdefault(base, [0.0])
                if not hinted:
                    priced[etype] = terms
            base, incr, hint, sums = terms
            metrics.instance.extend(owners)
            # no later event at now: its pairs skip the fold. The earlier events' folds
            # follow at the next flush, still at now, and updates at one now commute
            alone = i == last or tss[i + 1] != now
        for idx in owners:
            inst = instances[idx]
            open_windows = inst.open_windows  # in wid order
            wins = open_windows.values()
            k = len(wins)
            pending = inst.pending  # the starts after the arrival are queued or in transit
            d = inst.busy_until - arrival
            if d > 0.0:
                lambda_q = d
                while pending and pending[0] <= arrival:
                    pending.popleft()
                queue_len = len(pending) + 1
                for w in wins:  # peaks start at 0.0
                    if d > w.actual_lambda_q_peak:
                        w.actual_lambda_q_peak = d
            else:  # idle, also for nan and -0.0: every start is at or before busy_until
                lambda_q = 0.0
                pending.clear()
                queue_len = 1
            start = arrival + lambda_q
            if incr is not None:
                # the latencies are kept only to be observed
                lams, run = [] if stats is not None else None, None
                lambda_p = 0.0
                for wid in open_windows:
                    c = base + incr * (counted - counted_at_open[wid])
                    if hint is not None:
                        c *= hint
                    if lams is not None:
                        lams.append(c)
                    lambda_p += c
            else:
                # a repeated addition, as the per-window sum would be
                while len(sums) <= k:
                    sums.append(sums[-1] + base)
                lambda_p = sums[k]
                lams, run = base, k
            completion = start + lambda_p
            inst.busy_until = completion
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

            lambda_o = lambda_q + lambda_p
            if alone:  # straight into the batches whose span holds now, as flush would
                if now > earliest_end[idx]:
                    retire(idx, now)
                for entry in collecting[idx]:
                    if lambda_o > entry[1]:
                        entry[1], entry[2] = lambda_o, now
                    if queue_len > entry[3]:
                        entry[3], entry[4] = queue_len, now
            else:
                fold = folds[idx]
                if fold is None:  # the instance's first pair at now
                    folds[idx] = fold = [idx, lambda_o, queue_len]
                    add_fold(fold)
                else:
                    if lambda_o > fold[1]:
                        fold[1] = lambda_o
                    if queue_len > fold[2]:
                        fold[2] = queue_len

            if monitor.keeps_work:
                inst.work.append((start, completion, arrival, etype, k, lambda_o, lams, run))
            add_lambda_q(lambda_q)
            add_lambda_p(lambda_p)
        add_tx_members(len(memberships))
        add_tx_instances(len(owners))
        if counted_type is None or etype == counted_type:
            counted += 1

    batches.finish(tss[-1] if events else 0)
    return metrics


def run(cfg: "ExperimentConfig") -> RunMetrics:
    """Validate the experiment, generate its workload's stream and simulate it."""
    cfg.validate()
    scheduler = make_scheduler(cfg.scheduler, cfg.model)
    splitter = Splitter(generate_stream(cfg.workload, cfg.seed), make_policy(cfg.workload))
    return simulate(splitter, cfg.workload.cost, scheduler, cfg.sim)
