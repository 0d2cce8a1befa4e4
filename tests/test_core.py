from cepsim.core import Event, WindowDescriptor
from cepsim.runtime import simulate
from cepsim.scheduler import SchedulerConfig, make_scheduler
from cepsim.splitter import Splitter, TimeWindowPolicy
from cepsim.workload import CostModel


class TestWindowDescriptor:
    def test_scope(self):
        w = WindowDescriptor(wid=0, start_seq=0, open_ts=100)
        assert w.close_ts is None and w.scope_ms is None
        w.close_ts = 350
        assert w.scope_ms == 250.0

    def test_member_events_counts_every_type(self):
        assert WindowDescriptor(wid=0, start_seq=0, open_ts=100).n_member_events == 0
        # the window opened at 0 closes at 100: its members are the opener,
        # an A and a B; the A at 150 is not one
        events = [Event(0, 0, "open"), Event(1, 40, "A"), Event(2, 100, "B"), Event(3, 150, "A")]
        cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0, "B": 1.0})
        scheduler = make_scheduler(SchedulerConfig())
        m = simulate(Splitter(events, TimeWindowPolicy("open", 100)), cost, scheduler, mtime_ms=1000.0)
        (w,) = m.windows
        assert (w.close_ts, w.n_member_events) == (100, 3)
