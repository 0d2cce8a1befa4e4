from cepsim.core import Event, WindowDescriptor
from cepsim.runtime import SimConfig, simulate
from cepsim.scheduler import SchedulerConfig, make_scheduler
from cepsim.splitter import Splitter, TimeWindowPolicy
from cepsim.workload import CostModel


def simulated(events, ws):
    cost = CostModel("flat_per_type", {"open": 0.0, "A": 1.0, "B": 1.0})
    scheduler = make_scheduler(SchedulerConfig())
    return simulate(Splitter(events, TimeWindowPolicy("open", ws)), cost, scheduler, SimConfig(mtime_ms=1000.0))


class TestWindowDescriptor:
    def test_scope(self):
        # a run measures only its gains and peak; the extent is detection's:
        # the window opened at 100 closes at 350, the one opened at 400 never
        assert WindowDescriptor() == WindowDescriptor(0.0, 0.0, 0.0)
        m = simulated([Event(0, 100, "open"), Event(1, 350, "A"), Event(2, 400, "open")], 250)
        assert list(m.window_extents()) == [(100, 350, 2), (400, None, 1)]

    def test_member_events_counts_every_type(self):
        # the window opened at 0 closes at 100: its members are the opener,
        # an A and a B; the A at 150 is not one
        events = [Event(0, 0, "open"), Event(1, 40, "A"), Event(2, 100, "B"), Event(3, 150, "A")]
        m = simulated(events, 100)
        ((_, close_ts, n_member_events),) = m.window_extents()
        assert (close_ts, n_member_events) == (100, 3)
