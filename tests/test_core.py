from cepsim.core import WindowDescriptor


class TestWindowDescriptor:
    def test_scope(self):
        w = WindowDescriptor(wid=0, start_seq=0, open_ts=100)
        assert w.close_ts is None and w.scope_ms is None
        w.close_ts = 350
        assert w.scope_ms == 250.0

    def test_member_events_counts_every_type(self):
        w = WindowDescriptor(wid=0, start_seq=0, open_ts=100)
        assert w.n_member_events == 0
        w.member_count_per_type.update(A=3, B=2)
        assert w.n_member_events == 5
