from hypothesis import given
from hypothesis import strategies as st

from cepsim import LatencySample
from cepsim.core import WindowDescriptor


def sample(q: float, p: float) -> LatencySample:
    return LatencySample(event_seq=3, instance=0, ts=10, etype="A", arrival=10.0, start=10.0 + q,
                         completion=10.0 + q + p, lambda_q=q, lambda_p=p, n_windows=1, queue_len=1)


class TestLatencySample:
    def test_identity(self):
        s = sample(2.5, 4.0)
        assert s.lambda_o == s.lambda_q + s.lambda_p == 6.5

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    def test_identity_property(self, q, p):
        s = sample(q, p)
        assert s.lambda_o == s.lambda_q + s.lambda_p


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
