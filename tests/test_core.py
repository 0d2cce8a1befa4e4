from hypothesis import given
from hypothesis import strategies as st

from cepsim.core import LatencySample, WindowDescriptor


class TestLatencySample:
    def test_identity(self):
        s = LatencySample.make(3, 0, 2.5, 4.0)
        assert s.lambda_o == s.lambda_q + s.lambda_p == 6.5

    @given(st.floats(0, 1e6), st.floats(0, 1e6))
    def test_identity_property(self, q, p):
        s = LatencySample.make(0, 0, q, p)
        assert s.lambda_o == s.lambda_q + s.lambda_p


class TestWindowDescriptor:
    def test_scope(self):
        w = WindowDescriptor(wid=0, start_seq=0, open_ts=100)
        assert w.is_open and w.scope_ms is None
        w.close_ts = 350
        assert w.scope_ms == 250.0
