import pytest

from cepsim import scheduler
from cepsim.core import ConfigurationError
from cepsim.latency_model import ModelParams
from cepsim.scheduler import InstanceView, SchedulerConfig, make_scheduler
from conftest import snapshot_from
from oracles import composed_prediction


def views(n, open_counts=None, last_lo=None):
    """The view function over ``n`` instances: ``view(i)`` is instance ``i``'s."""
    open_counts = open_counts or [0] * n
    return [
        InstanceView(open_window_count=open_counts[i], last_lambda_o=last_lo)
        for i in range(n)
    ].__getitem__


def flat_snapshot(lam=4.0, iat=1000.0):
    # one type, no gains (iat far above any latency), lambda_p_max == lam
    return snapshot_from(iats=[iat] * 4, lats={"A": [lam] * 3}, ws_samples=[100.0], open_gaps=[0.0, 100.0])


class TestRoundRobin:
    def test_modular_cycling(self):
        sched = make_scheduler(SchedulerConfig("round_robin", n_instances=8))
        snap = flat_snapshot()
        got = [sched.schedule(i, snap, views(8)).instance for i in range(10)]
        assert got == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]


class TestReactive:
    def test_batches_below_threshold(self):
        sched = make_scheduler(SchedulerConfig("reactive", n_instances=4, th_ms=100.0))
        snap = flat_snapshot()
        got = [sched.schedule(i, snap, views(4, last_lo=50.0)).instance for i in range(5)]
        assert got == [0, 0, 0, 0, 0]

    def test_advances_at_threshold(self):
        sched = make_scheduler(SchedulerConfig("reactive", n_instances=4, th_ms=100.0))
        snap = flat_snapshot()
        assert sched.schedule(0, snap, views(4, last_lo=99.9)).instance == 0
        d = sched.schedule(1, snap, views(4, last_lo=100.0))
        assert d.instance == 1
        assert d.observed_lambda_o == 100.0
        # the advanced instance is adopted as the new batching target
        assert sched.schedule(2, snap, views(4, last_lo=10.0)).instance == 1

    def test_no_feedback_keeps_batching(self):
        sched = make_scheduler(SchedulerConfig("reactive", n_instances=4, th_ms=100.0))
        assert sched.schedule(0, flat_snapshot(), views(4, last_lo=None)).instance == 0


class TestModelBased:
    def cfg(self, lb, n=8):
        return SchedulerConfig("model_based", n_instances=n, lb_ms=lb)

    def test_keeps_instance_when_bound_holds(self):
        sched = make_scheduler(self.cfg(lb=5.0))
        snap = flat_snapshot(lam=4.0)  # lambda_o_max == 4.0 at theta_hat 1
        d1 = sched.schedule(0, snap, views(8))
        d2 = sched.schedule(1, snap, views(8))
        assert d1.instance == d2.instance == 0
        assert d1.prediction.lambda_o_max == 4.0

    def test_advances_when_bound_exceeded(self):
        sched = make_scheduler(self.cfg(lb=5.0))
        snap = flat_snapshot(lam=6.0)
        d = sched.schedule(0, snap, views(8))
        assert d.instance == 1
        assert d.prediction.lambda_o_max == 6.0

    def test_wraparound_from_last_instance(self):
        sched = make_scheduler(self.cfg(lb=5.0))
        sched.cursor = 7
        snap = flat_snapshot(lam=6.0)
        assert sched.schedule(0, snap, views(8)).instance == 0

    def test_tiny_lb_degenerates_to_round_robin(self):
        sched = make_scheduler(self.cfg(lb=1e-300))
        snap = flat_snapshot(lam=4.0)
        got = [sched.schedule(i, snap, views(8)).instance for i in range(10)]
        assert got == [1, 2, 3, 4, 5, 6, 7, 0, 1, 2]  # advance on every window

    def test_infinite_lb_batches_everything(self):
        sched = make_scheduler(self.cfg(lb=float("inf")))
        snap = flat_snapshot(lam=1e6)
        got = [sched.schedule(i, snap, views(8)).instance for i in range(20)]
        assert set(got) == {0}

    def test_deterministic(self):
        snap = flat_snapshot(lam=4.0)
        runs = []
        for _ in range(2):
            sched = make_scheduler(self.cfg(lb=5.0))
            runs.append([sched.schedule(i, snap, views(8, open_counts=[i % 3] * 8)).instance for i in range(12)])
        assert runs[0] == runs[1]

    def test_theta_hat_counts_candidate_open_windows(self):
        sched = make_scheduler(self.cfg(lb=1e9))
        snap = flat_snapshot(lam=4.0)
        d = sched.schedule(0, snap, views(8, open_counts=[3] + [0] * 7))
        assert d.prediction.theta_hat == 4


def test_interleaved_controllers_compile_once_per_snapshot(monkeypatch):
    # two model-based controllers in one process decide in turn, each on its
    # own snapshots and params: each keeps its own compiled model, so
    # neither evicts the other's, and a new snapshot object is compiled once
    compiled = []
    compile_model = scheduler.compile_model

    def counting(snapshot, params):
        compiled.append((snapshot, params))
        return compile_model(snapshot, params)

    monkeypatch.setattr(scheduler, "compile_model", counting)
    params = [ModelParams(), ModelParams(delta_iat=0.5, delta_lp=1.0, alpha_mode="fixed", alpha_fixed=0.3)]
    scheds = [make_scheduler(SchedulerConfig("model_based", n_instances=4, lb_ms=1e9), p) for p in params]
    snaps = [
        [flat_snapshot(lam=4.0), flat_snapshot(lam=6.0, iat=3.0)],
        [flat_snapshot(lam=2.0, iat=1.0), flat_snapshot(lam=9.0, iat=5.0)],
    ]
    for step in range(2):  # each controller is handed its second snapshot once
        for i in range(3):
            for k, sched in enumerate(scheds):
                snap = snaps[k][step]
                queued = {"A": i + k}
                view = [InstanceView(i, queued, 1.5)] * 4
                d = sched.schedule(i, snap, view.__getitem__)
                assert d.instance == 0  # the bound holds: the candidate stays 0
                want = composed_prediction(snap, i + 1, params[k], queued, 1.5)
                assert d.prediction == want and repr(d.prediction) == repr(want)
    order = [(snaps[k][step], params[k]) for step in range(2) for k in range(2)]
    assert [(id(s), id(p)) for s, p in compiled] == [(id(s), id(p)) for s, p in order]


class Unread:
    """An input declared unread: reading an attribute of it fails."""

    def __getattribute__(self, name):
        raise AssertionError(f"read {name} of an input declared unread")


def unread_view(i):
    """The view function of a controller that reads no view: calling it fails."""
    raise AssertionError(f"read view {i}, which the controller reads no part of")


@pytest.mark.parametrize(
    "cfg, reads_snapshot, reads_reports, reads_views",
    [
        pytest.param(SchedulerConfig("round_robin", n_instances=4), False, False, False, id="round_robin"),
        pytest.param(SchedulerConfig("reactive", n_instances=4, th_ms=100.0), False, True, True, id="reactive"),
        pytest.param(
            SchedulerConfig("model_based", n_instances=4, lb_ms=5.0), True, True, True,
            id="model_based",
        ),
    ],
)
def test_controllers_read_only_the_inputs_they_declare(cfg, reads_snapshot, reads_reports, reads_views):
    # simulate computes no snapshot and no report for a controller that
    # declares it unread, so reading one would silently see stale defaults
    sched = make_scheduler(cfg)
    assert (sched.reads_snapshot, sched.reads_reports) == (reads_snapshot, reads_reports)
    for i in range(12):
        # below and at the threshold, within and beyond the bound: every branch
        snap = flat_snapshot(lam=4.0 if i % 3 else 6.0) if reads_snapshot else Unread()
        if reads_views:
            seen = views(4, open_counts=[i % 2] * 4, last_lo=[None, 50.0, 100.0][i % 3])
        else:
            seen = unread_view
        assert sched.schedule(i, snap, seen).wid == i


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            make_scheduler(SchedulerConfig("fifo"))

    def test_reactive_needs_th(self):
        with pytest.raises(ConfigurationError, match="th_ms"):
            make_scheduler(SchedulerConfig("reactive", n_instances=2))

    def test_model_based_needs_lb(self):
        with pytest.raises(ConfigurationError, match="lb_ms"):
            make_scheduler(SchedulerConfig("model_based", n_instances=2))

    def test_instances_positive(self):
        with pytest.raises(ConfigurationError, match="n_instances"):
            make_scheduler(SchedulerConfig("round_robin", n_instances=0))
