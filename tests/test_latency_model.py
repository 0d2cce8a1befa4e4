import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepsim.latency_model import (
    LatencyPrediction,
    ModelParams,
    biased_iat_bins,
    biased_latency_bins,
    gains_from_event_values,
    lindley_peak,
    pair_bins,
    peak_processing_latency,
    predict,
    predict_alpha_tcount,
    predict_event_counts,
    predict_gains,
    predict_lambda_q_init,
    predict_overlap,
    predict_peak,
)
from cepsim.splitter import EMPTY_SNAPSHOT, PopulationStat, StreamStats
from conftest import feed_window, snapshot_from

WORKED_MULTISET = [8.0, 8.0, 7.0, 7.0, 4.0, 4.0, 2.0]


class TestPredictEventCounts:
    def test_bias_applied(self):
        snap = snapshot_from(iats=[400, 600], lats={})  # mean 500, sigma 100
        assert snap.iat_pop.sigma == 100.0
        n, per_type, flags = predict_event_counts(snap, 10_000.0, ModelParams(delta_iat=1.0))
        assert n == 25.0
        assert not flags

    def test_zero_bias(self):
        snap = snapshot_from(iats=[400, 600], lats={})
        n, _, _ = predict_event_counts(snap, 10_000.0, ModelParams(delta_iat=0.0))
        assert n == 20.0

    def test_per_type_split(self):
        import dataclasses

        snap = snapshot_from(iats=[400, 600], lats={})
        snap = dataclasses.replace(snap, type_ratio={"A": 0.4, "B": 0.6})
        n, per_type, _ = predict_event_counts(snap, 10_000.0, ModelParams(delta_iat=1.0))
        assert n == 25.0
        assert per_type == {"A": 10.0, "B": 15.0}

    def test_type_ratio_measured_from_arrivals(self):
        stats = StreamStats(1, 1)
        etypes = ["A", "B", "B", "A", "B", "B", "A", "B", "A", "B"]
        snap = feed_window(stats, iats=[100] * 9, etypes=etypes)
        assert snap.type_ratio == {"A": 0.4, "B": 0.6}
        n, per_type, _ = predict_event_counts(snap, 1000.0, ModelParams())
        assert per_type == {"A": 0.4 * n, "B": 0.6 * n}

    def test_floor_flagged(self):
        snap = snapshot_from(iats=[1, 99], lats={})  # mean 50, sigma 49 -> bias 2 sigma < 0
        n, _, flags = predict_event_counts(snap, 1000.0, ModelParams(delta_iat=2.0, iat_floor_ms=0.01))
        assert "iat_floored" in flags
        assert n == 1000.0 / 0.01

    def test_stale_flagged(self):
        stats = StreamStats(1, 1)
        snap = stats.end_monitoring_window(1000.0)
        n, _, flags = predict_event_counts(snap, 1000.0, ModelParams())
        assert n == 0.0
        assert "stale_snapshot" in flags


class TestPredictOverlap:
    def test_single_window(self):
        theta, flags = predict_overlap(1, 10_000.0, 2_000.0)
        assert theta == 1.0 and not flags

    def test_worked_example(self):
        theta, flags = predict_overlap(3, 10_000.0, 2_000.0)
        assert theta == pytest.approx(2.4)
        assert not flags

    def test_touching_windows(self):
        theta, _ = predict_overlap(2, 10_000.0, 10_000.0)
        assert theta == 1.0

    def test_inconsistent_inputs_clamped(self):
        theta, flags = predict_overlap(3, 10_000.0, 6_000.0)
        # full-overlap phase would be negative; only the closing phase counts
        assert "overlap_inconsistent" in flags
        assert theta == pytest.approx(min(max(12_000.0 * 1.5 / 10_000.0, 1.0), 3.0))

    def test_no_scope_data(self):
        theta, flags = predict_overlap(4, 0.0, 100.0)
        assert theta == 1.0 and "no_scope_data" in flags

    @given(st.integers(1, 40), st.floats(1.0, 1e5), st.floats(0.0, 1e5))
    def test_bounds(self, theta_hat, ws, delta):
        theta, _ = predict_overlap(theta_hat, ws, delta)
        assert 1.0 <= theta <= theta_hat


class TestPredictGains:
    def test_single_pair(self):
        snap = snapshot_from(iats=[5] * 4, lats={"A": [8.0] * 3})
        gm, gp = predict_gains(snap, {"A": 7.0}, 7.0, 1.0, ModelParams())
        assert gm == 21.0 and gp == 0.0

    def test_worked_multiset_via_types(self):
        # types A/B/C/D with in-window latencies 8/7/4/2 and counts 2/2/2/1
        snap = snapshot_from(
            iats=[5] * 10,
            lats={"A": [8.0, 8.0], "B": [7.0, 7.0], "C": [4.0, 4.0], "D": [2.0]},
        )
        counts = {"A": 2.0, "B": 2.0, "C": 2.0, "D": 1.0}
        gm, gp = predict_gains(snap, counts, 7.0, 1.0, ModelParams())
        assert gm == 10.0
        assert gp == -5.0

    def test_worked_multiset_from_event_values(self):
        gm, gp = gains_from_event_values(WORKED_MULTISET, 5.0)
        assert gm == 10.0 and gp == -5.0

    def test_all_positive_gains(self):
        snap = snapshot_from(iats=[10] * 4, lats={"A": [2.0, 3.0]})
        gm, gp = predict_gains(snap, {"A": 5.0}, 5.0, 1.0, ModelParams())
        assert gm == 0.0 and gp < 0.0

    def test_theta_bar_scales_latency(self):
        snap = snapshot_from(iats=[5] * 4, lats={"A": [4.0] * 3})
        gm, gp = predict_gains(snap, {"A": 6.0}, 6.0, 2.0, ModelParams())
        assert gm == 6 * (2 * 4.0 - 5.0)
        assert gp == 0.0

    @given(st.lists(st.tuples(st.floats(0.1, 50.0), st.floats(0.1, 50.0)), min_size=1, max_size=20))
    def test_sign_invariant(self, pairs):
        gm, gp = gains_from_event_values([p for p, _ in pairs], [i for _, i in pairs])
        assert gm >= 0.0 >= gp

    def test_degenerate_model_closed_form(self):
        # 1 latency bin per type, 1 iat bin, no bias: n * (theta * mean_lat - mean_iat)
        rng = random.Random(5)
        for _ in range(50):
            lat = [rng.uniform(0.5, 12.0) for _ in range(6)]
            iat = [rng.uniform(0.5, 12.0) for _ in range(6)]
            theta = rng.uniform(1.0, 3.0)
            snap = snapshot_from(iats=iat, lats={"A": lat})
            n = rng.uniform(1.0, 40.0)
            gm, gp = predict_gains(snap, {"A": n}, n, theta, ModelParams())
            expected = n * (theta * snap.lat_pop["A"].mean - snap.iat_pop.mean)
            assert gm + gp == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert (gm if expected > 0 else gp) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestPairBins:
    def test_count_conservation_and_identity(self, rng):
        for _ in range(200):
            lat = [(rng.uniform(0.1, 20.0), rng.uniform(0.0, 30.0)) for _ in range(rng.randrange(1, 8))]
            iat = [(rng.uniform(0.1, 20.0), rng.uniform(0.0, 30.0)) for _ in range(rng.randrange(1, 8))]
            theta = rng.uniform(1.0, 4.0)
            pairs = pair_bins(lat, iat, theta)
            paired = sum(c for c, _ in pairs)
            expected = min(sum(c for _, c in lat), sum(c for _, c in iat))
            assert paired == pytest.approx(expected, rel=1e-9, abs=1e-9)
            gm = sum(c * g for c, g in pairs if c * g > 0)
            gp = sum(c * g for c, g in pairs if c * g <= 0)
            assert gm + gp == pytest.approx(sum(c * g for c, g in pairs), rel=1e-12, abs=1e-12)

    def test_orders_high_lat_against_low_iat(self):
        pairs = pair_bins([(10.0, 1.0), (1.0, 1.0)], [(2.0, 1.0), (8.0, 1.0)], 1.0)
        assert pairs == [(1.0, 8.0), (1.0, -7.0)]


class TestAlpha:
    def test_alternating(self):
        assert predict_alpha_tcount(3, 3, 5) == pytest.approx(4 / 6)

    def test_minimum_transitions(self):
        assert predict_alpha_tcount(4, 4, 1) == 0.0

    def test_empty_group(self):
        assert predict_alpha_tcount(0, 7, 0) == 0.0
        assert predict_alpha_tcount(7, 0, 0) == 0.0

    def test_clamped_to_one(self):
        assert predict_alpha_tcount(3, 4, 99) == 1.0


class TestLambdaQInit:
    def snap(self):
        return snapshot_from(iats=[5] * 6, lats={"L1": [1.0, 1.0], "L2": [3.0]})

    def test_worked_example(self):
        lam, flags = predict_lambda_q_init({"L1": 4, "L2": 2}, 2.0, self.snap(), ModelParams())
        assert lam == 4 * 2 * 1.0 + 2 * 2 * 3.0 == 20.0
        assert not flags

    def test_empty_queue(self):
        assert predict_lambda_q_init({}, 1.0, self.snap(), ModelParams()) == (0.0, [])
        assert predict_lambda_q_init(None, 1.0, self.snap(), ModelParams()) == (0.0, [])

    def test_single_type_no_overlap(self):
        lam, _ = predict_lambda_q_init({"L2": 5}, 1.0, self.snap(), ModelParams())
        assert lam == 15.0

    def test_unknown_type_falls_back_to_global_mean(self):
        lam, flags = predict_lambda_q_init({"X": 3}, 1.0, self.snap(), ModelParams())
        global_mean = (2 * 1.0 + 1 * 3.0) / 3
        assert lam == pytest.approx(3 * global_mean)
        assert flags == ["unknown_type:X"]

    def test_global_mean_is_a_sequential_sum(self):
        # 0.0 + 1e16 + 1.0 - 1e16 is 0.0 in order; a compensated sum gives 1.0
        pops = {t: PopulationStat(1, m, 0.0, m, m) for t, m in (("A", 1e16), ("B", 1.0), ("C", -1e16))}
        snap = replace(EMPTY_SNAPSHOT, lat_pop=pops)
        sequential = 0.0
        for m in (1e16, 1.0, -1e16):
            sequential += m
        assert sequential == 0.0 and math.fsum([1e16, 1.0, -1e16]) == 1.0
        lam, flags = predict_lambda_q_init({"X": 3}, 1.0, snap, ModelParams())
        assert repr(lam) == repr(3 * (sequential / 3))
        assert flags == ["unknown_type:X"]


class TestPredictPeak:
    def test_no_interleaving_peak(self):
        lq, lo = predict_peak(10.0, -5.0, 0.0, 0.0, 0.0)
        assert lq == 10.0 and lo == 10.0

    def test_full_interleaving_peak(self):
        lq, _ = predict_peak(10.0, -5.0, 1.0, 0.0, 0.0)
        assert lq == 5.0

    def test_partial_interleaving_peak(self):
        lq, _ = predict_peak(10.0, -5.0, 0.8, 0.0, 0.0)
        assert lq == 6.0

    def test_clamped_at_init(self):
        lq, _ = predict_peak(1.0, -5.0, 1.0, 7.0, 0.0)
        assert lq == 7.0

    def test_lambda_o_adds_processing_peak(self):
        _, lo = predict_peak(10.0, -5.0, 1.0, 2.0, 4.5)
        assert lo == 7.0 + 4.5

    @given(st.floats(0, 100), st.floats(-100, 0), st.floats(0, 100))
    def test_monotone_in_alpha_and_above_init(self, gm, gp, init):
        peaks = [predict_peak(gm, gp, a, init, 0.0)[0] for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))
        assert all(p >= init for p in peaks)


class TestFullPredict:
    def warmed_stats(self):
        stats = StreamStats(2, 2)
        feed_window(
            stats,
            iats=[5, 15] * 8,
            lats={"A": [8.0, 6.0, 7.0], "B": [1.0, 2.0]},
            ws_samples=[200.0, 400.0],
            open_gaps=[0.0, 50.0, 100.0],
            etypes=["A", "B"],
        )
        return stats

    def test_prediction_consistency(self):
        snap = self.warmed_stats().snapshot
        params = ModelParams(n_iat_bins=2, n_lat_bins=2)
        pred = predict(snap, theta_hat=3, params=params)
        assert pred.gamma_minus >= 0.0 >= pred.gamma_plus
        assert pred.lambda_q_max == max(
            pred.lambda_q_init,
            pred.lambda_q_init + pred.gamma_minus + pred.alpha * pred.gamma_plus,
        )
        assert pred.lambda_o_max == pred.lambda_q_max + pred.lambda_p_max
        assert 1.0 <= pred.theta_bar <= 3.0
        # the per-type split that predict_gains reads adds up to n
        n, per_type, _ = predict_event_counts(snap, snap.ws_est, params)
        assert pred.n == n == pytest.approx(sum(per_type.values()), rel=1e-9)

    def test_lambda_p_max_uses_most_expensive_bin(self):
        snap = self.warmed_stats().snapshot
        pred = predict(snap, theta_hat=1, params=ModelParams(n_iat_bins=2, n_lat_bins=2))
        most_expensive = max(b.mean for bins in snap.lat_bins.values() for b in bins if b.count)
        assert pred.lambda_p_max == pred.theta_bar * most_expensive

    def test_fixed_alpha_mode(self):
        snap = self.warmed_stats().snapshot
        pred = predict(snap, theta_hat=2, params=ModelParams(alpha_mode="fixed", alpha_fixed=0.4))
        assert pred.alpha == 0.4

    def test_empty_snapshot_predicts_zero(self):
        stats = StreamStats(2, 2)
        snap = stats.end_monitoring_window(10_000.0)
        pred = predict(snap, theta_hat=1, params=ModelParams())
        assert pred.lambda_o_max == 0.0
        assert "stale_snapshot" in pred.flags


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
    lambda_q_max, lambda_o_max = predict_peak(gamma_minus, gamma_plus, alpha, lambda_q_init, lambda_p_max)
    return LatencyPrediction(
        n=n, theta_hat=theta_hat, theta_bar=theta_bar, gamma_minus=gamma_minus,
        gamma_plus=gamma_plus, alpha=alpha, lambda_q_init=lambda_q_init,
        lambda_q_max=lambda_q_max, lambda_p_max=lambda_p_max, lambda_o_max=lambda_o_max,
        flags=tuple(flags + f2 + f3 + f4),
    )


ORACLE_TYPES = ["A", "B", "C"]


@st.composite
def snapshot_pools(draw):
    """Snapshots frozen by one or two ``StreamStats``, each followed by a
    stale copy from an empty monitoring window, plus the empty snapshot."""
    pool = [EMPTY_SNAPSHOT]
    for _ in range(draw(st.integers(1, 2))):
        stats = StreamStats(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        start = 0
        for _ in range(draw(st.integers(1, 3))):
            snap = feed_window(
                stats,
                iats=draw(st.lists(st.integers(0, 60), max_size=12)),
                lats=draw(st.dictionaries(
                    st.sampled_from(ORACLE_TYPES),
                    st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6),
                    max_size=3,
                )),
                ws_samples=draw(st.lists(st.floats(1.0, 600.0), max_size=3)),
                open_gaps=draw(st.lists(st.floats(0.0, 200.0), max_size=4)),
                etypes=draw(st.lists(st.sampled_from(ORACLE_TYPES), min_size=1, max_size=4)),
                start_ts=start,
            )
            start = int(snap.frozen_at) + draw(st.integers(1, 50))
            stale = stats.end_monitoring_window(float(start))
            assert stale.stale and stale == replace(snap, stale=True, frozen_at=float(start))
            pool += [snap, stale]
    return pool


model_params = st.builds(
    ModelParams,
    delta_iat=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0),
    delta_lp=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0),
    alpha_mode=st.sampled_from(["tcount", "fixed"]),
    alpha_fixed=st.floats(0.0, 1.0),
    iat_floor_ms=st.sampled_from([0.01, 5.0]),
)


@settings(max_examples=200, deadline=None)
@given(
    snapshot_pools(),
    st.lists(model_params, min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.integers(0, 20),  # snapshot
            st.integers(0, 2),  # params
            st.integers(1, 6),  # theta_hat
            st.none() | st.dictionaries(st.sampled_from(ORACLE_TYPES + ["Z"]), st.integers(0, 5), max_size=3),
            st.floats(1.0, 4.0),  # theta_bar_rep
            st.integers(1, 3),  # calls in a row
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_compiled_predict_equals_composed_steps(pool, params, calls):
    # interleaved snapshots and params: a result remembered for another
    # snapshot (a stale copy included) or params would differ from the oracle
    for snap_i, params_i, theta_hat, queued, rep, repeat in calls:
        snap, p = pool[snap_i % len(pool)], params[params_i % len(params)]
        want = composed_prediction(snap, theta_hat, p, queued, rep)
        for _ in range(repeat):
            got = predict(snap, theta_hat=theta_hat, params=p, queued_counts=queued, theta_bar_rep=rep)
            assert got == want and repr(got) == repr(want)


class TestOracleBracket:
    def test_bracket_1000_random_sequences(self):
        violations = 0
        for seed in range(1000):
            rng = random.Random(seed)
            n = rng.randint(1, 500)
            lams = [rng.uniform(0.0, 20.0) for _ in range(n)]
            iats = [rng.uniform(0.1, 20.0) for _ in range(n)]
            gm, gp = gains_from_event_values(lams, iats)
            peak = lindley_peak(lams, iats)
            lo = max(0.0, gm + gp)
            if not (lo - 1e-9 <= peak <= gm + 1e-9):
                violations += 1
            # alpha=0 bounds above, alpha=1 bounds below
            assert predict_peak(gm, gp, 0.0, 0.0, 0.0)[0] >= peak - 1e-9
            assert predict_peak(gm, gp, 1.0, 0.0, 0.0)[0] <= peak + 1e-9
        assert violations == 0

    def test_worked_sequences(self):
        assert lindley_peak(WORKED_MULTISET, 5.0) == 10.0
        assert lindley_peak([4.0, 8.0, 4.0, 8.0, 2.0, 7.0, 7.0], 5.0) == 6.0

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.floats(0, 30), st.floats(0.01, 30)), min_size=1, max_size=60))
    def test_bracket_property(self, pairs):
        lams = [p for p, _ in pairs]
        iats = [i for _, i in pairs]
        gm, gp = gains_from_event_values(lams, iats)
        peak = lindley_peak(lams, iats)
        assert max(0.0, gm + gp) - 1e-6 <= peak <= gm + 1e-6
