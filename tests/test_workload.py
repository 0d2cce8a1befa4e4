import math
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cepsim.core import ConfigurationError, CostModelError, Event
from cepsim.workload import (
    BurstIat,
    ConstantIat,
    CostModel,
    ExponentialIat,
    ScopeProfile,
    SinusoidalExponentialIat,
    WorkloadConfig,
    counted_etype,
    generate_stream,
    in_window_cost,
    window_cost_terms,
)


def custom_cfg(**kw):
    defaults = dict(
        scenario="custom",
        duration_ms=400.0,
        iat=ConstantIat(100.0),
        scope=ScopeProfile(ws_ms=1000.0),
        type_mix={"A": 1.0},
        cost=CostModel("flat_per_type", {"A": 1.0, "open": 0.0}),
        opener_etype="open",
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class TestGenerateStream:
    def test_constant_iat_timestamps(self):
        events = generate_stream(custom_cfg(), 42)
        assert [e.ts for e in events] == [0, 100, 200, 300, 400]
        assert [e.seq for e in events] == [0, 1, 2, 3, 4]

    def test_deterministic_for_seed(self):
        cfg = custom_cfg(iat=ExponentialIat(50.0), type_mix={"A": 0.5, "B": 0.5}, duration_ms=5000.0,
                         cost=CostModel("flat_per_type", {"A": 1.0, "B": 2.0}))
        assert generate_stream(cfg, 42) == generate_stream(cfg, 42)

    def test_different_seeds_differ(self):
        cfg = custom_cfg(iat=ExponentialIat(50.0), duration_ms=5000.0)
        assert generate_stream(cfg, 42) != generate_stream(cfg, 43)

    def test_exponential_mean_within_3_percent(self):
        cfg = custom_cfg(iat=ExponentialIat(100.0), duration_ms=100.0 * 100_000)
        events = generate_stream(cfg, 42)
        gaps = [b.ts - a.ts for a, b in zip(events, events[1:])]
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 100.0) / 100.0 < 0.03

    def test_timestamps_non_decreasing_and_seq_strict(self):
        cfg = custom_cfg(iat=ExponentialIat(20.0), duration_ms=20_000.0,
                         opener=ExponentialIat(500.0))
        events = generate_stream(cfg, 42)
        for a, b in zip(events, events[1:]):
            assert a.ts <= b.ts
            assert a.seq < b.seq

    def test_type_ratio_converges(self):
        cfg = custom_cfg(
            iat=ConstantIat(1.0),
            duration_ms=50_000.0,
            type_mix={"A": 0.4, "B": 0.6},
            cost=CostModel("flat_per_type", {"A": 1.0, "B": 1.0}),
        )
        events = generate_stream(cfg, 42)
        ratio = sum(1 for e in events if e.etype == "A") / len(events)
        assert ratio == pytest.approx(0.4, abs=0.02)

    def test_traffic_pairs_l1_l2(self):
        cfg = WorkloadConfig(
            scenario="traffic",
            duration_ms=30_000.0,
            iat=ExponentialIat(500.0),
            scope=ScopeProfile(ws_min_ms=1000.0, ws_max_ms=3000.0),
            cost=CostModel("equi_join", {"L1": 1.0, "L2": 1.0}, incr_ms=0.5),
        )
        events = generate_stream(cfg, 7)
        l1 = {e.key: e.ts for e in events if e.etype == "L1"}
        l2 = {e.key: e.ts for e in events if e.etype == "L2"}
        assert set(l1) == set(l2)
        for key, t1 in l1.items():
            travel = l2[key] - t1
            assert 1000 - 1 <= travel <= 3000 + 1  # rounding slack

    def test_burst_profile_shape(self):
        cfg = custom_cfg(
            scenario="face",
            iat=BurstIat(burst_size=4, intra_gap_ms=10.0, inter_gap_ms=1970.0),
            duration_ms=4000.0,
            type_mix=None,
            cost=CostModel("flat_per_type", {"face": 8.0, "query": 1.0}),
            opener_etype="query",
        )
        events = generate_stream(cfg, 42)
        assert [e.ts for e in events] == [0, 10, 20, 30, 2000, 2010, 2020, 2030, 4000]

    def test_sinusoidal_mu_range(self):
        prof = SinusoidalExponentialIat(200.0, 2000.0, 60_000.0)
        for t in range(0, 120_000, 500):
            assert 200.0 <= prof.mu_at(t) <= 2000.0
        assert prof.mu_at(15_000.0) == pytest.approx(2000.0)
        assert prof.mu_at(45_000.0) == pytest.approx(200.0)

    def test_jitter_hints_seeded_and_mean_one(self):
        cfg = custom_cfg(iat=ConstantIat(1.0), duration_ms=20_000.0, cost_jitter_sigma=0.3)
        events = generate_stream(cfg, 42)
        hints = [e.payload_cost_hint for e in events]
        assert all(h is not None and h > 0 for h in hints)
        assert sum(hints) / len(hints) == pytest.approx(1.0, rel=0.02)
        assert generate_stream(cfg, 42) == events

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigurationError, match="type_mix"):
            generate_stream(custom_cfg(type_mix={"A": 0.5, "B": 0.6}), 42)
        with pytest.raises(ConfigurationError, match="duration_ms"):
            generate_stream(custom_cfg(duration_ms=0.0), 42)
        with pytest.raises(ConfigurationError, match="ws_min_ms"):
            generate_stream(
                WorkloadConfig(
                    scenario="traffic",
                    iat=ConstantIat(100.0),
                    scope=ScopeProfile(ws_ms=100.0),
                    cost=CostModel("equi_join", {"L1": 1.0, "L2": 1.0}),
                ),
                42,
            )
        with pytest.raises(ConfigurationError, match="mu_ms"):
            generate_stream(custom_cfg(iat=ConstantIat(-5.0)), 42)


def mk_event(etype, hint=None):
    return Event(seq=0, ts=0, etype=etype, payload_cost_hint=hint)


class TestInWindowCost:
    def test_equi_join_probe_cost(self):
        model = CostModel("equi_join", {"L1": 2.0, "L2": 1.0}, incr_ms=0.5)
        assert in_window_cost(model, mk_event("L2"), {"L1": 6}) == 4.0

    def test_equi_join_build_cost_flat(self):
        model = CostModel("equi_join", {"L1": 2.0, "L2": 1.0}, incr_ms=0.5)
        assert in_window_cost(model, mk_event("L1"), {"L1": 6, "L2": 2}) == 2.0

    def test_empty_window_state(self):
        model = CostModel("equi_join", {"L1": 2.0, "L2": 1.0}, incr_ms=0.5)
        assert in_window_cost(model, mk_event("L1"), {}) == 2.0
        assert in_window_cost(model, mk_event("L2"), {}) == 1.0

    def test_flat_per_type_ignores_position(self):
        model = CostModel("flat_per_type", {"face": 8.0})
        for seen in ({}, {"face": 50}, {"face": 3, "query": 2}):
            assert in_window_cost(model, mk_event("face"), seen) == 8.0

    def test_custom_table_with_hint(self):
        model = CostModel("custom_table", {"A": 2.0}, incr_ms=0.1)
        assert in_window_cost(model, mk_event("A"), {"A": 3, "B": 7}) == pytest.approx(3.0)
        assert in_window_cost(model, mk_event("A", hint=2.0), {"A": 3, "B": 7}) == pytest.approx(6.0)

    def test_unknown_etype_raises(self):
        model = CostModel("flat_per_type", {"A": 1.0})
        with pytest.raises(CostModelError, match="'B'"):
            in_window_cost(model, mk_event("B"), {})

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_equi_join_probe_monotone_in_position(self, n1, n2):
        model = CostModel("equi_join", {"L1": 1.0, "L2": 1.0}, incr_ms=0.25)
        lo, hi = sorted((n1, n2))
        c_lo = in_window_cost(model, mk_event("L2"), {"L1": lo})
        c_hi = in_window_cost(model, mk_event("L2"), {"L1": hi})
        assert c_lo <= c_hi

    # build, probe and other types, and a model whose probe type is its build type
    PRICED = [(CostModel(kind, {"B": 1.1, "P": 0.7, "O": 2.9}, build_etype="B", probe_etype=probe), etype)
              for kind in ("equi_join", "flat_per_type", "custom_table")
              for probe in ("P", "B") for etype in ("B", "P", "O")]
    STATES = [{}, {"B": 3}, {"P": 5}, {"O": 2, "B": 1}, {"B": 4, "P": 2, "O": 7}]

    @pytest.mark.parametrize("model, etype", PRICED)
    @pytest.mark.parametrize("incr_ms, hint", product([0.0, 0.3], [None, 1.7]))
    def test_window_cost_terms_is_the_one_pricing_rule(self, model, etype, incr_ms, hint):
        model = replace(model, incr_ms=incr_ms)
        e = mk_event(etype, hint)
        base, incr, factor = window_cost_terms(model, e)
        prices = [in_window_cost(model, e, state) for state in self.STATES]
        # whether the price reads the window's state is the kind's and the
        # type's, not incr_ms': a probe with incr_ms 0 stays priced per window
        with_incr = [in_window_cost(replace(model, incr_ms=0.3), e, state) for state in self.STATES]
        assert (incr is None) == (len(set(with_incr)) == 1)
        if incr is None:
            assert [p.hex() for p in prices] == [base.hex()] * len(prices)
            return
        counted = counted_etype(model)
        for state, price in zip(self.STATES, prices):
            n = sum(state.values()) if counted is None else state.get(counted, 0)
            expected = base + incr * n
            if factor is not None:
                expected *= factor
            assert price.hex() == expected.hex()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError, match="base_ms"):
            CostModel("flat_per_type", {"A": -1.0}).validate()
