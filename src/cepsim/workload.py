"""Synthetic workload generators and operator cost models.

Two built-in scenarios mirror the evaluation operators this simulator is
meant to study: ``traffic`` (vehicles passing two checkpoints, windows opened
by L1 events and closed by the matching L2 event) and ``face`` (bursty face
events matched against query windows of fixed temporal scope). A third
``custom`` scenario draws event types i.i.d. from a configured mix and opens
fixed-scope windows from a separate opener stream, which is handy for
constructing workloads with exactly known overlap.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Mapping

from .core import INHERITED, ConfigurationError, CostModelError, Event

PROB_TOL = 1e-9


# ---------------------------------------------------------------------------
# Inter-arrival profiles; a config picks one by its ``kind``


@dataclass(frozen=True)
class ConstantIat:
    """Fixed gap between consecutive events."""

    kind: ClassVar[str] = "constant"
    mu_ms: float

    def gaps(self, rng: random.Random) -> Iterator[float]:
        while True:
            yield self.mu_ms


@dataclass(frozen=True)
class ExponentialIat:
    """Poisson arrivals with mean gap ``mu_ms``."""

    kind: ClassVar[str] = "exponential"
    mu_ms: float

    def gaps(self, rng: random.Random) -> Iterator[float]:
        rate = 1.0 / self.mu_ms
        while True:
            yield rng.expovariate(rate)


@dataclass(frozen=True)
class SinusoidalExponentialIat:
    """Exponential gaps whose mean follows a sinusoid in [mu_min, mu_max]."""

    kind: ClassVar[str] = "sinusoidal_exponential"
    mu_min_ms: float
    mu_max_ms: float
    period_ms: float

    def mu_at(self, t: float) -> float:
        mid = 0.5 * (self.mu_min_ms + self.mu_max_ms)
        amp = 0.5 * (self.mu_max_ms - self.mu_min_ms)
        return mid + amp * math.sin(2.0 * math.pi * t / self.period_ms)

    def gaps(self, rng: random.Random) -> Iterator[float]:
        t = 0.0
        while True:
            gap = rng.expovariate(1.0 / self.mu_at(t))
            t += gap
            yield gap


@dataclass(frozen=True)
class BurstIat:
    """Bursts of ``burst_size`` events ``intra_gap_ms`` apart.

    ``inter_gap_ms`` is the gap between the last event of one burst and the
    first event of the next.
    """

    kind: ClassVar[str] = "burst"
    burst_size: int
    intra_gap_ms: float
    inter_gap_ms: float

    def gaps(self, rng: random.Random) -> Iterator[float]:
        while True:
            for _ in range(self.burst_size - 1):
                yield self.intra_gap_ms
            yield self.inter_gap_ms


IatProfile = ConstantIat | ExponentialIat | SinusoidalExponentialIat | BurstIat


def _validate_profile(profile: IatProfile, where: str) -> None:
    if isinstance(profile, (ConstantIat, ExponentialIat)):
        if profile.mu_ms <= 0:
            raise ConfigurationError(f"{where}.mu_ms must be > 0, got {profile.mu_ms}")
    elif isinstance(profile, SinusoidalExponentialIat):
        if profile.mu_min_ms <= 0 or profile.mu_max_ms < profile.mu_min_ms:
            raise ConfigurationError(
                f"{where}: need 0 < mu_min_ms <= mu_max_ms, got "
                f"({profile.mu_min_ms}, {profile.mu_max_ms})"
            )
        if profile.period_ms <= 0:
            raise ConfigurationError(f"{where}.period_ms must be > 0, got {profile.period_ms}")
    elif isinstance(profile, BurstIat):
        if profile.burst_size < 1:
            raise ConfigurationError(f"{where}.burst_size must be >= 1, got {profile.burst_size}")
        if profile.intra_gap_ms < 0 or profile.inter_gap_ms <= 0:
            raise ConfigurationError(
                f"{where}: need intra_gap_ms >= 0 and inter_gap_ms > 0, got "
                f"({profile.intra_gap_ms}, {profile.inter_gap_ms})"
            )
    else:
        raise ConfigurationError(f"{where}: unknown iat profile {profile!r}")


# ---------------------------------------------------------------------------
# Cost models


@dataclass(frozen=True)
class CostModel:
    """In-window processing cost of an event, in milliseconds.

    kinds:
      equi_join      build events (``build_etype``) cost their base; each
                     probe event (``probe_etype``) additionally pays
                     ``incr_ms`` per build event already seen in the window.
      flat_per_type  cost depends on the event type only.
      custom_table   base plus ``incr_ms`` per event of any type already seen,
                     scaled by the event's payload_cost_hint when present.
    """

    kind: str = "flat_per_type"
    base_ms: Mapping[str, float] = field(default_factory=dict)
    incr_ms: float = 0.0
    build_etype: str = "L1"
    probe_etype: str = "L2"

    def validate(self) -> None:
        if self.kind not in ("equi_join", "flat_per_type", "custom_table"):
            raise ConfigurationError(f"cost.kind must be one of equi_join|flat_per_type|custom_table, got {self.kind!r}")
        for etype, c in self.base_ms.items():
            if c < 0:
                raise ConfigurationError(f"cost.base_ms[{etype}] must be >= 0, got {c}")
        if self.incr_ms < 0:
            raise ConfigurationError(f"cost.incr_ms must be >= 0, got {self.incr_ms}")


def in_window_cost(model: CostModel, e: Event, window_state: Mapping[str, int]) -> float:
    """Processing latency of ``e`` within one window, given the counts of
    events already seen in that window."""
    base = model.base_ms.get(e.etype)
    if base is None:
        raise CostModelError(f"cost model has no base cost for event type {e.etype!r}")
    if model.kind == "equi_join":
        if e.etype == model.probe_etype:
            return base + model.incr_ms * window_state.get(model.build_etype, 0)
        return base
    if model.kind == "flat_per_type":
        return base
    # custom_table
    seen = sum(window_state.values())
    cost = base + model.incr_ms * seen
    if e.payload_cost_hint is not None:
        cost *= e.payload_cost_hint
    return cost


def counted_etype(model: CostModel) -> str | None:
    """The event type whose count in a window a window-reading cost reads:
    the build type (equi_join), or None for every type (custom_table)."""
    return None if model.kind == "custom_table" else model.build_etype


def window_cost_terms(model: CostModel, e: Event) -> tuple[float, float, float | None]:
    """``(base, incr, hint)`` of an event whose cost reads the window's state:
    :func:`in_window_cost` is ``base + incr * n``, times ``hint`` unless None,
    where n is the window's count of :func:`counted_etype` events."""
    base = model.base_ms.get(e.etype)
    if base is None:
        raise CostModelError(f"cost model has no base cost for event type {e.etype!r}")
    return base, model.incr_ms, e.payload_cost_hint if model.kind == "custom_table" else None


def uniform_cost(model: CostModel, e: Event) -> float | None:
    """In-window cost of ``e`` if it is the same in every window, i.e. the
    model does not read the window's counts for it; otherwise None, and each
    window is priced from :func:`window_cost_terms`."""
    if model.kind == "flat_per_type" or (model.kind == "equi_join" and e.etype != model.probe_etype):
        return in_window_cost(model, e, {})
    return None


# ---------------------------------------------------------------------------
# Workload configuration and stream generation


@dataclass(frozen=True)
class ScopeProfile:
    """Window-scope parameters.

    traffic:      per-vehicle travel time uniform in [ws_min_ms, ws_max_ms];
                  the window opened by a vehicle's L1 closes at its L2.
    face/custom:  fixed time-based scope ws_ms.
    """

    ws_min_ms: float | None = None
    ws_max_ms: float | None = None
    ws_ms: float | None = None


@dataclass(frozen=True)
class WorkloadConfig:
    scenario: str  # traffic | face | custom
    seed: int = field(default=0, metadata=INHERITED)
    duration_ms: float = 60_000.0
    iat: IatProfile = ConstantIat(1000.0)
    scope: ScopeProfile = ScopeProfile()
    opener: IatProfile | None = None  # face/custom: window-opening stream
    opener_etype: str = "query"
    type_mix: Mapping[str, float] | None = None  # custom only
    cost: CostModel = field(kw_only=True)
    cost_jitter_sigma: float = 0.0  # lognormal sigma on payload_cost_hint

    def emitted_etypes(self) -> set[str]:
        """Event types the generated stream can contain."""
        if self.scenario == "traffic":
            return {"L1", "L2"}
        types = {"face"} if self.scenario == "face" else set(self.type_mix or ())
        if self.opener is not None:
            types.add(self.opener_etype)
        return types

    def validate(self) -> None:
        if self.scenario not in ("traffic", "face", "custom"):
            raise ConfigurationError(f"workload.scenario must be traffic|face|custom, got {self.scenario!r}")
        if self.duration_ms <= 0:
            raise ConfigurationError(f"workload.duration_ms must be > 0, got {self.duration_ms}")
        _validate_profile(self.iat, "workload.iat")
        if self.scenario == "traffic":
            lo, hi = self.scope.ws_min_ms, self.scope.ws_max_ms
            if lo is None or hi is None or lo <= 0 or hi < lo:
                raise ConfigurationError(
                    f"workload.scope: traffic needs 0 < ws_min_ms <= ws_max_ms, got ({lo}, {hi})"
                )
        else:
            if self.scope.ws_ms is None or self.scope.ws_ms <= 0:
                raise ConfigurationError(
                    f"workload.scope.ws_ms must be > 0 for {self.scenario}, got {self.scope.ws_ms}"
                )
            if self.opener is not None:
                _validate_profile(self.opener, "workload.opener")
        if self.scenario == "custom":
            if not self.type_mix:
                raise ConfigurationError("workload.type_mix is required for the custom scenario")
            total = sum(self.type_mix.values())
            if abs(total - 1.0) > PROB_TOL:
                raise ConfigurationError(f"workload.type_mix probabilities must sum to 1, got {total}")
            if any(p < 0 for p in self.type_mix.values()):
                raise ConfigurationError("workload.type_mix probabilities must be >= 0")
        if self.cost_jitter_sigma < 0:
            raise ConfigurationError(f"workload.cost_jitter_sigma must be >= 0, got {self.cost_jitter_sigma}")
        self.cost.validate()


def _arrival_times(profile: IatProfile, rng: random.Random, duration_ms: float) -> list[float]:
    times = []
    t = 0.0
    gaps = profile.gaps(rng)
    while t <= duration_ms:
        times.append(t)
        t += next(gaps)
    return times


def generate_stream(cfg: WorkloadConfig) -> list[Event]:
    """Generate the full event stream for a workload configuration.

    Pure function of (cfg, cfg.seed): repeated calls yield identical streams.
    Timestamps are rounded to integer milliseconds and non-decreasing; seq is
    assigned in merged arrival order.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    raw: list[tuple[float, str, str | None]] = []  # (ts, etype, key), in generation order

    if cfg.scenario == "traffic":
        lo, hi = cfg.scope.ws_min_ms, cfg.scope.ws_max_ms
        for i, t in enumerate(_arrival_times(cfg.iat, rng, cfg.duration_ms)):
            key = f"v{i}"
            raw.append((t, "L1", key))
            # L2 may fall past duration_ms so every window eventually closes
            raw.append((t + rng.uniform(lo, hi), "L2", key))
    else:
        times = _arrival_times(cfg.iat, rng, cfg.duration_ms)
        if cfg.scenario == "face":
            raw += [(t, "face", None) for t in times]
        else:  # custom
            etypes = sorted(cfg.type_mix)
            weights = [cfg.type_mix[t] for t in etypes]
            raw += [(t, rng.choices(etypes, weights)[0], None) for t in times]
        if cfg.opener is not None:
            raw += [(t, cfg.opener_etype, None) for t in _arrival_times(cfg.opener, rng, cfg.duration_ms)]

    # the sort is stable, so events at the same time keep generation order
    raw.sort(key=itemgetter(0))
    events: list[Event] = []
    jitter = cfg.cost_jitter_sigma
    mu = -0.5 * jitter * jitter  # lognormal multiplier with mean 1
    for seq, (ts, etype, key) in enumerate(raw):
        hint = rng.lognormvariate(mu, jitter) if jitter > 0 else None
        events.append(Event(seq=seq, ts=round(ts), etype=etype, key=key, payload_cost_hint=hint))
    return events
