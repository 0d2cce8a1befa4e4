"""Brute-force oracles the tests check the optimised code against.

Nothing in ``cepsim`` calls these; each restates one computation in its
plainest form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from cepsim.latency_model import (
    ModelParams,
    _lambda_q_init,
    _mean_latencies,
    _pairing,
    _split_gains,
    biased_iat_bins,
    biased_latency_bins,
)
from cepsim.splitter import StreamStatsSnapshot


@dataclass
class Bin:
    """One equal-width bin with Welford accumulators."""

    lo: float
    hi: float
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        d = x - self.mean
        self.mean += d / self.count
        self.m2 += d * (x - self.mean)

    @property
    def sigma(self) -> float:
        # population standard deviation; 0 for empty bins
        if self.count == 0:
            return 0.0
        return math.sqrt(self.m2 / self.count)


def pair_bins(
    lat_bins: Iterable[tuple[float, float]],
    iat_bins: Iterable[tuple[float, float]],
    theta_bar: float,
) -> list[tuple[float, float]]:
    """Combine latency and iat bins, highest latency against lowest iat:
    (count, theta_bar * latency - iat) per pairing of
    :func:`cepsim.latency_model._pairing`."""
    return [(take, theta_bar * lat - iat) for take, lat, iat in _pairing(lat_bins, iat_bins)]


def lindley_peak(
    lambda_ps: Sequence[float],
    iats: Sequence[float] | float,
    lambda_q_init: float = 0.0,
) -> float:
    """Brute-force queuing peak of a concrete event sequence.

    Runs the busy-server recursion s_k = max(0, s_{k-1} + lambda_p_k - iat_k)
    where iat_k is the gap to the successor event, and returns the largest
    queue state reached. This is the independent oracle the gain model is
    checked against.
    """
    if isinstance(iats, (int, float)):
        iats = itertools.repeat(float(iats))
    s = lambda_q_init
    peak = 0.0
    for lam, iat in zip(lambda_ps, iats):
        s = max(0.0, s + lam - iat)
        peak = max(peak, s)
    return peak


def predict_gains(
    snapshot: StreamStatsSnapshot,
    per_type_counts: Mapping[str, float],
    n: float,
    theta_bar: float,
    params: ModelParams,
) -> tuple[float, float]:
    """Total negative and positive gains (gamma_minus >= 0 >= gamma_plus):
    the gains step of :func:`cepsim.latency_model.predict`, uncompiled."""
    pairing = _pairing(
        biased_latency_bins(snapshot, per_type_counts, params), biased_iat_bins(snapshot, n, params)
    )
    return _split_gains(pairing, theta_bar)


def predict_lambda_q_init(
    queued_counts: Mapping[str, float] | None,
    theta_bar_rep: float,
    snapshot: StreamStatsSnapshot,
    params: ModelParams,
) -> tuple[float, list[str]]:
    """Initial queuing latency of an instance from its feedback report: the
    summed processing latencies of every queued event at its reported average
    overlap. The queue step of :func:`cepsim.latency_model.predict`,
    uncompiled."""
    if not queued_counts:
        return 0.0, []
    return _lambda_q_init(queued_counts, theta_bar_rep, *_mean_latencies(snapshot, params))
