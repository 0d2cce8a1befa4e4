"""Brute-force oracles the tests check the optimised code against.

Nothing in ``cepsim`` calls these; each restates one computation in its
plainest form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from cepsim.latency_model import (
    LatencyPrediction,
    ModelParams,
    _lambda_q_init,
    _mean_latencies,
    _pairing,
    _split_gains,
    biased_iat_bins,
    biased_latency_bins,
    peak_processing_latency,
    predict_alpha_tcount,
    predict_event_counts,
    predict_overlap,
    predict_peak,
)
from cepsim.splitter import StreamStatsSnapshot


@dataclass
class Bin:
    """One bin with Welford's running count and mean."""

    count: int = 0
    mean: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.mean += (x - self.mean) / self.count


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
    _, lambda_o_max = predict_peak(gamma_minus, gamma_plus, alpha, lambda_q_init, lambda_p_max)
    return LatencyPrediction(
        n=n, theta_hat=theta_hat, theta_bar=theta_bar, gamma_minus=gamma_minus,
        gamma_plus=gamma_plus, alpha=alpha, lambda_q_init=lambda_q_init,
        lambda_p_max=lambda_p_max, lambda_o_max=lambda_o_max,
        flags=tuple(flags + f2 + f3 + f4),
    )
