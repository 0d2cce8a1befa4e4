"""Queuing/operational latency prediction for batch scheduling decisions.

The model predicts, for a candidate decision that batches a newly opened
window onto an instance already holding ``theta_hat - 1`` open windows:

* the number of events the window will contain, split by type,
* the average number of windows each of those events will belong to,
* the total negative and positive gains (queue growth/drain), combined from
  latency bins and inter-arrival bins in a worst-case pairing,
* a compensation factor for the interleaving of growth and drain,
* the initial queue already present on the instance,

and from those the peak queuing latency and peak operational latency.
The steps are pure functions over an immutable statistics snapshot.
:func:`compile_model` computes once what the steps read of one snapshot and
params, and :func:`predict` composes the rest from that record. The module
keeps no state: the caller owns the record, which memoises the empty-queue
prediction per theta_hat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .core import ConfigurationError
from .splitter import StreamStatsSnapshot

_EPS = 1e-12
# every freeze allocates each bin, so a larger count costs memory and time
# per monitoring window without a finer answer
MAX_BINS = 1024


@dataclass(frozen=True)
class ModelParams:
    """Tuning knobs of the latency model.

    ``delta_iat`` biases monitored inter-arrival times downward and
    ``delta_lp`` biases monitored processing latencies upward, both in units
    of the respective population standard deviation, which makes the model
    pessimistic under changing workloads.
    """

    n_iat_bins: int = 8
    n_lat_bins: int = 4
    delta_iat: float = 0.0
    delta_lp: float = 0.0
    alpha_mode: str = "tcount"  # tcount | fixed
    alpha_fixed: float = 0.0
    iat_floor_ms: float = 0.01

    def validate(self) -> None:
        for name in ("n_iat_bins", "n_lat_bins"):
            n = getattr(self, name)
            if not isinstance(n, int):
                raise ConfigurationError(f"model.{name} must be an integer, got {n!r}")
            if not 1 <= n <= MAX_BINS:
                raise ConfigurationError(f"model.{name} must be in [1, {MAX_BINS}], got {n}")
        for name in ("delta_iat", "delta_lp"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"model.{name} must be >= 0, got {getattr(self, name)}")
        if self.alpha_mode not in ("tcount", "fixed"):
            raise ConfigurationError(f"model.alpha_mode must be tcount|fixed, got {self.alpha_mode!r}")
        if not 0.0 <= self.alpha_fixed <= 1.0:
            raise ConfigurationError(f"model.alpha_fixed must be in [0,1], got {self.alpha_fixed}")
        if not self.iat_floor_ms > 0:
            raise ConfigurationError(f"model.iat_floor_ms must be > 0, got {self.iat_floor_ms}")


class LatencyPrediction(NamedTuple):
    """The intermediates of one candidate scheduling decision that the
    outputs and the controllers read; the per-type split of ``n`` feeds the
    gains and is not kept."""

    n: float
    theta_hat: int
    theta_bar: float
    gamma_minus: float
    gamma_plus: float
    alpha: float
    lambda_q_init: float
    lambda_p_max: float
    lambda_o_max: float
    flags: tuple[str, ...] = ()


def predict_event_counts(
    snapshot: StreamStatsSnapshot, ws_est: float, params: ModelParams
) -> tuple[float, dict[str, float], list[str]]:
    """Predict the total and per-type event counts of a new window.

    n = ws / (mean iat - delta_iat * sigma(iat)), with the biased iat floored
    at ``iat_floor_ms`` to guard the division; per-type counts are fractional
    shares by the monitored type ratio.
    """
    flags = []
    if snapshot.stale:
        flags.append("stale_snapshot")
    pop = snapshot.iat_pop
    if pop.count == 0 or ws_est <= 0:
        return 0.0, {t: 0.0 for t in snapshot.type_ratio}, flags + ["no_iat_data"]
    iat = pop.mean - params.delta_iat * pop.sigma
    if iat < params.iat_floor_ms:
        iat = params.iat_floor_ms
        flags.append("iat_floored")
    n = ws_est / iat
    per_type = {t: r * n for t, r in snapshot.type_ratio.items()}
    return n, per_type, flags


def predict_overlap(theta_hat: int, ws_est: float, delta_est: float) -> tuple[float, list[str]]:
    """Average overlap of a new window batched onto ``theta_hat - 1`` open
    windows of scope ``ws_est`` shifted by ``delta_est``.

    The window sees full overlap theta_hat until the oldest batched window
    closes, then an average of theta_hat / 2 while the remaining windows
    close one shift apart. Clamped into [1, theta_hat].
    """
    flags = []
    if theta_hat < 1:
        raise ValueError(f"theta_hat must be >= 1, got {theta_hat}")
    if ws_est <= 0:
        return 1.0, ["no_scope_data"]
    full_phase = ws_est - (theta_hat - 1) * delta_est
    if full_phase < 0:
        # batch spans longer than one scope; the same-scope assumption broke
        full_phase = 0.0
        flags.append("overlap_inconsistent")
    closing_phase = (theta_hat - 1) * delta_est
    theta_bar = (full_phase * theta_hat + closing_phase * theta_hat / 2.0) / ws_est
    theta_bar = min(max(theta_bar, 1.0), float(theta_hat))
    return theta_bar, flags


def biased_latency_bins(
    snapshot: StreamStatsSnapshot,
    per_type_counts: Mapping[str, float],
    params: ModelParams,
) -> list[tuple[float, float]]:
    """(biased mean latency, predicted event count) per latency bin, all
    types pooled; each type's count is split over its bins by bin weight."""
    out = []
    for etype, count in per_type_counts.items():
        bins = snapshot.lat_bins.get(etype)
        if not bins or count <= 0:
            continue
        sigma = snapshot.lat_pop[etype].sigma
        for b in bins:
            if b.count == 0:
                continue
            out.append((b.mean + params.delta_lp * sigma, count * b.weight))
    return out


def biased_iat_bins(snapshot: StreamStatsSnapshot, n: float, params: ModelParams) -> list[tuple[float, float]]:
    """(biased mean iat, predicted event count) per inter-arrival bin."""
    sigma = snapshot.iat_pop.sigma
    return [
        (b.mean - params.delta_iat * sigma, n * b.weight)
        for b in snapshot.iat_bins
        if b.count > 0
    ]


def _pairing(
    lat_bins: Iterable[tuple[float, float]], iat_bins: Iterable[tuple[float, float]]
) -> list[tuple[float, float, float]]:
    """The worst-case pairing of latency and iat bins, as (count, latency,
    iat) triples: latency bins by value descending against iat bins
    ascending, repeatedly taking the min-available count, until either side
    is exhausted. It does not depend on theta_bar."""
    lat = sorted(((v, c) for v, c in lat_bins if c > _EPS), key=lambda x: -x[0])
    iat = sorted(((v, c) for v, c in iat_bins if c > _EPS), key=lambda x: x[0])
    pairs = []
    li, ii = 0, 0
    lat_left = lat[0][1] if lat else 0.0
    iat_left = iat[0][1] if iat else 0.0
    while li < len(lat) and ii < len(iat):
        take = min(lat_left, iat_left)
        pairs.append((take, lat[li][0], iat[ii][0]))
        lat_left -= take
        iat_left -= take
        if lat_left <= _EPS:
            li += 1
            if li < len(lat):
                lat_left = lat[li][1]
        if iat_left <= _EPS:
            ii += 1
            if ii < len(iat):
                iat_left = iat[ii][1]
    return pairs


def _split_gains(pairing: Iterable[tuple[float, float, float]], theta_bar: float) -> tuple[float, float]:
    """Sums of the positive and of the other ``count * gain`` of a pairing,
    where gain is ``theta_bar * latency - iat``."""
    gamma_minus = 0.0
    gamma_plus = 0.0
    for count, lat, iat in pairing:
        total = count * (theta_bar * lat - iat)
        if total > 0:
            gamma_minus += total
        else:
            gamma_plus += total
    return gamma_minus, gamma_plus


def predict_alpha_tcount(c_minus: int, c_plus: int, c_trans: int) -> float:
    """Compensation factor from transition counts: (c_t - 1) / (2 min(c+, c-)),
    clamped into [0, 1]; 0 when either group is empty."""
    m = min(c_minus, c_plus)
    if m <= 0:
        return 0.0
    alpha = (c_trans - 1) / (2.0 * m)
    return min(max(alpha, 0.0), 1.0)


def _mean_latencies(snapshot: StreamStatsSnapshot, params: ModelParams) -> tuple[dict[str, float], float | None]:
    """The biased mean in-window latency, mean + delta_lp * sigma, of each
    type with latency data (bin weights are entry ratios, so the weighted
    mean of its bins), and their count-weighted mean (None without data)."""
    pops = snapshot.lat_pop
    means = {t: p.mean + params.delta_lp * p.sigma for t, p in pops.items() if p.count > 0}
    if not means:
        return means, None
    # added in order from 0.0: sum() compensates from Python 3.12 on,
    # which would make the prediction depend on the Python version
    weighted = 0.0
    for t, mean in means.items():
        weighted += pops[t].count * mean
    return means, weighted / sum(pops[t].count for t in means)


def _lambda_q_init(
    queued_counts: Mapping[str, float], theta_bar_rep: float, means: Mapping[str, float], global_mean: float | None
) -> tuple[float, list[str]]:
    flags = []
    lam = 0.0
    for etype, count in queued_counts.items():
        mean = means.get(etype)
        if mean is None:
            flags.append(f"unknown_type:{etype}")
            if global_mean is None:
                continue
            mean = global_mean
        lam += count * theta_bar_rep * mean
    return lam, flags


def peak_processing_latency(
    snapshot: StreamStatsSnapshot, theta_bar: float, params: ModelParams
) -> tuple[float, list[str]]:
    """theta_bar times the biased latency of the most expensive latency bin
    of any type."""
    best = 0.0
    seen = False
    for etype, bins in snapshot.lat_bins.items():
        sigma = snapshot.lat_pop[etype].sigma
        for b in bins:
            if b.count == 0:
                continue
            seen = True
            best = max(best, b.mean + params.delta_lp * sigma)
    if not seen:
        return 0.0, ["no_latency_data"]
    return theta_bar * best, []


def predict_peak(
    gamma_minus: float,
    gamma_plus: float,
    alpha: float,
    lambda_q_init: float,
    lambda_p_max: float,
) -> tuple[float, float]:
    """Peak queuing and operational latency.

    lambda_q_max = lambda_q_init + gamma_minus + alpha * gamma_plus, clamped
    below at lambda_q_init (the batch cannot reduce pre-existing queue);
    lambda_o_max adds the peak processing latency on the pessimistic
    assumption that the most expensive event arrives at the queuing peak.
    """
    lambda_q_max = max(lambda_q_init, lambda_q_init + gamma_minus + alpha * gamma_plus)
    return lambda_q_max, lambda_q_max + lambda_p_max


@dataclass(slots=True)
class CompiledModel:
    """What :func:`predict` reads of one snapshot and params, computed once
    by :func:`compile_model`, and its empty-queue predictions by theta_hat."""

    snapshot: StreamStatsSnapshot
    n: float
    flags: tuple[str, ...]
    pairing: list[tuple[float, float, float]]
    alpha: float
    means: dict[str, float]
    global_mean: float | None
    peak_lat: float
    peak_flags: tuple[str, ...]
    memo: dict[int, LatencyPrediction]


def compile_model(snapshot: StreamStatsSnapshot, params: ModelParams) -> CompiledModel:
    n, per_type, flags = predict_event_counts(snapshot, snapshot.ws_est, params)
    pairing = _pairing(biased_latency_bins(snapshot, per_type, params), biased_iat_bins(snapshot, n, params))
    if params.alpha_mode == "fixed":
        alpha = params.alpha_fixed
    else:
        alpha = predict_alpha_tcount(snapshot.c_minus, snapshot.c_plus, snapshot.c_trans)
    # theta_bar >= 1 is finite, so theta_bar * (1 * best) is theta_bar * best,
    # and theta_bar * 0.0 without latency data is the 0.0 that is returned then
    peak_lat, peak_flags = peak_processing_latency(snapshot, 1.0, params)
    means, global_mean = _mean_latencies(snapshot, params)
    return CompiledModel(snapshot, n, tuple(flags), pairing, alpha, means, global_mean,
                         peak_lat, tuple(peak_flags), {})


def predict(
    model: CompiledModel,
    theta_hat: int,
    queued_counts: Mapping[str, float] | None = None,
    theta_bar_rep: float = 1.0,
) -> LatencyPrediction:
    """Full prediction for batching a new window onto an instance whose open
    batch currently holds ``theta_hat - 1`` windows.

    The composition of the steps above for the snapshot and params ``model``
    was compiled from. The prediction for an empty queue is memoised in
    ``model`` per theta_hat; a call with a queue pays for lambda_q_init and
    the peak."""
    pred = model.memo.get(theta_hat)  # the prediction for an empty queue
    if pred is None:
        snapshot = model.snapshot
        theta_bar, f2 = predict_overlap(theta_hat, snapshot.ws_est, snapshot.delta_est)
        gamma_minus, gamma_plus = _split_gains(model.pairing, theta_bar)
        lambda_p_max = theta_bar * model.peak_lat
        _, lambda_o_max = predict_peak(gamma_minus, gamma_plus, model.alpha, 0.0, lambda_p_max)
        pred = model.memo[theta_hat] = LatencyPrediction(
            n=model.n,
            theta_hat=theta_hat,
            theta_bar=theta_bar,
            gamma_minus=gamma_minus,
            gamma_plus=gamma_plus,
            alpha=model.alpha,
            lambda_q_init=0.0,
            lambda_p_max=lambda_p_max,
            lambda_o_max=lambda_o_max,
            flags=(*model.flags, *f2, *model.peak_flags),
        )
    if not queued_counts:
        return pred
    lambda_q_init, f3 = _lambda_q_init(queued_counts, theta_bar_rep, model.means, model.global_mean)
    _, lambda_o_max = predict_peak(
        pred.gamma_minus, pred.gamma_plus, model.alpha, lambda_q_init, pred.lambda_p_max)
    head = pred.flags[: len(pred.flags) - len(model.peak_flags)]
    return pred._replace(lambda_q_init=lambda_q_init, lambda_o_max=lambda_o_max,
                         flags=(*head, *f3, *model.peak_flags))


# ---------------------------------------------------------------------------
# Oracles and worked-example helpers


def gains_from_event_values(
    lambda_ps: Sequence[float],
    iats: Sequence[float] | float,
    theta_bar: float = 1.0,
) -> tuple[float, float]:
    """Gains computed straight from per-event values, one unit bin per event.

    Useful for desk checks and for bracketing the simulated queue against
    the model: with exact per-event inputs the pairing reduces to matching
    sorted latencies against sorted gaps.
    """
    if isinstance(iats, (int, float)):
        iats = [float(iats)] * len(lambda_ps)
    if len(iats) != len(lambda_ps):
        raise ValueError("lambda_ps and iats must have equal length")
    return _split_gains(_pairing([(v, 1.0) for v in lambda_ps], [(v, 1.0) for v in iats]), theta_bar)
