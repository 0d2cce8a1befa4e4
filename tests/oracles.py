"""Brute-force oracles the tests check the optimised code against.

Nothing in ``cepsim`` calls these; each restates one computation in its
plainest form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from cepsim.latency_model import _pairing


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
