import random

import pytest
from hypothesis import settings

from cepsim.core import Event
from cepsim.splitter import StreamStats, StreamStatsSnapshot

# `pytest --hypothesis-profile=deep` runs the tests that take their example
# count from the profile (tests/test_runtime.py's ORACLE) 2,000 times
settings.register_profile("deep", max_examples=2000)


def feed_window(
    stats: StreamStats,
    iats=None,
    lats=None,
    ws_samples=None,
    open_gaps=None,
    etypes=None,
    start_ts=0,
):
    """Push one monitoring window of observations into ``stats`` and freeze.

    ``iats`` are gaps between consecutive events; ``lats`` maps etype to a
    list of in-window latencies; ``etypes`` optionally fixes the type of each
    arrival (defaults to cycling over the lats keys or 'A').
    """
    iats = list(iats or [])
    lats = dict(lats or {})
    ts = start_ts
    names = etypes or (sorted(lats) or ["A"])
    prev = None
    seq = 0
    stats.observe_event(Event(seq, ts, names[0]), prev)
    prev = ts
    for i, gap in enumerate(iats):
        seq += 1
        ts += gap
        stats.observe_event(Event(seq, int(ts), names[(i + 1) % len(names)]), int(prev))
        prev = ts
    for etype, values in lats.items():
        stats.observe_latency(etype, values)
    last_open = None
    for gap in open_gaps or []:
        t = gap if last_open is None else last_open + gap
        stats.observe_window_opened(t)
        last_open = t
    for ws in ws_samples or []:
        stats.observe_window_closed(ws)
    return stats.end_monitoring_window()


def snapshot_from(
    iats,
    lats,
    n_iat_bins=1,
    n_lat_bins=1,
    ws_samples=(),
    open_gaps=(),
) -> StreamStatsSnapshot:
    """One-shot snapshot built from explicit observation values."""
    stats = StreamStats(n_iat_bins, n_lat_bins)
    return feed_window(stats, iats=iats, lats=lats, ws_samples=ws_samples, open_gaps=open_gaps)


@pytest.fixture
def rng():
    return random.Random(1234)
