"""Domain types and shared errors.

All times are simulated milliseconds: event timestamps are integers, latency
arithmetic is done in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class CepSimError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(CepSimError):
    """A configuration value is missing, malformed, or out of range."""


class CostModelError(CepSimError):
    """A cost model was asked to price an event type it does not know."""


class Event(NamedTuple):
    """One stream element; the unit of transmission and processing cost.

    ``seq`` strictly increases in arrival order and ``ts`` is non-decreasing
    with ``seq``, so (ts, seq) is a total order over any stream.
    """

    seq: int
    ts: int
    etype: str
    key: str | None = None
    payload_cost_hint: float | None = None


@dataclass(slots=True)
class WindowDescriptor:
    """What a run measures of one window on the instance that owns it: the
    realised queuing gains and queuing peak of its member events there, for
    prediction-accuracy analysis. A window's extent is the splitter's and
    its instance its decision's."""

    actual_gamma_minus: float = 0.0
    actual_gamma_plus: float = 0.0
    actual_lambda_q_peak: float = 0.0
