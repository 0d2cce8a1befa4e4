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
    """An open or closed window, the operator instance that owns it, and the
    ground truth its member events produced there.

    ``n_member_events`` counts its member events, of every type. The
    simulation sets it when the window opens, as if it never closed, and
    again when it closes. The ``actual_*`` fields are the realised queuing
    gains and queuing peak of the window's members on its instance, for
    prediction-accuracy analysis.
    """

    wid: int
    start_seq: int
    open_ts: int
    close_ts: int | None = None
    assigned_instance: int | None = None
    n_member_events: int = 0
    actual_gamma_minus: float = 0.0
    actual_gamma_plus: float = 0.0
    actual_lambda_q_peak: float = 0.0

    @property
    def scope_ms(self) -> float | None:
        """Window scope: time between opening and closing event, if closed."""
        if self.close_ts is None:
            return None
        return float(self.close_ts - self.open_ts)
