"""Domain types, shared errors, and config-field metadata.

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


# Config-field metadata for the YAML config builder in cepsim.cli:
# INHERITED marks a field that is copied from the enclosing config rather than
# read from YAML. Numbers must be finite, except in a field whose metadata has
# an "inf" entry; that field also reads the strings listed there as +inf.
INHERITED = {"inherited": True}


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
    simulation sets it when the window closes, or at the end of the run for
    a window still open. The ``actual_*`` fields are the realised queuing
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
