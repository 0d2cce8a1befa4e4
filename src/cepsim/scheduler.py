"""Window-scheduling controllers: Round-Robin, latency-reactive, model-based.

All three share one interface: ``schedule(wid, snapshot, view)`` picks the
instance the newly opened window ``wid`` is assigned to; ``view(i)`` builds
the :class:`InstanceView` of instance ``i``. Each declares the inputs it reads,
``reads_snapshot`` (the monitoring snapshot) and ``reads_reports`` (the
instances' feedback reports), and the simulation computes only those.
The reactive and model-based controllers batch onto the current instance
until their criterion fails, then move to the next instance Round-Robin
style and adopt it as the new batching target without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .core import ConfigurationError
from .latency_model import CompiledModel, LatencyPrediction, ModelParams, compile_model, predict
from .splitter import StreamStatsSnapshot


@dataclass(frozen=True)
class SchedulerConfig:
    kind: str = "round_robin"  # round_robin | reactive | model_based
    n_instances: int = 1
    th_ms: float | None = None  # reactive threshold
    # model_based latency bound, > 0; inf batches everything onto one instance
    lb_ms: float | None = field(default=None, metadata={"inf": ("inf", ".inf", "infinity")})

    def validate(self) -> None:
        if self.kind not in ("round_robin", "reactive", "model_based"):
            raise ConfigurationError(
                f"scheduler.kind must be round_robin|reactive|model_based, got {self.kind!r}"
            )
        if not isinstance(self.n_instances, int):
            raise ConfigurationError(f"scheduler.n_instances must be an integer, got {self.n_instances!r}")
        if not self.n_instances >= 1:
            raise ConfigurationError(f"scheduler.n_instances must be >= 1, got {self.n_instances}")
        if self.kind == "reactive" and (self.th_ms is None or not self.th_ms > 0):
            raise ConfigurationError(f"scheduler.th_ms must be > 0 for reactive, got {self.th_ms}")
        if self.kind == "model_based" and self.lb_ms is None:
            raise ConfigurationError("scheduler.lb_ms is required for model_based")
        # also the violation bound of a run without sim.lb_eval_ms; "not >" rejects nan
        if self.lb_ms is not None and not self.lb_ms > 0:
            raise ConfigurationError(f"scheduler.lb_ms must be > 0, got {self.lb_ms}")


class InstanceView(NamedTuple):
    """What a controller may see of one operator instance: its open-window
    count, then its last delivered feedback report as ``make_feedback``
    returns it; by default, the empty report delivered before the first."""

    open_window_count: int = 0
    queued_counts: Mapping[str, int] = MappingProxyType({})
    theta_bar_rep: float = 1.0
    last_lambda_o: float | None = None


class Decision(NamedTuple):
    wid: int
    instance: int
    kind: str
    prediction: LatencyPrediction | None = None
    observed_lambda_o: float | None = None


class RoundRobinScheduler:
    """Cycles through instances, one window each."""

    kind = "round_robin"

    def __init__(self, cfg: SchedulerConfig):
        self.n = cfg.n_instances
        self.cursor = 0

    reads_snapshot = reads_reports = False

    def schedule(
        self,
        wid: int,
        snapshot: StreamStatsSnapshot,
        view: Callable[[int], InstanceView],
    ) -> Decision:
        idx = self.cursor
        self.cursor = (self.cursor + 1) % self.n
        return Decision(wid, idx, self.kind)


class ReactiveScheduler:
    """Batches onto the current instance until its last reported operational
    latency reaches the threshold, then advances."""

    kind = "reactive"

    def __init__(self, cfg: SchedulerConfig):
        self.n = cfg.n_instances
        self.th_ms = cfg.th_ms
        self.cursor = 0

    reads_snapshot, reads_reports = False, True

    def schedule(
        self,
        wid: int,
        snapshot: StreamStatsSnapshot,
        view: Callable[[int], InstanceView],
    ) -> Decision:
        observed = view(self.cursor).last_lambda_o
        if observed is not None and observed >= self.th_ms:
            self.cursor = (self.cursor + 1) % self.n
        return Decision(wid, self.cursor, self.kind, observed_lambda_o=observed)


class ModelBasedScheduler:
    """Batches onto the current instance while the predicted operational
    latency peak stays within the latency bound; otherwise assigns to the
    next instance without re-checking it.

    ``params`` also sizes the monitor's bins. The model is compiled once per
    snapshot: ``compiled`` holds it for the last snapshot decided on, and is
    replaced when another snapshot object arrives (snapshots are immutable).
    """

    kind = "model_based"

    def __init__(self, cfg: SchedulerConfig, params: ModelParams):
        self.n = cfg.n_instances
        self.lb_ms = cfg.lb_ms
        self.params = params
        self.cursor = 0
        self.compiled: CompiledModel | None = None

    reads_snapshot = reads_reports = True

    def schedule(
        self,
        wid: int,
        snapshot: StreamStatsSnapshot,
        view: Callable[[int], InstanceView],
    ) -> Decision:
        model = self.compiled
        if model is None or model.snapshot is not snapshot:
            model = self.compiled = compile_model(snapshot, self.params)
        cand = view(self.cursor)
        pred = predict(model, cand.open_window_count + 1, cand.queued_counts, cand.theta_bar_rep)
        if pred.lambda_o_max > self.lb_ms:
            self.cursor = (self.cursor + 1) % self.n
        return Decision(wid, self.cursor, self.kind, prediction=pred)


WindowScheduler = RoundRobinScheduler | ReactiveScheduler | ModelBasedScheduler


def make_scheduler(cfg: SchedulerConfig, model: ModelParams = ModelParams()) -> WindowScheduler:
    """The controller ``cfg`` names; only the model-based one reads ``model``."""
    cfg.validate()
    if cfg.kind == "round_robin":
        return RoundRobinScheduler(cfg)
    if cfg.kind == "reactive":
        return ReactiveScheduler(cfg)
    model.validate()
    return ModelBasedScheduler(cfg, model)
