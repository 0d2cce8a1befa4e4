"""Deterministic simulator for window-based data-parallel complex event
processing, with Round-Robin, latency-reactive, and model-based batch
scheduling controllers."""

from .core import (
    CepSimError,
    ConfigurationError,
    CostModelError,
    Event,
    WindowDescriptor,
)
from .latency_model import (
    LatencyPrediction,
    ModelParams,
    compile_model,
    gains_from_event_values,
    predict,
    predict_alpha_tcount,
    predict_event_counts,
    predict_overlap,
    predict_peak,
)
from .runtime import (
    InstanceState,
    RunMetrics,
    SimConfig,
    run,
    simulate,
)
from .scheduler import Decision, InstanceView, SchedulerConfig, make_scheduler
from .splitter import (
    KeyedAperiodicPolicy,
    Splitter,
    StreamStats,
    StreamStatsSnapshot,
    TimeWindowPolicy,
    make_policy,
    route_event,
)
from .workload import (
    BurstIat,
    ConstantIat,
    CostModel,
    ExponentialIat,
    ScopeProfile,
    SinusoidalExponentialIat,
    WorkloadConfig,
    generate_stream,
    in_window_cost,
)

__version__ = "0.1.0"
