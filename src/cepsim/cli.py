"""Experiment driver: config parsing, runs, sweeps, CSV output.

Configs are YAML files; see README.md for the full schema. Per-run detail
CSVs (latency, decisions, predictions, transmissions, windows, batches) land
in ``<out_dir>/<run_id>/`` and one summary row per completed run is appended
to ``<out_dir>/summary.csv``. Summary rows are only written after a run
finished, so an aborted sweep never leaves truncated rows.
"""

from __future__ import annotations

import argparse
import csv
import heapq
import itertools
import math
import operator
import os
import sys
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import yaml

from .bench import cmd_bench
from .core import ConfigurationError
from .latency_model import (
    ModelParams,
    gains_from_event_values,
    predict_peak,
)
from .runtime import RunMetrics, run
from .scheduler import SchedulerConfig
from .workload import WorkloadConfig

SUMMARY_HEADER = ["run_id", "scheduler", "param", "max_lo", "p99_lo", "transmissions", "violations"]


SIM = {"section": "sim"}  # ExperimentConfig fields read from the YAML ``sim`` mapping


@dataclass
class SweepSpec:
    field: str
    values: list[Any]


@dataclass
class ExperimentConfig:
    workload: WorkloadConfig
    scheduler: SchedulerConfig
    model: ModelParams = field(default_factory=ModelParams)
    mtime_ms: float = field(default=60_000.0, metadata=SIM)
    feedback_interval_ms: float | None = field(default=None, metadata=SIM)  # default mtime/10
    transfer_delay_ms: float = field(default=0.0, metadata=SIM)
    feedback_delivery_delay_ms: float = field(default=0.0, metadata=SIM)
    warmup_ms: float = field(default=0.0, metadata=SIM)
    # bound used for violation accounting; default scheduler.lb_ms
    lb_eval_ms: float | None = field(default=None, metadata={**SIM, "inf": ()})
    run_id: str = "run"
    seed: int = 0
    out_dir: str = "results"
    sweep: list[SweepSpec] = field(default_factory=list)

    @property
    def effective_lb_eval_ms(self) -> float | None:
        if self.lb_eval_ms is not None:
            return self.lb_eval_ms
        return self.scheduler.lb_ms

    def validate(self) -> None:
        """Reject any experiment that could not run to completion."""
        self.workload.validate()
        self.model.validate()
        self.scheduler.validate()
        wl = self.workload
        if wl.scenario != "traffic" and wl.opener is None:
            raise ConfigurationError(
                f"workload.opener is required for the {wl.scenario} scenario: without it no window opens"
            )
        missing = sorted(wl.emitted_etypes() - set(wl.cost.base_ms))
        if missing:
            raise ConfigurationError(f"workload.cost.base_ms has no cost for emitted event type(s) {missing}")
        # timestamps are integer ms: a shorter boundary interval only multiplies work
        if self.mtime_ms < 1:
            raise ConfigurationError(f"sim.mtime_ms must be >= 1, got {self.mtime_ms}")
        if self.feedback_interval_ms is None:
            if self.mtime_ms / 10 < 1:  # the interval simulate() defaults to
                raise ConfigurationError(
                    f"sim.feedback_interval_ms must be >= 1, got its default sim.mtime_ms / 10 = {self.mtime_ms / 10}"
                )
        elif self.feedback_interval_ms < 1:
            raise ConfigurationError(f"sim.feedback_interval_ms must be >= 1, got {self.feedback_interval_ms}")
        for name in ("transfer_delay_ms", "feedback_delivery_delay_ms", "warmup_ms"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"sim.{name} must be >= 0, got {getattr(self, name)}")
        for i, spec in enumerate(self.sweep):
            if not spec.values:
                raise ConfigurationError(f"sweep[{i}].values must be a non-empty list")


# ---------------------------------------------------------------------------
# Config building: the config dataclasses are the schema. Their fields give
# the YAML keys, types and defaults, their validate() methods the bounds.


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def _check_keys(d: Mapping, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"{path or 'config'}: unknown key(s) {sorted(unknown, key=str)}")


def _number(v: Any, path: str, meta: Mapping = {}) -> int | float:
    inf_words = meta.get("inf")
    if inf_words and isinstance(v, str) and v in inf_words:
        return math.inf
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigurationError(f"{path} must be a number, got {v!r}")
    if isinstance(v, float) and not math.isfinite(v) and inf_words is None:
        raise ConfigurationError(f"{path} must be finite, got {v}")
    return v  # ints stay ints: they print differently in the CSVs


def _kwargs(cls: type, d: Any, path: str, section: str | None = None) -> dict[str, Any]:
    """Constructor arguments for ``cls`` read from the YAML mapping ``d``.

    Fields whose metadata names a section are read from that sub-mapping of
    ``d``; inherited fields are left to the caller.
    """
    if not isinstance(d, Mapping):
        raise ConfigurationError(f"{path or 'config'} must be a mapping")
    hints = get_type_hints(cls)
    own = [f for f in fields(cls) if f.metadata.get("section") == section and "inherited" not in f.metadata]
    sections = {f.metadata["section"] for f in fields(cls) if "section" in f.metadata} if section is None else set()
    _check_keys(d, {f.name for f in own} | sections, path)
    out: dict[str, Any] = {}
    for name in sections:
        out.update(_kwargs(cls, d.get(name) or {}, _join(path, name), name))
    for f in own:
        tp, v = hints[f.name], d.get(f.name)
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        # an empty or null sub-mapping or list falls back to the default
        if f.name not in d or (has_default and not v and (is_dataclass(tp) or get_origin(tp) is list)):
            if not has_default:
                raise ConfigurationError(f"{_join(path, f.name)} is required")
            continue
        out[f.name] = _value(tp, v, _join(path, f.name), f.metadata)
    return out


def _value(tp: Any, v: Any, path: str, meta: Mapping = {}) -> Any:
    """Convert the YAML value ``v`` to the field type ``tp``."""
    if get_origin(tp) in (Union, UnionType):
        options = [a for a in get_args(tp) if a is not type(None)]
        if v is None and len(options) < len(get_args(tp)):
            return None
        if len(options) == 1:
            return _value(options[0], v, path, meta)
        # a union of dataclasses, told apart by their ``kind`` class attribute
        kinds = {c.kind: c for c in options}
        if not isinstance(v, Mapping):
            raise ConfigurationError(f"{path} must be a mapping with a 'kind' key")
        kind = v.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigurationError(f"{path}.kind must be {'|'.join(kinds)}, got {kind!r}")
        return _value(kinds[kind], {k: x for k, x in v.items() if k != "kind"}, path)
    if is_dataclass(tp):
        return tp(**_kwargs(tp, v, path))
    if tp is Any:
        return v
    if tp is str:
        # a number is read as its text; null, a boolean, a list or a mapping is an error
        if isinstance(v, bool) or not isinstance(v, (str, int, float)):
            raise ConfigurationError(f"{path} must be a string, got {v!r}")
        return str(v)
    if tp is float:
        return _number(v, path, meta)
    if tp is int:
        n = _number(v, path)
        if isinstance(n, float) and not n.is_integer():
            raise ConfigurationError(f"{path} must be an integer, got {v!r}")
        return int(n)
    if get_origin(tp) is list:
        if isinstance(v, str) or not isinstance(v, Sequence):
            raise ConfigurationError(f"{path} must be a list")
        return [_value(get_args(tp)[0], x, f"{path}[{i}]") for i, x in enumerate(v)]
    if get_origin(tp) is abc.Mapping:
        if not isinstance(v, Mapping):
            raise ConfigurationError(f"{path} must be a mapping")
        # mapping values (costs, probabilities) are stored as floats, ints included
        return {str(k): float(_value(get_args(tp)[1], x, f"{path}[{k}]")) for k, x in v.items()}
    raise TypeError(f"no YAML conversion for config field type {tp!r}")


def build_experiment(raw: Any) -> ExperimentConfig:
    """Turn a parsed YAML mapping into a validated ExperimentConfig."""
    cfg = _value(ExperimentConfig, raw, "")
    cfg.workload = replace(cfg.workload, seed=cfg.seed)
    cfg.scheduler = replace(cfg.scheduler, model=cfg.model)
    cfg.validate()
    for spec in cfg.sweep:
        _get_by_path(raw, spec.field)
    return cfg


def _get_by_path(raw: Mapping, path: str) -> Any:
    node: Any = raw
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise ConfigurationError(f"sweep field {path!r} does not exist in the config")
        node = node[part]
    return node


def _set_by_path(raw: dict, path: str, value: Any) -> None:
    parts = path.split(".")
    node = raw
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raise ConfigurationError(f"config {path} is empty")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a mapping, got a {type(raw).__name__}")
    return raw


# ---------------------------------------------------------------------------
# CSV output


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    # csv writes a float as its repr, so the files round-trip exactly
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_run_outputs(run_dir: Path, metrics: RunMetrics) -> None:
    """Write all per-run detail CSVs into ``run_dir``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        run_dir / "latency.csv",
        ["seq", "instance", "lambda_q", "lambda_p", "lambda_o", "ts"],
        zip(
            metrics.event_seq, metrics.instance, metrics.lambda_q, metrics.lambda_p,
            map(operator.add, metrics.lambda_q, metrics.lambda_p), metrics.ts,
        ),
    )
    _write_csv(
        run_dir / "decisions.csv",
        ["wid", "instance", "predicted_lambda_o_max", "kind"],
        (
            (
                d.wid,
                d.instance,
                d.prediction.lambda_o_max if d.prediction is not None
                else (d.observed_lambda_o if d.observed_lambda_o is not None else ""),
                d.kind,
            )
            for d in metrics.decisions
        ),
    )
    _write_csv(
        run_dir / "predictions.csv",
        ["wid", "theta_hat", "theta_bar", "n", "gamma_minus", "gamma_plus", "alpha",
         "lambda_q_init", "lambda_o_max", "instance", "flags"],
        (
            (
                d.wid, p.theta_hat, p.theta_bar, p.n, p.gamma_minus, p.gamma_plus,
                p.alpha, p.lambda_q_init, p.lambda_o_max, d.instance, "|".join(p.flags),
            )
            for d in metrics.decisions
            if (p := d.prediction) is not None
        ),
    )
    _write_csv(
        run_dir / "transmissions.csv",
        ["seq", "ts", "n_member_windows", "n_instances"],
        zip(metrics.tx_seq, metrics.tx_ts, metrics.tx_members, metrics.tx_instances),
    )
    _write_csv(
        run_dir / "windows.csv",
        ["wid", "open_ts", "close_ts", "instance", "n_member_events",
         "actual_gamma_minus", "actual_gamma_plus", "actual_lambda_q_peak"],
        (
            (
                w.wid, w.open_ts, w.close_ts if w.close_ts is not None else "",
                w.assigned_instance, w.n_member_events, w.actual_gamma_minus,
                w.actual_gamma_plus, w.actual_lambda_q_peak,
            )
            for w in metrics.windows
        ),
    )
    _write_csv(
        run_dir / "batches.csv",
        ["batch_id", "instance", "first_decision_ts", "n_windows",
         "lat_peak", "lat_peak_delay_ms", "qlen_peak", "qlen_peak_delay_ms"],
        (
            (
                fd.batch_id, fd.instance, fd.first_decision_ts, fd.n_windows,
                fd.lat_peak, fd.lat_peak_delay_ms, fd.qlen_peak, fd.qlen_peak_delay_ms,
            )
            for fd in metrics.feedback_delays()
        ),
    )


def p99(values: Sequence[float]) -> float:
    """``sorted(values)[max(0, ceil(0.99 n) - 1)]``, 0.0 when empty, found
    without sorting every value."""
    n = len(values)
    if not n:
        return 0.0
    idx = max(0, math.ceil(0.99 * n) - 1)
    # sorted() and nlargest() are both stable; on the reversed input the
    # last of the nlargest is the same one of several equal values (0.0 and
    # -0.0) that sorted(values)[idx] picks
    return heapq.nlargest(n - idx, reversed(values))[-1]


def summary_row(cfg: ExperimentConfig, metrics: RunMetrics, run_id: str | None = None) -> list:
    los = metrics.lambda_o_values(cfg.warmup_ms)
    lb = cfg.effective_lb_eval_ms
    violations = 0 if lb is None else sum(lo > lb for lo in los)
    sched = cfg.scheduler
    param = ""
    if sched.kind == "model_based":
        param = repr(float(sched.lb_ms))
    elif sched.kind == "reactive":
        param = repr(float(sched.th_ms))
    return [
        run_id or cfg.run_id,
        sched.kind,
        param,
        repr(max(los) if los else 0.0),
        repr(p99(los)),
        metrics.transmissions,
        violations,
    ]


def append_summary(out_dir: Path, row: Sequence) -> None:
    path = out_dir / "summary.csv"
    fresh = not path.exists()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if fresh:
            w.writerow(SUMMARY_HEADER)
        w.writerow(row)
        fh.flush()


# ---------------------------------------------------------------------------
# Commands


def _apply_overrides(raw: dict, seed: int | None, out: str | None) -> dict:
    if seed is not None:
        raw["seed"] = seed
    if out is not None:
        raw["out_dir"] = out
    return raw


def _make_run_dirs(out_dir: Path, run_ids: Sequence[str]) -> None:
    """Create the output directory and every run's directory in it, so that
    an unusable ``out_dir`` or ``run_id`` fails before the first run. A run
    id names one directory directly inside ``out_dir``."""
    for run_id in run_ids:
        if run_id in ("", ".", "..") or any(c and c in run_id for c in ("/", os.sep, os.altsep, "\0")):
            raise ConfigurationError(
                f"run_id: {run_id!r} must name one directory inside out_dir "
                "(not empty, '.' or '..', without path separators or NUL)"
            )
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"out_dir: cannot create directory {str(out_dir)!r}: {exc}") from None
    for run_id in run_ids:
        try:
            (out_dir / run_id).mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"run_id: cannot create directory {run_id!r} in {str(out_dir)!r}: {exc}"
            ) from None


def cmd_run(args: argparse.Namespace) -> int:
    raw = _apply_overrides(load_config(args.config), args.seed, args.out)
    cfg = build_experiment(raw)
    out_dir = Path(cfg.out_dir)
    _make_run_dirs(out_dir, [cfg.run_id])
    metrics = run(cfg)
    write_run_outputs(out_dir / cfg.run_id, metrics)
    row = summary_row(cfg, metrics)
    append_summary(out_dir, row)
    print(
        f"{cfg.run_id}: scheduler={cfg.scheduler.kind} events={metrics.n_events} "
        f"samples={metrics.transmissions} transmissions={metrics.transmissions} "
        f"max_lo={row[3]} p99_lo={row[4]} violations={row[6]}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = _apply_overrides(load_config(args.config), args.seed, args.out)
    cfg = build_experiment(raw)
    if not cfg.sweep:
        raise ConfigurationError("config has no sweep section")
    out_dir = Path(cfg.out_dir)
    paths = [s.field for s in cfg.sweep]
    # build every combination first, so a bad value fails before any run
    runs = []
    for combo in itertools.product(*(s.values for s in cfg.sweep)):
        raw_i = yaml.safe_load(yaml.safe_dump(raw))  # deep copy
        for fpath, value in zip(paths, combo):
            _set_by_path(raw_i, fpath, value)
        label = "_".join(f"{f.split('.')[-1]}={v}" for f, v in zip(paths, combo))
        runs.append((f"{cfg.run_id}_{label}", build_experiment(raw_i)))
    _make_run_dirs(out_dir, [run_id for run_id, _ in runs])
    for run_id, cfg_i in runs:
        metrics = run(cfg_i)
        write_run_outputs(out_dir / run_id, metrics)
        row = summary_row(cfg_i, metrics, run_id=run_id)
        append_summary(out_dir, row)
        print(f"{run_id}: max_lo={row[3]} p99_lo={row[4]} transmissions={row[5]} violations={row[6]}")
    return 0


SELFTEST_LAMBDAS = [8.0, 8.0, 7.0, 7.0, 4.0, 4.0, 2.0]
SELFTEST_IAT = 5.0


def cmd_selftest_fig45(args: argparse.Namespace | None = None) -> int:
    """Recompute the worked gains example and the queuing peaks it implies."""
    gamma_minus, gamma_plus = gains_from_event_values(SELFTEST_LAMBDAS, SELFTEST_IAT)
    ok = gamma_minus == 10.0 and gamma_plus == -5.0
    print(f"gamma_minus={gamma_minus} gamma_plus={gamma_plus}")
    expected = {0.0: 10.0, 0.8: 6.0, 1.0: 5.0}
    for alpha, want in expected.items():
        lq, _ = predict_peak(gamma_minus, gamma_plus, alpha, 0.0, 0.0)
        print(f"alpha={alpha} lambda_q_max={lq}")
        ok = ok and lq == want
    print("selftest-fig45:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cepsim",
        description="Window-based data-parallel CEP simulator with batch-scheduling controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the sweep defined in a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest-fig45", help="check the worked gains example")
    p_self.set_defaults(func=cmd_selftest_fig45)

    p_bench = sub.add_parser("bench-scheduling-latency", help="measure decision and statistics-update cost")
    p_bench.add_argument("--bins", type=int, default=32)
    p_bench.add_argument("--entries", type=int, default=1_000_000)
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
