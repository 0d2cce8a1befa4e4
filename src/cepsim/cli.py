"""Experiment driver: config parsing, runs, sweeps, CSV output.

Configs are YAML files; see README.md for the full schema. Per-run detail
CSVs (latency, decisions, predictions, transmissions, windows, batches) land
in ``<out_dir>/<run_id>/`` and one summary row per completed run is appended
to ``<out_dir>/summary.csv``. Summary rows are only written after a run
finished, so an aborted sweep never leaves truncated rows. Each detail file
starts with its header through ``csv.writer``, and its rows are byte for
byte what ``csv.writer`` writes. latency.csv is one string per event, its
pairs' cells joined by the event's ts, line end and seq, written
``_BLOCK_ROWS`` events at a time; the other five share one row writer, the
cells in blocks of rows, one ``%`` format per block. Each distinct value of
a typed column, each distinct latency row's instance-to-lambda_o cells,
each prediction and each text cell is formatted once, and each event's seq
and ts per event, not per pair; text cells are quoted by ``csv`` itself.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import math
import operator
import os
import sys
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import yaml

from .core import ConfigurationError
from .latency_model import (
    ModelParams,
    gains_from_event_values,
    predict_peak,
)
from .runtime import LambdaOValues, RunMetrics, SimConfig, run
from .scheduler import Decision, SchedulerConfig
from .workload import WorkloadConfig

if TYPE_CHECKING:  # pragma: no cover
    import argparse

SUMMARY_HEADER = ["run_id", "scheduler", "param", "max_lo", "p99_lo", "transmissions", "violations"]


@dataclass
class SweepSpec:
    field: str
    values: list[Any]


@dataclass
class ExperimentConfig:
    workload: WorkloadConfig
    scheduler: SchedulerConfig
    model: ModelParams = field(default_factory=ModelParams)
    sim: SimConfig = field(default_factory=SimConfig)
    run_id: str = "run"
    seed: int = 0
    out_dir: str = "results"
    sweep: list[SweepSpec] = field(default_factory=list)

    @property
    def warmup_ms(self) -> float:
        """``sim.warmup_ms``: ``perfbench/rep.py`` reads it, and changes only with the benchmark."""
        return self.sim.warmup_ms

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
        self.sim.validate()
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
    """A finite number, or in a field whose metadata has an "inf" entry
    +-inf, and +inf for the strings listed there."""
    inf_words = meta.get("inf")
    if inf_words and isinstance(v, str) and v in inf_words:
        return math.inf
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigurationError(f"{path} must be a number, got {v!r}")
    if isinstance(v, float) and math.isnan(v):
        raise ConfigurationError(f"{path} must be a number, got nan")
    # a field with "inf" metadata takes +-inf; its bounds reject -inf
    if isinstance(v, float) and math.isinf(v) and inf_words is None:
        raise ConfigurationError(f"{path} must be finite, got {v}")
    return v  # ints stay ints: they print differently in the CSVs


def _kwargs(cls: type, d: Any, path: str) -> dict[str, Any]:
    """Constructor arguments for ``cls`` read from the YAML mapping ``d``,
    one key per field; a field that is a dataclass reads a mapping of its own."""
    if not isinstance(d, Mapping):
        raise ConfigurationError(f"{path or 'config'} must be a mapping")
    hints = get_type_hints(cls)
    _check_keys(d, {f.name for f in fields(cls)}, path)
    out: dict[str, Any] = {}
    for f in fields(cls):
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


_BLOCK_ROWS = 256  # rows per format operation; events per latency.csv write


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[tuple], n_cells: int | None = None) -> None:
    """The header through csv.writer, then ``rows`` of ``n_cells`` cells (by
    default one per header column; a cell may hold several), one ``%``
    format per block of ``_BLOCK_ROWS`` rows, cut from the flat stream of
    cells. A cell that is an int, a float (``%s`` is its repr), a
    float's repr or a text cell from :func:`_quote` formats as csv.writer
    writes it, and each row ends in its ``\r\n``; csv.writer writes None as
    the empty cell, which the caller passes as ""."""
    n_cells = n_cells or len(header)
    row = ",".join(["%s"] * n_cells) + "\r\n"
    block, size = row * _BLOCK_ROWS, n_cells * _BLOCK_ROWS
    cells = itertools.chain.from_iterable(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        while len(chunk := tuple(itertools.islice(cells, size))) == size:
            fh.write(block % chunk)
        fh.write(row * (len(chunk) // n_cells) % chunk)


class _Memo(dict):
    """``fn`` of each key, computed once. A dict cannot tell 1, 1.0 and True
    apart, nor 0.0 from -0.0, so a memo of a float's text serves only keys
    holding no -0.0, and keys of one type. Cleared when full, so a stream of
    mostly distinct keys keeps no string per key."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= 4096:
            self.clear()
        s = self[key] = self.fn(key)
        return s


def _memoised(column, fn=repr):
    return map(_Memo(fn).__getitem__, column)


def _quote(text: str) -> str:
    """A text cell as csv.writer writes it."""
    buf = io.StringIO(newline="")
    # followed by an empty cell, as alone on a row an empty cell is '""'
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # less ",\r\n"


def _latency_cells(key: tuple[int, float, float]) -> str:
    """The instance, lambda_q, lambda_p and lambda_o cells of a latency row."""
    instance, q, p = key
    return f"{instance},{q!r},{p!r},{q + p!r}"


# a prediction's cells in predictions.csv, from theta_hat to lambda_o_max
_PREDICTION_CELLS = (
    "{0.theta_hat},{0.theta_bar},{0.n},{0.gamma_minus},{0.gamma_plus},{0.alpha},{0.lambda_q_init},{0.lambda_o_max}"
)


def _write_decisions(run_dir: Path, decisions: Sequence[Decision]) -> None:
    """decisions.csv and predictions.csv. The cells of a prediction shared by
    many decisions are formatted once, in a memo keyed by identity: two
    predictions equal by value may differ in the sign of a zero."""
    quoted = _Memo(_quote)
    preds = {id(p): p for _, _, _, p, _ in decisions if p is not None}
    # by id: its decisions.csv cell, its _PREDICTION_CELLS, its flags
    cells = {k: (str(p.lambda_o_max), _PREDICTION_CELLS.format(p), quoted["|".join(p.flags)])
             for k, p in preds.items()}
    _write_rows(
        run_dir / "decisions.csv",
        ["wid", "instance", "predicted_lambda_o_max", "kind"],
        (
            (wid, instance, cells[id(p)][0] if p is not None else "" if observed is None else observed,
             quoted[kind])
            for wid, instance, kind, p, observed in decisions
        ),
    )
    _write_rows(
        run_dir / "predictions.csv",
        ["wid", "theta_hat", "theta_bar", "n", "gamma_minus", "gamma_plus", "alpha",
         "lambda_q_init", "lambda_o_max", "instance", "flags"],
        (
            (wid, cells[id(p)][1], instance, cells[id(p)][2])
            for wid, instance, _, p, _ in decisions if p is not None
        ),
        4,  # the prediction's cells are one
    )


def _latency_rows(metrics: RunMetrics, cells: Iterator[str]) -> Iterator[str]:
    """latency.csv's rows, one string per event with pairs: the next
    ``tx_instances`` of the pairs' ``cells``, each between the event's seq and ts."""
    for seq, ts, n in zip(metrics.tx_seq, metrics.tx_ts, metrics.tx_instances):
        if n:
            sep = f",{ts}\r\n{seq},"
            yield f"{seq},{sep.join(itertools.islice(cells, n))},{ts}\r\n"


def write_run_outputs(run_dir: Path, metrics: RunMetrics) -> None:
    """Write all per-run detail CSVs into ``run_dir``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    q, p = metrics.lambda_q, metrics.lambda_p
    cells = zip(metrics.instance, q, p)
    # memoised only without the bits of -0.0; q + p is -0.0 only when both are
    if any(1 << 63 in memoryview(c).cast("B").cast("Q") for c in (q, p)):
        cells = map(_latency_cells, cells)
    else:
        cells = _memoised(cells, _latency_cells)
    rows = _latency_rows(metrics, cells)
    with open(run_dir / "latency.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(["seq", "instance", "lambda_q", "lambda_p", "lambda_o", "ts"])
        while block := "".join(itertools.islice(rows, _BLOCK_ROWS)):
            fh.write(block)
    _write_decisions(run_dir, metrics.decisions)
    _write_rows(
        run_dir / "transmissions.csv",
        ["seq", "ts", "n_member_windows", "n_instances"],
        zip(metrics.tx_seq, metrics.tx_ts, _memoised(metrics.tx_members), _memoised(metrics.tx_instances)),
    )
    _write_rows(
        run_dir / "windows.csv",
        ["wid", "open_ts", "close_ts", "instance", "n_member_events",
         "actual_gamma_minus", "actual_gamma_plus", "actual_lambda_q_peak"],
        (
            (d.wid, open_ts, "" if close_ts is None else close_ts, d.instance, n_members,
             w.actual_gamma_minus, w.actual_gamma_plus, w.actual_lambda_q_peak)
            for (open_ts, close_ts, n_members), d, w
            in zip(metrics.window_extents(), metrics.decisions, metrics.windows)
        ),
    )
    _write_rows(
        run_dir / "batches.csv",
        ["batch_id", "instance", "first_decision_ts", "n_windows",
         "lat_peak", "lat_peak_delay_ms", "qlen_peak", "qlen_peak_delay_ms"],
        metrics.feedback_delays(),
    )


def p99(values: Sequence[float] | LambdaOValues) -> float:
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
    los = metrics.lambda_o_values(cfg.sim.warmup_ms)
    lb = cfg.scheduler.lb_ms if cfg.sim.lb_eval_ms is None else cfg.sim.lb_eval_ms
    # operator.gt, as an int bound's __lt__ returns NotImplemented for a float
    violations = 0 if lb is None else sum(map(operator.gt, los, itertools.repeat(lb)))
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
        f"{cfg.run_id}: scheduler={cfg.scheduler.kind} events={len(metrics.tx_seq)} "
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
    runs: dict[str, tuple] = {}  # run id -> (value indices, config)
    for picks in itertools.product(*(range(len(s.values)) for s in cfg.sweep)):
        combo = [s.values[k] for s, k in zip(cfg.sweep, picks)]
        label = "_".join(f"{f.split('.')[-1]}={v}" for f, v in zip(paths, combo))
        run_id = f"{cfg.run_id}_{label}"
        if run_id in runs:  # the second run would overwrite the first
            i = next(i for i, (a, b) in enumerate(zip(runs[run_id][0], picks)) if a != b)
            raise ConfigurationError(f"sweep[{i}].values: two values give run id {run_id!r}")
        raw_i = yaml.safe_load(yaml.safe_dump(raw))  # deep copy
        for fpath, value in zip(paths, combo):
            _set_by_path(raw_i, fpath, value)
        runs[run_id] = picks, build_experiment(raw_i)
    _make_run_dirs(out_dir, list(runs))
    for run_id, (_, cfg_i) in runs.items():
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


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench  # on use: a run needs neither it nor the modules it imports

    return bench.cmd_bench(args)


def main(argv: Sequence[str] | None = None) -> int:
    import argparse  # on use, so that a library import of cepsim.cli does not load it

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
