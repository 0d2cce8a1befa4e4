"""One benchmark repetition: a whole cepsim run in a fresh process.

Started by ``run.py`` once per repetition; not meant to be run by hand. The
process times

* set-up: from the moment the parent spawned it (``--t-spawn``, read from
  the system-wide monotonic clock) to a validated ``ExperimentConfig``,
  i.e. interpreter start, ``import cepsim``, YAML parse and
  ``build_experiment``;
* the run: from the validated config to the summary row, i.e.
  ``generate_stream`` -> ``simulate`` -> ``write_run_outputs`` ->
  ``summary_row`` / ``append_summary``, exactly what ``cepsim run`` does.

Right after set-up, while the process is still small, it times a fixed
calibration workload (``calibrate``), which tells how fast the machine runs
Python at that moment.

Afterwards, outside the timed region, it digests the six CSVs and the
summary, derives the workload's regime facts from those files and prints
one JSON object on stdout. With ``--trace`` it first wraps the public call
sites listed in ``Tracer.install`` so that per-layer time and counts are
recorded in memory; nothing under ``src/`` is changed.
"""

import sys
import time

CLOCK = time.CLOCK_MONOTONIC  # system-wide, so comparable with the parent


def _now() -> float:
    return time.clock_gettime(CLOCK)


def main(argv: list[str]) -> int:
    import argparse
    from pathlib import Path

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--duration-scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import cepsim
    from cepsim import cli, runtime

    if Path(cepsim.__file__).resolve().parent.parent != src:
        # an installed copy would be measured instead of this checkout
        raise SystemExit(f"cepsim was imported from {cepsim.__file__}, not from {src}")

    raw = cli.load_config(args.config)
    raw["seed"] = args.seed
    raw["out_dir"] = args.out
    if args.duration_scale != 1.0:
        raw["workload"]["duration_ms"] *= args.duration_scale
    cfg = cli.build_experiment(raw)
    setup_s = _now() - args.t_spawn
    calibration_s = calibrate()
    if args.setup_only:
        _emit({"setup_s": setup_s, "calibration_s": calibration_s})
        return 0

    import resource

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    out_dir = Path(cfg.out_dir)
    run_dir = out_dir / cfg.run_id

    t0 = time.perf_counter()
    metrics = runtime.run(cfg)
    cli.write_run_outputs(run_dir, metrics)
    row = cli.summary_row(cfg, metrics)
    cli.append_summary(out_dir, row)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        tracer.uninstall()
    del metrics
    files = {name: run_dir / name for name in OUTPUT_CSVS}
    files["summary.csv"] = out_dir / "summary.csv"
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": {name: _sha256(p) for name, p in files.items()},
        "output_bytes": sum(p.stat().st_size for p in files.values()),
        "facts": regime_facts(run_dir, out_dir / "summary.csv", cfg.warmup_ms),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    _emit(result)
    return 0


class _Record:
    __slots__ = ("seq", "value", "key")

    def __init__(self, seq: int, value: float, key: str):
        self.seq = seq
        self.value = value
        self.key = key


def calibrate(rounds: int = 3, n: int = 30_000) -> float:
    """Seconds one round of a fixed pure-Python workload takes (median of
    ``rounds``). Like cepsim's hot paths it allocates many small objects,
    walks them out of order, groups them in a dict and sorts them, so its
    time tracks how fast the machine runs this kind of code at that
    moment. The cyclic garbage collector is paused meanwhile, so that the
    time does not depend on how many objects the process already holds."""
    import gc

    gc.disable()
    try:
        times = sorted(_calibration_round(n) for _ in range(rounds))
    finally:
        gc.enable()
    return times[rounds // 2]


def _calibration_round(n: int) -> float:
    t0 = time.perf_counter()
    records = [_Record(i, i * 0.25, f"k{i % 997}") for i in range(n)]
    groups: dict[str, list[int]] = {}
    total = 0.0
    for j in range(n):
        r = records[(j * 7919) % n]
        total += r.value
        groups.setdefault(r.key, []).append(r.seq)
    records.sort(key=lambda r: -r.value)
    return time.perf_counter() - t0


OUTPUT_CSVS = (
    "latency.csv",
    "decisions.csv",
    "predictions.csv",
    "transmissions.csv",
    "windows.csv",
    "batches.csv",
)


def _emit(obj: dict) -> None:
    import json

    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _sha256(path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _rows(path) -> list[list[str]]:
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def regime_facts(run_dir, summary_path, warmup_ms: float) -> dict:
    """Facts that say which regime a run was in, read from its output files
    (not from in-memory structures, which later changes may reshape).

    Also cross-checks the files against each other; an inconsistency is
    reported under ``inconsistent`` and makes the repetition fail.
    """
    tx = _rows(run_dir / "transmissions.csv")  # seq, ts, n_member_windows, n_instances
    lat = _rows(run_dir / "latency.csv")  # seq, instance, lq, lp, lo, ts
    windows = _rows(run_dir / "windows.csv")
    decisions = _rows(run_dir / "decisions.csv")
    batches = _rows(run_dir / "batches.csv")
    summary = _rows(summary_path)[-1]  # run_id, scheduler, param, max_lo, p99_lo, tx, violations
    pairs = sum(int(r[2]) for r in tx)
    transmissions = int(summary[5])
    post_warmup = [float(r[4]) for r in lat if int(r[5]) >= warmup_ms]
    inconsistent = []
    if sum(int(r[3]) for r in tx) != transmissions:
        inconsistent.append("transmissions.csv n_instances does not sum to the summary's transmissions")
    if len(lat) != transmissions:
        inconsistent.append("latency.csv does not hold one sample per transmission")
    if len(decisions) != len(windows):
        inconsistent.append("decisions.csv and windows.csv differ in length")
    if float(summary[3]) != (max(post_warmup) if post_warmup else 0.0):
        inconsistent.append("summary max_lo is not the largest post-warmup lambda_o in latency.csv")
    return {
        "events": len(tx),
        "windows": len(windows),
        "pairs": pairs,
        "memberships_per_event": pairs / len(tx) if tx else 0.0,
        "samples": len(lat),
        "batches": len(batches),
        "transmissions": transmissions,
        "max_lo": float(summary[3]),
        "p99_lo": float(summary[4]),
        "violations": int(summary[6]),
        "inconsistent": inconsistent,
    }


def _rss_bytes() -> int | None:
    import os

    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


class Tracer:
    """Wraps public cepsim call sites from this process and aggregates, per
    boundary, the call count, total time and time spent in traced callees.

    Coarse boundaries (one call per run or per output) also keep a span:
    name, parent span, start and end. Everything stays in memory until
    ``report``. A boundary whose attribute no longer exists is skipped, so
    its metrics come out absent rather than 0.
    """

    SPANS = frozenset(
        {"generate_stream", "simulate", "feedback_delays", "write_run_outputs", "summary_row"}
    )

    def __init__(self):
        self.aggs: dict[str, list[float]] = {}  # name -> [calls, total_s, callee_s]
        self.spans: list[tuple[str, str | None, float, float]] = []
        self.schedule_s: list[float] = []
        self.memberships = 0
        self.rss_growth: int | None = None
        self._stack: list[list] = []  # [callee_s, name] per open call
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from cepsim import cli, runtime, scheduler, splitter

        self._wrap(runtime, "generate_stream", "generate_stream")
        self._wrap_simulate(runtime)
        self._wrap(runtime, "in_window_cost", "in_window_cost", leaf=True)
        self._wrap(runtime, "route_event", "route_event", leaf=True)
        self._wrap(splitter.Splitter, "process", "process", after=self._count_memberships)
        self._wrap(splitter.StreamStats, "observe_latency", "observe_latency", leaf=True)
        self._wrap(splitter.StreamStats, "end_monitoring_window", "end_monitoring_window")
        self._wrap(scheduler, "predict", "predict")
        self._wrap(runtime.InstanceState, "make_feedback", "make_feedback")
        self._wrap(runtime.RunMetrics, "feedback_delays", "feedback_delays")
        self._wrap(cli, "write_run_outputs", "write_run_outputs")
        self._wrap(cli, "summary_row", "summary_row")
        make_scheduler = getattr(runtime, "make_scheduler", None)
        if make_scheduler is not None:
            def traced_make_scheduler(*args, **kwargs):
                sched = make_scheduler(*args, **kwargs)
                sched.schedule = self._timed("schedule", sched.schedule, keep=self.schedule_s)
                return sched

            self._patch(runtime, "make_scheduler", traced_make_scheduler)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        return {
            "layers": {
                name: {"calls": int(c), "total_s": t, "self_s": t - callee}
                for name, (c, t, callee) in self.aggs.items()
            },
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
            ],
            "schedule_s": self.schedule_s,
            "memberships": self.memberships,
            "rss_growth_bytes": self.rss_growth,
        }

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, owner, attr: str, name: str, after=None, leaf=False) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        timed = self._timed_leaf(name, fn) if leaf else self._timed(name, fn, after=after)
        self._patch(owner, attr, timed)

    def _wrap_simulate(self, runtime) -> None:
        simulate = getattr(runtime, "simulate", None)
        if simulate is None:
            return

        def measured(*args, **kwargs):
            before = _rss_bytes()
            res = simulate(*args, **kwargs)
            after = _rss_bytes()
            if before is not None and after is not None:
                self.rss_growth = after - before
            return res

        self._patch(runtime, "simulate", self._timed("simulate", measured))

    def _count_memberships(self, res) -> None:
        self.memberships += len(res.memberships)

    def _timed_leaf(self, name: str, fn):
        """Cheaper wrapper for per-event and per-pair boundaries that call
        no traced code; their self time is their total time."""
        agg = self.aggs.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            res = fn(*args, **kwargs)
            dt = clock() - t0
            agg[0] += 1
            agg[1] += dt
            if stack:
                stack[-1][0] += dt
            return res

        return traced

    def _timed(self, name: str, fn, after=None, keep: list | None = None):
        agg = self.aggs.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans if name in self.SPANS else None
        clock = time.perf_counter

        # an exception ends the repetition, so there is no unwinding to do
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            res = fn(*args, **kwargs)
            t1 = clock()
            stack.pop()
            dt = t1 - t0
            agg[0] += 1
            agg[1] += dt
            agg[2] += frame[0]
            if parent is not None:
                parent[0] += dt
            if spans is not None:
                spans.append((name, parent[1] if parent else None, t0, t1))
            if keep is not None:
                keep.append(dt)
            if after is not None:
                after(res)
            return res

        return traced


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
