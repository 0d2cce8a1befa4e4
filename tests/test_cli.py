import copy
import csv
import filecmp
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cepsim.cli import _BLOCK_ROWS, build_experiment, main, p99, summary_row, write_run_outputs
from cepsim.core import ConfigurationError, WindowDescriptor
from cepsim.latency_model import LatencyPrediction
from cepsim.runtime import FeedbackDelay, RunMetrics, run
from cepsim.scheduler import Decision

BASE_CONFIG = {
    "run_id": "smoke",
    "seed": 11,
    "workload": {
        "scenario": "custom",
        "duration_ms": 4000,
        "iat": {"kind": "exponential", "mu_ms": 25},
        "scope": {"ws_ms": 400},
        "opener": {"kind": "constant", "mu_ms": 100},
        "opener_etype": "open",
        "type_mix": {"A": 0.5, "B": 0.5},
        "cost": {"kind": "flat_per_type", "base_ms": {"A": 1.0, "B": 3.0, "open": 0.1}},
    },
    "scheduler": {"kind": "model_based", "n_instances": 4, "lb_ms": 50},
    "model": {"n_iat_bins": 2, "n_lat_bins": 2, "delta_iat": 0.5, "delta_lp": 0.5},
    "sim": {"mtime_ms": 500},
    "sweep": [{"field": "scheduler.lb_ms", "values": [20, 50, 500]}],
}


# an override value that writes an explicit null; None removes the key
YAML_NULL = object()

# overrides that turn BASE_CONFIG into a traffic workload, and one that runs it past 2**63 ms
TRAFFIC = {"workload.scenario": "traffic", "workload.scope": {"ws_min_ms": 100, "ws_max_ms": 200},
           "workload.cost.base_ms": {"L1": 0.1, "L2": 0.3}}
HUGE_DURATION = {"workload.duration_ms": 1e19, "workload.iat": {"kind": "constant", "mu_ms": 1e18}}


def write_config(tmp_path: Path, overrides=None, name="cfg.yaml") -> Path:
    raw = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
    for path, value in (overrides or {}).items():
        node = raw
        parts = path.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = None if value is YAML_NULL else value
    out = tmp_path / name
    out.write_text(yaml.safe_dump(raw))
    return out


def read_csv(path: Path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSelftest:
    def test_values_and_exit_code(self, capsys):
        assert main(["selftest-fig45"]) == 0
        out = capsys.readouterr().out
        assert "gamma_minus=10.0 gamma_plus=-5.0" in out
        assert "alpha=0.0 lambda_q_max=10.0" in out
        assert "alpha=0.8 lambda_q_max=6.0" in out
        assert "alpha=1.0 lambda_q_max=5.0" in out
        assert "PASS" in out


class TestRunCommand:
    def test_outputs_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 0
        run_dir = tmp_path / "res" / "smoke"
        for name in ("latency.csv", "decisions.csv", "predictions.csv",
                     "transmissions.csv", "windows.csv", "batches.csv"):
            assert (run_dir / name).exists(), name
        rows = read_csv(run_dir / "latency.csv")
        assert rows and set(rows[0]) == {"seq", "instance", "lambda_q", "lambda_p", "lambda_o", "ts"}
        summary = read_csv(tmp_path / "res" / "summary.csv")
        assert len(summary) == 1
        assert summary[0]["scheduler"] == "model_based"
        # one processed (event, instance) pair per latency row
        line = capsys.readouterr().out.strip()
        assert line.startswith("smoke: scheduler=model_based ")
        fields = dict(f.split("=", 1) for f in line.split()[1:])
        assert fields["samples"] == fields["transmissions"] == str(len(rows))
        s = summary[0]
        assert (fields["max_lo"], fields["p99_lo"], fields["violations"]) == (s["max_lo"], s["p99_lo"], s["violations"])

    def test_scope_beyond_64_bit_milliseconds(self, tmp_path):
        # ws_ms 1e19 lies past the largest 64-bit millisecond count: no
        # window ever closes, and none is given a close
        cfg = write_config(tmp_path, {
            "workload.scenario": "face", "workload.scope.ws_ms": 1e19, "workload.opener_etype": "query",
            "workload.type_mix": None, "workload.cost.base_ms": {"face": 1.0, "query": 0.5}, "sweep": None,
        })
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 0
        windows = read_csv(tmp_path / "res" / "smoke" / "windows.csv")
        assert len(windows) > 10
        assert [w["close_ts"] for w in windows] == [""] * len(windows)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("latency.csv", "decisions.csv", "predictions.csv",
                     "transmissions.csv", "windows.csv", "batches.csv"):
            assert filecmp.cmp(tmp_path / "a" / "smoke" / name,
                               tmp_path / "b" / "smoke" / name, shallow=False), name
        assert filecmp.cmp(tmp_path / "a" / "summary.csv", tmp_path / "b" / "summary.csv", shallow=False)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--seed", "99", "--out", str(tmp_path / "b")])
        assert not filecmp.cmp(tmp_path / "a" / "smoke" / "latency.csv",
                               tmp_path / "b" / "smoke" / "latency.csv", shallow=False)

    def test_summary_consistent_with_details(self, tmp_path):
        from cepsim.cli import p99

        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
        run_dir = tmp_path / "res" / "smoke"
        lat = read_csv(run_dir / "latency.csv")
        summary = read_csv(tmp_path / "res" / "summary.csv")[0]
        los = [float(r["lambda_o"]) for r in lat]
        assert float(summary["max_lo"]) == max(los)
        assert float(summary["p99_lo"]) == p99(los)
        assert int(summary["transmissions"]) == len(lat)
        assert int(summary["transmissions"]) == sum(
            int(r["n_instances"]) for r in read_csv(run_dir / "transmissions.csv")
        )
        assert int(summary["violations"]) == sum(1 for lo in los if lo > 50.0)

    def test_decisions_match_predictions(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "res")])
        run_dir = tmp_path / "res" / "smoke"
        decisions = read_csv(run_dir / "decisions.csv")
        predictions = read_csv(run_dir / "predictions.csv")
        assert len(decisions) == len(predictions)
        for d, p in zip(decisions, predictions):
            assert d["wid"] == p["wid"]
            assert d["instance"] == p["instance"]
            assert float(d["predicted_lambda_o_max"]) == float(p["lambda_o_max"])


class TestSweepCommand:
    def test_sweep_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 0
        summary = read_csv(tmp_path / "res" / "summary.csv")
        assert [r["param"] for r in summary] == ["20.0", "50.0", "500.0"]
        assert len({r["run_id"] for r in summary}) == 3

    def test_sweep_points_equal_separate_runs(self, tmp_path, capsys):
        # each point writes what a run of it alone writes
        sweep = [{"field": "seed", "values": [11, 12]}, {"field": "scheduler.lb_ms", "values": [20, 500]}]
        cfg = write_config(tmp_path, {"sweep": sweep})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        for seed in (11, 12):
            for lb in (20, 500):
                run_id = f"smoke_seed={seed}_lb_ms={lb}"
                point = write_config(tmp_path, {"seed": seed, "scheduler.lb_ms": lb, "run_id": run_id, "sweep": None},
                                     name=f"{run_id}.yaml")
                assert main(["run", "--config", str(point), "--out", str(tmp_path / "runs")]) == 0
                cmp = filecmp.dircmp(tmp_path / "sweep" / run_id, tmp_path / "runs" / run_id)
                assert cmp.left_only == cmp.right_only == []
                assert filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files, shallow=False)[0] == cmp.common_files
        assert (tmp_path / "sweep" / "summary.csv").read_bytes() == (tmp_path / "runs" / "summary.csv").read_bytes()

    def test_sweep_requires_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": None})
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [[-1, 50, 500], [20, -1, 500], [20, 50, -1]])
    def test_bad_value_rejected_before_any_run(self, tmp_path, capsys, values):
        cfg = write_config(tmp_path, {"sweep": [{"field": "scheduler.lb_ms", "values": values}]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        assert "scheduler.lb_ms" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_repeated_run_id_rejected_before_any_run(self, tmp_path, capsys):
        # both runs would write lb_ms=8/, the second over the first
        cfg = write_config(tmp_path, {"sweep": [{"field": "seed", "values": [1, 2]},
                                                {"field": "scheduler.lb_ms", "values": [8, 8]}]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert "sweep[1].values" in err and "'smoke_seed=1_lb_ms=8'" in err
        assert not (tmp_path / "res" / "summary.csv").exists()
        assert not (tmp_path / "res").exists()

    def test_unknown_sweep_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": [{"field": "scheduler.nope", "values": [1]}]})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "scheduler.nope" in capsys.readouterr().err


class TestConfigErrors:
    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"workload.scenario": "bogus"}, "scenario"),
            ({"workload.iat.kind": "weird"}, "workload.iat"),
            ({"scheduler.kind": "fifo"}, "kind"),
            ({"scheduler.lb_ms": None}, "lb_ms"),
            ({"model.alpha_mode": "magic"}, "alpha_mode"),
            ({"workload.cost": None}, "cost"),
            ({"sim.mtime_ms": -5}, "mtime_ms"),
            ({"workload.typo_key": 3}, "typo_key"),
            # boundary intervals below the 1 ms timestamp resolution hang
            ({"sim.feedback_interval_ms": 0}, "sim.feedback_interval_ms"),
            ({"sim.mtime_ms": 1e-6}, "sim.mtime_ms"),
            ({"sim.transfer_delay_ms": -1}, "sim.transfer_delay_ms"),
            ({"sim.feedback_delivery_delay_ms": -1}, "sim.feedback_delivery_delay_ms"),
            ({"sim.warmup_ms": -1}, "sim.warmup_ms"),
            ({"workload.duration_ms": float("inf")}, "workload.duration_ms"),
            ({"sim.mtime_ms": float("nan")}, "sim.mtime_ms"),
            ({"workload.scope.ws_ms": float("nan")}, "workload.scope.ws_ms"),
            ({"workload.scenario": "traffic", "workload.scope": {"ws_min_ms": 100, "ws_max_ms": float("nan")}},
             "workload.scope.ws_max_ms"),
            ({"workload.cost.base_ms": {"A": 1.0, "B": 3.0}}, "workload.cost.base_ms"),
            ({"workload.scenario": "traffic", "workload.scope": {"ws_min_ms": 100, "ws_max_ms": 200},
              "workload.cost.base_ms": {"L1": 0.1}}, "workload.cost.base_ms"),
            ({"workload.scenario": "face", "workload.cost.base_ms": {"face": 1.0}}, "workload.cost.base_ms"),
            ({"workload.cost.base_ms": {"A": "x", "B": 3.0, "open": 0.1}}, "workload.cost.base_ms[A]"),
            ({"workload.type_mix": {"A": "x", "B": 0.5}}, "workload.type_mix[A]"),
            ({"scheduler.n_instances": 2.5}, "scheduler.n_instances"),
            ({"workload.iat": {"kind": "burst", "burst_size": 2.5, "intra_gap_ms": 1, "inter_gap_ms": 50}},
             "workload.iat.burst_size"),
            ({"model.n_iat_bins": 1.5}, "model.n_iat_bins"),
            ({"model.n_lat_bins": 1.5}, "model.n_lat_bins"),
            ({"seed": 1.5}, "seed"),
            ({"workload.opener": None}, "workload.opener"),
            ({"workload.scenario": "face", "workload.opener": None}, "workload.opener"),
            ({"model.n_iat_bins": 0}, "model.n_iat_bins"),
            ({"model.n_lat_bins": 0}, "model.n_lat_bins"),
            # every freeze allocates each bin: 30M bins ended in a MemoryError
            ({"model.n_lat_bins": 30_000_000}, "model.n_lat_bins"),
            ({"model.n_iat_bins": 1025}, "model.n_iat_bins"),
            ({"model.delta_iat": -1}, "model.delta_iat"),
            ({"model.delta_lp": -0.5}, "model.delta_lp"),
            # and so does the default interval, sim.mtime_ms / 10, below 1
            ({"sim.mtime_ms": 1}, "sim.feedback_interval_ms must be >= 1, got its default sim.mtime_ms / 10"),
            ({"sim.mtime_ms": 9.5}, "sim.feedback_interval_ms must be >= 1, got its default sim.mtime_ms / 10"),
            # a string field takes a string or a number, nothing else
            ({"run_id": YAML_NULL}, "run_id must be a string"),
            ({"run_id": ["a", "b"]}, "run_id must be a string"),
            ({"out_dir": True}, "out_dir must be a string"),
            ({"workload.cost.build_etype": YAML_NULL}, "workload.cost.build_etype must be a string"),
            ({"workload.opener_etype": {"a": 1}}, "workload.opener_etype must be a string"),
            # a latency bound is a number > 0 wherever it is given: nan batched
            # as if unbounded or counted no violation, and a bound <= 0 counted
            # every sample as one, under every controller
            ({"scheduler.lb_ms": float("nan")}, "scheduler.lb_ms must be a number, got nan"),
            ({"scheduler.lb_ms": float("-inf")}, "scheduler.lb_ms must be > 0"),
            ({"scheduler.lb_ms": 0}, "scheduler.lb_ms must be > 0"),
            ({"scheduler.kind": "round_robin", "scheduler.lb_ms": -3}, "scheduler.lb_ms must be > 0"),
            ({"scheduler.kind": "reactive", "scheduler.th_ms": 5, "scheduler.lb_ms": -3},
             "scheduler.lb_ms must be > 0"),
            ({"sim.lb_eval_ms": float("nan")}, "sim.lb_eval_ms must be a number, got nan"),
            ({"sim.lb_eval_ms": -1}, "sim.lb_eval_ms must be > 0"),
            ({"sim.lb_eval_ms": 0}, "sim.lb_eval_ms must be > 0"),
            ({"sim.lb_eval_ms": float("-inf")}, "sim.lb_eval_ms must be > 0"),
            ({"workload.iat": {"kind": "burst", "burst_size": 0, "intra_gap_ms": 1, "inter_gap_ms": 50}},
             "workload.iat.burst_size must be >= 1"),
            ({"workload.type_mix": {"A": 1.5, "B": -0.5}}, "workload.type_mix probabilities must be >= 0"),
            # a timestamp is an int64 of ms: a stream that could reach 2**63
            # ended in an OverflowError when the splitter read its timestamps
            ({**TRAFFIC, "workload.scope": {"ws_min_ms": 1e19, "ws_max_ms": 2e19}},
             "workload.duration_ms + workload.scope.ws_max_ms must be finite and < 2**63"),
            ({**TRAFFIC, **HUGE_DURATION},
             "workload.duration_ms + workload.scope.ws_max_ms must be finite and < 2**63"),
            ({"workload.scenario": "face", **HUGE_DURATION, "workload.opener": {"kind": "constant", "mu_ms": 1e18},
              "workload.cost.base_ms": {"face": 0.1, "open": 0.3}}, "workload.duration_ms must be finite and < 2**63"),
        ],
    )
    def test_field_level_messages(self, tmp_path, capsys, monkeypatch, overrides, needle):
        # a row the config would accept runs in full and writes its outputs
        # to out_dir, relative to the working directory; --out would
        # override the out_dir rows
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--out", "res"]])
    @pytest.mark.parametrize("text", ["- 1\n- 2\n", "42\n"])
    def test_non_mapping_top_level(self, tmp_path, capsys, command, flags, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        flags = [str(tmp_path / f) if f == "res" else f for f in flags]
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert "must be a mapping" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("text, needle", [("", "is empty"), ("a: [1, 2\n", "is not valid YAML")])
    def test_empty_or_invalid_yaml(self, tmp_path, capsys, command, text, needle):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("fault", ["out_dir", "run_id"])
    def test_unusable_output_path(self, tmp_path, capsys, command, fault):
        # an --out naming a file, or a run_id no directory can have, fails
        # before the first run instead of with a traceback after it
        out = tmp_path / "res"
        overrides = {}
        if fault == "out_dir":
            out.write_text("not a directory")
        else:
            overrides["run_id"] = "bad\0id"
        cfg = write_config(tmp_path, overrides)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{fault}:" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()
        if fault == "out_dir":
            assert out.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("run", {"run_id": "../escaped"}),
            ("run", {"run_id": ""}),
            ("run", {"run_id": "."}),
            ("run", {"run_id": ".."}),
            ("run", {"run_id": "a/b"}),
            ("sweep", {"run_id": "../escaped"}),
            # the sweep label puts each value into its run id
            ("sweep", {"sweep": [{"field": "run_id", "values": ["ok", "../escaped"]}]}),
        ],
    )
    def test_run_id_names_one_directory(self, tmp_path, capsys, command, overrides):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out" / "res"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "run_id:" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg]

    def test_missing_file(self, capsys):
        assert main(["run", "--config", "/nonexistent.yaml"]) == 2

    def test_lb_inf_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"scheduler.lb_ms": "inf", "sweep": None})
        exp = build_experiment(yaml.safe_load(cfg.read_text()))
        assert exp.scheduler.lb_ms == float("inf")

    def test_numeric_strings_and_smallest_default_interval_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"run_id": 7, "workload.cost.build_etype": 1.5, "sim.mtime_ms": 10})
        exp = build_experiment(yaml.safe_load(cfg.read_text()))
        assert (exp.run_id, exp.workload.cost.build_etype, exp.sim.feedback_interval_ms) == ("7", "1.5", None)

    def test_largest_bin_counts_accepted(self, tmp_path):
        cfg = write_config(tmp_path, {"model.n_iat_bins": 1024, "model.n_lat_bins": 1024})
        exp = build_experiment(yaml.safe_load(cfg.read_text()))
        assert (exp.model.n_iat_bins, exp.model.n_lat_bins) == (1024, 1024)


def sorted_p99(values):
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(0.99 * len(values)) - 1)]


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(allow_nan=False), max_size=300))
def test_p99_equals_sorted_definition(values):
    # repr tells -0.0 from 0.0, which == does not
    assert repr(p99(values)) == repr(sorted_p99(values))
    assert repr(p99(array("d", values))) == repr(sorted_p99(values))


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


# 0 and 0.0, 1 and 1.0 are equal dict keys; -0.0 equals 0.0
CELL_INTS = st.sampled_from([0, 1, 2, -1, 2**63 - 1, -(2**63)]) | st.integers(-(2**63), 2**63 - 1)
CELL_FLOATS = st.sampled_from(
    [0.0, 1.0, 2.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308, 1e300]
) | st.floats()


# a pair's instance, lambda_q and lambda_p
PAIRS = st.lists(st.tuples(CELL_INTS, CELL_FLOATS, CELL_FLOATS), max_size=4)
# an event's seq, ts and member count, and its 0-4 pairs
EVENTS = st.lists(st.tuples(CELL_INTS, CELL_INTS, CELL_INTS, PAIRS), max_size=12)
WINDOW_CELLS = st.tuples(CELL_INTS, CELL_INTS, st.none() | CELL_INTS, CELL_INTS, CELL_INTS,
                         CELL_FLOATS, CELL_FLOATS | st.just(-0.0), CELL_FLOATS)
# no row, one, and a block's rows less one, exactly, plus one and twice plus
# one; latency.csv is written _BLOCK_ROWS events with pairs at a time
ROW_COUNTS = (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1)


def exactly(events, n):
    """``events`` cut or filled up to ``n`` events and ``n`` pairs in all."""
    out, pairs = [], 0
    for seq, ts, members, ps in events[:n]:
        out.append((seq, ts, members, ps[: n - pairs]))
        pairs += len(out[-1][3])
    fill = [(k % 3, k / 4, 0.5) for k in range(n - pairs)]
    if fill and len(out) < n:
        out.append((n, n, 0, fill))
    elif fill:
        out[-1] = (*out[-1][:3], out[-1][3] + fill)
    return out + [(k, k, k, []) for k in range(n - len(out))]


def with_pairs(events, n):
    """``n`` events with pairs, cut from or filled up after those of
    ``events``, the middle one with 64, and a pairless event before each and
    after the last."""
    paired = [e for e in events if e[3]][:n]
    paired += [(k, k, k, [(k % 3, k / 4, 0.5)]) for k in range(n - len(paired))]
    if paired:
        seq, ts, members, _ = paired[n // 2]
        paired[n // 2] = (seq, ts, members, [(k % 5, k / 8, 0.25) for k in range(64)])
    return [row for e in paired for row in ((e[0], e[1], 0, []), e)] + [(n, n, 0, [])]


def signed_zeros(events, negative):
    """``events`` with every zero lambda_q and lambda_p 0.0, and with
    ``negative`` the first pair's lambda_q -0.0: the writer memoises a
    pair's cells only when no lambda holds -0.0."""
    out = [(seq, ts, members, [(i, a if a != 0.0 else 0.0, b if b != 0.0 else 0.0) for i, a, b in ps])
           for seq, ts, members, ps in events]
    first = next((k for k, e in enumerate(out) if e[3]), None)
    if negative and first is not None:
        seq, ts, members, ((i, _, b), *ps) = out[first]
        out[first] = (seq, ts, members, [(i, -0.0, b), *ps])
    return out


def check_written_like_csv_writer(events, windows):
    # latency.csv, transmissions.csv and windows.csv, each distinct value
    # formatted once and written in blocks of rows; the bytes are csv.writer's
    pairs = [(seq, ts, *pair) for seq, ts, _, ps in events for pair in ps]
    tx = [(seq, ts, members, len(ps)) for seq, ts, members, ps in events]
    _, _, inst, q, p = zip(*pairs) if pairs else [()] * 5
    tx_seq, tx_ts, tx_members, tx_instances = zip(*tx) if tx else [()] * 4
    m = RunMetrics(
        instance=array("q", inst), lambda_q=array("d", q), lambda_p=array("d", p),
        tx_seq=array("q", tx_seq), tx_ts=array("q", tx_ts),
        tx_members=array("q", tx_members), tx_instances=array("q", tx_instances),
        # a window's wid and instance are its decision's, its extent detection's
        decisions=[Decision(wid, instance, "round_robin") for wid, _, _, instance, *_ in windows],
        windows=[WindowDescriptor(*w[5:]) for w in windows],
    )
    m.window_extents = lambda: iter([(open_ts, close_ts, n) for _, open_ts, close_ts, _, n, *_ in windows])
    m.feedback_delays = lambda: []
    with tempfile.TemporaryDirectory() as d:
        write_run_outputs(Path(d), m)
        written = {name: (Path(d) / f"{name}.csv").read_bytes() for name in ("latency", "transmissions", "windows")}
    assert written["latency"] == csv_writer_bytes(
        ["seq", "instance", "lambda_q", "lambda_p", "lambda_o", "ts"],
        [(seq, i, a, b, a + b, ts) for seq, ts, i, a, b in pairs],
    )
    assert written["transmissions"] == csv_writer_bytes(["seq", "ts", "n_member_windows", "n_instances"], tx)
    assert written["windows"] == csv_writer_bytes(
        ["wid", "open_ts", "close_ts", "instance", "n_member_events",
         "actual_gamma_minus", "actual_gamma_plus", "actual_lambda_q_peak"],
        windows,
    )


@settings(max_examples=40, deadline=None)
@given(
    events=EVENTS,
    windows=st.lists(WINDOW_CELLS, min_size=1, max_size=10),
    negative_zero_in=st.sampled_from(["", "q", "p", "qp"]),
    many_distinct=st.booleans(),
)
def test_column_writer_matches_csv_writer(events, windows, negative_zero_in, many_distinct):
    nz_q, nz_p = "q" in negative_zero_in, "p" in negative_zero_in
    # a column holding -0.0 also holds 0.0; one without it has only 0.0
    events = [
        (seq, ts, members, [(i, a if nz_q or a != 0.0 else 0.0, b if nz_p or b != 0.0 else 0.0)
                            for i, a, b in ps])
        for seq, ts, members, ps in events
    ]
    # on one instance, so that a memo keyed by value would take -0.0 for 0.0
    zeros = [(0, 0.0, 0.0), (0, -0.0 if nz_q else 0.0, -0.0 if nz_p else 0.0), (0, 0.0, 0.0)]
    specials = [(3, math.nan, math.inf), (4, -math.inf, math.nan), (5, math.inf, -math.inf)]
    events = [(7, 1, 3, zeros), (8, 2, 0, []), (9, 3, 3, specials), *events]
    for n in ROW_COUNTS:
        check_written_like_csv_writer(exactly(events, n), [windows[k % len(windows)] for k in range(n)])
        # n events with pairs, through the memoised branch and the -0.0 one
        for negative in (False, True):
            check_written_like_csv_writer(signed_zeros(with_pairs(events, n), negative), windows[:1])
    if many_distinct:  # more distinct values than a memo keeps, then some again
        extra = [v % 4500 for v in range(5000)]
        events += [(v, v, v, [(v, v / 4, -v / 8)] * (v % 3)) for v in extra]
        check_written_like_csv_writer(events, windows)


class TestSummaryViolations:
    # lambda_o per pair: 5.0, 5.0, 5.0 at ts 0, then 4.0, 5.5, inf, 5.0 at ts 10
    METRICS = RunMetrics(
        instance=array("q", [0, 1, 2, 0, 1, 2, 3]),
        lambda_q=array("d", [0.0, 2.0, 2.5, 0.0, 1.0, math.inf, 4.0]),
        lambda_p=array("d", [5.0, 3.0, 2.5, 4.0, 4.5, 1.0, 1.0]),
        tx_seq=array("q", [0, 1]), tx_ts=array("q", [0, 10]),
        tx_members=array("q", [3, 4]), tx_instances=array("q", [3, 4]),
    )

    @pytest.mark.parametrize(
        "lb, warmup_ms, violations",
        [(5, 0, 2), (5.0, 0, 2), (4, 0, 6), (4, 10, 3), (5, 10, 2), (5, 11, 0), (math.inf, 0, 0)],
    )
    def test_violations_are_lambda_o_strictly_above_the_bound(self, lb, warmup_ms, violations):
        # an int bound (YAML ints stay ints), an infinite one, and lambda_o
        # equal to the bound, which is no violation
        raw = copy.deepcopy(BASE_CONFIG)
        raw["sim"].update(lb_eval_ms=lb, warmup_ms=warmup_ms)
        cfg = build_experiment(raw)
        assert type(cfg.sim.lb_eval_ms) is type(lb)
        los = self.METRICS.lambda_o_values(warmup_ms)
        assert summary_row(cfg, self.METRICS)[6] == violations == sum(lo > lb for lo in los)


def test_writing_a_run_holds_no_copy_per_pair(tmp_path):
    # a face stream on four Round-Robin instances, 101 windows of one batch
    # each, at two event rates: the tracemalloc peak of writing the outputs
    # and the summary row, above what the run holds, grows by under 4 B per
    # added pair (a per-pair copy of one float takes 8)
    def writing_peak(iat_ms):
        cfg = build_experiment({
            "run_id": "face-rr", "seed": 42,
            "workload": {
                "scenario": "face", "duration_ms": 20_000,
                "iat": {"kind": "exponential", "mu_ms": iat_ms}, "scope": {"ws_ms": 3000},
                "opener": {"kind": "constant", "mu_ms": 200}, "opener_etype": "query",
                "cost": {"kind": "flat_per_type", "base_ms": {"face": 0.02, "query": 0.005}},
            },
            "scheduler": {"kind": "round_robin", "n_instances": 4},
            "sim": {"mtime_ms": 2000, "warmup_ms": 5000},
        })
        m = run(cfg)
        assert len(m.decisions) == 101
        assert all(a.instance != b.instance for a, b in zip(m.decisions, m.decisions[1:]))
        tracemalloc.start()
        try:
            write_run_outputs(tmp_path / str(iat_ms), m)
            summary_row(cfg, m)
            return tracemalloc.get_traced_memory()[1], m.transmissions
        finally:
            tracemalloc.stop()

    (sparse, sparse_pairs), (dense, dense_pairs) = writing_peak(20), writing_peak(5)
    assert dense_pairs - sparse_pairs > 10_000
    assert (dense - sparse) / (dense_pairs - sparse_pairs) < 4


# text that csv.writer must quote: a delimiter, a quote, either line-end character
CELL_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "|", " ", "a", "é", ":"]), max_size=6)
QUOTED_TEXTS = ["a,b", 'say "x"', "cr\rin", "lf\nin", "unknown_type:e,\r\n"]
OPTIONAL_FLOATS = st.sampled_from([None, 0.0, -0.0]) | CELL_FLOATS


@st.composite
def predictions(draw):
    ints = draw(st.lists(CELL_INTS, min_size=1, max_size=1))
    floats = draw(st.lists(CELL_FLOATS | st.just(-0.0), min_size=8, max_size=8))
    flags = draw(st.lists(CELL_TEXT, max_size=3).map(tuple))
    return LatencyPrediction(floats[0], ints[0], *floats[1:], flags)


@settings(max_examples=60, deadline=None)
@given(
    preds=st.lists(predictions(), max_size=4),
    decisions=st.lists(
        st.tuples(CELL_INTS, CELL_INTS, CELL_TEXT, st.integers(-1, 3), OPTIONAL_FLOATS), max_size=20
    ),
    # a window's open_ts, close_ts, n_member_events, gains and peak
    windows=st.lists(
        st.tuples(CELL_INTS, st.none() | CELL_INTS, CELL_INTS, CELL_FLOATS, CELL_FLOATS | st.just(-0.0), CELL_FLOATS),
        max_size=10,
    ),
    batches=st.lists(
        st.tuples(CELL_INTS, CELL_INTS, CELL_INTS, CELL_INTS, CELL_FLOATS, CELL_FLOATS, CELL_INTS, CELL_FLOATS),
        max_size=10,
    ),
)
def test_row_writers_match_csv_writer(preds, decisions, windows, batches):
    # decisions, predictions, windows and batches are written one format
    # string per row, each prediction's cells formatted once and each text
    # cell quoted once; the bytes are those of csv.writer over the rows
    # built cell by cell
    base = LatencyPrediction(1.5, 2, 1.0, 0.0, -0.5, 0.25, 0.0, 1.0, 1.5, ("a,b",))
    # equal by value, and so as a dict key, but for the sign of one zero
    negative_zero = base._replace(lambda_q_init=-0.0)
    assert negative_zero == base
    preds = [base, negative_zero, *preds]
    ds = [Decision(w, i, k, preds[p % len(preds)] if p >= 0 else None, lo) for w, i, k, p, lo in decisions]
    # every text to quote, and one prediction shared by many decisions
    ds += [Decision(7, 0, text, preds[n % 2], None) for n, text in enumerate(QUOTED_TEXTS)]
    ds += [Decision(8, 1, "reactive", None, None), Decision(9, 1, "reactive", None, 0.0)]
    ds += [Decision(10, 2, "model_based", base._replace(flags=(text, "b")), None) for text in QUOTED_TEXTS]
    # each decision's window, whose wid and instance are the decision's
    cells = windows + [(0, None, 3, -0.0, math.nan, math.inf)]
    cells = [cells[k % len(cells)] for k in range(len(ds))]
    fds = [FeedbackDelay(*b) for b in batches] + [FeedbackDelay(0, 0, 5, 1, -0.0, math.nan, 2, -math.inf)]
    m = RunMetrics(decisions=ds, windows=[WindowDescriptor(*c[3:]) for c in cells])
    m.window_extents = lambda: iter([c[:3] for c in cells])
    m.feedback_delays = lambda: fds
    with tempfile.TemporaryDirectory() as d:
        write_run_outputs(Path(d), m)
        written = {name: (Path(d) / f"{name}.csv").read_bytes() for name in ("decisions", "predictions", "windows", "batches")}
    assert written["decisions"] == csv_writer_bytes(
        ["wid", "instance", "predicted_lambda_o_max", "kind"],
        [
            (
                d.wid,
                d.instance,
                d.prediction.lambda_o_max if d.prediction is not None
                else (d.observed_lambda_o if d.observed_lambda_o is not None else ""),
                d.kind,
            )
            for d in ds
        ],
    )
    assert written["predictions"] == csv_writer_bytes(
        ["wid", "theta_hat", "theta_bar", "n", "gamma_minus", "gamma_plus", "alpha",
         "lambda_q_init", "lambda_o_max", "instance", "flags"],
        [
            (
                d.wid, p.theta_hat, p.theta_bar, p.n, p.gamma_minus, p.gamma_plus,
                p.alpha, p.lambda_q_init, p.lambda_o_max, d.instance, "|".join(p.flags),
            )
            for d in ds
            if (p := d.prediction) is not None
        ],
    )
    assert written["windows"] == csv_writer_bytes(
        ["wid", "open_ts", "close_ts", "instance", "n_member_events",
         "actual_gamma_minus", "actual_gamma_plus", "actual_lambda_q_peak"],
        [
            (d.wid, open_ts, close_ts if close_ts is not None else "", d.instance, n, g_minus, g_plus, peak)
            for d, (open_ts, close_ts, n, g_minus, g_plus, peak) in zip(ds, cells)
        ],
    )
    assert written["batches"] == csv_writer_bytes(
        ["batch_id", "instance", "first_decision_ts", "n_windows",
         "lat_peak", "lat_peak_delay_ms", "qlen_peak", "qlen_peak_delay_ms"],
        fds,
    )


class TestConfigBuilder:
    def test_numbers_keep_their_yaml_type(self):
        raw = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
        raw["workload"]["cost"]["base_ms"] = {"A": 1, "B": 3, "open": 0.1}
        exp = build_experiment(raw)
        assert type(exp.sim.mtime_ms) is int and type(exp.scheduler.lb_ms) is int
        assert [type(v) for v in exp.workload.cost.base_ms.values()] == [float] * 3
        assert exp.seed == 11

    @pytest.mark.parametrize("name", ["transfer_delay_ms", "feedback_delivery_delay_ms", "warmup_ms"])
    def test_nan_delay_or_warmup_rejected_by_validate(self, name):
        # YAML cannot give nan or inf, a library caller can
        cfg = build_experiment(yaml.safe_load(yaml.safe_dump(BASE_CONFIG)))
        for value, bound in ((math.nan, ">= 0"), (-math.inf, ">= 0"), (math.inf, "finite")):
            with pytest.raises(ConfigurationError, match=f"sim.{name} must be {bound}, got {value}"):
                replace(cfg, sim=replace(cfg.sim, **{name: value})).validate()

    @pytest.mark.parametrize(
        "overrides, path, value, needle",
        [
            ({}, "workload.duration_ms", math.nan, "workload.duration_ms must be > 0"),
            ({}, "workload.duration_ms", math.inf, "workload.duration_ms must be finite"),
            ({}, "workload.iat.mu_ms", math.nan, "workload.iat.mu_ms"),
            ({}, "workload.opener.mu_ms", math.nan, "workload.opener.mu_ms"),
            ({"workload.iat": {"kind": "sinusoidal_exponential", "mu_min_ms": 10, "mu_max_ms": 50,
                               "period_ms": 1000}}, "workload.iat.mu_min_ms", math.nan, "mu_min_ms"),
            ({"workload.iat": {"kind": "sinusoidal_exponential", "mu_min_ms": 10, "mu_max_ms": 50,
                               "period_ms": 1000}}, "workload.iat.mu_max_ms", math.nan, "mu_max_ms"),
            ({"workload.iat": {"kind": "sinusoidal_exponential", "mu_min_ms": 10, "mu_max_ms": 50,
                               "period_ms": 1000}}, "workload.iat.period_ms", math.nan, "workload.iat.period_ms"),
            ({"workload.iat": {"kind": "burst", "burst_size": 2, "intra_gap_ms": 1, "inter_gap_ms": 50}},
             "workload.iat.intra_gap_ms", math.nan, "intra_gap_ms"),
            ({"workload.iat": {"kind": "burst", "burst_size": 2, "intra_gap_ms": 1, "inter_gap_ms": 50}},
             "workload.iat.inter_gap_ms", math.nan, "inter_gap_ms"),
            ({}, "workload.scope.ws_ms", math.nan, "workload.scope.ws_ms"),
            ({"workload.scenario": "traffic", "workload.scope": {"ws_min_ms": 100, "ws_max_ms": 200},
              "workload.cost.base_ms": {"L1": 0.1, "L2": 0.2}}, "workload.scope.ws_min_ms", math.nan, "ws_min_ms"),
            ({"workload.scenario": "traffic", "workload.scope": {"ws_min_ms": 100, "ws_max_ms": 200},
              "workload.cost.base_ms": {"L1": 0.1, "L2": 0.2}}, "workload.scope.ws_max_ms", math.nan, "ws_max_ms"),
            ({}, "workload.type_mix", {"A": math.nan, "B": 0.5}, "workload.type_mix"),
            ({}, "workload.cost_jitter_sigma", math.nan, "workload.cost_jitter_sigma"),
            ({}, "workload.cost.base_ms", {"A": math.nan, "B": 3.0, "open": 0.1}, "cost.base_ms[A]"),
            ({}, "workload.cost.incr_ms", math.nan, "cost.incr_ms"),
            ({}, "model.delta_iat", math.nan, "model.delta_iat"),
            ({}, "model.delta_lp", math.nan, "model.delta_lp"),
            ({}, "model.alpha_fixed", math.nan, "model.alpha_fixed"),
            ({}, "model.iat_floor_ms", math.nan, "model.iat_floor_ms"),
            ({"scheduler": {"kind": "reactive", "n_instances": 2, "th_ms": 5}}, "scheduler.th_ms", math.nan,
             "scheduler.th_ms"),
            ({}, "scheduler.lb_ms", math.nan, "scheduler.lb_ms"),
        ],
    )
    def test_nan_or_endless_horizon_rejected_by_validate(self, tmp_path, overrides, path, value, needle):
        # YAML cannot give these; set in code, each fails validate() and is
        # never run (an infinite horizon would generate arrivals forever)
        cfg = build_experiment(yaml.safe_load(write_config(tmp_path, {**overrides, "sweep": None}).read_text()))

        def replaced(obj, path):
            name, _, rest = path.partition(".")
            return replace(obj, **{name: replaced(getattr(obj, name), rest) if rest else value})

        with pytest.raises(ConfigurationError, match=re.escape(needle)):
            replaced(cfg, path).validate()

    def test_null_optional_field_equals_omitted(self):
        raw = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
        raw["sim"]["lb_eval_ms"] = None
        raw["model"] = None
        expected = build_experiment(yaml.safe_load(yaml.safe_dump({**BASE_CONFIG, "model": {}})))
        assert repr(build_experiment(raw)) == repr(expected)


def config_paths(node, path=()):
    """The key path of every node of a config tree below its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from config_paths(v, path + (k,))


HOSTILE = [None, 0, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 2**63, -(2**63), True, False,
           "", "inf", [], {}, {"kind": "x"}]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(config_paths(BASE_CONFIG))), st.sampled_from(HOSTILE)),
                min_size=1, max_size=2))
def test_hostile_values_are_configuration_errors(mutations):
    # a config either builds or is rejected with a message; no other
    # exception may escape, as `main` turns only ConfigurationError into exit 2
    paths = [p for p, _ in mutations]
    assume(not any(p != q and q[: len(p)] == p for p in paths for q in paths))
    raw = copy.deepcopy(BASE_CONFIG)
    for path, value in mutations:
        node = raw
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = copy.deepcopy(value)
    try:
        build_experiment(raw)
    except ConfigurationError:
        pass


class TestBench:
    def test_bench_smoke(self, capsys):
        assert main(["bench-scheduling-latency", "--bins", "32", "--entries", "20000"]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "ratio" in out

    def test_importing_the_driver_loads_no_benchmark_and_no_argument_parser(self):
        # `cepsim run` and a library caller import cepsim.cli; the benchmark
        # and what it imports (statistics, then fractions and decimal), and
        # argparse, load only when a command needs them
        src = Path(__file__).resolve().parent.parent / "src"
        lazy = ("cepsim.bench", "statistics", "fractions", "decimal", "argparse")
        code = f"import sys, cepsim.cli; print([m for m in {lazy!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestShippedConfigs:
    CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

    @pytest.mark.parametrize(
        "name", ["traffic_tradeoff.yaml", "reactive_vs_model.yaml", "face_accuracy.yaml"]
    )
    def test_configs_parse(self, name):
        from cepsim.cli import load_config

        build_experiment(load_config(self.CONFIG_DIR / name))

    def test_traffic_sweep_transmissions_decrease(self, tmp_path):
        cfg = self.CONFIG_DIR / "traffic_tradeoff.yaml"
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "res")]) == 0
        summary = read_csv(tmp_path / "res" / "summary.csv")
        assert len(summary) == 3
        tx = [int(r["transmissions"]) for r in summary]
        assert tx[0] > tx[1] > tx[2]
