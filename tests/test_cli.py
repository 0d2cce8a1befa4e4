import copy
import csv
import filecmp
import math
from array import array
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cepsim.cli import build_experiment, main, p99
from cepsim.core import ConfigurationError

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
        assert (exp.run_id, exp.workload.cost.build_etype, exp.feedback_interval_ms) == ("7", "1.5", None)

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


class TestConfigBuilder:
    def test_numbers_keep_their_yaml_type(self):
        raw = yaml.safe_load(yaml.safe_dump(BASE_CONFIG))
        raw["workload"]["cost"]["base_ms"] = {"A": 1, "B": 3, "open": 0.1}
        exp = build_experiment(raw)
        assert type(exp.mtime_ms) is int and type(exp.scheduler.lb_ms) is int
        assert [type(v) for v in exp.workload.cost.base_ms.values()] == [float] * 3
        assert exp.workload.seed == exp.seed == 11
        assert exp.scheduler.model is exp.model

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
