"""Golden outputs: sha256 digests of every CSV the shipped configs write.

The digests pin the simulator's output bytes, so a refactor or speed-up that
changes any number, row order or float formatting fails here. If a change is
meant to alter the output, rerun the configs and record the new digests in the
same change, saying why they moved.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from cepsim.cli import main
from test_cli import BASE_CONFIG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# config -> command that runs it
COMMANDS = {
    "traffic_tradeoff.yaml": "sweep",
    "reactive_vs_model.yaml": "run",
    "face_accuracy.yaml": "run",
    "delays_jitter.yaml": "sweep",
    "face_dense.yaml": "run",
    "traffic_rr.yaml": "run",
}

# configs written by the test instead of shipped. delays_jitter reaches what
# no shipped config does: arrival after the event's timestamp, delayed
# feedback delivery, payload cost hints and the custom_table cost model.
# face_dense is perfbench's face-dense-reactive cut to an 8 s horizon: up to
# 151 (mean 120) open windows per event, on about three instances each, and
# closing events that are members of the windows they close. The shipped
# configs have at most about ten windows per event. traffic_rr is perfbench's
# traffic-long-rr cut to a 4-minute horizon: the shipped configs and the other
# inline ones run no Round-Robin traffic, and its 1,490 events reach 10,710
# (event, instance) pairs, about seven per event, over several write blocks.
INLINE = {
    "delays_jitter.yaml": {
        **BASE_CONFIG,
        "workload": {
            **BASE_CONFIG["workload"],
            "cost_jitter_sigma": 0.4,
            "cost": {"kind": "custom_table", "base_ms": {"A": 1.0, "B": 3.0, "open": 0.1}, "incr_ms": 0.05},
        },
        "sim": {**BASE_CONFIG["sim"], "transfer_delay_ms": 2.5, "feedback_delivery_delay_ms": 30},
    },
    "face_dense.yaml": {
        "run_id": "face-dense",
        "seed": 7,
        "workload": {
            "scenario": "face",
            "duration_ms": 8000,
            "iat": {"kind": "exponential", "mu_ms": 20},
            "scope": {"ws_ms": 3000},
            "opener": {"kind": "constant", "mu_ms": 20},
            "opener_etype": "query",
            "cost": {"kind": "flat_per_type", "base_ms": {"face": 0.02, "query": 0.005}},
        },
        "scheduler": {"kind": "reactive", "n_instances": 4, "th_ms": 1},
        "model": {"n_iat_bins": 2, "n_lat_bins": 2},
        "sim": {"mtime_ms": 500, "feedback_interval_ms": 50, "warmup_ms": 1000},
    },
    "traffic_rr.yaml": {
        "run_id": "traffic-rr",
        "seed": 42,
        "workload": {
            "scenario": "traffic",
            "duration_ms": 240_000,
            "iat": {"kind": "sinusoidal_exponential", "mu_min_ms": 100, "mu_max_ms": 1000, "period_ms": 60_000},
            "scope": {"ws_min_ms": 2000, "ws_max_ms": 4000},
            "cost": {"kind": "equi_join", "base_ms": {"L1": 0.1, "L2": 0.2}, "incr_ms": 0.005},
        },
        "scheduler": {"kind": "round_robin", "n_instances": 8},
        "model": {"n_iat_bins": 8, "n_lat_bins": 4, "delta_iat": 0.75, "delta_lp": 2.0},
        "sim": {"mtime_ms": 5000, "warmup_ms": 10_000},
    },
}

# config -> {path under the output root: sha256}
GOLDEN = {
    "traffic_tradeoff.yaml": {
        "summary.csv": "fd070996328557db41e7ca2e89ba4282523e335f68d5eb4cd67e97606f5d27da",
        "traffic_lb_ms=16/batches.csv": "94a10befcc5e4da3d8d45c3f599272a361f6c361001e0c3dd6f73c250916fb49",
        "traffic_lb_ms=16/decisions.csv": "c5d147fc96860a351405a85b69dfcd39bda35ed0ad13de51b4797ce0c6235253",
        "traffic_lb_ms=16/latency.csv": "6d5c69d58ed6ed1b1f8452a1745a69442416492045ce08c94157b964ae4a3b87",
        "traffic_lb_ms=16/predictions.csv": "fb9d424b076b4f4fc690fee1267502ca301334effd9344f4b5ce0ea7f00952bf",
        "traffic_lb_ms=16/transmissions.csv": "f2cbc9c74b5ab717d608e98dd31729d93a6e126f2d8284ec6593c99874db8e4e",
        "traffic_lb_ms=16/windows.csv": "9f0c63f643317aa5354a4bf72396df7ba87f28377d017d2a0761490563f8a9d7",
        "traffic_lb_ms=33/batches.csv": "c890ae9d5d911effc3234dd831cc7e219816326c4aa4179b6877d84d67bc09e8",
        "traffic_lb_ms=33/decisions.csv": "9a5ae8ef30c2e494cb6e25d8d0019441d90ac6f24700261e936892504bf86e12",
        "traffic_lb_ms=33/latency.csv": "dbeb521c2dc14460dcf7e2c323f6d474ced9464c5107a018c18333d933b48cf5",
        "traffic_lb_ms=33/predictions.csv": "75c2c46ec607e6c08eed06debb0a1abfc9fb846398d46aa446f075764acbbc05",
        "traffic_lb_ms=33/transmissions.csv": "321c8f2ed57923c52d1f08cf1a90c51f1b45feca4d8b372ab373b96237adb9b1",
        "traffic_lb_ms=33/windows.csv": "e6c40e7588b88229910c9dac8ef72145be7d9376c1218b09ed99647294e12133",
        "traffic_lb_ms=8/batches.csv": "b3a9fbce7cdccaac95e34c58cc6262c333a4fb5b8271123cdb625c3e86ad1e9c",
        "traffic_lb_ms=8/decisions.csv": "b06c936993ec5a9c5a318e4d1f4201a7a1060614e83fe25259a9a34493edecf1",
        "traffic_lb_ms=8/latency.csv": "a918dc27247ef4c23d64520cfe10ff31b633a43aa21ed5322c9883085eefe300",
        "traffic_lb_ms=8/predictions.csv": "2c1a65099275abac65278d164c6e667cf9801132a85de7f56ebe6179d35f27c7",
        "traffic_lb_ms=8/transmissions.csv": "098177a1d49b5011c17013d9116689745e3b215097f4d86e9360cc61ba09cfb2",
        "traffic_lb_ms=8/windows.csv": "e8a6778fc02d4aa958079c8457f4de68246832eeaba9b1e3810dee71cc95a2e9",
    },
    "reactive_vs_model.yaml": {
        "reactive-small-ws/batches.csv": "696866461681a33505dcf53a9049b5691bb938591bb9248b733a066e4306a0b2",
        "reactive-small-ws/decisions.csv": "73b98a9204919d401e29ccc37724ce794c3cb29e8f6b741497af5859d2e9d9c8",
        "reactive-small-ws/latency.csv": "4d2b65707c2398d707bce9bf6554c3a2999db8ffe7be9311b0f79429578102db",
        "reactive-small-ws/predictions.csv": "94b2874b52cc1d2675bce88e0ce627825b85346bffaece23b054915ccbbd1533",
        "reactive-small-ws/transmissions.csv": "ac52a1c4d27d33b8b13f27ba0af05cafb0edc4b49753cd323911212d8cbd08fa",
        "reactive-small-ws/windows.csv": "bf696a17af825cf63c11ed1c1f72175f0ddbe090dfe44b3e39de68861fdd30da",
        "summary.csv": "06af1dae6b8f175c9832c4c3d7a1644bed91363657f18170960b6c61a9a52bff",
    },
    "face_accuracy.yaml": {
        "face-2bins/batches.csv": "054245e881c3960203c2562953f7a3917925ab263952e03ede3caa856d7c32c3",
        "face-2bins/decisions.csv": "e1510778c4786fc18501264dce21e2de5a107f070e0a383315571635fbaae4d3",
        "face-2bins/latency.csv": "1fc7bc0769bc6ab4ec5047573f052d3c466f604cd6a6b23e881fbf29ff2f8ade",
        "face-2bins/predictions.csv": "eaa038901eab3e29cdb2a9a3d4a608c1eb573d5b08f1c69a9900fdb840efd0ff",
        "face-2bins/transmissions.csv": "d3518677baf4af912a8b4678381042c29fadc2a2bc7eaf6f1e06194f279b9828",
        "face-2bins/windows.csv": "e386a3acb923af06a59edbe478ff43fd75f54121ddd387ab309ec036f9fe9a0b",
        "summary.csv": "c9a167b5911a34c4918cc59949dce68ed6aa988f7655cd1077e4987979bb7f0c",
    },
    "delays_jitter.yaml": {
        "smoke_lb_ms=20/batches.csv": "7ff2146e1aea9e2583e5b760c2ee84db8fdd707a313244d5e299546249e2f80e",
        "smoke_lb_ms=20/decisions.csv": "98f878a1343f7a0268cc0621bccb3cfe90897a5470049204d6a2e22bb4e5dc29",
        "smoke_lb_ms=20/latency.csv": "62c4e9124cbef7aa8946dd4ac7e71350a2a778583d50a23ceaab01c8c9eace0b",
        "smoke_lb_ms=20/predictions.csv": "2946f4cd61632ad94aa9e1f7f0515a4cc5de41f44419ec9c8c601156edb73a3a",
        "smoke_lb_ms=20/transmissions.csv": "9608036a7ea092929815af6813dfcadc05e8cb04b6cae1ce94845c41c2e1c010",
        "smoke_lb_ms=20/windows.csv": "f8e602f3a69d5cf811da317fb220b9549f0a321b4747b681b49fce414ae36aab",
        "smoke_lb_ms=50/batches.csv": "fac065197eb0753167c0a1ef99d15d1107cda5fa172f1dcadeb112a1aff7ba2d",
        "smoke_lb_ms=50/decisions.csv": "49c63cdd3f5b7d9cdab0a4d8942b8215f142fc4359fb3591ef8bd9a72c9f9657",
        "smoke_lb_ms=50/latency.csv": "e7de46e05927521c9dfbb2462ffe472fc4fd8f8cf5b1703745dd548985c92941",
        "smoke_lb_ms=50/predictions.csv": "16b2d87b4b7cf15a7bd8a7bc64d235f66f81b28d0815ce9c1993651d6bc1d922",
        "smoke_lb_ms=50/transmissions.csv": "3e61bf33bf950c5385383b7bca8525f874173f02776b7957c50b9dcc9cc2b735",
        "smoke_lb_ms=50/windows.csv": "97bfc0ae7a34fa4a504d2ab6e9267322a2048320637e7f06a52c8c3e4b15fc3a",
        "smoke_lb_ms=500/batches.csv": "d2cc536b1516148aae8482dff595b31ebf67d55ccde0508df0126ff1a6d320e5",
        "smoke_lb_ms=500/decisions.csv": "6770532f8506977a75a89e23591bd1968db906a3e536d249a0b11d065d62e5b1",
        "smoke_lb_ms=500/latency.csv": "13e62b43bb62727db4d239c166d470b5eaeb41950edfa6cebaaf3fe36b7138f2",
        "smoke_lb_ms=500/predictions.csv": "611d84bdbc34356b5e73248f7232a01a58abc6469a43dd0295f19e4dd2a8ee8d",
        "smoke_lb_ms=500/transmissions.csv": "1452717e3f1b41054f9d4414dd0b06451fb8b62864e8d069f0c63af4b667b666",
        "smoke_lb_ms=500/windows.csv": "90946d7e18c4797d7056c9db645721ac4624153dea036a0fc2b9a3cf9bab1b36",
        "summary.csv": "1859135644c92f8bb413d328f8c97efdf7098f0d965fdbb954dc632a30fd7f66",
    },
    "face_dense.yaml": {
        "face-dense/batches.csv": "c8f540161b1de9049d354a275614620ea6f3787b0bd91d89d9627a308e27588e",
        "face-dense/decisions.csv": "dfa39c83af73d162fefc4435bceaafc20e15c834e497a186767a9d5aa3907268",
        "face-dense/latency.csv": "1fffa6b43623c25c2832a7e3e81fa92fa526be777b25e89144fe40ce8164ad26",
        "face-dense/predictions.csv": "94b2874b52cc1d2675bce88e0ce627825b85346bffaece23b054915ccbbd1533",
        "face-dense/transmissions.csv": "f7b8970b7610583f60f82e86bf32e6581361157897f68dedf6dd26068b1bbeab",
        "face-dense/windows.csv": "1c71ba3a0475720167d682d6b2bcd97ce18b4992a4701f9c950baf7de1956a47",
        "summary.csv": "3f8c597e2a692c3524219171b16dabe2e49b6137d2377334b5e4b472e042da28",
    },
    "traffic_rr.yaml": {
        "summary.csv": "05596b2710a105007ee05173b82d0c83a0ab8ac6da9e70bd110094b7998bd547",
        "traffic-rr/batches.csv": "50ef8281070942e5d28a9533e1ecbfc34d507500e7fa2877be25614e15152cae",
        "traffic-rr/decisions.csv": "6bbb4a8ab1b229aa5c6b50a631c0d5d0892e8569a7b7290b2956630bdae3d27e",
        "traffic-rr/latency.csv": "3c024b1a780f732d7df7b714f5e7d254ac1f07cd229ca4eaf21861dfef3f6c0f",
        "traffic-rr/predictions.csv": "94b2874b52cc1d2675bce88e0ce627825b85346bffaece23b054915ccbbd1533",
        "traffic-rr/transmissions.csv": "63ec187d06dabd98e96759d6c314f95ea1de7efdf50c59775b4f3c6b38b67f1a",
        "traffic-rr/windows.csv": "13b6bcc941d940c1be40b38d07017059dcbf408f4627d342934f9e1228db96d4",
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_outputs_match_golden_digests(tmp_path, capsys, name):
    config = CONFIG_DIR / name
    if name in INLINE:
        config = tmp_path / name
        config.write_text(yaml.safe_dump(INLINE[name]))
    assert main([COMMANDS[name], "--config", str(config), "--out", str(tmp_path)]) == 0
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*.csv"))
    }
    assert digests == GOLDEN[name]
