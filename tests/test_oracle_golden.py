"""Golden oracle latencies.

``tests/data/oracle_latencies.json`` holds the modeled latencies the
:class:`~repro.serve.cluster.LatencyOracle` returned when every pricing
forward still ran the full NumPy numerics.  The key set is one scene
(``minkunet_0.5x_kitti``, seed 7, scale 0.15, the TorchSparse preset)
priced on both device specs, at every rung of the brownout QoS ladder
(full, int8, half-res), cold and warm, for one frame and for batches of
two and four, in the order the JSON lists the batch sizes.  Price-only
pricing must reproduce every value exactly (``==``): the file is an
equivalence oracle and is never regenerated.
"""

import json
from pathlib import Path

import pytest

from repro.core.engine import BaseEngine, EngineConfig
from repro.gpu.device import GPU_REGISTRY
from repro.robust.brownout import BrownoutConfig
from repro.serve.cluster import LatencyOracle

GOLDEN = Path(__file__).parent / "data" / "oracle_latencies.json"
DEVICES = ("2080ti", "3090")
BATCH_SIZES = (1, 2, 4)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_oracle_reproduces_full_numerics_latencies(golden):
    ladder = BrownoutConfig().ladder
    oracle = LatencyOracle(
        BaseEngine(config=EngineConfig.torchsparse()),
        scale=golden["scale"],
        seed=golden["seed"],
    )
    got = {}
    for n in BATCH_SIZES:
        for dev in DEVICES:
            for level in range(ladder.floor + 1):
                quality = ladder.quality_at(level)
                for warm in (False, True):
                    key = (
                        f"{dev}|n{n}|{'warm' if warm else 'cold'}|"
                        f"{ladder.rung_name(level)}"
                    )
                    got[key] = oracle.batch_latency(
                        golden["model"], GPU_REGISTRY[dev], n, warm=warm,
                        quality=quality,
                    )
    assert set(got) == set(golden["latencies"])
    mismatched = {
        k: (got[k], v) for k, v in golden["latencies"].items() if got[k] != v
    }
    assert not mismatched


def test_golden_key_set_spans_every_axis(golden):
    keys = [k.split("|") for k in golden["latencies"]]
    assert {k[0] for k in keys} == set(DEVICES)
    assert {k[1] for k in keys} == {f"n{n}" for n in BATCH_SIZES}
    assert {k[2] for k in keys} == {"cold", "warm"}
    assert {k[3] for k in keys} == set(BrownoutConfig().ladder.rung_names())
